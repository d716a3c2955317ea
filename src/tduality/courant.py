"""Sections of T + T*, the natural pairing, and the twisted Courant bracket.

Sections are pairs (X, xi) of a frame vector and a 1-form over a chart
coframe, with invariant (base-variable) coefficients.  The bracket

    [X + xi, Y + eta] = [X, Y] + L_X eta - i_Y d xi + i_X i_Y H

is evaluated with the chart structure equations.  The sign of the flux term
is the derived-bracket convention: it is the unique choice for which the
spinor identity [v, w]_H . rho = [[d_H, v], w] . rho holds with the canonical
super-commutators (inner anticommutator of the two odd operators, outer
plain commutator of the even result with the odd Clifford action), and the
unique choice under which the duality section transform preserves brackets
given the package's F and dual-flux conventions.  The opposite flux sign is
common in the literature; it corresponds to H -> -H throughout.

The bracket of frame vector fields is read off the structure equations
d(dx^a) = 0, d(theta_i) = c_i through
e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y); for the frame this gives
[E_a, E_b] = -sum_i c_i(E_a, E_b) E_theta_i on base generators (horizontal
lifts of coordinate fields), while fiber generators are central.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import CScalar, rat
from .exterior import (Form, FrameVector, clifford_act, contract, eval_complex,
                       eval_complex_points)
from .bundle import exterior_derivative, twisted_derivative, form_residual

__all__ = [
    "Section", "pairing", "split_pairing_matrix", "lie_bracket", "lie_derivative",
    "courant_bracket", "b_transform", "bracket_spinor_residual",
    "lift_splitting_residual", "section_basis", "section_residual",
]


@dataclass(frozen=True)
class Section:
    """X + xi in the chart frame; coefficients may be complex."""

    x: FrameVector
    xi: Form

    def __post_init__(self):
        if self.x.coframe != self.xi.coframe:
            raise ValueError("vector and covector parts must share the coframe")
        if not all(d == 1 for d in self.xi.degrees()):
            raise ValueError("covector part must have degree one")

    @property
    def coframe(self):
        return self.x.coframe

    @staticmethod
    def of(coframe, vector=None, covector=None):
        x = FrameVector.from_dict(coframe, vector or {})
        xi = Form.zero(coframe)
        for name, c in (covector or {}).items():
            xi = xi + Form.monomial(coframe, (name,), c)
        return Section(x, xi)

    @staticmethod
    def vector_basis(coframe, name):
        return Section(FrameVector.basis(coframe, name), Form.zero(coframe))

    @staticmethod
    def covector_basis(coframe, name):
        return Section(FrameVector.zero(coframe), Form.monomial(coframe, (name,)))

    def __add__(self, other):
        return Section(self.x + other.x, self.xi + other.xi)

    def __sub__(self, other):
        return Section(self.x + (-other.x), self.xi - other.xi)

    def __neg__(self):
        return Section(-self.x, -self.xi)

    def scale(self, c):
        return Section(self.x.scale(c), self.xi.scale(c))

    def conj(self):
        return Section(self.x.conj(), self.xi.conj())

    def is_zero(self):
        return self.x.is_zero() and self.xi.is_zero()

    def act(self, rho):
        """Clifford action (X + xi) . rho."""
        return clifford_act(self.x, self.xi, rho)

    def coordinates(self):
        """Symbolic components (X_1..X_m, xi_1..xi_m)."""
        m = self.coframe.dim
        return self.x.components + tuple(self.xi.coeff(1 << i) for i in range(m))

    def eval_vector(self, point):
        """Numeric components (X_1..X_m, xi_1..xi_m)."""
        return np.array(eval_complex(self.coordinates(), point), dtype=complex)

    def map_to(self, coframe, rename=None):
        return Section(self.x.map_to(coframe, rename), self.xi.map_to(coframe, rename))

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.x == other.x and self.xi == other.xi


def section_basis(coframe):
    """The 2m frame sections (E_1..E_m, e^1..e^m)."""
    vecs = [Section.vector_basis(coframe, n) for n in coframe.names]
    covs = [Section.covector_basis(coframe, n) for n in coframe.names]
    return vecs + covs


def pairing(v, w):
    """<X+xi, Y+eta> = (eta(X) + xi(Y)) / 2, a CScalar."""
    if v.coframe != w.coframe:
        raise ValueError("chart mismatch")
    total = CScalar()
    for i in range(v.coframe.dim):
        bit = 1 << i
        total = total + v.x.components[i] * w.xi.coeff(bit)
        total = total + w.x.components[i] * v.xi.coeff(bit)
    return total * CScalar.of(rat(1, 2))


def split_pairing_matrix(m):
    """Matrix of the pairing on the 2m section coordinates (X, xi) of
    section_basis: off-diagonal halves."""
    half = 0.5 * np.eye(m)
    return np.block([[np.zeros((m, m)), half], [half, np.zeros((m, m))]])


def section_residual(s, points):
    """Max over points of the largest absolute component of a section."""
    comps = eval_complex_points(s.coordinates(), points)
    return max((float(np.abs(np.array(zs, dtype=complex)).max()) for zs in zip(*comps)),
               default=0.0)


def lie_bracket(x, y, chart):
    """Lie bracket of invariant frame vector fields on the chart:
    e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y) with the structure-equation d."""
    cof = chart.coframe

    def d(c):
        return exterior_derivative(Form.scalar(cof, c), chart)

    comps = []
    for b, name in enumerate(cof.names):
        de_b = exterior_derivative(Form.monomial(cof, (name,)), chart)
        comp = (contract(x, d(y.components[b])) - contract(y, d(x.components[b]))
                - contract(y, contract(x, de_b)))
        comps.append(comp.coeff(0))
    return FrameVector(cof, tuple(comps))


def lie_derivative(x, eta, chart):
    """Cartan formula L_X eta = d(i_X eta) + i_X(d eta)."""
    return (exterior_derivative(contract(x, eta), chart)
            + contract(x, exterior_derivative(eta, chart)))


def courant_bracket(v, w, chart):
    """[X+xi, Y+eta] = [X,Y] + L_X eta - i_Y d xi + i_X i_Y H."""
    if v.coframe != chart.coframe or w.coframe != chart.coframe:
        raise ValueError("chart mismatch")
    vec = lie_bracket(v.x, w.x, chart)
    form = (lie_derivative(v.x, w.xi, chart)
            - contract(w.x, exterior_derivative(v.xi, chart))
            + contract(v.x, contract(w.x, chart.flux)))
    return Section(vec, form)


def b_transform(b, v):
    """Orthogonal map X + xi -> X + xi - i_X B for a real 2-form B.

    Relates brackets by [e^-B v, e^-B w]_H = e^-B [v, w]_{H + dB} - 0, i.e.
    the flux shifts by +dB under this bracket convention; for closed B the
    map is a Courant automorphism.
    """
    if not all(d == 2 for d in b.degrees()):
        raise ValueError("B must be a 2-form")
    return Section(v.x, v.xi - contract(v.x, b))


def bracket_spinor_residual(v, w, rho, chart, points):
    """Max-abs residual of [v,w]_H . rho = [[d_H, v], w] . rho at sample points."""

    def d_h_comm(u, sigma):
        return twisted_derivative(u.act(sigma), chart) + u.act(twisted_derivative(sigma, chart))

    lhs = courant_bracket(v, w, chart).act(rho)
    rhs = d_h_comm(v, w.act(rho)) - w.act(d_h_comm(v, rho))
    return form_residual(lhs - rhs, chart.domain, points)


def lift_splitting_residual(x, xi, chart, points):
    """Max-abs residual of i_X H = d xi at the sample points.

    Its vanishing is the condition for the adjoint action of X + xi to
    preserve the splitting of T + T*, i.e. to act as an infinitesimal
    symmetry together with a B-field transform.
    """
    residual = contract(x, chart.flux) - exterior_derivative(xi, chart)
    return form_residual(residual, chart.domain, points)
