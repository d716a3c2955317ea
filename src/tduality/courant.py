"""Sections of T + T*, the natural pairing, and the twisted Courant bracket.

Sections are pairs (X, xi) of a frame vector and a 1-form over a chart
coframe, with invariant (base-variable) coefficients; ``Section`` is a
``__slots__`` class, immutable by convention.  The bracket

    [X + xi, Y + eta] = [X, Y] + L_X eta - i_Y d xi + i_X i_Y H

is evaluated with the chart structure equations.  ``courant_brackets`` makes
a table of brackets and builds the parts that depend on one section only
(d xi, d eta, i_Y H) once per section; ``courant_bracket`` is its one-entry
case.  The sign of the flux term is the derived-bracket convention: it is
the unique choice for which the spinor identity
[v, w]_H . rho = [[d_H, v], w] . rho holds with the canonical
super-commutators (inner anticommutator of the two odd operators, outer
plain commutator of the even result with the odd Clifford action), and the
unique choice under which the duality section transform preserves brackets
given the package's F and dual-flux conventions.  The opposite flux sign is
common in the literature; it corresponds to H -> -H throughout.

The bracket of frame vector fields is read off the structure equations
d(dx^a) = 0, d(theta_i) = c_i through
e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y); for the frame this gives
[E_a, E_b] = -sum_i c_i(E_a, E_b) E_theta_i on base generators (horizontal
lifts of coordinate fields), while fiber generators are central.  d e^b is
read straight off the chart: nothing for a base generator and
``chart.curvature[theta_i]`` for a fiber generator, the same structure
equations that ``bundle.exterior_derivative`` applies.
"""
from __future__ import annotations

import numpy as np

from .scalar import CZERO, CScalar, diff, rat
from .exterior import Form, FrameVector, clifford_act, contract, eval_complex
from .bundle import exterior_derivative, form_residual

__all__ = [
    "Section", "pairing", "split_pairing_matrix", "lie_bracket",
    "courant_bracket", "courant_brackets", "lift_splitting_residual", "section_basis",
]


class Section:
    """X + xi in the chart frame; coefficients may be complex."""

    __slots__ = ("x", "xi")

    def __init__(self, x, xi):
        if x.coframe is not xi.coframe and x.coframe != xi.coframe:
            raise ValueError("vector and covector parts must share the coframe")
        for mask in xi.coeffs:
            if not mask or mask & (mask - 1):
                raise ValueError("covector part must have degree one")
        self.x = x
        self.xi = xi

    def __repr__(self):
        return f"Section(x={self.x!r}, xi={self.xi!r})"

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

    def act(self, rho):
        """Clifford action (X + xi) . rho.  Kept for the tests and the
        dense-points workload of ``perfbench`` (ROADMAP 1b)."""
        return clifford_act(self.x, self.xi, rho)

    def coordinates(self):
        """Symbolic components (X_1..X_m, xi_1..xi_m)."""
        get = self.xi.coeffs.get
        return self.x.components + tuple([get(1 << i, CZERO) for i in range(self.x.coframe.dim)])

    def eval_vector(self, point):
        """Numeric components (X_1..X_m, xi_1..xi_m).  Kept for the tests
        and ``perfbench/tracer.py``, which wraps it by name (ROADMAP 1a)."""
        return np.array(eval_complex(self.coordinates(), point), dtype=complex)

    def map_to(self, coframe):
        return Section(self.x.map_to(coframe), self.xi.map_to(coframe))

    def __eq__(self, other):
        if not isinstance(other, Section):
            return NotImplemented
        return self.x == other.x and self.xi == other.xi


def section_basis(coframe):
    """The 2m frame sections (E_1..E_m, e^1..e^m)."""
    vecs = [Section.vector_basis(coframe, n) for n in coframe.names]
    covs = [Section.covector_basis(coframe, n) for n in coframe.names]
    return vecs + covs


_HALF = CScalar.of(rat(1, 2))


def pairing(v, w):
    """<X+xi, Y+eta> = (eta(X) + xi(Y)) / 2, a CScalar; a product with a
    structurally zero factor is skipped, as is adding it."""
    cof = v.x.coframe
    if cof != w.x.coframe:
        raise ValueError("chart mismatch")
    total = CZERO
    sides = ((dict(v.x.live), w.xi.coeffs), (dict(w.x.live), v.xi.coeffs))
    for i in range(cof.dim):
        bit = 1 << i
        for x, xi in sides:
            if (a := x.get(i)) is not None and (b := xi.get(bit)) is not None:
                term = a * b
                total = term if total.is_zero() else total + term
    return total * _HALF


def split_pairing_matrix(m):
    """Matrix of the pairing on the 2m section coordinates (X, xi) of
    section_basis: off-diagonal halves."""
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = out[m:, :m] = 0.5 * np.eye(m)
    return out


def _derivative(x, f, bases):
    """X(f) = sum_a (d_a f) X^a over the base generators a, summed in
    ascending generator index; None where no term survives or the sum
    cancels structurally.  ``x`` is dict(X.live), ``bases`` the chart's
    ``base_bits`` table of (variable, index, bit)."""
    total = None
    for v, i, _ in bases:
        if (xa := x.get(i)) is None:
            continue
        dre = diff(f.re, v)
        dim = diff(f.im, v)
        if dre.is_zero() and dim.is_zero():
            continue
        term = CScalar(dre, dim) * xa
        total = term if total is None else total + term
    return None if total is None or total.is_zero() else total


def _minus(acc, c):
    """acc - c for optional CScalars (None is zero); None where the
    difference cancels structurally."""
    if c is None:
        return acc
    if acc is None:
        return -c
    total = acc - c
    return None if total.is_zero() else total


def lie_bracket(x, y, chart):
    """Lie bracket of invariant frame vector fields on the chart:
    e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y), with d e^b read off the
    structure equations and (d e^b)(X, Y) = i_Y i_X d e^b made by
    ``contract``; a term whose factor is structurally zero is skipped."""
    bases = chart.base_bits
    xs, ys, comps = dict(x.live), dict(y.live), []
    for b in range(chart.coframe.dim):
        comp = None
        if b in ys:
            comp = _derivative(xs, ys[b], bases)
        if b in xs:
            comp = _minus(comp, _derivative(ys, xs[b], bases))
        de_b = chart.curved.get(b)    # d(dx^a) = 0, d(theta_i) = c_i
        if de_b is not None:
            comp = _minus(comp, contract(y, contract(x, de_b)).coeffs.get(0))
        comps.append(CZERO if comp is None else comp)
    return FrameVector(chart.coframe, tuple(comps))


def courant_bracket(v, w, chart):
    """[X+xi, Y+eta] = [X,Y] + L_X eta - i_Y d xi + i_X i_Y H.  Kept for the
    tests and ``perfbench/tracer.py``, which wraps it by name (ROADMAP 1a)."""
    return courant_brackets([v], [w], chart)[0][0]


def courant_brackets(vs, ws, chart):
    """The table [[courant_bracket(v, w) for w in ws] for v in vs], with
    d xi, d eta and i_Y H built once per section.  Where X or Y is
    structurally zero, the terms that would be empty are skipped: [X, Y],
    L_X eta, i_Y d xi and i_X i_Y H, and the entries share one zero form and
    one zero frame vector.  In L_X eta = d(i_X eta) + i_X d eta, the d is
    skipped where i_X eta is zero or a rational constant, as it is for frame
    sections: its derivative is the empty form, which the sum returns past."""
    cof = chart.coframe
    if any(s.coframe != cof for s in (*vs, *ws)):
        raise ValueError("chart mismatch")
    flux = not chart.flux.is_zero()
    d_xi = [None if v.xi.is_zero() else exterior_derivative(v.xi, chart) for v in vs]
    d_eta = [None if w.xi.is_zero() else exterior_derivative(w.xi, chart) for w in ws]
    y_live = [not w.x.is_zero() for w in ws]
    i_h = [contract(w.x, chart.flux) if flux and y else None for w, y in zip(ws, y_live)]
    zero_form, zero_vec = Form.zero(cof), FrameVector.zero(cof)
    table = []
    for v, dv in zip(vs, d_xi):
        x_live = not v.x.is_zero()
        row = []
        for w, dw, y, iyh in zip(ws, d_eta, y_live, i_h):
            form = zero_form
            if dw is not None and x_live:    # L_X eta, by the Cartan formula
                f, form = contract(v.x, w.xi), contract(v.x, dw)
                c = f.coeffs.get(0)
                if c is not None and not (c.re.is_rational() and c.im.is_rational()):
                    form = exterior_derivative(f, chart) + form
            if dv is not None and y:
                form = form - contract(w.x, dv)
            if iyh is not None and x_live:
                form = form + contract(v.x, iyh)
            vec = lie_bracket(v.x, w.x, chart) if x_live and y else zero_vec
            row.append(Section(vec, form))
        table.append(row)
    return table


def lift_splitting_residual(x, xi, chart, points):
    """Max-abs residual of i_X H = d xi at the sample points.

    Its vanishing is the condition for the adjoint action of X + xi to
    preserve the splitting of T + T*, i.e. to act as an infinitesimal
    symmetry together with a B-field transform.
    """
    residual = contract(x, chart.flux) - exterior_derivative(xi, chart)
    return form_residual(residual, chart.domain, points)
