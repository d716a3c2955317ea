"""Sections of T + T*, the natural pairing, and the twisted Courant bracket.

Sections are pairs (X, xi) of a frame vector and a 1-form over a chart
coframe, with invariant (base-variable) coefficients; ``Section`` is a
``__slots__`` class, immutable by convention.  The bracket

    [X + xi, Y + eta] = [X, Y] + L_X eta - i_Y d xi + i_X i_Y H

is evaluated with the chart structure equations.  ``courant_brackets`` makes
a table of brackets in one pass over plain dicts: it reads each distinct
section once per call (the ``coeffs`` dicts of X and xi, the bit mask of
X's indices, the coefficients of d xi, and of i_Y H or i_X c_i), and each
entry is the {index: CScalar} dict of the bracket's coordinates, with no
form, frame vector or section of its own, its signed terms added by
``exterior._accumulate``; ``courant_bracket`` returns one entry as a
section.  Its interior products are the vector half of the Clifford kernel
``exterior.clifford`` on the coefficient dicts, with the vector-on-1-form
reader ``_pair`` for the scalars, and d's kernel ``bundle._partials`` gives
its derivatives.  ``Section.act`` is ``exterior.clifford`` on the section's
coordinate dict.  ``pairings``
makes a table of pairings the same way, off the unhalved sums 2 <v, w> of
``_pairing_sums``, which the certificate reads too.  The sign of the flux
term is the derived-bracket convention: it is the unique choice for which
the spinor identity [v, w]_H . rho = [[d_H, v], w] . rho holds with the
canonical super-commutators (inner anticommutator of the two odd operators,
outer plain commutator of the even result with the odd Clifford action),
and the unique choice under which the duality section transform preserves
brackets given the package's F and dual-flux conventions.  The opposite flux
sign is common in the literature; it corresponds to H -> -H throughout.

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

from .scalar import CZERO, CScalar, rat
from .exterior import (Form, FrameVector, _accumulate, _eval_array, clifford, contract,
                       frame_action)
from .bundle import _partials, exterior_derivative, form_residual

__all__ = [
    "Section", "pairings", "split_pairing_matrix", "courant_bracket", "courant_brackets",
    "lift_splitting_residual", "section_basis",
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
        """Clifford action (X + xi) . rho, by ``exterior.clifford``.  Kept for
        the tests and the dense-points workload of ``perfbench`` (ROADMAP 1b)."""
        cof = self.x.coframe
        if rho.coframe is not cof and rho.coframe != cof:
            raise ValueError("coframe mismatch")
        return Form(rho.coframe, clifford(frame_action(cof.dim), self._coordinates(), rho.coeffs))

    def _coordinates(self):
        """The coordinates that are not structurally zero, as an {index:
        CScalar} dict: X_k at k and xi_k at m + k."""
        m, out = self.x.coframe.dim, dict(self.x.coeffs)
        for mask, c in self.xi.coeffs.items():
            out[m + mask.bit_length() - 1] = c
        return out

    def coordinates(self):
        """Symbolic components (X_1..X_m, xi_1..xi_m)."""
        get = self.xi.coeffs.get
        return self.x.components + tuple([get(1 << i, CZERO) for i in range(self.x.coframe.dim)])

    def eval_vector(self, point):
        """Numeric components (X_1..X_m, xi_1..xi_m).  Kept for the tests
        and ``perfbench/tracer.py``, which wraps it by name (ROADMAP 1a)."""
        return _eval_array(self.coordinates(), (point,))[:, 0]

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


def _pairing_sums(vs, ws):
    """The table of 2 <v, w> = eta(X) + xi(Y), v in vs by row and w in ws by
    column, reading each distinct section's vector and covector
    coefficients once per call.  An entry sums its terms left to right in
    ascending generator index, X against eta before Y against xi, skipping a
    term with a structurally zero factor; with no term it is ``CZERO``."""
    both, reads = (*vs, *ws), {}    # reads by section id: ({k: X^k}, {k: xi_k})
    for s in both:
        if id(s) not in reads:
            if s.x.coframe is not both[0].x.coframe and s.x.coframe != both[0].x.coframe:
                raise ValueError("chart mismatch")
            xi = {bit.bit_length() - 1: c for bit, c in s.xi.coeffs.items()}
            reads[id(s)] = (s.x.coeffs, xi)
    cols = [reads[id(w)] for w in ws]
    table = []
    for v in vs:
        x, xi = reads[id(v)]
        row = []
        for y, eta in cols:
            total = CZERO
            for i in sorted(x.keys() & eta.keys() | y.keys() & xi.keys()):
                for a, b in ((x.get(i), eta.get(i)), (y.get(i), xi.get(i))):
                    if a is not None and b is not None:
                        term = a * b
                        total = term if total.is_zero() else total + term
            row.append(total)
        table.append(row)
    return table


def pairings(vs, ws):
    """The table of pairings <X+xi, Y+eta> = (eta(X) + xi(Y)) / 2, v in vs
    by row and w in ws by column: the sums of ``_pairing_sums`` halved."""
    return [[s * _HALF for s in row] for row in _pairing_sums(vs, ws)]


def split_pairing_matrix(m):
    """Matrix of the pairing on the 2m section coordinates (X, xi) of
    section_basis: off-diagonal halves."""
    out = np.zeros((2 * m, 2 * m))
    out[:m, m:] = out[m:, :m] = 0.5 * np.eye(m)
    return out


def _pair(x, coeffs):
    """i_X of a 1-form, for X's {index: CScalar} ``coeffs`` and the form's
    {mask: CScalar} coefficients: what ``contract`` leaves at mask 0, or None
    where that is empty or cancels structurally."""
    total = None
    for i, a in x.items():
        c = coeffs.get(1 << i)
        if c is not None:
            term = c * a
            total = term if total is None else total + term
    return None if total is None or total.is_zero() else total


def courant_bracket(v, w, chart):
    """[X+xi, Y+eta] = [X,Y] + L_X eta - i_Y d xi + i_X i_Y H as a Section:
    the ``courant_brackets`` entry of v and w, its vector part at the keys
    below m.  Kept for the tests and ``perfbench/tracer.py``, which wraps it
    by name (ROADMAP 1a)."""
    cof, m = chart.coframe, chart.coframe.dim
    entry = courant_brackets([v], [w], chart)[0][0]
    return Section(FrameVector(cof, {b: c for b, c in entry.items() if b < m}),
                   Form(cof, {1 << k - m: c for k, c in entry.items() if k >= m}))


def courant_brackets(vs, ws, chart):
    """The table of brackets [v, w], v in vs by row and w in ws by column.
    An entry is the {index: CScalar} dict of the bracket's coordinates that
    are not structurally zero, X_k at k in ascending k, then xi_k at m + k,
    with the trees and key order of the Section arithmetic it replaced:
    [X, Y] where X and Y are both nonzero, then L_X eta - i_Y d xi
    + i_X i_Y H.  In L_X eta = d(i_X eta) + i_X d eta, the d is skipped
    where i_X eta is zero or a rational constant, as it is for frame
    sections, and X(f) is skipped for a rational component f; X(f) is
    ``_pair`` on the ``bundle._partials`` of f along X's indices only; the
    other interior products are ``exterior.clifford`` on coefficient dicts."""
    cof, bases = chart.coframe, chart.base_bits
    m, table = cof.dim, frame_action(cof.dim)
    reads, i_h, i_c = {}, {}, {}    # by section id
    for s in (*vs, *ws):
        if id(s) not in reads:
            if s.coframe != cof:
                raise ValueError("chart mismatch")
            x, xi = s.x.coeffs, s.xi
            d = exterior_derivative(xi, chart) if xi.coeffs else None
            varying = {b: c for b, c in x.items()
                       if not (c.re.is_rational() and c.im.is_rational())}
            # d xi is None where xi = 0 and empty where d xi = 0
            reads[id(s)] = (x, sum(1 << b for b in x), varying, xi.coeffs,
                            None if d is None else d.coeffs)
    if flux := chart.flux.coeffs:
        for w in ws:
            if id(w) not in i_h and (ih := clifford(table, w.x.coeffs, flux)):
                i_h[id(w)] = ih
    if chart.curved and any(w.x.coeffs for w in ws):
        for v in vs:
            if v.x.coeffs and id(v) not in i_c:
                i_c[id(v)] = {b: ic for b, c in chart.curved.items()
                              if (ic := clifford(table, v.x.coeffs, c.coeffs))}
    cols = [(*reads[id(w)], i_h.get(id(w))) for w in ws]
    key = {1 << k: m + k for k in range(m)}
    brackets = []
    for v in vs:
        x, xs, xv, _, d_xi = reads[id(v)]
        curv = i_c.get(id(v), {})
        row = []
        for y, ys, yv, eta, d_eta, ih in cols:
            entry = {}
            if x and y:    # e^b([X, Y]) = X(Y^b) - Y(X^b) - (i_Y i_X c_b)
                for b in range(m):
                    if b in yv and (c := _pair(x, _partials(yv[b], bases, ~xs))) is not None:
                        entry[b] = c
                    if b in xv and (c := _pair(y, _partials(xv[b], bases, ~ys))) is not None:
                        _accumulate(entry, b, c, -1)
                    if b in curv and (c := _pair(y, curv[b])) is not None:
                        _accumulate(entry, b, c, -1)
            form = {}
            if x and d_eta is not None:    # L_X eta, by the Cartan formula
                form, f = clifford(table, x, d_eta) if d_eta else {}, _pair(x, eta)
                if f is not None and not (f.re.is_rational() and f.im.is_rational()):
                    grad = _partials(f, bases)    # d(i_X eta), then i_X d eta summed in
                    for mask, c in form.items():
                        _accumulate(grad, mask, c)
                    form = grad
            if y and d_xi:    # - i_Y d xi
                for mask, c in clifford(table, y, d_xi).items():
                    _accumulate(form, mask, c, -1)
            if x and ih:    # + i_X i_Y H
                for mask, c in clifford(table, x, ih).items():
                    _accumulate(form, mask, c)
            for mask, c in form.items():
                entry[key[mask]] = c
            row.append(entry)
        brackets.append(row)
    return brackets


def lift_splitting_residual(x, xi, chart, points):
    """Max-abs residual of i_X H = d xi at the sample points.

    Its vanishing is the condition for the adjoint action of X + xi to
    preserve the splitting of T + T*, i.e. to act as an infinitesimal
    symmetry together with a B-field transform.
    """
    residual = contract(x, chart.flux) - exterior_derivative(xi, chart)
    return form_residual(residual, chart.domain, points)
