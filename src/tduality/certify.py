"""Frame certificate of the transform identities of a dual pair.

The transforms of a dual pair are C-infinity(B)-linear, the twisted
differential obeys d_H(f rho) = df ^ rho + f d_H rho, and the twisted
(Dorfman) bracket obeys the Leibniz rules
[v, f w] = f [v, w] + (pi(v) f) w and
[f v, w] = f [v, w] - (pi(w) f) v + 2 <v, w> df.
So each identity below holds for every invariant input once it holds on the
frame, and on the coordinate multiples x_a (frame) that carry the Leibniz
terms:

* intertwining, phi(d_H rho) = d_Ht phi(rho): on the 2^m monomials e_I and on
  x_a e_I;
* orthogonality, <phi v, phi w> = <v, w>: on the (2m)^2 pairs of frame
  sections (``section_basis``);
* bracket preservation, phi [v, w] = [phi v, phi w]~: on the (2m)^2 frame
  pairs, with the bracket's Leibniz rules on (x_a s_i, s_j) and
  (s_i, x_a s_j), phi preserving the anchor on x_a, and phi(dx^a) = dx^a;
* Clifford compatibility, phi(v . rho) = phi(v) . phi(rho): on the 2m frame
  sections times the 2^m monomials;
* the spinor-bracket oracle, [v, w]_H . rho = [[d_H, v], w] . rho: on frame
  times frame times monomials, with the Leibniz rules of d_H and of the
  bracket;
* invertibility, reverse(phi(rho)) = c rho for the pair's exact constant c
  (``duality.reverse_sign``; 0 where it has none): on e_I and on x_a e_I.

Each identity that goes through a transform also needs that transform to be
C-infinity-linear, checked as phi(x_a e_I) = x_a phi(e_I) and
phi(x_a s_i) = x_a phi(s_i).  These Leibniz and linearity instances are the
side conditions of a check.

Every instance is built from tables made once per pair: d_H of each
monomial, the signed monomial s . e_I for each frame section s (the action
table ``exterior.frame_action(m)``, one per m: E_k removes generator k, e^k
puts it in front),
two chart-side bracket passes (``courant_brackets``: the frame and every
x_a s_i against the frame, frame x frame in the first 2m rows and the left
Leibniz rules in the later row blocks; the frame against every x_a s_j, the
right ones by column block) and dual sections x dual sections, two pairing
tables (the frame's sums 2 <s_i, s_j> and the dual sections'
``pairings``), and the transform columns and e^(+-F) that ``duality``
caches on the pair.  x_a e_I, d_H(x_a e_I) and x_a phi(e_I) are built once
and shared by every check that uses them.  A form is read as its {mask:
CScalar} ``coeffs`` and a section once as the {index: CScalar} dict
of its coordinates that are not structurally zero (X_1..X_m, xi_1..xi_m,
``Section._coordinates``), the dict that a bracket-table entry already is;
the actions of sections (``exterior.clifford``, on a unit monomial too, or
one unscaled row of it, ``act_row``, for a frame section), the transforms
of the frame's images and the expected side of a Leibniz rule are built as
such dicts,
summed key by key by ``exterior._accumulate``, and an anchor pi(s)(x) is
the scalar entry of ``exterior.clifford``.  ``_form_residual`` collects
every residual from signed dicts of either kind in one dict, as
``Form.__sub__`` does.  A zero test is an identity test against the shared
``ZERO``.  Equal sides of opposite sign, and oracle instances of empty
terms, are zero unsummed (a fast path: the sum cancels a - a too).  An
instance whose residual cancels structurally holds for every base point;
on the shipped pairs every one does.  The others are evaluated together,
at every sample point, in one ``exterior._eval_array`` call, each shared
residual once.
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

import numpy as np

from .scalar import CScalar, CZERO, var
from .exterior import (Form, FrameVector, _accumulate, _eval_array, act_row, clifford,
                       frame_action, wedge)
from .bundle import exterior_derivative, twisted_derivative
from .courant import (Section, _HALF, _pairing_sums, courant_brackets, pairings,
                      section_basis)
from .duality import (_form_columns, _section_columns, dualize_form,
                      dualize_form_reverse, dualize_section, reverse_sign)

__all__ = ["Certified", "frame_certificate"]


class Certified(NamedTuple):
    """Worst residual of one identity over its frame instances and side
    conditions, with how many of each cancelled structurally."""

    residual: float
    frame: int
    frame_zero: int
    side: int
    side_zero: int

    @property
    def notes(self):
        return (f"frame: {self.frame} instances, {self.frame_zero} structurally zero; "
                f"side conditions: {self.side} instances, "
                f"{self.side_zero} structurally zero")


def _form_residual(terms):
    """The coefficients of sign * coeffs summed over (sign, coeffs) pairs, sign
    +1 or -1, that do not cancel structurally, collected by ``_accumulate``;
    each coeffs is a {key: CScalar} dict, a form's by mask or a section's
    coordinates by index."""
    if len(terms) == 2 and terms[0][0] == -terms[1][0] and terms[0][1] == terms[1][1]:  # a - a
        return []
    out = {}
    for sign, coeffs in terms:
        for key, c in coeffs.items():
            _accumulate(out, key, c, sign)
    return list(out.values())


def _transform(weights, columns):
    """sum_k w_k columns[k] for the weights {k: w_k}, as a {key: CScalar}
    dict summed by ``_accumulate``; a column is such a dict too."""
    out = {}
    for k, w in weights.items():
        for r, c in columns[k].items():
            _accumulate(out, r, w * c)
    return out


def frame_certificate(pair, points):
    """{check name: Certified} for the six transform identities of the pair:
    ``transform-intertwines-differentials``, ``section-transform-orthogonal``,
    ``section-transform-bracket``, ``clifford-compatibility``,
    ``spinor-bracket-oracle`` and ``transform-invertible``."""
    chart, dual = pair.chart, pair.dual
    cof, dcof = chart.coframe, dual.coframe
    m, nforms = cof.dim, 1 << cof.dim
    monomials = [Form(cof, {mask: CScalar.one()}) for mask in range(nforms)]
    basis = section_basis(cof)
    cols = _form_columns(pair)
    fcols = [c.coeffs for c in cols]
    sections = _section_columns(pair)
    scols = [s._coordinates() for s in sections]
    dh = [twisted_derivative(e, chart) for e in monomials]
    table = frame_action(m)
    try:
        constant = reverse_sign(pair)    # reverse(phi(rho)) = constant rho
    except ValueError:    # no nonzero global constant: reverse(phi(rho)) is left whole
        constant = None
    twice = _pairing_sums(basis, basis)    # 2 <s_i, s_j>
    xs = [CScalar(var(v)) for v in chart.base_vars]
    scaled_all = [s.scale(x) for x in xs for s in basis]    # a block of 2m per x
    left_all = courant_brackets(basis + scaled_all, basis, chart)   # frame, then (x s_i, s_j)
    right_all = courant_brackets(basis, scaled_all, chart)          # (s_i, x s_j)
    coords = left_all[:2 * m]

    frame = defaultdict(list)
    side = defaultdict(list)
    # the side conditions, on the multiples of each base coordinate x
    form_linear, section_linear, leibniz = [], [], []
    for lo, x in zip(range(0, len(scaled_all), 2 * m), xs):    # x's block of scaled_all
        dx = exterior_derivative(Form.scalar(cof, x), chart)
        dx_dual = exterior_derivative(Form.scalar(dcof, x), dual)
        # x e_I, d_H(x e_I) and x phi(e_I) are built once, for every check
        for mask, e in enumerate(monomials):
            xe, image = Form(cof, {mask: x}), cols[mask].scale(x)
            dh_xe = twisted_derivative(xe, chart)
            form_linear.append(_form_residual([(1, dualize_form(xe, pair).coeffs),
                                                (-1, image.coeffs)]))
            side["transform-intertwines-differentials"].append(_form_residual(
                [(1, _transform(dh_xe.coeffs, fcols)),
                 (-1, twisted_derivative(image, dual).coeffs)]))
            side["spinor-bracket-oracle"].append(_form_residual(
                [(1, dh_xe.coeffs), (-1, wedge(dx, e).coeffs), (-1, dh[mask].scale(x).coeffs)]))
            side["transform-invertible"].append(_form_residual(
                [(1, dualize_form_reverse(image, pair).coeffs),
                 (-1, {} if constant is None else {mask: x * constant})]))
        section_linear += [_form_residual([(1, dualize_section(s, pair)._coordinates()),
                                           (-1, {k: x * c for k, c in col.items()})])
                           for s, col in zip(scaled_all[lo:lo + 2 * m], scols)]
        # the bracket's Leibniz rules on (x s_i, s_j) and (s_i, x s_j), each
        # expected side built on the coordinates of x [s_i, s_j]
        along = [clifford(table, s.x.coeffs, dx.coeffs).get(0, CZERO) for s in basis]  # pi(s)(x)
        dx_section = Section(FrameVector.zero(cof), dx)
        at_dx = dx_section._coordinates().items()
        left = left_all[2 * m + lo:4 * m + lo]    # right_all's block is its columns lo..
        for i, (row, right) in enumerate(zip(coords, right_all)):
            for j, frame_coords in enumerate(row):
                bracket = {k: c * x for k, c in frame_coords.items()}
                expected = dict(bracket)
                if not along[j].is_zero():
                    _accumulate(expected, i, along[j], -1)
                if not twice[i][j].is_zero():
                    for k, c in at_dx:
                        _accumulate(expected, k, c * twice[i][j])
                leibniz.append(_form_residual([(1, left[i][j]), (-1, expected)]))
                if not along[i].is_zero():
                    _accumulate(bracket, j, along[i])
                leibniz.append(_form_residual([(1, right[lo + j]), (-1, bracket)]))
        # phi preserves the anchor on x, and phi(dx) = dx
        name = "section-transform-bracket"
        for image, pi in zip(sections, along):
            pi_dual = clifford(table, image.x.coeffs, dx_dual.coeffs).get(0, CZERO)
            side[name].append(_form_residual([(1, {0: pi_dual}), (-1, {0: pi})]))
        side[name].append(_form_residual(
            [(1, dualize_section(dx_section, pair)._coordinates()),
             (-1, Section(FrameVector.zero(dcof), dx_dual)._coordinates())]))

    name = "transform-intertwines-differentials"
    for mask in range(nforms):
        frame[name].append(_form_residual([(1, _transform(dh[mask].coeffs, fcols)),
                                           (-1, twisted_derivative(cols[mask], dual).coeffs)]))
    side[name] += form_linear

    name = "section-transform-orthogonal"
    frame[name] = [_form_residual([(1, {0: p_dual}), (-1, {0: t * _HALF})])
                   for dual_row, row in zip(pairings(sections, sections), twice)
                   for p_dual, t in zip(dual_row, row)]
    side[name] += section_linear

    name = "section-transform-bracket"
    dual_brackets = courant_brackets(sections, sections, dual)
    for frame_row, dual_row in zip(coords, dual_brackets):
        for c, b in zip(frame_row, dual_row):
            frame[name].append(_form_residual([(1, _transform(c, scols)), (-1, b)]))
    side[name] += leibniz + section_linear

    name = "clifford-compatibility"
    for i in range(2 * m):
        for mask in range(nforms):
            hit = table[i][mask]
            lhs = [] if hit is None else [(hit[1], cols[hit[0]].coeffs)]
            rhs = clifford(table, scols[i], fcols[mask])
            frame[name].append(_form_residual(lhs + [(-1, rhs)]))
    side[name] += form_linear + section_linear

    # [s_i, s_j] . e_I - (d_H(s_i . s_j . e_I) + s_i . d_H(s_j . e_I)
    #                    - s_j . d_H(s_i . e_I) - s_j . s_i . d_H e_I)
    name = "spinor-bracket-oracle"
    dhc = [d.coeffs for d in dh]
    acted = [[act_row(row, d) for d in dhc] for row in table]   # s_i . d_H e_L
    for i in range(2 * m):
        row_i, acted_i = table[i], acted[i]
        for j in range(2 * m):
            row_j, acted_j = table[j], acted[j]
            for mask, e in enumerate(monomials):    # empty dicts are left out
                acts = coords[i][j] and clifford(table, coords[i][j], e.coeffs)
                terms = [(1, acts)] if acts else []
                hit_j = row_j[mask]
                if hit_j is not None:
                    inner, sj = hit_j
                    hit_i = row_i[inner]
                    if hit_i is not None and dhc[hit_i[0]]:
                        terms.append((-sj * hit_i[1], dhc[hit_i[0]]))
                    if acted_i[inner]:
                        terms.append((-sj, acted_i[inner]))
                hit_i = row_i[mask]
                if hit_i is not None and acted_j[hit_i[0]]:
                    terms.append((hit_i[1], acted_j[hit_i[0]]))
                if acted_i[mask] and (both := act_row(row_j, acted_i[mask])):
                    terms.append((1, both))
                frame[name].append(_form_residual(terms) if terms else [])
    side[name] += leibniz

    name = "transform-invertible"
    for mask, e in enumerate(monomials):
        frame[name].append(_form_residual([(1, dualize_form_reverse(cols[mask], pair).coeffs),
                                           (-1, {} if constant is None else {mask: constant})]))
    side[name] += form_linear

    return _evaluate(frame, side, points)


def _evaluate(frame, side, points):
    """Worst residual of each check, from one evaluation of the coefficients
    that did not cancel structurally; a residual that several checks share
    is queued once."""
    live, spans = [], {}
    for group in (*frame.values(), *side.values()):
        for residual in filter(None, group):
            if id(residual) not in spans:
                spans[id(residual)] = (len(live), len(live) + len(residual))
                live.extend(residual)
    mags = np.abs(_eval_array(live, points)).max(axis=1).tolist()
    out = {}
    for name, group in frame.items():
        worst = 0.0
        for residual in filter(None, group + side[name]):
            worst = max(worst, *mags[slice(*spans[id(residual)])])
        out[name] = Certified(worst, len(group), group.count([]),
                              len(side[name]), side[name].count([]))
    return out
