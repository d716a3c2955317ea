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
* invertibility, reverse(phi(rho)) = c rho for the pair's constant c: on e_I
  and on x_a e_I.

Each identity that goes through a transform also needs that transform to be
C-infinity-linear, checked as phi(x_a e_I) = x_a phi(e_I) and
phi(x_a s_i) = x_a phi(s_i).  These Leibniz and linearity instances are the
side conditions of a check.

Every instance is built from tables made once per pair: d_H of each
monomial, the signed monomial s . e_I for each frame section s (made from
``contract_sign``: E_k removes generator k, e^k puts it in front), four bracket
tables (``courant_brackets``: frame x frame, dual sections x dual sections,
and (x_a s_i) x frame and frame x (x_a s_j) for each coordinate), the frame
pairings, and the transform columns and e^(+-F) that ``duality`` caches on
the pair.  x_a e_I, d_H(x_a e_I) and x_a phi(e_I) are built once and shared
by every check that uses them.  The expected side of a Leibniz rule is built
on the coordinate tuple of x_a [s_i, s_j], with no section or form made for
it, and a zero test is an identity test against the shared ``ZERO``.  The
actions of frame sections and brackets are {mask: CScalar} dicts, not forms,
and residuals are collected from such dicts (a form's ``coeffs``).  A
residual is summed by ``scalar.signed_sum``, the like-term collector behind
``sadd``, so what cancels here is what cancels in any sum.  An instance whose
residual cancels structurally holds for every base point; the others are
evaluated together, at every sample point, in one ``evaluate_points`` call,
each shared residual once.
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .scalar import CZERO, CScalar, ZERO, signed_sum, var
from .exterior import (Form, FrameVector, contract, contract_sign, eval_complex_points,
                       wedge)
from .bundle import exterior_derivative, twisted_derivative
from .courant import Section, courant_brackets, pairing, section_basis
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


def _sum(terms):
    """sign * c summed over (sign, CScalar) pairs: the CScalar that ``sadd``
    makes of the signed parts, with a negated sum spread over its terms, so
    a term and its negative cancel; each part is one ``signed_sum``."""
    re, im = [], []    # (sign, term) units
    for sign, c in terms:
        for part, units in ((c.re, re), (c.im, im)):
            if part is ZERO:
                continue
            if sign > 0:
                units.append((1, part))
            else:
                units.extend((-1, t) for t in (part.args if part.kind == "add" else (part,)))
    return CScalar(signed_sum(re), signed_sum(im))


def _form_residual(terms):
    """The coefficients of sign * form summed over (sign, coeffs) pairs, each
    coeffs a form's {mask: CScalar} dict, that do not cancel structurally."""
    by_mask = defaultdict(list)
    for sign, coeffs in terms:
        for mask, c in coeffs.items():
            by_mask[mask].append((sign, c))
    return [c for c in map(_sum, by_mask.values()) if not c.is_zero()]


def _coordinate_residual(a, b):
    """The coordinates of a - b, for coordinate tuples of two sections, that
    do not cancel structurally."""
    diffs = [_sum(((1, x), (-1, y))) for x, y in zip(a, b)
             if not (x is y is CZERO or x.is_zero() and y.is_zero())]
    return [d for d in diffs if not d.is_zero()]


def _add_at(coords, k, c):
    """Add c at coordinate k as ``Section`` arithmetic does: a zero takes c."""
    a = coords[k]
    coords[k] = c if a.is_zero() else a + c


def _transform(form, images):
    """sum_I c_I images[I] for form = sum_I c_I e_I."""
    coframe = images[0].coframe
    return Form(coframe, dict(enumerate(_combine(
        form.coeffs.items(), [image.coeffs for image in images], 1 << coframe.dim))))


def _combine(weights, columns, size):
    """sum_k w_k columns[k] over (k, w_k) pairs, as a list of ``size``
    CScalars; a column is a dict {index: CScalar}."""
    out = [[] for _ in range(size)]
    for k, w in weights:
        for r, c in columns[k].items():
            out[r].append((1, w * c))
    return [_sum(t) if t else CZERO for t in out]


def _frame_action(m):
    """For each frame section s and each mask, (mask', sign) with
    s . e_mask = sign e_mask', or None where the action is zero: E_k removes
    generator k (i_(E_k)) and e^k puts it in front (e^k ^), each with the
    sign of moving generator k to the front."""
    masks = range(1 << m)
    vectors = [tuple([(mask ^ 1 << k, contract_sign(mask, k)) if mask >> k & 1 else None
                      for mask in masks]) for k in range(m)]
    covectors = [tuple([None if mask >> k & 1 else (mask | 1 << k, contract_sign(mask, k))
                        for mask in masks]) for k in range(m)]
    return tuple(vectors + covectors)


def _act(row, coeffs):
    """Frame section with action row ``row`` acting on the form with
    coefficients ``coeffs``, as a {mask: CScalar} dict; distinct masks have
    distinct images, so nothing accumulates."""
    out = {}
    for mask, c in coeffs.items():
        hit = row[mask]
        if hit is not None:
            out[hit[0]] = c if hit[1] > 0 else -c
    return out


def _act_sections(table, coords, coframe):
    """Section with coordinates ``coords`` acting on each e_mask, by mask, as
    {mask: CScalar} dicts."""
    live = [(row, c) for row, c in zip(table, coords) if not c.is_zero()]
    return [{hit[0]: c if hit[1] > 0 else -c
             for row, c in live if (hit := row[mask]) is not None}
            for mask in range(1 << coframe.dim)]


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
    sections = _section_columns(pair)
    scols = [s.coordinates() for s in sections]
    dh = [twisted_derivative(e, chart) for e in monomials]
    brackets = courant_brackets(basis, basis, chart)
    coords = [[b.coordinates() for b in row] for row in brackets]
    table = _frame_action(m)
    sign = round(reverse_sign(pair).real)
    pairings = [[pairing(a, b) for b in basis] for a in basis]
    twice = [[p * CScalar.of(2) for p in row] for row in pairings]

    frame = defaultdict(list)
    side = defaultdict(list)
    # the side conditions, on the multiples of each base coordinate x
    form_linear, section_linear, leibniz = [], [], []
    for v in chart.base_vars:
        x = CScalar(var(v))
        dx = exterior_derivative(Form.scalar(cof, var(v)), chart)
        dx_dual = exterior_derivative(Form.scalar(dcof, var(v)), dual)
        # x e_I, d_H(x e_I) and x phi(e_I) are built once, for every check
        for mask, e in enumerate(monomials):
            xe, image = Form(cof, {mask: x}), cols[mask].scale(x)
            dh_xe = twisted_derivative(xe, chart)
            form_linear.append(_form_residual([(1, dualize_form(xe, pair).coeffs),
                                                (-1, image.coeffs)]))
            side["transform-intertwines-differentials"].append(_form_residual(
                [(1, _transform(dh_xe, cols).coeffs),
                 (-1, twisted_derivative(image, dual).coeffs)]))
            side["spinor-bracket-oracle"].append(_form_residual(
                [(1, dh_xe.coeffs), (-1, wedge(dx, e).coeffs), (-1, dh[mask].scale(x).coeffs)]))
            side["transform-invertible"].append(_form_residual(
                [(1, dualize_form_reverse(image, pair).coeffs), (-sign, xe.coeffs)]))
        scaled = [s.scale(x) for s in basis]
        section_linear += [_coordinate_residual(dualize_section(s, pair).coordinates(),
                                                [x * c for c in col])
                           for s, col in zip(scaled, scols)]
        # the bracket's Leibniz rules on (x s_i, s_j) and (s_i, x s_j), each
        # expected side built on the coordinates of x [s_i, s_j]
        along = [contract(s.x, dx).coeff(0) for s in basis]    # pi(s)(x)
        at_dx = [(m + mask.bit_length() - 1, c) for mask, c in dx.coeffs.items()]
        left = courant_brackets(scaled, basis, chart)
        right = courant_brackets(basis, scaled, chart)
        for i, row in enumerate(coords):
            for j, frame_coords in enumerate(row):
                # a structurally zero multiple of a section is skipped
                bracket = [c if c.is_zero() else c * x for c in frame_coords]
                expected = list(bracket)
                if not along[j].is_zero():
                    _add_at(expected, i, -along[j])
                if not twice[i][j].is_zero():
                    for k, c in at_dx:
                        _add_at(expected, k, c * twice[i][j])
                leibniz.append(_coordinate_residual(left[i][j].coordinates(), expected))
                if not along[i].is_zero():
                    _add_at(bracket, j, along[i])
                leibniz.append(_coordinate_residual(right[i][j].coordinates(), bracket))
        # phi preserves the anchor on x, and phi(dx) = dx
        name = "section-transform-bracket"
        for i, image in enumerate(sections):
            side[name].append(_coordinate_residual(
                (contract(image.x, dx_dual).coeff(0),), (along[i],)))
        side[name].append(_coordinate_residual(
            dualize_section(Section(FrameVector.zero(cof), dx), pair).coordinates(),
            Section(FrameVector.zero(dcof), dx_dual).coordinates()))

    name = "transform-intertwines-differentials"
    for mask in range(nforms):
        frame[name].append(_form_residual([(1, _transform(dh[mask], cols).coeffs),
                                           (-1, twisted_derivative(cols[mask], dual).coeffs)]))
    side[name] += form_linear

    name = "section-transform-orthogonal"
    frame[name] = [_coordinate_residual((pairing(a, b),), (p,))
                   for a, row in zip(sections, pairings) for b, p in zip(sections, row)]
    side[name] += section_linear

    name = "section-transform-bracket"
    # a structurally zero weight or column entry adds nothing
    scol_dicts = [{r: c for r, c in enumerate(col) if not c.is_zero()} for col in scols]
    dual_brackets = courant_brackets(sections, sections, dual)
    for frame_row, dual_row in zip(coords, dual_brackets):
        for c, b in zip(frame_row, dual_row):
            lhs = _combine([(k, w) for k, w in enumerate(c) if not w.is_zero()], scol_dicts, 2 * m)
            frame[name].append(_coordinate_residual(lhs, b.coordinates()))
    side[name] += leibniz + section_linear

    name = "clifford-compatibility"
    for i in range(2 * m):
        for mask in range(nforms):
            hit = table[i][mask]
            lhs = [] if hit is None else [(hit[1], cols[hit[0]].coeffs)]
            rhs = sections[i].act(cols[mask]).coeffs
            frame[name].append(_form_residual(lhs + [(-1, rhs)]))
    side[name] += form_linear + section_linear

    # [s_i, s_j] . e_I - (d_H(s_i . s_j . e_I) + s_i . d_H(s_j . e_I)
    #                    - s_j . d_H(s_i . e_I) - s_j . s_i . d_H e_I)
    name = "spinor-bracket-oracle"
    acted = [[_act(row, d.coeffs) for d in dh] for row in table]   # s_i . d_H e_L
    for i in range(2 * m):
        for j in range(2 * m):
            bracket_acts = _act_sections(table, coords[i][j], cof)
            for mask in range(nforms):
                terms = [(1, bracket_acts[mask])]
                hit_j = table[j][mask]
                if hit_j is not None:
                    inner, sj = hit_j
                    hit_i = table[i][inner]
                    if hit_i is not None:
                        terms.append((-sj * hit_i[1], dh[hit_i[0]].coeffs))
                    terms.append((-sj, acted[i][inner]))
                hit_i = table[i][mask]
                if hit_i is not None:
                    terms.append((hit_i[1], acted[j][hit_i[0]]))
                terms.append((1, _act(table[j], acted[i][mask])))
                frame[name].append(_form_residual(terms))
    side[name] += leibniz

    name = "transform-invertible"
    for mask, e in enumerate(monomials):
        frame[name].append(_form_residual([(1, dualize_form_reverse(cols[mask], pair).coeffs),
                                           (-sign, e.coeffs)]))
    side[name] += form_linear

    return _evaluate(frame, side, points)


def _evaluate(frame, side, points):
    """Worst residual of each check, from one evaluation of the coefficients
    that did not cancel structurally; a residual that several checks share
    is queued once."""
    live, spans = [], {}
    for group in (*frame.values(), *side.values()):
        for residual in group:
            if residual and id(residual) not in spans:
                spans[id(residual)] = (len(live), len(live) + len(residual))
                live.extend(residual)
    mags = [max(abs(z) for z in zs) for zs in eval_complex_points(live, points)]
    out = {}
    for name, group in frame.items():
        worst = 0.0
        for residual in group + side[name]:
            if residual:
                worst = max(worst, *mags[slice(*spans[id(residual)])])
        out[name] = Certified(worst, len(group), sum(not r for r in group),
                              len(side[name]), sum(not r for r in side[name]))
    return out
