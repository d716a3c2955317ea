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
monomial, the signed monomial s . e_I for each frame section s, each frame
bracket, and the transform columns that ``duality`` caches on the pair.  An
instance whose residual cancels structurally holds for every base point; the
others are evaluated together, at every sample point, in one
``evaluate_points`` call.
"""
from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .scalar import CScalar, ZERO, sadd, sneg, var
from .exterior import Form, FrameVector, contract, eval_complex_points, wedge
from .bundle import exterior_derivative, twisted_derivative
from .courant import Section, courant_bracket, pairing, section_basis
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
    """sign * c summed over (sign, CScalar) pairs, one ``sadd`` per part.  A
    negated sum is spread over its terms, so a term and its negative cancel."""
    re, im = [], []
    for sign, c in terms:
        for part, out in ((c.re, re), (c.im, im)):
            if part is ZERO:
                continue
            if sign > 0:
                out.append(part)
            else:
                out.extend(sneg(t) for t in (part.args if part.kind == "add" else (part,)))
    return CScalar(sadd(*re), sadd(*im))


def _form_residual(terms):
    """Coefficients of sign * form summed over (sign, Form) pairs."""
    by_mask = defaultdict(list)
    for sign, form in terms:
        for mask, c in form.coeffs.items():
            by_mask[mask].append((sign, c))
    return [_sum(cs) for cs in by_mask.values()]


def _coordinate_residual(a, b):
    """Coordinates of a - b for coordinate tuples of two sections."""
    return [CScalar() if x.is_zero() and y.is_zero() else _sum(((1, x), (-1, y)))
            for x, y in zip(a, b)]


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
    return [_sum(t) for t in out]


def _frame_action(basis, monomials):
    """For each frame section s and each mask, (mask', sign) with
    s . e_mask = sign e_mask', or None where the action is zero; read off
    the Clifford action itself."""
    table = []
    for s in basis:
        row = []
        for e in monomials:
            image = s.act(e)
            if image.is_zero():
                row.append(None)
                continue
            ((mask, c),) = image.coeffs.items()
            if c not in (CScalar.one(), -CScalar.one()):
                raise ValueError("a frame section moved a monomial to a non-unit multiple")
            row.append((mask, 1 if c == CScalar.one() else -1))
        table.append(tuple(row))
    return tuple(table)


def _act(row, form):
    """Frame section with action row ``row`` acting on a form; distinct masks
    have distinct images, so nothing accumulates."""
    out = {}
    for mask, c in form.coeffs.items():
        hit = row[mask]
        if hit is not None:
            out[hit[0]] = c if hit[1] > 0 else -c
    return Form(form.coframe, out)


def _act_section(table, coords, mask, coframe):
    """Section with coordinates ``coords`` acting on e_mask."""
    out = {}
    for k, c in enumerate(coords):
        hit = table[k][mask]
        if hit is not None and not c.is_zero():
            out[hit[0]] = c if hit[1] > 0 else -c
    return Form(coframe, out)


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
    brackets = [[courant_bracket(a, b, chart) for b in basis] for a in basis]
    coords = [[b.coordinates() for b in row] for row in brackets]
    table = _frame_action(basis, monomials)
    sign = round(reverse_sign(pair).real)
    multiples = [(CScalar(var(v)), exterior_derivative(Form.scalar(cof, var(v)), chart),
                  exterior_derivative(Form.scalar(dcof, var(v)), dual))
                 for v in chart.base_vars]

    frame = defaultdict(list)
    side = defaultdict(list)
    # C-infinity-linearity of both transforms on coordinate multiples
    form_linear = [_form_residual([(1, dualize_form(e.scale(x), pair)),
                                   (-1, cols[mask].scale(x))])
                   for x, _, _ in multiples for mask, e in enumerate(monomials)]
    section_linear = [_coordinate_residual(
        dualize_section(s.scale(x), pair).coordinates(),
        tuple(x * c for c in scols[i]))
        for x, _, _ in multiples for i, s in enumerate(basis)]

    name = "transform-intertwines-differentials"
    for mask in range(nforms):
        frame[name].append(_form_residual([(1, _transform(dh[mask], cols)),
                                           (-1, twisted_derivative(cols[mask], dual))]))
    for x, _, _ in multiples:
        for mask, e in enumerate(monomials):
            lhs = _transform(twisted_derivative(e.scale(x), chart), cols)
            rhs = twisted_derivative(cols[mask].scale(x), dual)
            side[name].append(_form_residual([(1, lhs), (-1, rhs)]))
    side[name] += form_linear

    name = "section-transform-orthogonal"
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            frame[name].append([_sum(((1, pairing(sections[i], sections[j])),
                                      (-1, pairing(a, b))))])
    side[name] += section_linear

    name = "section-transform-bracket"
    scol_dicts = [dict(enumerate(c)) for c in scols]
    for i in range(2 * m):
        for j in range(2 * m):
            lhs = _combine(enumerate(coords[i][j]), scol_dicts, 2 * m)
            rhs = courant_bracket(sections[i], sections[j], dual).coordinates()
            frame[name].append(_coordinate_residual(lhs, rhs))
    leibniz = []
    twice = [[pairing(a, b) * CScalar.of(2) for b in basis] for a in basis]
    for x, dx, dx_dual in multiples:
        df = Section(FrameVector.zero(cof), dx)
        along = [contract(s.x, dx).coeff(0) for s in basis]    # pi(s)(x)
        scaled = [s.scale(x) for s in basis]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                # a structurally zero multiple of a section is skipped
                bracket = brackets[i][j].scale(x)
                expected = bracket
                if not along[j].is_zero():
                    expected = expected - a.scale(along[j])
                if not twice[i][j].is_zero():
                    expected = expected + df.scale(twice[i][j])
                leibniz.append(_coordinate_residual(
                    courant_bracket(scaled[i], b, chart).coordinates(),
                    expected.coordinates()))
                expected = bracket
                if not along[i].is_zero():
                    expected = expected + b.scale(along[i])
                leibniz.append(_coordinate_residual(
                    courant_bracket(a, scaled[j], chart).coordinates(),
                    expected.coordinates()))
        # phi preserves the anchor on x, and phi(dx) = dx
        for i, image in enumerate(sections):
            side[name].append([_sum(((1, contract(image.x, dx_dual).coeff(0)),
                                     (-1, along[i])))])
        image = dualize_section(df, pair)
        side[name].append(_coordinate_residual(
            image.coordinates(), Section(FrameVector.zero(dcof), dx_dual).coordinates()))
    side[name] += leibniz + section_linear

    name = "clifford-compatibility"
    for i in range(2 * m):
        for mask in range(nforms):
            hit = table[i][mask]
            lhs = [] if hit is None else [(hit[1], cols[hit[0]])]
            rhs = sections[i].act(cols[mask])
            frame[name].append(_form_residual(lhs + [(-1, rhs)]))
    side[name] += form_linear + section_linear

    # [s_i, s_j] . e_I - (d_H(s_i . s_j . e_I) + s_i . d_H(s_j . e_I)
    #                    - s_j . d_H(s_i . e_I) - s_j . s_i . d_H e_I)
    name = "spinor-bracket-oracle"
    acted = [[_act(row, d) for d in dh] for row in table]   # s_i . d_H e_L
    for i in range(2 * m):
        for j in range(2 * m):
            for mask in range(nforms):
                terms = [(1, _act_section(table, coords[i][j], mask, cof))]
                hit_j = table[j][mask]
                if hit_j is not None:
                    inner, sj = hit_j
                    hit_i = table[i][inner]
                    if hit_i is not None:
                        terms.append((-sj * hit_i[1], dh[hit_i[0]]))
                    terms.append((-sj, acted[i][inner]))
                hit_i = table[i][mask]
                if hit_i is not None:
                    terms.append((hit_i[1], acted[j][hit_i[0]]))
                terms.append((1, _act(table[j], acted[i][mask])))
                frame[name].append(_form_residual(terms))
    for x, dx, _ in multiples:
        for mask, e in enumerate(monomials):
            side[name].append(_form_residual(
                [(1, twisted_derivative(e.scale(x), chart)),
                 (-1, wedge(dx, e)), (-1, dh[mask].scale(x))]))
    side[name] += leibniz

    name = "transform-invertible"
    for mask, e in enumerate(monomials):
        frame[name].append(_form_residual([(1, dualize_form_reverse(cols[mask], pair)),
                                           (-sign, e)]))
    for x, _, _ in multiples:
        for mask, e in enumerate(monomials):
            side[name].append(_form_residual(
                [(1, dualize_form_reverse(cols[mask].scale(x), pair)),
                 (-sign, e.scale(x))]))
    side[name] += form_linear

    return _evaluate(frame, side, points)


def _evaluate(frame, side, points):
    """Worst residual of each check, from one evaluation of every residual
    coefficient that did not cancel structurally."""
    live, owner = [], []

    def collect(name, group):
        """Queue the live coefficients of a group; return how many of its
        residuals cancelled structurally."""
        zero = 0
        for residual in group:
            before = len(live)
            live.extend(c for c in residual if not c.is_zero())
            owner.extend([name] * (len(live) - before))
            zero += len(live) == before
        return zero

    counts = {name: (len(frame[name]), collect(name, frame[name]),
                     len(side[name]), collect(name, side[name]))
              for name in frame}
    worst = dict.fromkeys(frame, 0.0)
    for name, zs in zip(owner, eval_complex_points(live, points)):
        worst[name] = max(worst[name], max(abs(z) for z in zs))
    return {name: Certified(worst[name], *counts[name]) for name in frame}
