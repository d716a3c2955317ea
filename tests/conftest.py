"""Shared fixtures, and helpers that only the tests use: the random metric
and the Clifford-compatibility residual, kept as reference oracles beside
the frame certificate and the generic Buscher instance that replaced them,
the componentwise residual of a section, the term-by-term bodies of
``Form.__add__``, ``exterior_derivative``, the Lie bracket,
``courant_bracket`` and the pairing (``_reference_*``), which the one-pass
kernels must match tree for tree, the one-entry readers ``pairing`` and
``lie_bracket`` of the ``pairings`` and ``courant_brackets`` tables, the
Section-level body of ``courant_brackets`` with its Lie bracket and the
difference of optional CScalars that it used (``_reference_courant_brackets``,
``_reference_sparse_lie_bracket``, ``_reference_minus``, and ``_derivative``,
the vector-on-function body that the bracket kernel replaced), whose
sections the table's coordinate-dict entries
must match key for key and tree for tree, ``_section_of``, which reads an
entry back as a Section, the composite bodies of ``dualize_form``,
``dualize_form_reverse`` and ``dualize_section``, which the passes over the
pair's route tables must match key for key and tree for tree, the
``Section``-arithmetic Leibniz body, which the expected sides built on
sparse coordinate dicts must match residual for residual, the per-mask
action of a bracket on the unit monomials (``_reference_act_sections``),
which ``exterior.clifford`` on each monomial must match key for key and
tree for tree, the Clifford action as ``contract`` plus ``wedge``
(``_reference_clifford_act``, the body ``exterior.clifford`` replaced), which that kernel and
``Section.act`` must match key for key and tree for tree, the frame's action
table read off it, which ``exterior.frame_action``, made from contraction
signs, must equal, the mask-by-mask bodies of
``Form.map_to`` and ``fiber_integrate``, which the coframe tables must
match, the term-by-term body of ``wedge`` (a ``Form`` sum of monomial
products), which the keyed accumulator must match, the draw-by-draw body of a ``Domain`` point, which ``sample_many``'s
one ``rng.random`` call must match bit for bit, the Cartan formula
``lie_derivative`` and the B-field transform ``b_transform``, which the
reference bracket and the B-field covariance tests compare against,
``equal_at_samples``, the sampled equality of two scalars, the residual
sum with every negated part built first, with which the certificate's
residuals must agree on what cancels, the unsigned like-term collector that
``sadd`` ran before ``signed_sum``, with the flat rule for merged sums, the
general path that the shortcuts of
``sadd``, ``smul`` and ``CScalar`` must match, and the point-by-point bodies of
``double_quotient_report``, of the fiber-block checks of ``validate_pair``
and of the one-point functions that the point-list forms replaced (spinor
types, Mukai norms, the Pluecker test, integrability, the GC-structure and
metric matrices, the eigenspace ladder and its transport, the transform
matrices, type change, the bi-Hermitian transport, the tangent space of the
correspondence, transversality and the Fourier-Mukai check), which the
stacked linear algebra must match result for result, the one-action body of
``reduce_pointwise``, which the reduction of a list of actions must match
bit for bit, the ``tensordot`` body of ``random_spinor_values``, whose
draws the flattened products must match byte for byte, and the point-by-point
bodies of ``scenarios._entry_points``, ``form_residual``, ``metric_residual``
and ``exterior._eval_array``, which the whole-array reductions and the stacked
draw must match bit for bit, with the list evaluator ``eval_complex_points``
that ``_eval_array`` replaced.  ``count_python_calls``
counts the Python-level calls of a function, and ``chart_id`` names the test
parameter of a ``scenarios.CHARTS`` chart.  ``section_of`` and
``vector_from_dict`` build a section and a frame vector from components
given by generator name, and ``section_map_to`` and ``vector_map_to`` move
them to a coframe holding their generators; only the tests use them."""
import importlib
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from tduality import certify, courant, reduction
from tduality.scalar import (CZERO, CScalar, ZERO, _mul_split, _node_counts, _sum_node, diff,
                             evaluate, evaluate_points, rat, sadd, smul, sneg,
                             sym_matrix_inverse, var)
from tduality.bundle import (BundleChart, base_generator, exterior_derivative,
                             form_residual, twisted_derivative)
from tduality.exterior import (Form, FrameVector, contract, contract_sign, exp_form,
                               fiber_integrate, strip_rightmost, wedge)
from tduality.structures import (GeneralizedMetric, RANK_TOL, SymTensor,
                                 _clifford_matrices, mukai_norm)
from tduality.courant import Section, section_basis, split_pairing_matrix
from tduality.reduction import ReducedSpace, ReductionReport, _first_factor
from tduality.duality import (DualityPair, _form_columns, _section_columns,
                              dualize_form, dualize_section)
from tduality.randomgen import random_form, random_scalar


def vector_from_dict(coframe, comps):
    """The frame vector with the components {generator name: value}."""
    return FrameVector(coframe, {coframe.index(name): CScalar.of(c)
                                 for name, c in comps.items()})


def vector_map_to(x, coframe):
    """X on a coframe holding its generators, read off its ``coeffs``."""
    names = x.coframe.names
    return FrameVector(coframe, {coframe.index(names[i]): c for i, c in x.coeffs.items()})


def section_of(coframe, vector=None, covector=None):
    """X + xi from {generator name: value} components of X and of xi."""
    xi = Form(coframe, {coframe.mask_of((name,)): CScalar.of(c)
                        for name, c in (covector or {}).items()})
    return Section(vector_from_dict(coframe, vector or {}), xi)


def section_map_to(v, coframe):
    """X + xi on a coframe holding its generators."""
    return Section(vector_map_to(v.x, coframe), v.xi.map_to(coframe))


def random_metric(rng, chart, points):
    """Random invariant positive-definite metric plus 2-form.

    Built as delta + A^T A with small random A entries, so it stays positive
    definite; positivity is asserted on the given sample points.
    """
    cof = chart.coframe
    m = cof.dim
    variables = chart.base_vars
    a = [[random_scalar(rng, variables) for _ in range(m)] for _ in range(m)]
    entries = {}
    scale = rat(1, 8)
    for i in range(m):
        for j in range(i, m):
            s = sadd(*[smul(scale, a[k][i], a[k][j]) for k in range(m)])
            if i == j:
                s = sadd(rat(1), s)
            entries[(i, j)] = s
    g = SymTensor(cof, entries)
    b = random_form(rng, cof, variables, degrees=(2,), complex_coeffs=False)
    metric = GeneralizedMetric(g, b)
    for mat in g.eval_matrices(points):
        w = np.linalg.eigvalsh(mat)
        if w.min() <= 0:
            raise AssertionError("random metric lost positivity")
    return metric


def compatibility_residual(v, rho, pair, points):
    """Max-abs residual of dualize_form(v . rho) = dualize_section(v) . dualize_form(rho)."""
    lhs = dualize_form(v.act(rho), pair)
    rhs = dualize_section(v, pair).act(dualize_form(rho, pair))
    return form_residual(lhs - rhs, pair.dual.domain, points)


def section_residual(s, points):
    """Max over points of the largest absolute component of a section."""
    comps = eval_complex_points(s.coordinates(), points)
    return max((float(np.abs(np.array(zs, dtype=complex)).max()) for zs in zip(*comps)),
               default=0.0)


def _reference_form_add(a, b):
    """Form sum that adds every shared mask and then prunes the whole dict."""
    a._check(b)
    out = dict(a.coeffs)
    for mask, c in b.coeffs.items():
        out[mask] = out[mask] + c if mask in out else c
    return Form(a.coframe, out)


def _reference_map_to(form, coframe, rename=None):
    """``Form.map_to`` with each term rebuilt as a monomial on the target."""
    rename = rename or {}
    out = {}
    for mask, c in form.coeffs.items():
        names = [rename.get(n, n) for n in form.coframe.names_of(mask)]
        mono = Form.monomial(coframe, names, c)
        for m2, c2 in mono.coeffs.items():
            out[m2] = out[m2] + c2 if m2 in out else c2
    return Form(coframe, out)


def _reference_wedge(a, b):
    """``wedge`` as a ``Form`` sum of monomial products, each sign worked out
    anew by ``Form.monomial``."""
    cof, out = a.coframe, Form.zero(a.coframe)
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            names = cof.names_of(ma) + cof.names_of(mb)
            out = _reference_form_add(out, Form.monomial(cof, names, ca * cb))
    return out


def _reference_fiber_integrate(rho, coframe_tags=("fiber",)):
    """``fiber_integrate`` with each term's sign worked out anew."""
    vol = rho.coframe.tag_mask(*coframe_tags)
    out = {}
    for mask, c in rho.coeffs.items():
        if mask & vol != vol:
            continue
        rest, term = strip_rightmost(mask, c, vol)
        out[rest] = out[rest] + term if rest in out else term
    return Form(rho.coframe, out)


def _reference_sample(domain, rng):
    """One point of ``domain``, one ``rng.uniform`` call per draw."""
    return {name: float(rng.uniform(lo, hi)) for name, (lo, hi) in domain.intervals.items()}


def equal_at_samples(a, b, domain, seed=0):
    """|a(p) - b(p)| <= 1e-9 (1 + |a(p)|) at 16 points of ``domain`` drawn
    with the seeded rng: sampled equality of two scalars, the oracle that
    closed-form rules are compared with."""
    va, vb = evaluate_points((a, b), domain.sample_many(np.random.default_rng(seed), 16))
    return all(abs(x - y) <= 1e-9 * (1.0 + abs(x)) for x, y in zip(va, vb))


def _reference_d_coefficient(chart, c):
    """d of a CScalar coefficient as a 1-form sum over base generators."""
    out = Form.zero(chart.coframe)
    for v in chart.base_vars:
        dre = diff(c.re, v)
        dim = diff(c.im, v)
        if dre.is_zero() and dim.is_zero():
            continue
        out = _reference_form_add(
            out, Form.monomial(chart.coframe, (base_generator(v),), CScalar(dre, dim)))
    return out


def _reference_exterior_derivative(rho, chart):
    """Structure-equation d built form by form: Leibniz on coefficients, then
    d(theta_i) = c_i generator by generator."""
    cof = chart.coframe
    out = Form.zero(cof)
    for mask, c in rho.coeffs.items():
        mono = Form(cof, {mask: CScalar.one()})
        out = _reference_form_add(out, wedge(_reference_d_coefficient(chart, c), mono))
        for i in range(cof.dim):
            if not mask >> i & 1:
                continue
            dgen = chart.curvature.get(cof.names[i])
            if dgen is not None and not dgen.is_zero():
                term = wedge(dgen, Form(cof, {mask & ~(1 << i): c}))
                out = _reference_form_add(
                    out, term if contract_sign(mask, i) > 0 else -term)
    return out


def _reference_lie_bracket(x, y, chart):
    """e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y) with X(f) read as the
    contraction of X with the 1-form df."""
    cof = chart.coframe

    def d(c):
        return _reference_exterior_derivative(Form.scalar(cof, c), chart)

    comps = []
    for b, name in enumerate(cof.names):
        comp = Form.zero(cof)
        if not y.components[b].is_zero():
            comp = contract(x, d(y.components[b]))
        if not x.components[b].is_zero():
            comp = _reference_form_add(comp, -contract(y, d(x.components[b])))
        de_b = chart.curvature.get(name)
        if de_b is not None:
            comp = _reference_form_add(comp, -contract(y, contract(x, de_b)))
        comps.append(comp.coeff(0))
    return FrameVector(cof, dict(enumerate(comps)))


def lie_derivative(x, eta, chart):
    """Cartan formula L_X eta = d(i_X eta) + i_X(d eta)."""
    return (exterior_derivative(contract(x, eta), chart)
            + contract(x, exterior_derivative(eta, chart)))


def b_transform(b, v):
    """Orthogonal map X + xi -> X + xi - i_X B for a real 2-form B.

    Relates brackets by [e^-B v, e^-B w]_H = e^-B [v, w]_{H + dB} - 0, i.e.
    the flux shifts by +dB under this bracket convention; for closed B the
    map is a Courant automorphism.
    """
    if not all(d == 2 for d in b.degrees()):
        raise ValueError("B must be a 2-form")
    return Section(v.x, v.xi - contract(v.x, b))


def _reference_courant_bracket(v, w, chart):
    """[X+xi, Y+eta] with the flux term i_X i_Y H built on every call."""
    vec = _reference_lie_bracket(v.x, w.x, chart)
    form = Form.zero(chart.coframe)
    if not w.xi.is_zero():
        form = lie_derivative(v.x, w.xi, chart)
    if not v.xi.is_zero():
        form = form - contract(w.x, exterior_derivative(v.xi, chart))
    form = form + contract(v.x, contract(w.x, chart.flux))
    return Section(vec, form)


def _reference_minus(acc, c):
    """acc - c for optional CScalars (None is zero); None where the
    difference cancels structurally."""
    if c is None:
        return acc
    if acc is None:
        return -c
    total = acc - c
    return None if total.is_zero() else total


def _derivative(x, f, bases):
    """X(f) = sum_a (d_a f) X^a over the base generators a, summed in
    ascending generator index; None where no term survives or the sum
    cancels structurally.  ``x`` is X.coeffs, ``bases`` the chart's
    ``base_bits`` table of (variable, index, bit): the body that
    ``courant_brackets`` replaced by ``courant._pair`` on
    ``bundle._partials``."""
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


def _reference_sparse_lie_bracket(x, y, chart):
    """Lie bracket of invariant frame vector fields on the chart:
    e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y), with d e^b read off the
    structure equations and (d e^b)(X, Y) = i_Y i_X d e^b made by
    ``contract``; a term whose factor is structurally zero is skipped."""
    bases = chart.base_bits
    xs, ys, comps = x.coeffs, y.coeffs, []
    for b in range(chart.coframe.dim):
        comp = None
        if b in ys:
            comp = _derivative(xs, ys[b], bases)
        if b in xs:
            comp = _reference_minus(comp, _derivative(ys, xs[b], bases))
        de_b = chart.curved.get(b)    # d(dx^a) = 0, d(theta_i) = c_i
        if de_b is not None:
            comp = _reference_minus(comp, contract(y, contract(x, de_b)).coeffs.get(0))
        comps.append(CZERO if comp is None else comp)
    return FrameVector(chart.coframe, dict(enumerate(comps)))


def _reference_courant_brackets(vs, ws, chart):
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
            vec = _reference_sparse_lie_bracket(v.x, w.x, chart) if x_live and y else zero_vec
            row.append(Section(vec, form))
        table.append(row)
    return table


def _section_of(entry, coframe):
    """The Section of a ``courant_brackets`` entry: X_k at k, xi_k at m + k."""
    m = coframe.dim
    return Section(FrameVector(coframe, dict(enumerate(entry.get(k, CZERO)
                                                       for k in range(m)))),
                   Form(coframe, {1 << k - m: c for k, c in entry.items() if k >= m}))


def _reference_sum(terms):
    """sign * c summed over (sign, CScalar) pairs, one ``sadd`` per part, with
    every negated part built by ``sneg`` first."""
    re, im = [], []
    for sign, c in terms:
        for part, out in ((c.re, re), (c.im, im)):
            if part is not ZERO:
                out.append(part if sign > 0 else sneg(part))
    return CScalar(sadd(*re), sadd(*im))


def _reference_collect_sum(terms):
    """The general sum: folds the rationals and collects like terms; a sum
    adds its terms, and -1 times a sum the negations of its terms.  While
    like terms c * A of a sum A merge to c = 1 or -1, the largest such A (by
    distinct nodes) is taken out and its terms, times c, are collected in.
    A lone term other than ``ZERO`` is the sum itself."""
    terms = [t for t in terms if t is not ZERO]
    if len(terms) == 1:
        return terms[0]
    # rest -> [coefficient, the term itself while it is the only one]
    collected = {}
    const_part = 0

    def collect(parts):
        nonlocal const_part
        for u in parts:
            if u.kind == "rat":
                const_part += u.value
                continue
            coeff, rest = _mul_split(u)
            entry = collected.get(rest)
            if entry is None:
                collected[rest] = [coeff, u]
            else:
                entry[0] += coeff
                entry[1] = None

    for t in terms:
        coeff, rest = _mul_split(t)
        if coeff == -1 and len(rest) == 1 and rest[0].kind == "add":
            collect([sneg(u) for u in rest[0].args])
        else:
            collect(t.args if t.kind == "add" else (t,))
    while merged := [rest[0] for rest, (coeff, u) in collected.items()
                     if u is None and coeff in (1, -1) and len(rest) == 1
                     and rest[0].kind == "add"]:
        top = max(merged, key=lambda a: _node_counts(a)[0])
        coeff, _ = collected.pop((top,))
        collect(top.args if coeff == 1 else [sneg(u) for u in top.args])
    return _sum_node(const_part, collected)


def _reference_pairing(v, w):
    """<X+xi, Y+eta> = (eta(X) + xi(Y)) / 2 with every product and sum made."""
    total = CScalar()
    for i in range(v.coframe.dim):
        bit = 1 << i
        total = total + v.x.components[i] * w.xi.coeff(bit)
        total = total + w.x.components[i] * v.xi.coeff(bit)
    return total * CScalar.of(rat(1, 2))


def pairing(v, w):
    """<v, w>: the one entry of ``courant.pairings([v], [w])``."""
    return courant.pairings([v], [w])[0][0]


def lie_bracket(x, y, chart):
    """Lie bracket of invariant frame vector fields on the chart: the vector
    part, at the keys below m, of the ``courant.courant_brackets`` entry of
    X and Y as sections."""
    cof = chart.coframe
    zero = Form.zero(cof)
    entry = courant.courant_brackets([Section(x, zero)], [Section(y, zero)], chart)[0][0]
    return FrameVector(cof, dict(enumerate(entry.get(b, CZERO) for b in range(cof.dim))))


def _reference_leibniz(pair):
    """The residuals of the bracket's Leibniz side conditions of the pair's
    certificate, for each base coordinate x and frame pair (i, j) on
    (x s_i, s_j) and then on (s_i, x s_j), with each expected side built by
    ``Section`` arithmetic: x [s_i, s_j] - s_i scaled by pi(s_j) x + dx scaled
    by 2 <s_i, s_j>, and x [s_i, s_j] + s_j scaled by pi(s_i) x, each
    structurally zero multiple skipped."""
    chart = pair.chart
    cof = chart.coframe
    basis = section_basis(cof)
    brackets = courant.courant_brackets(basis, basis, chart)
    twice = [[pairing(a, b) * CScalar.of(2) for b in basis] for a in basis]
    out = []
    for v in chart.base_vars:
        x = CScalar(var(v))
        dx = exterior_derivative(Form.scalar(cof, var(v)), chart)
        df = Section(FrameVector.zero(cof), dx)
        scaled = [s.scale(x) for s in basis]
        along = [contract(s.x, dx).coeff(0) for s in basis]
        left = courant.courant_brackets(scaled, basis, chart)
        right = courant.courant_brackets(basis, scaled, chart)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                bracket = _section_of(brackets[i][j], cof).scale(x)
                expected = bracket
                if not along[j].is_zero():
                    expected = expected - a.scale(along[j])
                if not twice[i][j].is_zero():
                    expected = expected + df.scale(twice[i][j])
                out.append(certify._form_residual(
                    [(1, dict(enumerate(_section_of(left[i][j], cof).coordinates()))),
                     (-1, dict(enumerate(expected.coordinates())))]))
                expected = bracket
                if not along[i].is_zero():
                    expected = expected + b.scale(along[i])
                out.append(certify._form_residual(
                    [(1, dict(enumerate(_section_of(right[i][j], cof).coordinates()))),
                     (-1, dict(enumerate(expected.coordinates())))]))
    return out


def _reference_act_sections(table, coords, coframe):
    """The section with coordinate dict ``coords`` acting on each e_mask, by
    mask, as {mask: CScalar} dicts, the coordinate dict read again for each
    mask: the body that ``exterior.clifford`` on unit monomials replaced."""
    out = []
    for mask in range(1 << coframe.dim):
        image = {}
        for k, c in coords.items():
            hit = table[k][mask]
            if hit is not None:
                image[hit[0]] = c if hit[1] > 0 else -c
        out.append(image)
    return out


def _reference_clifford_act(x, xi, rho):
    """(X + xi) . rho = i_X rho + xi ^ rho, as ``contract`` plus ``wedge``."""
    if not all(d <= 1 for d in xi.degrees()):
        raise ValueError("covector part must be of degree one")
    return contract(x, rho) + wedge(xi, rho)


def _reference_frame_action(basis, monomials):
    """For each frame section s and each mask, (mask', sign) with
    s . e_mask = sign e_mask', or None where the action is zero; read off
    ``_reference_clifford_act``, not off the table under test."""
    table = []
    for s in basis:
        row = []
        for e in monomials:
            image = _reference_clifford_act(s.x, s.xi, e)
            if image.is_zero():
                row.append(None)
                continue
            ((mask, c),) = image.coeffs.items()
            if c not in (CScalar.one(), -CScalar.one()):
                raise ValueError("a frame section moved a monomial to a non-unit multiple")
            row.append((mask, 1 if c == CScalar.one() else -1))
        table.append(tuple(row))
    return tuple(table)


def chart_id(name):
    """Test id of a ``scenarios.CHARTS`` chart: its name with a ``.cfg``
    suffix, which keeps the ids of the tests parametrized over the charts the
    same as when the charts were read from files of that name."""
    return name + ".cfg"


def perfbench_modules(*names):
    """Modules of the benchmark harness ``perfbench/``, imported read-only."""
    bench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, bench)
    try:
        return [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(bench)


def count_python_calls(fn):
    """The number of Python-level function calls that ``fn()`` makes: the
    ``"call"`` events of a ``sys.setprofile`` hook, ``fn`` itself included.
    A call of a builtin is a ``"c_call"`` event and is not counted; a
    generator raises a ``"call"`` event each time it resumes."""
    calls = [0]

    def hook(frame, event, arg):
        if event == "call":
            calls[0] += 1
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls[0]


def _reference_double_quotient_report(pair, points):
    """``double_quotient_report`` computed point by point, one small matrix at
    a time; the lift sections are looked up on the module, so a test that
    replaces them replaces them here too."""
    total_cof = pair.total.coframe
    mt = total_cof.dim
    g_total = split_pairing_matrix(mt)
    lifts = reduction.duality_lift_sections(pair)
    coords = [c for s in lifts for c in s.coordinates()]
    vals = eval_complex_points(coords + list(pair.F.coeffs.values()), points)
    k = pair.k
    routes = []
    for dropped in (pair.dual.fiber_names, pair.chart.fiber_names):
        drop = [total_cof.index(n) for n in dropped]
        keep = [i for i in range(mt) if i not in drop]
        routes.append(([mt + i for i in drop], keep + [mt + i for i in keep],
                       split_pairing_matrix(len(keep))))
    reports = []
    for p in range(len(points)):
        at = [zs[p] for zs in vals]
        vecs = [np.array(at[i:i + 2 * mt], dtype=complex)
                for i in range(0, len(coords), 2 * mt)]
        k_vecs = np.stack(vecs[:k], axis=1)
        kt_vecs = np.stack(vecs[k:], axis=1)
        iso_k = float(np.abs(k_vecs.T @ g_total @ k_vecs).max())
        iso_kt = float(np.abs(kt_vecs.T @ g_total @ kt_vecs).max())
        kk = np.concatenate([k_vecs, kt_vecs], axis=1)
        gram = (kk.T @ g_total @ kk).real
        sig = _reference_signature(gram)
        split_ok = sig[:2] == (k, k)
        _, s, vh = np.linalg.svd(kk.T @ g_total)
        perp = vh[_reference_rank(s):].conj().T
        shear = np.eye(2 * mt)
        shear[mt:, :mt] += _reference_two_form_matrix(pair.F, at[len(coords):]).T
        g_perp = perp.T @ g_total @ perp
        defects, rank_ok = [], True
        for (drop, keep, g_side), vectors in zip(routes, (perp, shear @ perp)):
            if (np.abs(vectors[drop]) > 1e-7).any():
                raise AssertionError("covector leg survived where it must vanish")
            mapped = vectors[keep]
            defects.append(float(np.abs(mapped.T @ g_side @ mapped - g_perp).max()))
            rank_ok = (rank_ok and _reference_rank(np.linalg.svd(mapped, compute_uv=False))
                       == len(keep))
        reports.append(ReductionReport(iso_k, iso_kt, bool(split_ok),
                                       float(np.linalg.det(gram)),
                                       defects[0], defects[1], rank_ok))
    return reports


def _reference_signature(sym_matrix):
    """(positive, negative, null) eigenvalue counts of one symmetric matrix."""
    if sym_matrix.size == 0:
        return 0, 0, 0
    w = np.linalg.eigvalsh((sym_matrix + sym_matrix.T) / 2)
    scale = max(np.abs(w).max(), 1.0)
    pos = int(np.sum(w > RANK_TOL * scale))
    neg = int(np.sum(w < -RANK_TOL * scale))
    return pos, neg, len(w) - pos - neg


def _reference_rank(s):
    """Numerical rank of one matrix from its descending singular values."""
    return int(np.sum(s > RANK_TOL * s.max(initial=0.0)))


def _reference_two_form_matrix(form, values):
    """Antisymmetric matrix of a real 2-form from its coefficient values at
    one point, in ``form.coeffs`` order."""
    m = form.coframe.dim
    out = np.zeros((m, m))
    for mask, c in zip(form.coeffs, values):
        a, b = [i for i in range(m) if mask >> i & 1]
        out[a, b] = c.real
        out[b, a] = -c.real
    return out


def _reference_block_nondegeneracy(block, points):
    """(smallest |det|, full rank at every point) of a k x k block of
    Scalars, one determinant and one SVD per point."""
    k = len(block)
    min_det = float("inf")
    nondegenerate = True
    vals = evaluate_points([e for row in block for e in row], points)
    for i in range(len(points)):
        mat = np.array([v[i] for v in vals], dtype=float).reshape(k, k)
        min_det = min(min_det, abs(np.linalg.det(mat)))
        nondegenerate = (nondegenerate
                         and _reference_rank(np.linalg.svd(mat, compute_uv=False)) == k)
    return min_det, nondegenerate


def _reference_vector(form, point):
    """Dense coefficient vector of a form at one point."""
    v = np.zeros(1 << form.coframe.dim, dtype=complex)
    for m, c in form.eval_coeffs(point).items():
        v[m] = c
    return v


def _reference_nullspace(a):
    _, s, vh = np.linalg.svd(a)
    return vh[_reference_rank(s):].conj().T


def _reference_orthonormal_span(a):
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_reference_rank(s)]


def _reference_section_action(m, comps):
    """Clifford action matrix of one point's section components (X, xi)."""
    wedges, contractions = _clifford_matrices(m)
    a = np.zeros((1 << m, 1 << m), dtype=complex)
    for i in range(m):
        if comps[i] != 0:
            a += comps[i] * contractions[i]
        if comps[m + i] != 0:
            a += comps[m + i] * wedges[i]
    return a


def _reference_spinor_action_matrix(m, rho):
    wedges, contractions = _clifford_matrices(m)
    return np.stack([c @ rho for c in contractions + wedges], axis=1)


def _reference_annihilator(coframe, rho):
    """Annihilator basis of the spinor whose value at the point is ``rho``."""
    norm = np.abs(rho).max()
    if norm <= RANK_TOL:
        raise ValueError("spinor vanishes at the sample point")
    return _reference_nullspace(_reference_spinor_action_matrix(coframe.dim, rho / norm))


def _reference_gcs_matrix(coframe, rho):
    """The GC-structure matrix of the spinor whose value at the point is ``rho``."""
    l_basis = _reference_annihilator(coframe, rho)
    n = coframe.dim
    if l_basis.shape[1] != n:
        raise ValueError(f"annihilator has dimension {l_basis.shape[1]}, expected {n}")
    b = np.concatenate([l_basis, l_basis.conj()], axis=1)
    if _reference_rank(np.linalg.svd(b, compute_uv=False)) < 2 * n:
        raise ValueError("annihilator meets its conjugate: no almost complex structure")
    d = np.diag([1j] * n + [-1j] * n)
    j = b @ d @ np.linalg.inv(b)
    if np.abs(j.imag).max() > 1e-7:
        raise ValueError("eigenspace construction produced a non-real structure")
    return j.real


def _reference_metric_matrix_at(metric, point):
    m = metric.coframe.dim
    g = np.zeros((m, m))
    for (i, j), s in metric.g.entries.items():
        g[i, j] = g[j, i] = evaluate(s, point)
    b = _reference_two_form_matrix(metric.b, list(metric.b.eval_coeffs(point).values()))
    if np.linalg.eigvalsh(g).min() <= 0:
        raise ValueError("metric not positive definite at the sample point")
    cplus = np.concatenate([np.eye(m), b + g], axis=0)
    cminus = np.concatenate([np.eye(m), b - g], axis=0)
    p = np.concatenate([cplus, cminus], axis=1)
    d = np.diag([1.0] * m + [-1.0] * m)
    return p @ d @ np.linalg.inv(p)


def _reference_spinor_type_at(spinor, point):
    coeffs = spinor.form.eval_coeffs(point)
    if not coeffs:
        raise ValueError("spinor vanishes identically")
    top = max(abs(v) for v in coeffs.values())
    if top == 0.0:
        raise ValueError("spinor vanishes at the sample point")
    by_degree = {}
    for mask, v in coeffs.items():
        d = bin(mask).count("1")
        by_degree[d] = max(by_degree.get(d, 0.0), abs(v))
    return min(d for d, v in by_degree.items() if v > RANK_TOL * top)


def _reference_mukai_norm_at(spinor, point):
    return mukai_norm(spinor.form.eval_coeffs(point), spinor.coframe.dim)


def _reference_is_decomposable_at(form, point):
    """The Pluecker test as a kernel dimension, at one point."""
    coeffs = form.eval_coeffs(point)
    degs = {bin(m).count("1") for m, v in coeffs.items() if abs(v) > 0}
    if not degs:
        return True
    degree = min(degs)
    wedges, _ = _clifford_matrices(form.coframe.dim)
    vec = np.zeros(1 << form.coframe.dim, dtype=complex)
    for mask, v in coeffs.items():
        if bin(mask).count("1") == degree:
            vec[mask] = v
    return _reference_nullspace(np.stack([w @ vec for w in wedges], axis=1)).shape[1] == degree


def _reference_check_integrable(spinor, chart, points):
    """(worst residual, witnesses) of the least-squares solve, point by point."""
    drho = twisted_derivative(spinor.form, chart)
    m = chart.coframe.dim
    worst = 0.0
    witnesses = []
    for p in points:
        rho = _reference_vector(spinor.form, p)
        scale = np.abs(rho).max()
        if scale == 0:
            raise ValueError("spinor vanishes at a sample point")
        a = _reference_spinor_action_matrix(m, rho)
        b = _reference_vector(drho, p)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        witnesses.append(x)
        worst = max(worst, float(np.abs(a @ x - b).max() / scale))
    return worst, witnesses


def _reference_uk_spaces(coframe, rho):
    """[(level, basis)] of the eigenspace ladder of the spinor whose value at
    the point is ``rho``."""
    m = coframe.dim
    half = m // 2
    lbar = _reference_annihilator(coframe, rho).conj()
    rho = rho / np.abs(rho).max()
    actions = [_reference_section_action(m, lbar[:, i]) for i in range(m)]
    out = []
    for k in range(0, m + 1):
        vecs = []
        for combo in itertools.combinations(range(m), k):
            w = rho
            for i in combo:
                w = actions[i] @ w
            vecs.append(w)
        basis = _reference_orthonormal_span(np.stack(vecs, axis=1))
        if basis.shape[1] != len(vecs):
            raise ValueError(f"level {half - k}: expected dimension {len(vecs)}, "
                             f"got {basis.shape[1]}")
        out.append((half - k, basis))
    return out


def _reference_dualize_form(rho, pair):
    """Integral over the fibers of e^F ^ (pullback of rho), as a form on the
    dual; e^F is built once per pair."""
    lifted = pair.pull(rho)
    integrand = wedge(pair.cache("_exp_F", lambda: exp_form(pair.F)), lifted)
    down = fiber_integrate(integrand, ("fiber",))
    return down.map_to(pair.dual.coframe)


def _reference_dualize_form_reverse(rho_t, pair):
    """The reverse-direction transform: e^(-F), built once per pair,
    integrating the dual fibers."""
    lifted = pair.pull(rho_t)
    integrand = wedge(pair.cache("_exp_minus_F", lambda: exp_form(-pair.F)), lifted)
    down = fiber_integrate(integrand, ("cofiber",))
    return down.map_to(pair.chart.coframe)


def _reference_dualize_section(v, pair):
    """Lift, F-transform, and push a section across the duality.

    The unique lift Xhat of the vector part satisfies
    xi(E_theta_i) = F(Xhat, E_theta_i) for every fiber generator, which makes
    the covector part basic for the projection to the dual side.
    """
    cof = pair.total.coframe
    w = section_map_to(v, cof)
    cofibers = pair.dual.fiber_names
    # right-hand side: xi(E_theta_i) - F(X_known, E_theta_i)
    known = contract(w.x, pair.F)
    rhs = [w.xi.coeff(bit) - known.coeff(bit)
           for bit in (1 << cof.index(n) for n in pair.chart.fiber_names)]
    # the inverse of F(E_thetat_j, E_theta_i) = -F(E_theta_i, E_thetat_j), kept on the pair
    inv = pair.cache("_neg_fiber_block_inverse", lambda: sym_matrix_inverse(
        [[sneg(e) for e in row] for row in pair.fiber_block()]))
    lift_re, lift_im = ([sadd(*map(smul, row, part)) for row in inv]
                        for part in ([r.re for r in rhs], [r.im for r in rhs]))
    comps = list(w.x.components)
    for name, re, im in zip(cofibers, lift_re, lift_im):
        term = CScalar(re, im)
        if not term.is_zero():
            idx = cof.index(name)
            a = comps[idx]
            comps[idx] = term if a.is_zero() else a + term
    lift = FrameVector(cof, dict(enumerate(comps)))
    eta = w.xi - contract(lift, pair.F)
    # the fiber components of eta vanish by construction; drop them structurally
    fiber_mask = cof.tag_mask("fiber")
    eta = Form(cof, {m: c for m, c in eta.coeffs.items() if not m & fiber_mask})
    pushed_x = FrameVector(cof, dict(enumerate(
        CZERO if cof.tags[i] == "fiber" else lift.components[i]
        for i in range(cof.dim))))
    out = Section(pushed_x, eta)
    return section_map_to(out, pair.dual.coframe)


def _reference_transform_matrix_at(pair, point):
    cols = _form_columns(pair)
    return np.stack([_reference_vector(col, point) for col in cols], axis=1)


def _reference_section_transform_matrix_at(pair, point):
    cols = _section_columns(pair)
    vals = [z for s in cols for z in eval_complex_points(s.coordinates(), [point])]
    return np.array(vals, dtype=complex).reshape(len(cols), -1).T.copy()


def _reference_uk_transport_residual(spinor, pair, point, dual_spinor):
    t = _reference_transform_matrix_at(pair, point)
    src = _reference_uk_spaces(pair.chart.coframe, _reference_vector(spinor.form, point))
    dst = dict(_reference_uk_spaces(pair.dual.coframe,
                                    _reference_vector(dual_spinor.form, point)))
    worst = 0.0
    for level, basis in src:
        target = dst[level]
        proj = target @ target.conj().T
        for col in range(basis.shape[1]):
            image = t @ basis[:, col]
            norm = np.linalg.norm(image)
            if norm == 0:
                raise ValueError("transform annihilated an eigenspace member")
            defect = np.linalg.norm(image - proj @ image) / norm
            worst = max(worst, float(defect))
    return worst


def _reference_dual_type_at(spinor, pair, point):
    """(type, j) with every power rebuilt at the point and the loop stopping
    at the first surviving fiber integral."""
    cof = pair.total.coframe
    two_form = pair.F + pair.pull(spinor.b + spinor.omega.scale(CScalar.i()))
    omega_big = pair.pull(spinor.lowest)
    k = pair.k
    power = Form.scalar(cof, 1)
    for j in range(0, k + 1):
        if j > 0:
            power = wedge(power, two_form)
        integrand = wedge(power, omega_big)
        scale = max((abs(v) for v in integrand.eval_coeffs(point).values()), default=0.0)
        if scale == 0.0:
            continue
        vals = fiber_integrate(integrand, ("fiber",)).eval_coeffs(point)
        if max((abs(v) for v in vals.values()), default=0.0) > 1e-9 * scale:
            return spinor.lowest.max_degree() + 2 * j - k, j
    raise ValueError("no power of the correspondence data survives integration")


def _reference_bihermitian_dual_at(i_matrix, metric, chart, point, side):
    cof = chart.coframe
    i_th = cof.index(chart.fiber_names[0])
    m = cof.dim
    g = np.zeros((m, m))
    for (i, j), s in metric.g.entries.items():
        g[i, j] = g[j, i] = evaluate(s, point)
    base_idx = [i for i in range(m) if i != i_th]
    if np.abs(g[i_th, base_idx]).max() > 1e-9:
        raise ValueError("connection is not the metric connection")
    g0 = g[i_th, i_th]
    i_mat = np.asarray(i_matrix, dtype=float)
    if np.abs(i_mat @ i_mat + np.eye(m)).max() > 1e-9:
        raise ValueError("input is not an almost complex structure")
    if np.abs(i_mat.T @ g @ i_mat - g).max() > 1e-6:
        raise ValueError("complex structure is not compatible with the metric")
    e_th = np.zeros(m)
    e_th[i_th] = 1.0
    ie = i_mat @ e_th
    span = np.stack([e_th, ie], axis=1)
    gram = span.T @ g @ span
    proj = span @ np.linalg.inv(gram) @ span.T @ g
    out = i_mat @ (np.eye(m) - proj)
    coeff = np.linalg.inv(gram) @ span.T @ g
    out += (np.outer(side * (1.0 / g0) * ie, coeff[0])
            + np.outer(-side * g0 * e_th, coeff[1]))
    return out


def _reference_generalized_tangent_basis(pair, point, f_scale=1.0):
    names = pair.chart.coframe.names + pair.dual.coframe.names
    e = np.array([[float(a == b) for b in pair.total.coframe.names] for a in names])
    a = f_scale * _reference_two_form_matrix(pair.F, list(pair.F.eval_coeffs(point).values()))
    kernel = _reference_nullspace(np.concatenate([-a.T, e.T], axis=1))
    x, xi = kernel[:e.shape[1]], kernel[e.shape[1]:]
    return _reference_orthonormal_span(np.concatenate([e @ x, xi]))


def _reference_transversality_check(pair, point, f_scale=1.0):
    """The intersection of tau_F with TM + T*M computed as a subspace, and
    the fiber block's rank, at one point."""
    tf = _reference_generalized_tangent_basis(pair, point, f_scale)
    b = np.eye(tf.shape[0])[:, _first_factor(pair)]
    null = _reference_nullspace(np.concatenate([tf, -b], axis=1))
    inter = _reference_orthonormal_span(tf @ null[:tf.shape[1]])
    block = pair.fiber_block()
    mat = np.array([[evaluate(e, point) for e in row] for row in block])
    s = np.linalg.svd(f_scale * mat, compute_uv=False)
    return inter.shape[1] == 0, _reference_rank(s) == len(block)


def _reference_fourier_mukai_check(pair, rho_m, rho_t, point):
    """(route1, route2, defect1, defect2) from the two spinors' values at one
    point."""
    j_m = _reference_gcs_matrix(pair.chart.coframe, rho_m)
    j_t = _reference_gcs_matrix(pair.dual.coframe, rho_t)
    mt = pair.dual.coframe.dim
    c = np.diag([1.0] * mt + [-1.0] * mt)
    tf = _reference_generalized_tangent_basis(pair, point)
    idx_m = _first_factor(pair)
    idx_t = [i for i in range(tf.shape[0]) if i not in idx_m]
    big = np.zeros((tf.shape[0], tf.shape[0]))
    big[np.ix_(idx_m, idx_m)] = j_m
    big[np.ix_(idx_t, idx_t)] = c @ j_t @ c
    proj = tf @ tf.conj().T
    image = big @ tf
    defect1 = float(np.abs(image - proj @ image).max())
    phi = _reference_section_transform_matrix_at(pair, point).real
    defect2 = float(np.abs(j_t - phi @ j_m @ np.linalg.inv(phi)).max())
    return defect1 <= 1e-8, defect2 <= 1e-8, defect1, defect2


def _reference_reduce_pointwise(action):
    """``reduce_pointwise`` of one action, one small matrix at a time."""
    g = action.pairing
    k = action.generators
    perp = _reference_nullspace(k.T @ g)
    # the radical K intersect K-perp, from the kernel of [K | -perp]
    null = _reference_nullspace(np.concatenate([k, -perp], axis=1))
    radical = _reference_orthonormal_span(k @ null[:k.shape[1]])
    # quotient representatives: complement of the radical inside K-perp
    if radical.shape[1]:
        coords = radical.conj().T @ perp    # radical expressed against perp basis
        complement = _reference_nullspace(coords)
        quotient = perp @ complement
    else:
        quotient = perp
    induced = quotient.conj().T @ g @ quotient
    gram_k = k.T @ g @ k
    exact = (bool(np.abs(gram_k).max() <= RANK_TOL * max(1.0, np.abs(g).max()))
             if k.size else True)
    return ReducedSpace(perp, radical, quotient, induced.real, exact,
                        _reference_signature(induced.real))


def _reference_random_spinor_values(rng, m):
    """``random_spinor_values`` with ``np.tensordot`` combinations of the
    wedge matrices and the Mukai norm summed mask by mask."""
    if m % 2:
        raise ValueError("chart dimension must be even")
    wedges, _ = _clifford_matrices(m)
    two = np.array([wedges[i] @ wedges[j] for i, j in itertools.combinations(range(m), 2)])

    def draw(n, density, parts=(1.0,)):
        return (rng.random(n) <= density) * (rng.standard_normal((n, len(parts))) @ parts)
    for _ in range(40):
        exponent = np.tensordot(draw(len(two), 0.4) + 1j * draw(len(two), 0.7), two, axes=1)
        rho = np.eye(1 << m, dtype=complex)[0]
        for _ in range(int(rng.integers(0, m // 2 + 1))):
            rho = np.tensordot(draw(m, 0.8, (1, 1j)), wedges, axes=1) @ rho
        term = rho
        for j in range(1, m // 2 + 1):   # exact: the exponent is nilpotent
            term = exponent @ term / j
            rho = rho + term
        ref = np.abs(rho).max()
        if ref and mukai_norm(dict(enumerate(rho.tolist())), m) > 1e-3 * ref * ref:
            return rho
    raise AssertionError("could not sample a nondegenerate spinor")


def _reference_entry_points(rng, m, n):
    """``scenarios._entry_points`` point by point: one ``a.T @ a`` and one
    dict comprehension per draw."""
    points = []
    for a, b in rng.standard_normal((n, 2, m, m)):
        g = np.eye(m) + a.T @ a
        point = {f"g{i}{j}": float(g[i, j]) for i in range(m) for j in range(i, m)}
        point.update((f"b{i}{j}", float(b[i, j])) for i in range(m) for j in range(i + 1, m))
        points.append(point)
    return points


def _reference_form_residual(form, domain, points):
    """``bundle.form_residual`` with one Python ``abs(complex)`` per value."""
    return max((abs(z) for zs in eval_complex_points(form.coeffs.values(), points)
                for z in zs), default=0.0)


def _reference_metric_residual(a, b, points):
    """``structures.metric_residual`` with the b difference and the g entries
    evaluated in two calls and compared value by value."""
    worst = _reference_form_residual(a.b - b.b, None, points)
    keys = a.g.entries.keys() | b.g.entries.keys()
    vals = evaluate_points([g.entries.get(key, ZERO) for key in keys for g in (a.g, b.g)],
                           points)
    return max(worst, max((abs(x - y) for va, vb in zip(vals[0::2], vals[1::2])
                           for x, y in zip(va, vb)), default=0.0))


def eval_complex_points(cscalars, points):
    """Complex values of CScalars at several points, one list per CScalar,
    from a single ``evaluate_points`` over their real and imaginary parts."""
    vals = evaluate_points([s for c in cscalars for s in (c.re, c.im)], points)
    return [[complex(x, y) for x, y in zip(re, im)]
            for re, im in zip(vals[0::2], vals[1::2])]


def _reference_eval_array(cscalars, points):
    """``exterior._eval_array`` through a list of Python complex values."""
    vals = eval_complex_points(cscalars, points)
    return np.array(vals, dtype=complex).reshape(len(vals), len(points))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def plane_chart():
    """Flat 2d chart, no fibers."""
    return BundleChart.build("plane", [("x", -1.0, 1.0), ("y", -1.0, 1.0)], [])


@pytest.fixture
def flat3_chart():
    """Flat 3d chart, no fibers (for flux bracket examples)."""
    return BundleChart.build("r3", [("x", -1.0, 1.0), ("y", -1.0, 1.0),
                                    ("z", -1.0, 1.0)], [])


@pytest.fixture
def circle_chart():
    """Trivial circle bundle over an interval."""
    return BundleChart.build("s2", [("t", -0.9, 0.9)], ["th"])


@pytest.fixture
def hopf_chart():
    """Circle bundle over a 2d base with unit curvature and no flux."""
    return BundleChart.build(
        "s3", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th"],
        curvature={"th": lambda c: Form.monomial(c, ("dt", "du"))})


@pytest.fixture
def hopf_flux_chart():
    """The same bundle carrying the self-dualizing flux."""
    return BundleChart.build(
        "s3f", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th"],
        curvature={"th": lambda c: Form.monomial(c, ("dt", "du"))},
        flux=lambda c: Form.monomial(c, ("dt", "du", "th")))


@pytest.fixture
def torus_chart():
    """Trivial rank-2 torus bundle over a 2d base."""
    return BundleChart.build("t4", [("s1", 0.05, 0.65), ("s2", 0.08, 1.0)],
                             ["th1", "th2"])


@pytest.fixture
def hopf_pair(hopf_chart):
    return DualityPair.from_chart(hopf_chart)


@pytest.fixture
def circle_pair(circle_chart):
    return DualityPair.from_chart(circle_chart)


@pytest.fixture
def torus_pair(torus_chart):
    return DualityPair.from_chart(torus_chart)
