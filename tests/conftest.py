"""Shared fixtures, and helpers that only the tests use: the random metric
and the Clifford-compatibility residual, kept as reference oracles beside
the frame certificate and the generic Buscher instance that replaced them,
the componentwise residual of a section, the term-by-term bodies of
``Form.__add__``, ``exterior_derivative``, ``lie_bracket``,
``courant_bracket`` and ``pairing`` (``_reference_*``), which the one-pass
kernels must match tree for tree, and the point-by-point bodies of
``double_quotient_report`` and of the fiber-block checks of ``validate_pair``,
which the stacked linear algebra must match report for report."""
import numpy as np
import pytest

from tduality import reduction
from tduality.scalar import CScalar, diff, evaluate_points, rat, sadd, smul
from tduality.bundle import (BundleChart, base_generator, exterior_derivative,
                             form_residual)
from tduality.exterior import (Form, FrameVector, contract, contract_sign,
                               eval_complex_points, wedge)
from tduality.structures import GeneralizedMetric, RANK_TOL, SymTensor
from tduality.courant import Section, lie_derivative, split_pairing_matrix
from tduality.reduction import ReductionReport
from tduality.duality import DualityPair, dualize_form, dualize_section
from tduality.randomgen import random_form, random_scalar


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
    return FrameVector(cof, tuple(comps))


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


def _reference_pairing(v, w):
    """<X+xi, Y+eta> = (eta(X) + xi(Y)) / 2 with every product and sum made."""
    total = CScalar()
    for i in range(v.coframe.dim):
        bit = 1 << i
        total = total + v.x.components[i] * w.xi.coeff(bit)
        total = total + w.x.components[i] * v.xi.coeff(bit)
    return total * CScalar.of(rat(1, 2))


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
