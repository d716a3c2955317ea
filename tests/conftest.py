"""Shared fixtures, and helpers that only the tests use: the random metric
and the Clifford-compatibility residual, kept as reference oracles beside
the frame certificate and the generic Buscher instance that replaced them,
the componentwise residual of a section, and the term-by-term bodies of
``Form.__add__``, ``exterior_derivative``, ``lie_bracket`` and ``pairing``
(``_reference_*``), which the one-pass kernels must match tree for tree."""
import numpy as np
import pytest

from tduality.scalar import CScalar, diff, rat, sadd, smul
from tduality.bundle import BundleChart, base_generator, form_residual
from tduality.exterior import (Form, FrameVector, contract, contract_sign,
                               eval_complex_points, wedge)
from tduality.structures import GeneralizedMetric, SymTensor
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


def _reference_pairing(v, w):
    """<X+xi, Y+eta> = (eta(X) + xi(Y)) / 2 with every product and sum made."""
    total = CScalar()
    for i in range(v.coframe.dim):
        bit = 1 << i
        total = total + v.x.components[i] * w.xi.coeff(bit)
        total = total + w.x.components[i] * v.xi.coeff(bit)
    return total * CScalar.of(rat(1, 2))


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
