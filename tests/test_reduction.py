import numpy as np
import pytest

from tduality.scalar import CScalar, rat, var
from tduality.exterior import Form
from tduality.courant import split_pairing_matrix
from tduality.structures import PureSpinor
from tduality.duality import DualityPair, transport_spinor
from tduality.randomgen import random_pure_spinor, random_section
from tduality.reduction import (LiftedActionPoint, double_quotient_report,
                                duality_lift_sections, fourier_mukai_check,
                                generalized_tangent_basis,
                                pairing_constant_check, reduce_pointwise,
                                signature_of, transversality_check)
from tduality.scenarios import load_chart, twisted_rank_two_pair


def test_isotropic_reduction_dimensions(rng):
    # isotropic K of dimension k inside 2N: quotient has dimension 2N - 2k,
    # split signature
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[:n, 0] = rng.standard_normal(n)
    vecs[:n, 1] = rng.standard_normal(n)
    red = reduce_pointwise(LiftedActionPoint(g, vecs))
    assert red.exact
    assert red.dim == 2 * n - 4
    assert red.signature == (n - 2, n - 2, 0)


def test_split_k_reduction(rng):
    # nondegenerate split K of dimension 2k: the quotient is K-perp
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[0, 0] = 1.0        # E_1
    vecs[n, 1] = 1.0        # e^1
    red = reduce_pointwise(LiftedActionPoint(g, vecs))
    assert not red.exact
    assert red.radical.shape[1] == 0
    assert red.dim == 2 * n - 2
    assert red.signature == (n - 1, n - 1, 0)


def test_mixed_null_but_not_isotropic(rng):
    # <k, k> = 0 for the single generator yet the plane it sits in is not
    # isotropic once a second generator pairs with it
    n = 3
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[0, 0] = 1.0
    vecs[n, 1] = 1.0
    act = LiftedActionPoint(g, vecs)
    red = reduce_pointwise(act)
    assert not red.exact


def test_reduction_basis_independence(rng):
    n = 4
    g = split_pairing_matrix(n)
    vecs = rng.standard_normal((2 * n, 3))
    red1 = reduce_pointwise(LiftedActionPoint(g, vecs))
    mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    red2 = reduce_pointwise(LiftedActionPoint(g, vecs @ mix))
    assert red1.dim == red2.dim
    assert red1.signature == red2.signature


def test_quotient_pairing_well_defined(rng):
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[:n, 0] = rng.standard_normal(n)
    vecs[:n, 1] = rng.standard_normal(n)
    red = reduce_pointwise(LiftedActionPoint(g, vecs))
    if red.radical.shape[1]:
        assert np.abs(red.radical.conj().T @ g @ red.perp).max() <= 1e-10


def test_lift_pairing_constant(rng, hopf_pair):
    pts = hopf_pair.chart.domain.sample_many(rng, 4)
    ok, spread = pairing_constant_check(duality_lift_sections(hopf_pair),
                                        hopf_pair.total, pts)
    assert ok and spread <= 1e-12


def test_lift_pairing_constant_vector_lift(rng, hopf_flux_chart):
    # a pure vector lift with trivial covector part pairs to zero identically
    from tduality.courant import Section
    cof = hopf_flux_chart.coframe
    secs = [Section.vector_basis(cof, "th")]
    pts = hopf_flux_chart.domain.sample_many(rng, 4)
    ok, spread = pairing_constant_check(secs, hopf_flux_chart, pts)
    assert ok and spread <= 1e-12


def test_lift_pairing_nonconstant_detected(rng, hopf_pair):
    from tduality.courant import Section
    cof = hopf_pair.total.coframe
    t = var("t")
    bad = [Section.of(cof, vector={"th": rat(1)}, covector={"th": t * t})]
    pts = hopf_pair.chart.domain.sample_many(rng, 6)
    ok, spread = pairing_constant_check(bad, hopf_pair.total, pts)
    assert not ok


def test_double_quotient_on_pairs(rng, hopf_pair, circle_pair):
    for pair in (hopf_pair, circle_pair, twisted_rank_two_pair()):
        pts = pair.chart.domain.sample_many(rng, 3)
        for p in pts:
            rep = double_quotient_report(pair, p)
            assert rep.isotropy_residual_k <= 1e-9
            assert rep.isotropy_residual_kt <= 1e-9
            assert rep.split_signature_ok
            assert rep.rank_ok
            assert rep.isometry_defect_m <= 1e-9
            assert rep.isometry_defect_mt <= 1e-9


def test_double_quotient_dimension_count(rng, hopf_pair):
    p = hopf_pair.chart.domain.sample_many(rng, 1)[0]
    rep = double_quotient_report(hopf_pair, p)
    # the perp of the 2k-dim lift inside dim 2(b + 2k) matches both sides
    b = len(hopf_pair.chart.base_vars)
    k = hopf_pair.k
    assert rep.rank_ok  # mapped bases span 2(b + k) on each side


def test_double_quotient_scaled_form(rng, hopf_pair):
    from tduality.bundle import standard_correspondence_flux

    def doubled(cof, chart, dual):
        return standard_correspondence_flux(cof, chart, dual).scale(rat(2))

    scaled = DualityPair.from_charts(hopf_pair.chart, hopf_pair.dual, doubled)
    p = scaled.chart.domain.sample_many(rng, 1)[0]
    rep = double_quotient_report(scaled, p)
    assert rep.split_signature_ok and rep.rank_ok
    assert max(rep.isometry_defect_m, rep.isometry_defect_mt) <= 1e-9


def test_transversality(rng, circle_pair):
    p = circle_pair.chart.domain.sample_many(rng, 1)[0]
    trans, invertible = transversality_check(circle_pair, p)
    assert trans and invertible
    trans0, invertible0 = transversality_check(circle_pair, p, f_scale=0.0)
    assert not trans0 and not invertible0
    scale = float(rng.uniform(0.3, 2.5))
    trans1, invertible1 = transversality_check(circle_pair, p, f_scale=scale)
    assert trans1 and invertible1


def test_tangent_space_dimension(rng, hopf_pair):
    p = hopf_pair.chart.domain.sample_many(rng, 1)[0]
    basis = generalized_tangent_basis(hopf_pair, p)
    b = len(hopf_pair.chart.base_vars)
    k = hopf_pair.k
    assert basis.shape[1] == 2 * b + 2 * k
    assert np.linalg.matrix_rank(basis, tol=1e-9) == basis.shape[1]
    # maximal isotropic inside the product pairing
    g = split_pairing_matrix(hopf_pair.chart.coframe.dim + hopf_pair.dual.coframe.dim)
    assert np.abs(basis.T @ g @ basis).max() <= 1e-9


def test_fourier_mukai_positive(rng, circle_pair, torus_pair):
    for pair in (circle_pair, torus_pair):
        pts = pair.chart.domain.sample_many(rng, 1)
        sp = random_pure_spinor(rng, pair.chart, pts)
        dual_sp = transport_spinor(sp, pair)
        r1, r2, d1, d2 = fourier_mukai_check(sp, dual_sp, pair, pts[0])
        assert r1 and r2


def test_fourier_mukai_negative(rng, circle_pair):
    pts = circle_pair.chart.domain.sample_many(rng, 1)
    sp = random_pure_spinor(rng, circle_pair.chart, pts)
    cof = circle_pair.dual.coframe
    unrelated = PureSpinor(Form.monomial(cof, ("tht",))
                           + Form.monomial(cof, ("dt",), CScalar.of(rat(0), rat(3))))
    r1, r2, d1, d2 = fourier_mukai_check(sp, unrelated, circle_pair, pts[0])
    assert not r1 and not r2


def test_fourier_mukai_routes_agree(rng, circle_pair, torus_pair):
    for trial in range(8):
        pair = (circle_pair, torus_pair)[trial % 2]
        pts = pair.chart.domain.sample_many(rng, 1)
        sp = random_pure_spinor(rng, pair.chart, pts)
        if trial % 2:
            other = transport_spinor(sp, pair)
        else:
            other = random_pure_spinor(rng, pair.dual, pts)
        r1, r2, d1, d2 = fourier_mukai_check(sp, other, pair, pts[0])
        if max(d1, d2) < 1e-4 and not (r1 and r2):
            continue  # borderline random instance: skip the verdict
        assert r1 == r2


def test_signature_helper():
    g = np.diag([2.0, -1.0, 0.0])
    assert signature_of(g) == (1, 1, 1)


def test_pairing_constant_check_nonconstant_sections():
    # each entry pairing(a, b) is a fresh expression; a memo shared across
    # them keyed by node identity returned values of dead nodes
    rng = np.random.default_rng(0)
    chart = load_chart("s3_hopf.cfg")
    sections = [random_section(rng, chart) for _ in range(4)]
    points = chart.domain.sample_many(rng, 4)
    _, spread = pairing_constant_check(sections, chart, points)
    g = split_pairing_matrix(chart.coframe.dim)
    mats = []
    for p in points:
        vecs = np.stack([s.eval_vector(p) for s in sections], axis=1)
        mats.append(vecs.T @ g @ vecs)
    stack = np.stack(mats)
    assert spread == pytest.approx(np.abs(stack - stack.mean(axis=0)).max(), rel=1e-12)
