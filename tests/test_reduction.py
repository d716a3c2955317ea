import dataclasses
import itertools
import re

import numpy as np
import pytest

from tduality import randomgen, reduction, scenarios
from tduality.scalar import CScalar, rat, var
from tduality.exterior import Form, FrameVector, mukai_signs
from tduality.bundle import base_generator, standard_correspondence_flux
from tduality.courant import Section, split_pairing_matrix
from tduality.structures import (PureSpinor, _clifford_matrices, _rank, annihilators,
                                 mukai_norm)
from tduality.duality import DualityPair, transform_matrices, transport_spinor
from tduality.randomgen import random_pure_spinor, random_section, random_spinor_values
from tduality.reduction import (LiftedActionPoint, ReductionReport, double_quotient_report,
                                duality_lift_sections, fourier_mukai_check,
                                generalized_tangent_basis,
                                pairing_constant_check, reduce_pointwise,
                                signature_of, transversality_check)
from tduality.scenarios import CHARTS, load_chart, twisted_rank_two_pair

from conftest import (_reference_double_quotient_report, _reference_random_spinor_values,
                      _reference_rank, _reference_reduce_pointwise, _reference_signature,
                      _reference_two_form_matrix, chart_id)


def test_isotropic_reduction_dimensions(rng):
    # isotropic K of dimension k inside 2N: quotient has dimension 2N - 2k,
    # split signature
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[:n, 0] = rng.standard_normal(n)
    vecs[:n, 1] = rng.standard_normal(n)
    (red,) = reduce_pointwise([LiftedActionPoint(g, vecs)])
    assert red.exact
    assert red.quotient.shape[1] == 2 * n - 4
    assert red.signature == (n - 2, n - 2, 0)


def test_split_k_reduction(rng):
    # nondegenerate split K of dimension 2k: the quotient is K-perp
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[0, 0] = 1.0        # E_1
    vecs[n, 1] = 1.0        # e^1
    (red,) = reduce_pointwise([LiftedActionPoint(g, vecs)])
    assert not red.exact
    assert red.radical.shape[1] == 0
    assert red.quotient.shape[1] == 2 * n - 2
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
    (red,) = reduce_pointwise([act])
    assert not red.exact


def test_reduction_basis_independence(rng):
    n = 4
    g = split_pairing_matrix(n)
    vecs = rng.standard_normal((2 * n, 3))
    mix = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    red1, red2 = reduce_pointwise([LiftedActionPoint(g, vecs),
                                   LiftedActionPoint(g, vecs @ mix)])
    assert red1.quotient.shape[1] == red2.quotient.shape[1]
    assert red1.signature == red2.signature


def test_quotient_pairing_well_defined(rng):
    n = 4
    g = split_pairing_matrix(n)
    vecs = np.zeros((2 * n, 2))
    vecs[:n, 0] = rng.standard_normal(n)
    vecs[:n, 1] = rng.standard_normal(n)
    (red,) = reduce_pointwise([LiftedActionPoint(g, vecs)])
    if red.radical.shape[1]:
        assert np.abs(red.radical.conj().T @ g @ red.perp).max() <= 1e-10


def _actions(rng, n):
    """One action of each kind on a split pairing space of dimension 2n:
    isotropic, mixed-null (as in ``test_mixed_null_but_not_isotropic``),
    generic, and with no generators."""
    g = split_pairing_matrix(n)
    shear = np.eye(2 * n)
    bmat = rng.standard_normal((n, n))
    shear[n:, :n] = bmat - bmat.T
    isotropic = shear @ np.concatenate([rng.standard_normal((n, 2)), np.zeros((n, 2))])
    mixed = np.zeros((2 * n, 2))
    mixed[0, 0] = mixed[n, 1] = 1.0
    return [LiftedActionPoint(g, vecs) for vecs in (
        isotropic, mixed, rng.standard_normal((2 * n, int(rng.integers(1, 4)))),
        np.zeros((2 * n, 0)))]


def _assert_same_reduction(got, ref):
    for field in ("perp", "radical", "quotient", "induced_pairing"):
        a, b = getattr(got, field), getattr(ref, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field
    assert got.exact is ref.exact and got.signature == ref.signature
    assert all(type(c) is int for c in got.signature)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduce_pointwise_matches_the_reference(n):
    """Each kind of action, alone and several times in one stack, reduces
    to the one-action result bit for bit."""
    rng = np.random.default_rng(n)
    actions = [act for _ in range(5) for act in _actions(rng, n)]
    for act in actions[:4]:
        (red,) = reduce_pointwise([act])
        _assert_same_reduction(red, _reference_reduce_pointwise(act))
    reds = reduce_pointwise(actions)
    assert len(reds) == len(actions)
    for red, act in zip(reds, actions):
        _assert_same_reduction(red, _reference_reduce_pointwise(act))


def test_reduce_pointwise_keeps_the_order_of_mixed_shapes():
    rng = np.random.default_rng(7)
    actions = [act for _ in range(30)
               for act in _actions(rng, int(rng.integers(1, 5)))]
    rng.shuffle(actions)
    reds = reduce_pointwise(actions)
    assert len(reds) == len(actions)
    for red, act in zip(reds, actions):
        _assert_same_reduction(red, _reference_reduce_pointwise(act))


def test_reduce_pointwise_of_no_actions():
    assert reduce_pointwise([]) == []


def _verdicts(seed):
    """reduction-suite's pass/fail by check name, at samples 8."""
    report = scenarios.run_scenario("reduction-suite", seed=seed, samples=8)
    return {c.name: c.passed for c in report.checks}


def test_exact_iff_isotropic_fails_when_every_action_is_exact(monkeypatch):
    real = scenarios.reduce_pointwise
    monkeypatch.setattr(scenarios, "reduce_pointwise", lambda actions: [
        dataclasses.replace(red, exact=True) for red in real(actions)])
    for seed in range(3):
        assert not _verdicts(seed)["exact-iff-isotropic"]


def test_exact_iff_isotropic_fails_when_a_shape_group_comes_back_reversed(monkeypatch):
    real = scenarios.reduce_pointwise

    def reversed_within_shapes(actions):
        reds = real(actions)
        out = list(reds)
        shapes = {}
        for i, act in enumerate(actions):
            shapes.setdefault(act.generators.shape, []).append(i)
        for rows in shapes.values():
            for i, j in zip(rows, reversed(rows)):
                out[i] = reds[j]
        return out

    monkeypatch.setattr(scenarios, "reduce_pointwise", reversed_within_shapes)
    for seed in range(3):
        assert not _verdicts(seed)["exact-iff-isotropic"]


def test_graph_transversality_fails_with_one_scale_for_every_point(monkeypatch):
    real = scenarios.transversality_check
    monkeypatch.setattr(scenarios, "transversality_check",
                        lambda pair, points, f_scale=1.0:
                        real(pair, points, float(np.ravel(f_scale)[0])))
    for seed in range(3):
        assert not _verdicts(seed)["graph-transversality"]


@pytest.mark.parametrize("scenario", ["s3-hopf", "reduction-suite"])
def test_double_quotient_failure_keeps_the_measured_residual(scenario, monkeypatch):
    """A failed split signature fails the check but leaves its residual the
    measured defect, not a stand-in 1.0."""
    def residual(report):
        (check,) = [c for c in report.checks if c.name == "double-quotient"]
        return check.residual, check.passed

    measured, passed = residual(scenarios.run_scenario(scenario, seed=0, samples=8))
    assert passed and measured <= 1e-9
    real = scenarios.double_quotient_report
    monkeypatch.setattr(scenarios, "double_quotient_report", lambda pair, points: [
        dataclasses.replace(rep, split_signature_ok=False) for rep in real(pair, points)])
    assert residual(scenarios.run_scenario(scenario, seed=0, samples=8)) == (measured, False)


def test_lift_pairing_constant(rng, hopf_pair):
    pts = hopf_pair.chart.domain.sample_many(rng, 4)
    ok, spread = pairing_constant_check(duality_lift_sections(hopf_pair), pts)
    assert ok and spread <= 1e-12


def test_lift_pairing_constant_vector_lift(rng, hopf_flux_chart):
    # a pure vector lift with trivial covector part pairs to zero identically
    cof = hopf_flux_chart.coframe
    secs = [Section.vector_basis(cof, "th")]
    pts = hopf_flux_chart.domain.sample_many(rng, 4)
    ok, spread = pairing_constant_check(secs, pts)
    assert ok and spread <= 1e-12


def test_lift_pairing_nonconstant_detected(rng, hopf_pair):
    cof = hopf_pair.total.coframe
    t = var("t")
    bad = [Section.of(cof, vector={"th": rat(1)}, covector={"th": t * t})]
    pts = hopf_pair.chart.domain.sample_many(rng, 6)
    ok, spread = pairing_constant_check(bad, pts)
    assert not ok


def test_double_quotient_on_pairs(rng, hopf_pair, circle_pair):
    for pair in (hopf_pair, circle_pair, twisted_rank_two_pair()):
        pts = pair.chart.domain.sample_many(rng, 3)
        reports = double_quotient_report(pair, pts)
        assert len(reports) == len(pts)
        for rep in reports:
            assert rep.isotropy_residual_k <= 1e-9
            assert rep.isotropy_residual_kt <= 1e-9
            assert rep.split_signature_ok
            assert rep.rank_ok
            assert rep.isometry_defect_m <= 1e-9
            assert rep.isometry_defect_mt <= 1e-9


def test_double_quotient_dimension_count(rng, hopf_pair):
    (rep,) = double_quotient_report(hopf_pair, hopf_pair.chart.domain.sample_many(rng, 1))
    # the perp of the 2k-dim lift inside dim 2(b + 2k) matches both sides
    b = len(hopf_pair.chart.base_vars)
    k = hopf_pair.k
    assert rep.rank_ok  # mapped bases span 2(b + k) on each side


def test_double_quotient_scaled_form(rng, hopf_pair):
    from tduality.bundle import standard_correspondence_flux

    def doubled(cof, chart, dual):
        return standard_correspondence_flux(cof, chart, dual).scale(rat(2))

    scaled = DualityPair.from_charts(hopf_pair.chart, hopf_pair.dual, doubled)
    (rep,) = double_quotient_report(scaled, scaled.chart.domain.sample_many(rng, 1))
    assert rep.split_signature_ok and rep.rank_ok
    assert max(rep.isometry_defect_m, rep.isometry_defect_mt) <= 1e-9


def test_transversality(rng, circle_pair):
    p = circle_pair.chart.domain.sample_many(rng, 1)[0]
    ((trans, invertible),) = transversality_check(circle_pair, [p])
    assert trans and invertible
    ((trans0, invertible0),) = transversality_check(circle_pair, [p], f_scale=0.0)
    assert not trans0 and not invertible0
    scale = float(rng.uniform(0.3, 2.5))
    ((trans1, invertible1),) = transversality_check(circle_pair, [p], f_scale=scale)
    assert trans1 and invertible1


def test_transversality_small_block(torus_pair):
    """Both sides use the relative rank rule, so a small but invertible
    block (det 1e-10 at f_scale 1e-5) counts as invertible, and they agree."""
    point = {"s1": 0.3, "s2": 0.5}
    (small,) = transversality_check(torus_pair, [point], f_scale=1e-5)
    assert small == (True, True) and all(type(side) is bool for side in small)
    assert transversality_check(torus_pair, [point], f_scale=0.0) == [(False, False)]


def test_tangent_space_dimension(rng, hopf_pair):
    p = hopf_pair.chart.domain.sample_many(rng, 1)[0]
    (basis,) = generalized_tangent_basis(hopf_pair, [p])
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
        ((r1, r2, d1, d2),) = fourier_mukai_check(
            pair, sp.form.eval_vectors(pts), dual_sp.form.eval_vectors(pts), pts)
        assert r1 and r2


def test_fourier_mukai_negative(rng, circle_pair):
    pts = circle_pair.chart.domain.sample_many(rng, 1)
    sp = random_pure_spinor(rng, circle_pair.chart, pts)
    cof = circle_pair.dual.coframe
    unrelated = PureSpinor(Form.monomial(cof, ("tht",))
                           + Form.monomial(cof, ("dt",), CScalar.of(rat(0), rat(3))))
    ((r1, r2, d1, d2),) = fourier_mukai_check(
        circle_pair, sp.form.eval_vectors(pts), unrelated.form.eval_vectors(pts), pts)
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
        ((r1, r2, d1, d2),) = fourier_mukai_check(
            pair, sp.form.eval_vectors(pts), other.form.eval_vectors(pts), pts)
        if max(d1, d2) < 1e-4 and not (r1 and r2):
            continue  # borderline random instance: skip the verdict
        assert r1 == r2


@pytest.mark.parametrize("chart_name", ["circle_chart", "torus_chart"])
def test_random_spinor_values_are_seeded_nondegenerate_and_pure(chart_name, request):
    chart = request.getfixturevalue(chart_name)
    m = chart.coframe.dim
    points = chart.domain.sample_many(np.random.default_rng(0), 1)
    for seed in range(20):
        rho = random_spinor_values(np.random.default_rng(seed), m)
        assert rho.shape == (1 << m,)
        assert np.array_equal(rho, random_spinor_values(np.random.default_rng(seed), m))
        ref = np.abs(rho).max()
        assert mukai_norm(dict(enumerate(rho.tolist())), m) > 1e-3 * ref * ref
        assert annihilators(chart.coframe, rho[None], points).shape == (1, 2 * m, m)


def test_random_spinor_values_need_an_even_dimension():
    with pytest.raises(ValueError):
        random_spinor_values(np.random.default_rng(0), 3)


@pytest.mark.parametrize("m", [0, 2, 4, 6])
def test_random_spinor_values_match_the_reference(m):
    """The flattened products draw the same values as the ``tensordot``
    body, byte for byte, and leave the generator in the same state."""
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (random_spinor_values(rng, m).tobytes()
                == _reference_random_spinor_values(ref, m).tobytes()), seed
        assert rng.random() == ref.random()


@pytest.mark.parametrize("m", [0, 2, 4, 6])
def test_spinor_draw_tables_are_shared_per_m(m):
    """A draw reshapes one read-only array of the two-generator wedge
    products and one of the wedge matrices, (matrices, 2^m, 2^m) each, and
    reads the Mukai sign of each mask from one read-only vector, all built
    once per m."""
    two, wedges, signs = tables = randomgen._spinor_tables(m)
    assert all(a is b for a, b in zip(randomgen._spinor_tables(m), tables))
    assert not any(t.flags.writeable for t in tables)
    assert wedges.shape == (m, 1 << m, 1 << m)
    assert all(np.array_equal(w, c) for w, c in zip(wedges, _clifford_matrices(m)[0]))
    pairs = list(itertools.combinations(range(m), 2))
    assert len(two) == len(pairs)
    assert all(np.array_equal(t, wedges[i] @ wedges[j]) for t, (i, j) in zip(two, pairs))
    assert signs.tolist() == [sign for _, _, sign in mukai_signs(m)]


@pytest.mark.parametrize("config", ["s2", "hopf_surface"], ids=chart_id)
def test_transform_matrices_give_the_transported_spinor(config):
    """The form transform is C-infinity(base)-linear: the transform matrices
    applied to a spinor's values are its transport's values, bit for bit."""
    pair = DualityPair.from_chart(load_chart(config))
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = pair.chart.domain.sample_many(rng, 3)
        sp = random_pure_spinor(rng, pair.chart, pts)
        partner = transform_matrices(pair, pts) @ sp.form.eval_vectors(pts)[..., None]
        assert np.array_equal(partner[..., 0], transport_spinor(sp, pair).form.eval_vectors(pts))


def _product_criterion(seed):
    report = scenarios.run_scenario("reduction-suite", seed=seed, samples=8)
    (check,) = [c for c in report.checks if c.name == "product-criterion-equivalence"]
    return report, check


def _negate_column(mats):
    mats = mats.copy()
    mats[..., 1] *= -1
    return mats


@pytest.mark.parametrize("corrupt", [lambda mats: np.broadcast_to(np.eye(4), mats.shape),
                                     _negate_column], ids=["identity", "negated-column"])
def test_product_criterion_fails_with_a_broken_partner(corrupt, monkeypatch):
    """Positive partners taken from a corrupted transform are not the
    transport, so the check cannot pass on them.  (s2's transform is a
    symmetric permutation, so transposing it would change nothing.)"""
    real = scenarios.transform_matrices
    monkeypatch.setattr(scenarios, "transform_matrices",
                        lambda pair, points: corrupt(real(pair, points)))
    for seed in range(3):
        assert not _product_criterion(seed)[1].passed


@pytest.mark.parametrize("seeds", [range(0, 25), range(25, 50)])
def test_product_criterion_keeps_its_negatives(seeds):
    for seed in seeds:
        report, check = _product_criterion(seed)
        negatives = int(re.search(r"(\d+) negative instances", check.notes).group(1))
        assert report.ok and check.passed and negatives >= 12, (seed, check.notes)


def test_rank_zero_pair_reduces_to_empty_spaces(rng, plane_chart):
    """A pair with no fibers, which ``validate_pair`` accepts, has no lift
    sections and an empty fiber block: the double quotient reports the empty
    spaces (isotropy and defects 0, split signature, Gram determinant 1),
    the empty spans meet transversally, and the empty pairing is constant."""
    pair = DualityPair.from_chart(plane_chart)
    points = plane_chart.domain.sample_many(rng, 3)
    assert (double_quotient_report(pair, points)
            == [ReductionReport(0.0, 0.0, True, 1.0, 0.0, 0.0, True)] * 3)
    assert transversality_check(pair, points) == [(True, True)] * 3
    assert pairing_constant_check(duality_lift_sections(pair), points) == (True, 0.0)


def test_signature_helper():
    g = np.diag([2.0, -1.0, 0.0])
    assert signature_of(g) == (1, 1, 1)


def test_pairing_constant_check_nonconstant_sections():
    # the spread must match one computed from eval_vector and the pairing
    # matrix on sections with non-constant coefficients; each entry
    # pairing(a, b) is a fresh expression, evaluated on its own
    rng = np.random.default_rng(0)
    chart = load_chart("s3_hopf")
    sections = [random_section(rng, chart) for _ in range(4)]
    points = chart.domain.sample_many(rng, 4)
    _, spread = pairing_constant_check(sections, points)
    g = split_pairing_matrix(chart.coframe.dim)
    mats = []
    for p in points:
        vecs = np.stack([s.eval_vector(p) for s in sections], axis=1)
        mats.append(vecs.T @ g @ vecs)
    stack = np.stack(mats)
    assert spread == pytest.approx(np.abs(stack - stack.mean(axis=0)).max(), rel=1e-12)


# The tangent space as it was first written, kept as the reference: tangent
# directions of the fiber product in three loops, each with the covector
# i_X F spread over the two factors, plus the annihilator of the diagonal.
def _reference_tangent_basis(pair, point, f_scale=1.0):
    cof_m = pair.chart.coframe
    cof_t = pair.dual.coframe
    total_cof = pair.total.coframe
    m, mt = cof_m.dim, cof_t.dim
    n = m + mt
    dim = 2 * n
    f_mat = f_scale * _reference_two_form_matrix(
        pair.F, list(pair.F.eval_coeffs(point).values()))
    base_idx_m = [cof_m.index(base_generator(v)) for v in pair.chart.base_vars]
    base_idx_t = [cof_t.index(base_generator(v)) for v in pair.dual.base_vars]
    total_of_m = [total_cof.index(nm) for nm in cof_m.names]
    total_of_t = [total_cof.index(nm) for nm in cof_t.names]
    tangent_dirs = []
    for a, v in enumerate(pair.chart.base_vars):
        vec = np.zeros(dim)
        vec[base_idx_m[a]] = 1.0
        vec[m + base_idx_t[a]] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(base_generator(v))] = 1.0
        tangent_dirs.append((vec, lift))
    for nm in pair.chart.fiber_names:
        vec = np.zeros(dim)
        vec[cof_m.index(nm)] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(nm)] = 1.0
        tangent_dirs.append((vec, lift))
    for nm in pair.dual.fiber_names:
        vec = np.zeros(dim)
        vec[m + cof_t.index(nm)] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(nm)] = 1.0
        tangent_dirs.append((vec, lift))
    basis = []
    for vec, lift in tangent_dirs:
        ixf = lift @ f_mat
        covec = np.zeros(dim)
        for i in range(m):
            covec[n + i] += ixf[total_of_m[i]]
        for j in range(mt):
            if total_cof.tags[total_of_t[j]] != "base":
                covec[n + m + j] += ixf[total_of_t[j]]
        basis.append(vec + covec)
    for a in range(len(base_idx_m)):
        covec = np.zeros(dim)
        covec[n + base_idx_m[a]] = 1.0
        covec[n + m + base_idx_t[a]] = -1.0
        basis.append(covec)
    return np.stack(basis, axis=1)


def test_tangent_basis_matches_the_reference(rng, hopf_pair, circle_pair, torus_pair):
    def doubled(cof, chart, dual):
        return standard_correspondence_flux(cof, chart, dual).scale(rat(2))

    pairs = (hopf_pair, circle_pair, torus_pair,
             DualityPair.from_chart(load_chart("t2_twisted")), twisted_rank_two_pair(),
             DualityPair.from_charts(hopf_pair.chart, hopf_pair.dual, doubled))
    for pair in pairs:
        for p in pair.chart.domain.sample_many(rng, 2):
            for f_scale in (0.0, 1.0, float(rng.uniform(0.3, 2.5))):
                (basis,) = generalized_tangent_basis(pair, [p], f_scale)
                assert np.abs(basis.T @ basis - np.eye(basis.shape[1])).max() <= 1e-12
                ref = np.linalg.qr(_reference_tangent_basis(pair, p, f_scale))[0]
                assert basis.shape == ref.shape
                assert np.abs(basis @ basis.T - ref @ ref.T).max() <= 1e-12


def _oracle_pairs():
    """The pair of every ``scenarios.CHARTS`` chart, the mixed pair,
    reduction-suite's scaled-form pair and the sheared torus pair with a
    non-symmetric fiber block."""
    from test_certify import sheared_torus_pair

    def doubled(cof, chart, dual):
        return standard_correspondence_flux(cof, chart, dual).scale(rat(2))

    pairs = {chart_id(name): DualityPair.from_chart(load_chart(name))
             for name in sorted(CHARTS)}
    hopf = pairs[chart_id("s3_hopf")]
    pairs["mixed"] = twisted_rank_two_pair()
    pairs["scaled"] = DualityPair.from_charts(hopf.chart, hopf.dual, doubled)
    pairs["sheared"] = sheared_torus_pair()
    return pairs


@pytest.mark.parametrize("npts", [1, 8, 64])
def test_double_quotient_matches_the_reference(npts):
    """The stacked reports equal the point-by-point ones, repr for repr."""
    for name, pair in _oracle_pairs().items():
        pts = pair.chart.domain.sample_many(np.random.default_rng(npts), npts)
        reports = double_quotient_report(pair, pts)
        assert len(reports) == npts
        assert repr(reports) == repr(_reference_double_quotient_report(pair, pts)), name


def test_double_quotient_no_points(hopf_pair):
    assert double_quotient_report(hopf_pair, []) == []


def test_double_quotient_groups_points_by_nullspace_rank(rng, hopf_pair, monkeypatch):
    """The lift sections of a pair always have independent vector parts, so
    their nullspace has one dimension at every point; scaling F by a base
    variable does not change that.  An extra lift t E_dt vanishes at t = 0
    only, so one call sees two nullspace ranks and runs two groups."""
    lifts = reduction.duality_lift_sections

    def with_extra_lift(pair):
        cof = pair.total.coframe
        extra = FrameVector.basis(cof, "dt").scale(var("t"))
        return lifts(pair) + [Section(extra, Form.zero(cof))]

    monkeypatch.setattr(reduction, "duality_lift_sections", with_extra_lift)
    pts = hopf_pair.chart.domain.sample_many(rng, 6)
    pts[3] = {**pts[3], "t": 0.0}
    reports = double_quotient_report(hopf_pair, pts)
    assert repr(reports) == repr(_reference_double_quotient_report(hopf_pair, pts))
    # the perp is one dimension larger at t = 0, where it still maps onto
    # both sides with full rank
    assert [rep.rank_ok for rep in reports] == [p["t"] == 0.0 for p in pts]


def test_rank_of_a_stack_is_the_rank_of_each_row(rng):
    s = np.sort(np.abs(rng.standard_normal((6, 4))), axis=1)[:, ::-1].copy()
    s[1, 2:] = 1e-12 * s[1, 0]
    s[2] = 0.0
    s[3, 1:] = 0.0
    ranks = _rank(s)
    assert ranks.tolist() == [_reference_rank(row) for row in s] == [4, 2, 0, 1, 4, 4]
    assert isinstance(_rank(s[0]), int)
    assert _rank(np.zeros((0, 3))).shape == (0,)
    assert _rank(np.zeros((2, 0))).tolist() == [0, 0]


def test_signature_of_a_stack_is_the_signature_of_each_matrix(rng):
    a = rng.standard_normal((5, 4, 4))
    stack = a + a.transpose(0, 2, 1)
    stack[1] = np.diag([2.0, -1.0, 0.0, 0.0])
    sigs = signature_of(stack)
    assert [tuple(s) for s in sigs.tolist()] == [_reference_signature(m) for m in stack]
    assert signature_of(np.zeros((0, 0))) == (0, 0, 0)
