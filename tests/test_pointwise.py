"""The point-list forms of the pointwise layer against the one-point bodies
they replaced (``_reference_*`` in conftest.py): for the pair of every
``scenarios.CHARTS`` chart, the mixed pair, the scaled-form pair, the
sheared torus pair and the two point-dependent pairs (``test_reduction``),
at 1, 8 and 32 points, every result equals the reference's at each point,
bit for bit (arrays with ``np.array_equal``, tuples by ``repr``)."""
import numpy as np
import pytest

from tduality import scenarios
from tduality.scalar import var
from tduality.exterior import Form, wedge
from tduality.structures import (PureSpinor, SymTensor, annihilators, check_integrable,
                                 gcs_matrices, is_decomposable, metric_matrices,
                                 mukai_norms, spinor_types, uk_spaces)
from tduality.duality import (assemble_metric, bihermitian_dual, dual_types,
                              section_transform_matrices, transform_matrices,
                              transport_spinor, uk_transport_residuals)
from tduality.reduction import (double_quotient_report, fourier_mukai_check,
                                generalized_tangent_basis, transversality_check)
from tduality.randomgen import random_form, random_pure_spinor

from conftest import (_reference_annihilator, _reference_bihermitian_dual_at,
                      _reference_check_integrable, _reference_dual_type_at,
                      _reference_fourier_mukai_check, _reference_gcs_matrix,
                      _reference_generalized_tangent_basis,
                      _reference_is_decomposable_at, _reference_metric_matrix_at,
                      _reference_mukai_norm_at, _reference_section_transform_matrix_at,
                      _reference_spinor_type_at, _reference_transform_matrix_at,
                      _reference_transversality_check, _reference_uk_spaces,
                      _reference_uk_transport_residual, _reference_vector,
                      random_metric)
from test_reduction import _oracle_pairs

PAIRS = _oracle_pairs()
EVEN = [name for name, pair in PAIRS.items() if pair.chart.coframe.dim % 2 == 0]


def _same(stack, reference):
    assert len(stack) == len(reference)
    for got, want in zip(stack, reference):
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("npts", [1, 8, 32])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_matrices_match_the_reference(name, npts):
    pair = PAIRS[name]
    rng = np.random.default_rng([npts, len(name)])
    points = pair.chart.domain.sample_many(rng, npts)
    _same(transform_matrices(pair, points),
          [_reference_transform_matrix_at(pair, p) for p in points])
    _same(section_transform_matrices(pair, points),
          [_reference_section_transform_matrix_at(pair, p) for p in points])
    scales = [float(s) for s in rng.uniform(0.3, 2.5, npts)]
    for f_scale in (1.0, 0.0, scales):
        per_point = np.broadcast_to(f_scale, (npts,)).tolist()
        _same(generalized_tangent_basis(pair, points, f_scale),
              [_reference_generalized_tangent_basis(pair, p, s)
               for p, s in zip(points, per_point)])
        assert transversality_check(pair, points, f_scale) == [
            _reference_transversality_check(pair, p, s) for p, s in zip(points, per_point)]
    metric = random_metric(rng, pair.chart, points)
    _same(metric_matrices(metric, points),
          [_reference_metric_matrix_at(metric, p) for p in points])


@pytest.mark.parametrize("npts", [1, 8, 32])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_form_tests_match_the_reference(name, npts):
    """Spinor type, Mukai norm and the Pluecker test of random forms and of
    wedges of two random 1-forms, which are decomposable."""
    chart = PAIRS[name].chart
    cof = chart.coframe
    rng = np.random.default_rng([npts, len(name), 1])
    points = chart.domain.sample_many(rng, npts)
    for _ in range(3):
        forms = [random_form(rng, cof, chart.base_vars, density=0.6),
                 wedge(random_form(rng, cof, chart.base_vars, degrees=(1,), density=1.0),
                       random_form(rng, cof, chart.base_vars, degrees=(1,), density=1.0))]
        for form in forms:
            spinor = PureSpinor(form)
            assert spinor_types(spinor, points) == [
                _reference_spinor_type_at(spinor, p) for p in points]
            assert mukai_norms(spinor, points) == [
                _reference_mukai_norm_at(spinor, p) for p in points]
            assert is_decomposable(form, points) == [
                _reference_is_decomposable_at(form, p) for p in points]


@pytest.mark.parametrize("npts", [1, 8, 32])
@pytest.mark.parametrize("name", EVEN)
def test_structures_match_the_reference(name, npts):
    """Annihilators, GC-structure matrices, the eigenspace ladder, the
    integrability solve, type change, ladder transport and both Fourier-Mukai
    routes, on a random pure spinor with its transport (a positive instance)
    and with an unrelated random spinor on the dual (a negative one)."""
    pair = PAIRS[name]
    rng = np.random.default_rng([npts, len(name), 2])
    points = pair.chart.domain.sample_many(rng, npts)
    spinor = random_pure_spinor(rng, pair.chart, points)
    dual = transport_spinor(spinor, pair)
    other = random_pure_spinor(rng, pair.dual, points)
    rho = spinor.form.eval_vectors(points)
    assert np.array_equal(rho, [_reference_vector(spinor.form, p) for p in points])
    cof = pair.chart.coframe
    _same(annihilators(cof, rho, points), [_reference_annihilator(cof, r) for r in rho])
    _same(gcs_matrices(cof, rho, points), [_reference_gcs_matrix(cof, r) for r in rho])
    ladder = uk_spaces(cof, rho, points)
    reference = [_reference_uk_spaces(cof, r) for r in rho]
    assert [level for level, _ in ladder] == [level for level, _ in reference[0]]
    for k, (_, bases) in enumerate(ladder):
        _same(bases, [levels[k][1] for levels in reference])
    got = check_integrable(spinor, pair.chart, points)
    worst, witnesses = _reference_check_integrable(spinor, pair.chart, points)
    assert got.residual == worst
    _same(got.witnesses, witnesses)
    assert dual_types(spinor, pair, points) == [
        _reference_dual_type_at(spinor, pair, p) for p in points]
    assert uk_transport_residuals(spinor, pair, points) == [
        _reference_uk_transport_residual(spinor, pair, p, dual) for p in points]
    for rho_t in (dual.form.eval_vectors(points), other.form.eval_vectors(points)):
        assert repr(fourier_mukai_check(pair, rho, rho_t, points)) == repr([
            _reference_fourier_mukai_check(pair, rm, rt, p)
            for rm, rt, p in zip(rho, rho_t, points)])


def _conformal_circle_metric(chart):
    """A conformally flat metric, with which the rotation by a right angle is
    compatible at every point."""
    t = var("t")
    zero = Form.zero(chart.coframe)
    conformal = 2 + t * t
    g2 = SymTensor.from_names(chart.coframe, {("dt", "dt"): conformal})
    return assemble_metric(chart, conformal, zero, g2, zero, zero)


@pytest.mark.parametrize("npts", [1, 8, 32])
def test_bihermitian_dual_matches_the_reference(circle_chart, npts):
    met = _conformal_circle_metric(circle_chart)
    points = circle_chart.domain.sample_many(np.random.default_rng(npts), npts)
    i_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    for side in (+1, -1):
        _same(bihermitian_dual(i_mat, met, circle_chart, points, side),
              [_reference_bihermitian_dual_at(i_mat, met, circle_chart, p, side)
               for p in points])


@pytest.mark.parametrize("seed", range(6))
def test_fourier_mukai_matches_the_reference_on_the_suite_draws(seed, monkeypatch):
    """reduction-suite's own draws: each stacked call, one per pair, gives
    the per-point reference tuples on its spinor values and points."""
    calls = []
    real = scenarios.fourier_mukai_check

    def recorded(pair, rho_m, rho_t, points):
        out = real(pair, rho_m, rho_t, points)
        calls.append((pair, rho_m, rho_t, points, out))
        return out

    monkeypatch.setattr(scenarios, "fourier_mukai_check", recorded)
    report = scenarios.run_scenario("reduction-suite", seed=seed, samples=8)
    assert [len(points) for _, _, _, points, _ in calls] == [16, 16]
    for pair, rho_m, rho_t, points, out in calls:
        assert repr(out) == repr([_reference_fourier_mukai_check(pair, rm, rt, p)
                                  for rm, rt, p in zip(rho_m, rho_t, points)])
    assert {c.name: c.passed for c in report.checks}["product-criterion-equivalence"]


def test_an_empty_point_list_gives_empty_results(circle_chart):
    """Every point-list function accepts no points and returns no values; the
    stacks keep their matrix shape."""
    pair = PAIRS[EVEN[0]]
    cof = pair.chart.coframe
    m, mt = cof.dim, pair.dual.coframe.dim
    rng = np.random.default_rng(0)
    spinor = random_pure_spinor(rng, pair.chart, pair.chart.domain.sample_many(rng, 3))
    rho = spinor.form.eval_vectors([])
    rho_t = transport_spinor(spinor, pair).form.eval_vectors([])
    assert rho.shape == (0, 1 << m) and rho_t.shape == (0, 1 << mt)
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    for stack, shape in [
            (annihilators(cof, rho, []), (2 * m, m)),
            (gcs_matrices(cof, rho, []), (2 * m, 2 * m)),
            (metric_matrices(random_metric(rng, pair.chart, []), []), (2 * m, 2 * m)),
            (transform_matrices(pair, []), (1 << mt, 1 << m)),
            (section_transform_matrices(pair, []), (2 * mt, 2 * m)),
            (generalized_tangent_basis(pair, []), (2 * (m + mt), m + mt)),
            (bihermitian_dual(rotation, _conformal_circle_metric(circle_chart),
                              circle_chart, [], +1), (2, 2))]:
        assert stack.shape == (0,) + shape
    levels = uk_spaces(cof, rho, [])
    assert [level for level, _ in levels] == list(range(m // 2, -m // 2 - 1, -1))
    assert sum(bases.shape[-1] for _, bases in levels) == 1 << m
    assert all(bases.shape[:2] == (0, 1 << m) for _, bases in levels)
    for values in (spinor_types(spinor, []), mukai_norms(spinor, []),
                   is_decomposable(spinor.form, []), dual_types(spinor, pair, []),
                   uk_transport_residuals(spinor, pair, []),
                   transversality_check(pair, []), fourier_mukai_check(pair, rho, rho_t, []),
                   double_quotient_report(pair, [])):
        assert values == []
    integrable = check_integrable(spinor, pair.chart, [])
    assert (integrable.residual, integrable.integrable, integrable.witnesses,
            integrable.points) == (0.0, True, [], [])
