"""The whole-array residuals and the stacked entry-space draw against the
point-by-point bodies they replaced (``_reference_*`` in conftest.py), bit for
bit: floats by ``float.hex`` and arrays by their bytes, so signed zeros
count.  The charts are every ``scenarios.CHARTS`` chart and both
buscher-random charts, at 0, 1, 8 and 64 points.  The cost guard holds the
number of Python-level calls of each of the four functions fixed as the point
count grows."""
import numpy as np
import pytest

from tduality import scenarios
from tduality.scalar import EvaluationError, ONE, rat, sdiv, var
from tduality.bundle import BundleChart, form_residual
from tduality.exterior import Form, _eval_array
from tduality.structures import GeneralizedMetric, SymTensor, metric_residual
from tduality.duality import DualityPair, buscher_rules, transport_metric
from tduality.randomgen import random_form

from conftest import (_reference_entry_points, _reference_eval_array,
                      _reference_form_residual, _reference_metric_residual, chart_id,
                      count_python_calls, random_metric)

BUSCHER = {
    "b1d": lambda: BundleChart.build("b1d", [("t", -0.9, 0.9)], ["th"]),
    "b2d": lambda: BundleChart.build("b2d", [("t", -0.9, 0.9), ("u", 0.1, 0.9)], ["th"]),
}
BUILDERS = {**{chart_id(name): build for name, build in scenarios.CHARTS.items()}, **BUSCHER}


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _buscher_sides(chart):
    """(generic metric, closed-form dual, transported dual, rules applied
    twice) of buscher-random on ``chart``."""
    pair = DualityPair.from_chart(chart)
    met = scenarios._generic_metric(chart.coframe)
    closed = buscher_rules(met, pair)
    back = buscher_rules(closed, pair.swap())
    return met, closed, transport_metric(met, pair), back


@pytest.mark.parametrize("n", [0, 1, 8, 64])
@pytest.mark.parametrize("m", [2, 3])
def test_entry_points_match_the_reference(m, n):
    """Same keys in the same order, the same bits, and the rng left in the
    same state, for seeds 0 to 49."""
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = scenarios._entry_points(rng, m, n), _reference_entry_points(ref_rng, m, n)
        assert [[(k, v.hex()) for k, v in p.items()] for p in got] == \
            [[(k, v.hex()) for k, v in p.items()] for p in want]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("npts", [0, 1, 8, 64])
@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_residuals_match_the_reference(name, npts):
    """Seeded random forms and metrics on the chart, and a form of no
    coefficients: ``_eval_array``, ``form_residual`` and ``metric_residual``
    give the reference's bits."""
    chart = BUILDERS[name]()
    cof = chart.coframe
    rng = np.random.default_rng([npts, len(name)])
    points = chart.domain.sample_many(rng, npts)
    forms = [random_form(rng, cof, chart.base_vars) for _ in range(4)] + [Form.zero(cof)]
    forms.append(forms[0] - forms[1])
    for form in forms:
        _same_array(_eval_array(form.coeffs.values(), points),
                    _reference_eval_array(form.coeffs.values(), points))
        assert form_residual(form, chart.domain, points).hex() == \
            _reference_form_residual(form, chart.domain, points).hex()
    metrics = [random_metric(rng, chart, points) for _ in range(2)]
    metrics.append(GeneralizedMetric(metrics[0].g, Form.zero(cof)))
    for a in metrics:
        for b in metrics:
            assert metric_residual(a, b, points).hex() == \
                _reference_metric_residual(a, b, points).hex()


@pytest.mark.parametrize("npts", [0, 1, 8, 64])
@pytest.mark.parametrize("name", sorted(BUSCHER))
def test_buscher_residuals_match_the_reference(name, npts):
    """The two comparisons of buscher-random, at its own entry-space points."""
    chart = BUSCHER[name]()
    met, closed, transported, back = _buscher_sides(chart)
    points = scenarios._entry_points(np.random.default_rng(npts), chart.coframe.dim, npts)
    for a, b in [(transported, closed), (back, met)]:
        assert metric_residual(a, b, points).hex() == \
            _reference_metric_residual(a, b, points).hex()


def test_empty_inputs_give_zero_and_empty_arrays(hopf_chart):
    """No points or no coefficients: 0.0 and a (k, 0) or (0, n) array, never
    a reduction over nothing."""
    cof = hopf_chart.coframe
    rng = np.random.default_rng(3)
    form = random_form(rng, cof, hopf_chart.base_vars, density=1.0)
    met = random_metric(rng, hopf_chart, [])
    points = hopf_chart.domain.sample_many(rng, 5)
    assert _eval_array(form.coeffs.values(), []).shape == (len(form.coeffs), 0)
    assert _eval_array([], points).shape == (0, 5)
    assert form_residual(form, None, []) == 0.0
    assert form_residual(Form.zero(cof), None, points) == 0.0
    assert metric_residual(met, met, []) == 0.0
    empty = GeneralizedMetric(SymTensor(cof, {}), Form.zero(cof))
    assert metric_residual(empty, empty, points) == 0.0


def test_metric_residual_names_the_first_failing_point_over_b_and_g(circle_chart):
    """b and g are evaluated in one call: a singular g entry at point 1 is
    reported before a singular b coefficient at point 2, and an unbound
    variable names the first point."""
    cof = circle_chart.coframe
    t = var("t")
    g = SymTensor(cof, {(0, 0): sdiv(ONE, t), (1, 1): ONE})
    b = Form.monomial(cof, ("dt", "th"), sdiv(ONE, t - rat(1, 2)))
    singular = GeneralizedMetric(g, b)
    good = GeneralizedMetric(SymTensor(cof, {(0, 0): ONE, (1, 1): ONE}), Form.zero(cof))
    points = [{"t": 0.25}, {"t": 0.0}, {"t": 0.5}]
    with pytest.raises(EvaluationError, match="division by zero") as err:
        metric_residual(singular, good, points)
    assert (err.value.index, err.value.point) == (1, points[1])
    with pytest.raises(EvaluationError, match="division by zero") as err:
        metric_residual(singular, good, [points[0], points[2], points[1]])
    assert (err.value.index, err.value.point) == (1, points[2])
    unbound = GeneralizedMetric(SymTensor(cof, {(0, 0): var("s"), (1, 1): ONE}),
                                Form.zero(cof))
    with pytest.raises(EvaluationError, match="unbound variable 's'") as err:
        metric_residual(good, unbound, points)
    assert (err.value.index, err.value.point) == (0, points[0])


@pytest.mark.parametrize("function", ["_entry_points", "form_residual", "metric_residual",
                                      "_eval_array"])
def test_python_calls_do_not_grow_with_the_points(function):
    """At 64 points each function makes as many Python-level calls as at 8:
    the per-point work runs inside numpy and ``evaluate_points``."""
    chart = BUSCHER["b2d"]()
    _, closed, transported, _ = _buscher_sides(chart)
    form = transported.b - closed.b + random_form(np.random.default_rng(0), closed.coframe,
                                                  chart.base_vars)
    rng = np.random.default_rng(1)
    points = {n: [{**p, **q} for p, q in zip(scenarios._entry_points(rng, 3, n),
                                             chart.domain.sample_many(rng, n))]
              for n in (8, 64)}
    calls = {
        "_entry_points": lambda n: scenarios._entry_points(np.random.default_rng(0), 3, n),
        "form_residual": lambda n: form_residual(form, None, points[n]),
        "metric_residual": lambda n: metric_residual(transported, closed, points[n]),
        "_eval_array": lambda n: _eval_array(form.coeffs.values(), points[n]),
    }[function]
    assert count_python_calls(lambda: calls(8)) == count_python_calls(lambda: calls(64))
