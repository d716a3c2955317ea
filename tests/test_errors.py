"""Declared failure modes: mismatched coframes, vanishing spinors,
singular data."""
import re

import numpy as np
import pytest

from tduality.scalar import (CScalar, Domain, EvaluationError, evaluate_points, rat,
                             sexp, slog, solve_linear_symbolic, ssqrt, var)
from tduality.exterior import (Coframe, Form, FrameVector, clifford_act,
                               contract, exp_form, wedge)
from tduality.bundle import BundleChart, exterior_derivative
from tduality.courant import Section, courant_bracket
from tduality.structures import (GeneralizedMetric, PureSpinor, SymTensor,
                                 annihilators, check_integrable, gcs_matrices,
                                 gcs_matrix_at, metric_matrices, spinor_types,
                                 uk_spaces)
from tduality import duality

from conftest import pairing


@pytest.fixture
def two_coframes():
    a = Coframe(("dx", "dy"), ("base", "base"))
    b = Coframe(("du", "dv"), ("base", "base"))
    return a, b


def test_wedge_coframe_mismatch(two_coframes):
    a, b = two_coframes
    with pytest.raises(ValueError):
        wedge(Form.monomial(a, ("dx",)), Form.monomial(b, ("du",)))


def test_contract_coframe_mismatch(two_coframes):
    a, b = two_coframes
    with pytest.raises(ValueError):
        contract(FrameVector.basis(a, "dx"), Form.monomial(b, ("du",)))


def test_clifford_requires_degree_one(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        clifford_act(FrameVector.zero(a), Form.monomial(a, ("dx", "dy")),
                     Form.scalar(a, 1))


def test_section_covector_degree_checked(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        Section(FrameVector.zero(a), Form.monomial(a, ("dx", "dy")))


def test_exterior_derivative_coframe_mismatch(plane_chart, two_coframes):
    _, b = two_coframes
    with pytest.raises(ValueError):
        exterior_derivative(Form.monomial(b, ("du",)), plane_chart)


def test_bracket_chart_mismatch(plane_chart, flat3_chart):
    v = Section.vector_basis(plane_chart.coframe, "dx")
    w = Section.vector_basis(flat3_chart.coframe, "dx")
    with pytest.raises(ValueError):
        courant_bracket(v, w, plane_chart)
    with pytest.raises(ValueError):
        pairing(v, w)


def test_vanishing_spinor_rejected(plane_chart):
    t = var("x")
    sp = PureSpinor(Form.monomial(plane_chart.coframe, ("dx",), t))
    point = {"x": 0.0, "y": 0.2}
    with pytest.raises(ValueError):
        annihilators(plane_chart.coframe, sp.form.eval_vectors([point]), [point])
    with pytest.raises(ValueError):
        spinor_types(sp, [point])


def test_gcs_rejects_degenerate_annihilator(torus_chart, rng):
    cof = torus_chart.coframe
    degenerate = PureSpinor(Form.monomial(cof, ("ds1",))
                            + Form.monomial(cof, ("th1",), CScalar.i()))
    p = torus_chart.domain.sample_many(rng, 1)[0]
    with pytest.raises(ValueError):
        gcs_matrix_at(degenerate, torus_chart, p)


BAD = 5     # the one bad point among eight


def _points(good, bad):
    """Eight points of the plane chart: x = ``good`` except at ``BAD``."""
    return [{"x": bad if i == BAD else good, "y": 0.1 * i - 0.35} for i in range(8)]


def _names_the_bad_point(message, points):
    return pytest.raises(ValueError, match=re.escape(message) + f" at sample point {BAD}: "
                         + re.escape(repr(points[BAD])))


def test_vanishing_spinor_names_the_point(plane_chart):
    cof = plane_chart.coframe
    sp = PureSpinor(Form.monomial(cof, ("dx",), var("x")) + Form.monomial(cof, ("dy",)))
    points = _points(0.5, 0.0)
    vanishing = PureSpinor(Form.monomial(cof, ("dx",), var("x")))
    rhos = vanishing.form.eval_vectors(points)
    for call in (lambda: annihilators(cof, rhos, points),
                 lambda: gcs_matrices(cof, rhos, points),
                 lambda: uk_spaces(cof, rhos, points),
                 lambda: check_integrable(vanishing, plane_chart, points),
                 lambda: spinor_types(vanishing, points)):
        with _names_the_bad_point("spinor vanishes", points):
            call()
    assert spinor_types(sp, points) == [1] * 8


def test_annihilator_dimension_names_the_point(plane_chart):
    # 1 + x dx is not pure: its annihilator is 2-dimensional at x = 0 only
    cof = plane_chart.coframe
    form = Form.scalar(cof, 1) + Form.monomial(cof, ("dx",), var("x"))
    points = _points(0.0, 0.5)
    with _names_the_bad_point("annihilator has dimension 1, expected 2", points):
        gcs_matrices(cof, form.eval_vectors(points), points)


def test_real_annihilator_names_the_point(plane_chart):
    # dx + i x dy is real at x = 0, where its annihilator meets its conjugate
    cof = plane_chart.coframe
    form = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",),
                                                       CScalar(rat(0), var("x")))
    points = _points(0.5, 0.0)
    with _names_the_bad_point("annihilator meets its conjugate: no almost complex structure",
                              points):
        gcs_matrices(cof, form.eval_vectors(points), points)


def test_non_real_structure_names_the_point(plane_chart):
    # exp(0.3 + i x) dx^dy: at x = 1e-6 the eigenbasis is so ill-conditioned
    # that J picks up an imaginary part above 1e-7
    cof = plane_chart.coframe
    form = Form.scalar(cof, 1) + Form.monomial(cof, ("dx", "dy"),
                                               CScalar(rat(3, 10), var("x")))
    points = _points(0.5, 1e-6)
    with _names_the_bad_point("eigenspace construction produced a non-real structure",
                              points):
        gcs_matrices(cof, form.eval_vectors(points), points)


def test_indefinite_metric_names_the_point(plane_chart):
    cof = plane_chart.coframe
    metric = GeneralizedMetric(SymTensor.from_names(cof, {("dx", "dx"): var("x"),
                                                          ("dy", "dy"): rat(1)}),
                               Form.zero(cof))
    points = _points(0.5, -0.5)
    with _names_the_bad_point("metric not positive definite", points):
        metric_matrices(metric, points)


def test_annihilated_ladder_member_names_the_point(monkeypatch):
    """A form transform that is zero at one point annihilates every ladder
    member there."""
    from tduality.scenarios import _s2_setup
    chart, *_, spinor = _s2_setup()
    pair = duality.DualityPair.from_chart(chart)
    real = duality.transform_matrices

    def zero_at_bad(pair, points):
        out = real(pair, points)
        out[BAD] = 0
        return out

    monkeypatch.setattr(duality, "transform_matrices", zero_at_bad)
    points = [{"t": 0.1 * i - 0.35} for i in range(8)]
    with pytest.raises(ValueError, match="transform annihilated an eigenspace member at "
                       f"sample point {BAD}: " + re.escape(repr(points[BAD]))):
        duality.uk_transport_residuals(spinor, pair, points)


def test_singular_fiber_block_rejected():
    with pytest.raises(ValueError):
        solve_linear_symbolic([[rat(0), rat(0)], [rat(0), rat(1)]],
                              [rat(1), rat(1)])


def test_singular_fiber_block_rejected_by_every_section_transform(hopf_pair):
    """With F = 0 the fiber block is structurally singular: the first section
    transform raises, and so does the next, since a failed inverse is not
    kept on the pair."""
    pair = duality.DualityPair.from_charts(hopf_pair.chart, hopf_pair.dual,
                                           lambda cof, chart, dual: Form.zero(cof))
    section = Section.vector_basis(pair.chart.coframe, "th")
    for _ in range(2):
        with pytest.raises(ValueError, match="matrix is singular: its determinant is "
                           "structurally zero"):
            duality.dualize_section(section, pair)


def test_exp_form_degree_zero_component_rejected(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        exp_form(Form.scalar(a, 2))


def test_chart_requires_generator_naming():
    cof = Coframe(("q", "th"), ("base", "fiber"))
    with pytest.raises(ValueError):
        BundleChart("bad", ("t",), Domain({"t": (0.0, 1.0)}), cof, {},
                    Form.zero(cof))


def test_unknown_generator_in_form_text_is_named(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError, match=r"unknown generator 'extra' in coframe \(dx dy\)"):
        Form.monomial(a, ("extra", "dx"), CScalar(rat(1), rat(2)))


@pytest.mark.parametrize("expr, values, message", [
    (lambda t: rat(1) / t, (0.5, -0.25, 0.0, 0.75), "division by zero"),
    (lambda t: slog(t), (0.5, 0.25, -0.5, 0.75), "log of nonpositive value"),
    (lambda t: ssqrt(t), (0.5, 0.25, -0.5, 0.75), "sqrt of negative value"),
    (lambda t: sexp(t * t), (0.5, 0.25, 30.0, 0.75), "non-finite value"),
    (lambda t: t * var("u"), (0.5, 0.25, 1e200, 0.75), "non-finite value"),
    (lambda t: t ** 2, (0.5, 0.25, 1e200, 0.75), "non-finite value"),
])
def test_evaluation_error_names_the_sample_point(expr, values, message):
    t = var("t")
    points = [{"t": v, "u": v} for v in values]
    with pytest.raises(EvaluationError, match=f"{message} at sample point 2: "
                       + re.escape(repr(points[2]))) as err:
        evaluate_points([t + 1, expr(t)], points)
    assert err.value.index == 2 and err.value.point == points[2]


def test_evaluation_error_names_the_first_failing_point():
    # the walk meets log(t) first, which fails only at the last point; the
    # division fails earlier, at point 1, and that is the point named
    t = var("t")
    points = [{"t": 0.25}, {"t": 0.5}, {"t": -1.0}]
    with pytest.raises(EvaluationError, match="division by zero at sample point 1") as err:
        evaluate_points([slog(t), rat(1) / (t - rat(1, 2))], points)
    assert err.value.index == 1
