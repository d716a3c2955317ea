import itertools

import numpy as np
import pytest

from tduality import duality, exterior
from tduality.scalar import (CScalar, EvaluationError, ONE, ZERO, rat, sadd, scalar_to_text,
                             scos, sdiv, smul, sneg, ssin, var)
from tduality.exterior import Form, exp_form, wedge
from tduality.bundle import (build_dual_chart, form_residual, standard_correspondence_flux,
                             twisted_derivative)
from tduality.courant import Section, courant_bracket, section_basis
from tduality.structures import (GeneralizedMetric, PureSpinor, SymTensor,
                                 check_integrable, metric_residual, spinor_types)
from tduality.duality import (DualityPair, assemble_metric,
                              bihermitian_dual, buscher_rules, dual_types,
                              dualize_form, dualize_form_reverse,
                              dualize_section, orientation_sign, reverse_sign,
                              section_transform_matrices,
                              split_metric, split_two_form,
                              transform_matrix_at, transport_metric,
                              transport_spinor, uk_transport_residuals)
from tduality.randomgen import random_form, random_pure_spinor, random_section
from tduality import scenarios
from tduality.scenarios import twisted_rank_two_pair

from conftest import (_reference_dualize_form, _reference_dualize_form_reverse,
                      _reference_dualize_section, _reference_map_to, compatibility_residual,
                      equal_at_samples, pairing, random_metric, section_residual)


# -- the form transform -------------------------------------------------------

def test_transform_circle_generators(circle_pair):
    cof = circle_pair.chart.coframe
    dcof = circle_pair.dual.coframe
    assert dualize_form(Form.monomial(cof, ("th",)), circle_pair) == Form.scalar(dcof, 1)
    assert dualize_form(Form.scalar(cof, 1), circle_pair) == Form.monomial(dcof, ("tht",))


def test_transform_intertwines_on_pairs(rng, hopf_pair, torus_pair):
    for pair in (hopf_pair, torus_pair, twisted_rank_two_pair()):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 3)
        for _ in range(6):
            rho = random_form(rng, chart.coframe, chart.base_vars, density=0.35)
            lhs = dualize_form(twisted_derivative(rho, chart), pair)
            rhs = twisted_derivative(dualize_form(rho, pair), pair.dual)
            assert form_residual(lhs - rhs, pair.dual.domain, pts) <= 1e-8


def test_transform_reverse_sign(circle_pair, torus_pair, rng):
    assert reverse_sign(circle_pair) == pytest.approx(1.0)
    assert reverse_sign(torus_pair) == pytest.approx(-1.0)
    for pair in (circle_pair, torus_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 3)
        sign = rat(round(reverse_sign(pair).real))
        for _ in range(4):
            rho = random_form(rng, chart.coframe, chart.base_vars, density=0.4)
            back = dualize_form_reverse(dualize_form(rho, pair), pair)
            assert form_residual(back - rho.scale(CScalar.of(sign)),
                                 chart.domain, pts) <= 1e-9


def test_transform_matrix_matches_symbolic(rng, hopf_pair):
    chart = hopf_pair.chart
    p = chart.domain.sample_many(rng, 1)[0]
    t = transform_matrix_at(hopf_pair, p)
    for _ in range(4):
        rho = random_form(rng, chart.coframe, chart.base_vars, density=0.4)
        lhs = t @ rho.eval_vector(p)
        rhs = dualize_form(rho, hopf_pair).eval_vector(p)
        assert np.abs(lhs - rhs).max() <= 1e-10



def test_transform_columns_are_built_once_per_pair(rng, torus_chart, monkeypatch):
    built = {"forms": 0, "sections": 0}
    real_form, real_section = duality.dualize_form, duality.dualize_section

    def counted_form(rho, pair):
        built["forms"] += 1
        return real_form(rho, pair)

    def counted_section(v, pair):
        built["sections"] += 1
        return real_section(v, pair)

    monkeypatch.setattr(duality, "dualize_form", counted_form)
    monkeypatch.setattr(duality, "dualize_section", counted_section)
    cof = torus_chart.coframe
    for _ in range(2):      # a new pair builds its own columns
        pair = DualityPair.from_chart(torus_chart)
        before = dict(built)
        for p in torus_chart.domain.sample_many(rng, 3):
            uncached = np.stack([real_form(Form(cof, {mask: CScalar.one()}), pair)
                                 .eval_vector(p) for mask in range(1 << cof.dim)], axis=1)
            assert np.array_equal(transform_matrix_at(pair, p), uncached)
            uncached = np.stack([real_section(s, pair).eval_vector(p)
                                 for s in section_basis(cof)], axis=1)
            assert np.array_equal(section_transform_matrices(pair, [p])[0], uncached)
        assert built["forms"] - before["forms"] == 1 << cof.dim
        assert built["sections"] - before["sections"] == 2 * cof.dim

# -- the route tables against the reference bodies -------------------------------

def _scaled_pair():
    """reduction-suite's s3_hopf pair with the correspondence form 2F."""
    chart = scenarios.load_chart("s3_hopf")
    return DualityPair.from_charts(chart, build_dual_chart(chart), lambda cof, c, d:
                                   standard_correspondence_flux(cof, c, d).scale(rat(2)))


TRANSFORM_PAIRS = {
    **{name: (lambda name=name: DualityPair.from_chart(scenarios.load_chart(name)))
       for name in scenarios.CHARTS},
    "twisted_rank_two": twisted_rank_two_pair,
    "scaled_2F": _scaled_pair,
}


def assert_same_coeffs(got, want):
    """Same keys in the same order, structurally equal coefficients, and the
    same text for each."""
    assert list(got) == list(want)
    for key, c in want.items():
        assert got[key] == c
        assert ((scalar_to_text(got[key].re), scalar_to_text(got[key].im))
                == (scalar_to_text(c.re), scalar_to_text(c.im)))


def assert_same_section(got, want):
    assert got.x.coframe == want.x.coframe and got.xi.coframe == want.xi.coframe
    assert_same_coeffs(dict(enumerate(got.x.components)), dict(enumerate(want.x.components)))
    assert_same_coeffs(got.xi.coeffs, want.xi.coeffs)


def cancelling_form(pair, cof, reference):
    """e_I - s e_I' for the first masks I < I' and sign s whose images under
    ``reference`` meet at a mask where their sum cancels, or None."""
    one = CScalar.one()
    sizes = [len(reference(Form(cof, {mask: one}), pair).coeffs) for mask in range(1 << cof.dim)]
    for i, j in itertools.combinations(range(1 << cof.dim), 2):
        for s in (one, -one):
            rho = Form(cof, {i: one, j: -s})
            if len(reference(rho, pair).coeffs) < sizes[i] + sizes[j]:
                return rho
    return None


def transform_inputs(pair, cof, reference, rng):
    """Every monomial, every x-monomial for each base coordinate x, three
    dense random complex forms, and a form whose images cancel, if any."""
    one = CScalar.one()
    forms = [Form(cof, {mask: one}) for mask in range(1 << cof.dim)]
    forms += [Form(cof, {mask: CScalar(var(v))}) for v in pair.chart.base_vars
              for mask in range(1 << cof.dim)]
    forms += [random_form(rng, cof, pair.chart.base_vars, density=1.0) for _ in range(3)]
    return forms + [rho for rho in [cancelling_form(pair, cof, reference)] if rho]


@pytest.mark.parametrize("name", sorted(TRANSFORM_PAIRS))
@pytest.mark.parametrize("swapped", [False, True], ids=["pair", "swap"])
def test_transforms_match_the_reference_bodies(name, swapped):
    """Both form transforms and the section transform give the dicts that the
    term-by-term bodies give: same keys, same order, same trees."""
    rng = np.random.default_rng(3)
    pair = TRANSFORM_PAIRS[name]()
    pair = pair.swap() if swapped else pair
    for transform, reference, source, target in (
            (dualize_form, _reference_dualize_form, pair.chart, pair.dual),
            (dualize_form_reverse, _reference_dualize_form_reverse, pair.dual, pair.chart)):
        for rho in transform_inputs(pair, source.coframe, reference, rng):
            got = transform(rho, pair)
            assert got.coframe is target.coframe
            assert_same_coeffs(got.coeffs, reference(rho, pair).coeffs)
    sections = section_basis(pair.chart.coframe)
    sections += [s.scale(CScalar(var(v))) for v in pair.chart.base_vars for s in sections]
    sections += [random_section(rng, pair.chart) for _ in range(3)]
    for v in sections:
        assert_same_section(dualize_section(v, pair), _reference_dualize_section(v, pair))


def test_the_twisted_pair_has_cancelling_images():
    """On the twisted rank-two pair e^F has an F ^ F term, so the images of
    two monomials can meet and cancel, in both directions: the reference test
    above then covers a sum that is dropped."""
    pair = twisted_rank_two_pair()
    assert cancelling_form(pair, pair.chart.coframe, _reference_dualize_form) is not None
    assert cancelling_form(pair, pair.dual.coframe, _reference_dualize_form_reverse) is not None


@pytest.mark.parametrize("name", ["s3_hopf", "hopf_surface", "twisted_rank_two"])
def test_dualize_form_builds_only_surviving_products(name, monkeypatch):
    """The form transform calls none of wedge, fiber_integrate and
    Form.map_to, and multiplies one e^F term by one rho term only where their
    product survives the fiber integral."""
    pair = TRANSFORM_PAIRS[name]()
    cof = pair.chart.coframe
    rho = random_form(np.random.default_rng(1), cof, pair.chart.base_vars, density=1.0)
    dualize_form(rho, pair)                    # builds e^F and the route table
    total = pair.total.coframe
    vol = total.tag_mask("fiber")
    lifted = [_reference_map_to(Form(cof, {mask: CScalar.one()}), total) for mask in rho.coeffs]
    surviving = sum(1 for ma in exp_form(pair.F).coeffs for form in lifted
                    for mb in form.coeffs if not ma & mb and (ma | mb) & vol == vol)
    calls = {"wedge": 0, "fiber_integrate": 0, "map_to": 0, "mul": 0}

    def counting(key, real):
        def counted(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)
        return counted

    for key in ("wedge", "fiber_integrate"):
        counted = counting(key, getattr(exterior, key))
        for module in (exterior, duality):
            monkeypatch.setattr(module, key, counted)
    monkeypatch.setattr(Form, "map_to", counting("map_to", Form.map_to))
    monkeypatch.setattr(CScalar, "__mul__", counting("mul", CScalar.__mul__))
    dualize_form(rho, pair)
    assert surviving > 0
    assert calls == {"wedge": 0, "fiber_integrate": 0, "map_to": 0, "mul": surviving}


# -- the section transform -----------------------------------------------------

def test_section_transform_circle_formula(circle_pair):
    # the displayed swap of fiber velocity and fiber momentum, structurally
    cof = circle_pair.chart.coframe
    dcof = circle_pair.dual.coframe
    t = var("t")
    f, g = ssin(t), t ** 3
    v = Section.of(cof, vector={"dt": rat(2), "th": f},
                   covector={"dt": t, "th": g})
    expected = Section.of(dcof, vector={"dt": rat(2), "tht": g},
                          covector={"dt": t, "tht": f})
    assert dualize_section(v, circle_pair) == expected


def test_section_transform_fixes_basic(circle_pair):
    cof = circle_pair.chart.coframe
    t = var("t")
    v = Section.of(cof, vector={"dt": scos(t)}, covector={"dt": t * t})
    out = dualize_section(v, circle_pair)
    assert out == v.map_to(circle_pair.dual.coframe)


def test_section_transform_orthogonal(rng, hopf_pair):
    chart = hopf_pair.chart
    pts = chart.domain.sample_many(rng, 3)
    for _ in range(12):
        v = random_section(rng, chart)
        w = random_section(rng, chart)
        gap = (pairing(dualize_section(v, hopf_pair), dualize_section(w, hopf_pair))
               - pairing(v, w))
        for p in pts:
            assert abs(gap.evaluate(p)) <= 1e-9


def test_section_transform_bracket(rng, hopf_pair):
    chart = hopf_pair.chart
    pts = chart.domain.sample_many(rng, 3)
    for _ in range(8):
        v = random_section(rng, chart)
        w = random_section(rng, chart)
        lhs = dualize_section(courant_bracket(v, w, chart), hopf_pair)
        rhs = courant_bracket(dualize_section(v, hopf_pair),
                              dualize_section(w, hopf_pair), hopf_pair.dual)
        assert section_residual(lhs - rhs, pts) <= 1e-8


def test_clifford_compatibility(rng, hopf_pair, torus_pair):
    for pair in (hopf_pair, torus_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 3)
        for _ in range(6):
            v = random_section(rng, chart)
            rho = random_form(rng, chart.coframe, chart.base_vars, density=0.35)
            assert compatibility_residual(v, rho, pair, pts) <= 1e-8


def test_clifford_compatibility_fiber_generator(circle_pair):
    # v = E_theta, rho = theta: both sides give the dual fiber form exactly
    cof = circle_pair.chart.coframe
    v = Section.vector_basis(cof, "th")
    rho = Form.monomial(cof, ("th",))
    lhs = dualize_form(v.act(rho), circle_pair)
    rhs = dualize_section(v, circle_pair).act(dualize_form(rho, circle_pair))
    expected = Form.monomial(circle_pair.dual.coframe, ("tht",))
    assert lhs == rhs == expected


def test_clifford_compatibility_basic_data(circle_pair):
    # basic section on a basic form: the transform commutes with wedge and
    # contraction outright
    cof = circle_pair.chart.coframe
    t = var("t")
    v = Section.of(cof, vector={"dt": t}, covector={"dt": ssin(t)})
    rho = Form.monomial(cof, ("dt",), scos(t)) + Form.scalar(cof, t * t)
    lhs = dualize_form(v.act(rho), circle_pair)
    rhs = dualize_section(v, circle_pair).act(dualize_form(rho, circle_pair))
    assert lhs == rhs


# -- metric transport ------------------------------------------------------------

def test_buscher_round_sphere(circle_pair):
    chart = circle_pair.chart
    cof = chart.coframe
    t = var("t")
    g0 = sadd(ONE, sneg(smul(t, t)))
    g2 = SymTensor.from_names(cof, {("dt", "dt"): sdiv(ONE, g0)})
    zero = Form.zero(cof)
    out = buscher_rules(g0, zero, g2, zero, zero, circle_pair)
    inv = sdiv(ONE, g0)
    dom = chart.domain
    assert equal_at_samples(out.g.entry_of("tht", "tht"), inv, dom)
    assert equal_at_samples(out.g.entry_of("dt", "dt"), inv, dom)
    assert out.g.entry_of("dt", "tht").is_zero()
    assert out.b.is_zero()


def test_buscher_block_diagonal_specialization(circle_pair):
    chart = circle_pair.chart
    cof = chart.coframe
    t = var("t")
    g0 = sadd(rat(2), smul(t, t))
    g2 = SymTensor.from_names(cof, {("dt", "dt"): ONE})
    b2 = Form.zero(cof)
    zero = Form.zero(cof)
    out = buscher_rules(g0, zero, g2, zero, b2, circle_pair)
    assert out.g.entry_of("tht", "tht") == sdiv(ONE, g0)
    assert out.g.entry_of("dt", "dt") == ONE
    assert out.b.is_zero()


def test_buscher_vanishing_two_form_gives_connection_shear(circle_pair):
    # with b = 0 and a mixed metric term, the dual 2-form is the single
    # shear -(g1/g0) ^ thetat
    chart = circle_pair.chart
    cof = chart.coframe
    dcof = circle_pair.dual.coframe
    t = var("t")
    g0 = sadd(rat(2), smul(t, t))
    g1 = Form.monomial(cof, ("dt",), ssin(t))
    g2 = SymTensor.from_names(cof, {("dt", "dt"): ONE})
    zero = Form.zero(cof)
    out = buscher_rules(g0, g1, g2, zero, zero, circle_pair)
    expected = Form.monomial(dcof, ("dt", "tht"), sneg(sdiv(ssin(t), g0)))
    dom = chart.domain
    gap = out.b - expected
    assert all(equal_at_samples(c.re, ZERO, dom) and equal_at_samples(c.im, ZERO, dom)
               for c in gap.coeffs.values()) or gap.is_zero()
    # and the mixed dual metric entry vanishes when b1 = 0
    assert out.g.entry_of("dt", "tht").is_zero()


def test_buscher_fiber_inversion_structural(circle_pair):
    t = var("t")
    g0 = sadd(ONE, smul(t, t))
    cof = circle_pair.chart.coframe
    zero = Form.zero(cof)
    out = buscher_rules(g0, zero, SymTensor(cof, {}), zero, zero, circle_pair)
    assert out.g.entry_of("tht", "tht") == sdiv(ONE, g0)


def test_buscher_involution_random(rng):
    from tduality.bundle import BundleChart
    chart = BundleChart.build("c", [("t", -0.9, 0.9), ("u", 0.1, 0.9)], ["th"])
    pair = DualityPair.from_chart(chart)
    back_pair = pair.swap()
    pts = chart.domain.sample_many(rng, 4)
    for _ in range(6):
        met = random_metric(rng, chart, pts)
        g0, g1, g2 = split_metric(met.g, chart)
        b1, b2 = split_two_form(met.b, chart)
        first = buscher_rules(g0, g1, g2, b1, b2, pair)
        g0t, g1t, g2t = split_metric(first.g, pair.dual)
        b1t, b2t = split_two_form(first.b, pair.dual)
        back = buscher_rules(g0t, g1t, g2t, b1t, b2t, back_pair)
        assert metric_residual(back, met, pts) <= 1e-9


def test_transport_matches_buscher_random(rng, hopf_pair):
    chart = hopf_pair.chart
    pts = chart.domain.sample_many(rng, 4)
    for _ in range(6):
        met = random_metric(rng, chart, pts)
        g0, g1, g2 = split_metric(met.g, chart)
        b1, b2 = split_two_form(met.b, chart)
        closed = buscher_rules(g0, g1, g2, b1, b2, hopf_pair)
        transported = transport_metric(met, hopf_pair)
        assert metric_residual(transported, closed, pts) <= 1e-9


def bt_term_sign_flipped(real):
    """The rules with the sign of the g1 ^ b1 / g0 term of bt flipped."""
    def rules(g0, g1, g2, b1, b2, pair):
        out = real(g0, g1, g2, b1, b2, pair)
        cof = pair.dual.coframe
        term = wedge(g1.map_to(cof), b1.map_to(cof)).scale(CScalar(sdiv(ONE, g0)))
        return GeneralizedMetric(out.g, out.b - term.scale(2))
    return rules


def gt_with_extra_term(real):
    """The rules with an extra 1/g0 on the first base diagonal entry of gt."""
    def rules(g0, g1, g2, b1, b2, pair):
        out = real(g0, g1, g2, b1, b2, pair)
        extra = SymTensor(pair.dual.coframe, {(0, 0): sdiv(ONE, g0)})
        return GeneralizedMetric(out.g + extra, out.b)
    return rules


def gt_with_base_variable(real):
    """The rules plus sin^2 t + cos^2 t - 1 on an entry of gt: zero at every
    base point, but not an expression in the entries of (g, b) alone."""
    def rules(g0, g1, g2, b1, b2, pair):
        out = real(g0, g1, g2, b1, b2, pair)
        t = var("t")
        zero = sadd(smul(ssin(t), ssin(t)), smul(scos(t), scos(t)), rat(-1))
        return GeneralizedMetric(out.g + SymTensor(pair.dual.coframe, {(0, 0): zero}),
                                 out.b)
    return rules


@pytest.mark.parametrize("mutant,failing", [
    (bt_term_sign_flipped, {"transport-matches-closed-form"}),
    (gt_with_extra_term, {"transport-matches-closed-form", "involution"}),
])
def test_buscher_mutant_fails_the_scenario(mutant, failing, monkeypatch):
    monkeypatch.setattr(scenarios, "buscher_rules", mutant(buscher_rules))
    report = scenarios.run_scenario("buscher-random", seed=0, samples=1)
    assert {c.name for c in report.checks if not c.passed} == failing


def test_buscher_scenario_binds_no_base_variable(monkeypatch):
    monkeypatch.setattr(scenarios, "buscher_rules", gt_with_base_variable(buscher_rules))
    with pytest.raises(EvaluationError, match="unbound variable 't'"):
        scenarios.run_scenario("buscher-random", seed=0, samples=1)


# -- type change ------------------------------------------------------------------

def test_dual_type_circle_basic_factor(circle_pair, rng):
    chart = circle_pair.chart
    cof = chart.coframe
    t = var("t")
    omega = Form.monomial(cof, ("dt", "th"), sadd(rat(1, 2), smul(t, t)))
    sp = PureSpinor.from_data(Form.zero(cof), omega, Form.scalar(cof, 1))
    p = chart.domain.sample_many(rng, 1)[0]
    assert dual_types(sp, circle_pair, [p]) == [(1, 1)]   # type 0 -> 1, basic factor


def test_dual_type_circle_fiber_factor(circle_pair, rng):
    chart = circle_pair.chart
    cof = chart.coframe
    lowest = Form.monomial(cof, ("th",)) + Form.monomial(cof, ("dt",), CScalar.i())
    sp = PureSpinor.from_data(Form.zero(cof), Form.zero(cof), lowest)
    p = chart.domain.sample_many(rng, 1)[0]
    assert dual_types(sp, circle_pair, [p]) == [(0, 0)]   # type 1 -> 0, fiber leg


def test_dual_type_matches_transported_type(rng, circle_pair, torus_pair):
    for pair in (circle_pair, torus_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 2)
        for _ in range(8):
            sp = random_pure_spinor(rng, chart, pts)
            dual_sp = transport_spinor(sp, pair)
            types = [tt for tt, _ in dual_types(sp, pair, pts)]
            assert types == spinor_types(dual_sp, pts)


def _table_pair():
    from tduality.bundle import BundleChart
    chart = BundleChart.build("t4", [("s1", 0.05, 0.65), ("s2", 0.08, 1.0)],
                              ["th1", "th2"])
    return DualityPair.from_chart(chart), chart


def test_type_change_table(rng):
    # the four fiber geometries of a rank-two duality with the standard form
    pair, chart = _table_pair()
    cof = chart.coframe
    p = chart.domain.sample_many(rng, 1)[0]
    i_unit = CScalar.i()
    zero = Form.zero(cof)

    # complex structure, complex fibers -> complex
    omega_fiber = wedge(Form.monomial(cof, ("th1",)) + Form.monomial(cof, ("th2",), i_unit),
                        Form.monomial(cof, ("ds1",)) + Form.monomial(cof, ("ds2",), i_unit))
    sp = PureSpinor.from_data(zero, zero, omega_fiber)
    assert dual_types(sp, pair, [p]) == [(2, 1)]

    # complex structure, real fibers -> symplectic
    omega_real = wedge(Form.monomial(cof, ("ds1",)) + Form.monomial(cof, ("th1",), i_unit),
                       Form.monomial(cof, ("ds2",)) + Form.monomial(cof, ("th2",), i_unit))
    sp = PureSpinor.from_data(zero, zero, omega_real)
    assert dual_types(sp, pair, [p]) == [(0, 0)]

    # symplectic structure, symplectic fibers -> symplectic
    omega = Form.monomial(cof, ("th1", "th2")) + Form.monomial(cof, ("ds1", "ds2"))
    sp = PureSpinor.from_data(zero, omega, Form.scalar(cof, 1))
    assert dual_types(sp, pair, [p]) == [(0, 1)]

    # symplectic structure, isotropic fibers -> complex
    omega = Form.monomial(cof, ("th1", "ds1")) + Form.monomial(cof, ("th2", "ds2"))
    sp = PureSpinor.from_data(zero, omega, Form.scalar(cof, 1))
    assert dual_types(sp, pair, [p]) == [(2, 2)]


def test_dual_type_degenerate_flagged(circle_pair):
    # with an invertible fiber block some power always survives for a
    # nonvanishing spinor; the flagged failure is a vanishing point
    chart = circle_pair.chart
    cof = chart.coframe
    t = var("t")
    lowest = Form.monomial(cof, ("dt",), t)
    sp = PureSpinor.from_data(Form.zero(cof), Form.zero(cof), lowest)
    with pytest.raises(ValueError):
        dual_types(sp, circle_pair, [{"t": 0.0}])


# -- integrability transport --------------------------------------------------------

def test_integrability_transported(rng, torus_pair):
    chart = torus_pair.chart
    cof = chart.coframe
    pts = chart.domain.sample_many(rng, 4)
    omega = Form.monomial(cof, ("ds1", "th1")) + Form.monomial(cof, ("ds2", "th2"))
    sp = PureSpinor.from_data(Form.zero(cof), omega, Form.scalar(cof, 1))
    assert check_integrable(sp, chart, pts).integrable
    dual_sp = transport_spinor(sp, torus_pair)
    assert check_integrable(dual_sp, torus_pair.dual, pts).integrable


def test_non_integrability_transported(rng, torus_pair):
    chart = torus_pair.chart
    cof = chart.coframe
    pts = chart.domain.sample_many(rng, 4)
    s2 = var("s2")
    omega = (Form.monomial(cof, ("ds1", "th1"), rat(1) + s2 * s2)
             + Form.monomial(cof, ("ds2", "th2")))
    sp = PureSpinor.from_data(Form.zero(cof), omega, Form.scalar(cof, 1))
    res = check_integrable(sp, chart, pts)
    assert not res.integrable and res.residual > 1e-4
    dual_res = check_integrable(transport_spinor(sp, torus_pair),
                                torus_pair.dual, pts)
    assert not dual_res.integrable and dual_res.residual > 1e-4


# -- eigenspace ladder and tangent-structure transport ---------------------------------

def test_uk_transport(rng, circle_pair, torus_pair):
    for pair in (circle_pair, torus_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 2)
        for _ in range(3):
            sp = random_pure_spinor(rng, chart, pts)
            assert max(uk_transport_residuals(sp, pair, pts)) <= 1e-8


def test_bihermitian_transport_properties(rng, circle_chart):
    from tduality.bundle import BundleChart
    chart = circle_chart
    cof = chart.coframe
    t = var("t")
    g0 = sadd(rat(2), smul(t, t))
    g2 = SymTensor.from_names(cof, {("dt", "dt"): sadd(ONE, smul(t, t))})
    zero = Form.zero(cof)
    met = assemble_metric(chart, g0, zero, g2, zero, zero)
    p = {"t": 0.4}
    gmat = met.g.eval_matrix(p)
    lam = np.sqrt(gmat[0, 0] / gmat[1, 1])
    i_mat = np.array([[0.0, -1.0 / lam], [lam, 0.0]])
    for side in (+1, -1):
        (out,) = bihermitian_dual(i_mat, met, chart, [p], side)
        assert np.abs(out @ out + np.eye(2)).max() <= 1e-9
    (plus,) = bihermitian_dual(i_mat, met, chart, [p], +1)
    (minus,) = bihermitian_dual(i_mat, met, chart, [p], -1)
    assert orientation_sign(plus) == orientation_sign(i_mat)
    assert orientation_sign(minus) == -orientation_sign(i_mat)


# The orientation as it was first written, kept as the reference: a basis
# (v1, J v1, v2, J v2, ...) built greedily from the standard basis.
def _reference_orientation_sign(j_matrix):
    j = np.asarray(j_matrix, dtype=float)
    m = j.shape[0]
    cols = []
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        test = cols + [v, j @ v]
        if np.linalg.matrix_rank(np.stack(test, axis=1), tol=1e-10) == len(test):
            cols = test
        if len(cols) == m:
            break
    return 1 if np.linalg.det(np.stack(cols, axis=1)) > 0 else -1


@pytest.mark.parametrize("m", [2, 4, 6])
def test_orientation_matches_the_reference(rng, m):
    """J = A J0 A^-1 induces the orientation of J0 times sign det A; J0 and
    -J0 cover both orientations when m / 2 is odd, and the sign of A does
    for every m."""
    j0 = np.kron(np.eye(m // 2), np.array([[0.0, -1.0], [1.0, 0.0]]))
    for trial in range(200):
        a = rng.standard_normal((m, m))
        base = j0 if trial % 2 else -j0
        j = a @ base @ np.linalg.inv(a)
        want = int(np.sign(np.linalg.det(a))) * (1 if trial % 2 else (-1) ** (m // 2))
        assert orientation_sign(j) == _reference_orientation_sign(j) == want


def test_bihermitian_unit_fiber_identification(circle_chart):
    cof = circle_chart.coframe
    zero = Form.zero(cof)
    g2 = SymTensor.from_names(cof, {("dt", "dt"): ONE})
    met = assemble_metric(circle_chart, ONE, zero, g2, zero, zero)
    i_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    (out,) = bihermitian_dual(i_mat, met, circle_chart, [{"t": 0.2}], +1)
    assert np.abs(out - i_mat).max() <= 1e-12


def test_bihermitian_requires_metric_connection(circle_chart):
    cof = circle_chart.coframe
    t = var("t")
    g2 = SymTensor.from_names(cof, {("dt", "dt"): ONE})
    g1 = Form.monomial(cof, ("dt",), t)   # mixed term: not the metric connection
    met = assemble_metric(circle_chart, rat(2), g1, g2, Form.zero(cof), Form.zero(cof))
    i_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        bihermitian_dual(i_mat, met, circle_chart, [{"t": 0.3}], +1)


def test_uk_transport_builds_the_transported_spinor_once(monkeypatch):
    chart, *_, spinor = scenarios._s2_setup()
    pair = DualityPair.from_chart(chart)
    built = []
    real = duality.dualize_form
    monkeypatch.setattr(duality, "dualize_form",
                        lambda rho, p: built.append(rho) or real(rho, p))
    points = chart.domain.sample_many(np.random.default_rng(3), 3)
    residuals = uk_transport_residuals(spinor, pair, points)
    # the 2^m transform columns, then the transported spinor, once per call
    assert len(built) == (1 << chart.coframe.dim) + 1
    assert built[-1] is spinor.form
    assert max(residuals) <= 1e-8
