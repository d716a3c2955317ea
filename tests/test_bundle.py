import dataclasses

import pytest

from tduality.scalar import rat, var
from tduality.exterior import Form, wedge
from tduality.bundle import (DualityPair, _block_nondegeneracy, build_dual_chart,
                             exterior_derivative, form_residual, split_flux,
                             standard_correspondence_flux, twisted_derivative,
                             validate_chart, validate_pair)
from tduality.randomgen import random_form
from tduality.scenarios import twisted_rank_two_pair

from conftest import _reference_block_nondegeneracy


def mono(cof, *names, coeff=1):
    return Form.monomial(cof, names, coeff)


def test_d_of_coefficient(circle_chart):
    cof = circle_chart.coframe
    t = var("t")
    f = Form.monomial(cof, ("th",), t)
    assert exterior_derivative(f, circle_chart) == mono(cof, "dt", "th")


def test_d_theta_is_curvature(hopf_chart):
    cof = hopf_chart.coframe
    assert exterior_derivative(mono(cof, "th"), hopf_chart) == mono(cof, "dt", "du")


def test_d_squares_to_zero(rng, hopf_chart):
    pts = hopf_chart.domain.sample_many(rng, 3)
    for _ in range(8):
        rho = random_form(rng, hopf_chart.coframe, hopf_chart.base_vars, density=0.4)
        dd = exterior_derivative(exterior_derivative(rho, hopf_chart), hopf_chart)
        assert form_residual(dd, hopf_chart.domain, pts) <= 1e-12


def test_twisted_derivative_on_scalar(hopf_flux_chart):
    cof = hopf_flux_chart.coframe
    out = twisted_derivative(Form.scalar(cof, 1), hopf_flux_chart)
    assert out == hopf_flux_chart.flux


def test_twisted_derivative_squares_to_zero(rng, hopf_flux_chart):
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    for _ in range(6):
        rho = random_form(rng, ch.coframe, ch.base_vars, density=0.4)
        dd = twisted_derivative(twisted_derivative(rho, ch), ch)
        assert form_residual(dd, ch.domain, pts) <= 1e-12


def test_twisted_derivative_of_exponential(rng, hopf_flux_chart):
    from tduality.exterior import exp_form
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    b = random_form(rng, ch.coframe, ch.base_vars, degrees=(2,),
                    complex_coeffs=False, density=0.8)
    lhs = twisted_derivative(exp_form(b), ch)
    rhs = wedge(exterior_derivative(b, ch) + ch.flux, exp_form(b))
    assert form_residual(lhs - rhs, ch.domain, pts) <= 1e-10


def test_split_flux_pure_fiber_term(circle_chart):
    cof = circle_chart.coframe
    sigma = mono(cof, "dt")
    chart = dataclasses.replace(circle_chart, flux=wedge(sigma, mono(cof, "th")))
    ct, h = split_flux(chart)
    assert ct["th"] == sigma
    assert h.is_zero()


def test_split_flux_basic(hopf_chart):
    cof = hopf_chart.coframe
    t = var("t")
    h0 = Form.monomial(cof, ("dt", "du"), t)  # only a degenerate 3-form exists; use 2d base + th
    chart = dataclasses.replace(hopf_chart, flux=Form.zero(cof))
    ct, h = split_flux(chart)
    assert all(c.is_zero() for c in ct.values())
    assert h.is_zero()


def test_split_flux_mixed_and_reconstruction(hopf_chart):
    cof = hopf_chart.coframe
    sigma = mono(cof, "dt", "du", coeff=var("u"))
    basic3 = Form.zero(cof)  # no basic 3-forms over a 2d base
    flux = wedge(sigma, mono(cof, "th")) + basic3
    chart = dataclasses.replace(hopf_chart, flux=flux)
    ct, h = split_flux(chart)
    rebuilt = h
    for gen, c in ct.items():
        rebuilt = rebuilt + wedge(c, mono(cof, gen))
    assert rebuilt == chart.flux
    assert ct["th"] == sigma


def test_split_flux_rejects_two_fiber_legs(torus_chart):
    cof = torus_chart.coframe
    bad = dataclasses.replace(torus_chart, flux=mono(cof, "ds1", "th1", "th2"))
    with pytest.raises(ValueError):
        split_flux(bad)
    rep = validate_chart(bad, n=3)
    assert not rep.zero_holonomy and not rep.ok


def test_build_dual_hopf(hopf_pair):
    dual = hopf_pair.dual
    assert not dual.curvature_of("tht").coeffs
    assert dual.flux == Form.monomial(dual.coframe, ("dt", "du", "tht"))
    rep = hopf_pair.validate(n=4)
    assert rep.ok and rep.unimodular


def test_build_dual_trivial(circle_chart):
    pair = DualityPair.from_chart(circle_chart)
    dual = pair.dual
    assert dual.flux.is_zero()
    assert not dual.curvature_of("tht").coeffs
    assert pair.flux_difference_residual().is_zero()


def test_build_dual_selfdual_flux(hopf_flux_chart):
    pair = DualityPair.from_chart(hopf_flux_chart)
    dual = pair.dual
    sigma = Form.monomial(dual.coframe, ("dt", "du"))
    assert dual.curvature_of("tht") == sigma
    assert dual.flux == Form.monomial(dual.coframe, ("dt", "du", "tht"))
    assert pair.flux_difference_residual().is_zero()


def test_dual_of_dual_roundtrip(rng, hopf_flux_chart):
    dual = build_dual_chart(hopf_flux_chart)
    ddual = build_dual_chart(dual)
    rename = {g: g[:-2] for g in ddual.fiber_names}
    pts = hopf_flux_chart.domain.sample_many(rng, 4)
    back_flux = ddual.flux.map_to(hopf_flux_chart.coframe, rename)
    assert form_residual(back_flux - hopf_flux_chart.flux,
                         hopf_flux_chart.domain, pts) <= 1e-12
    back_curv = ddual.curvature_of("thtt").map_to(hopf_flux_chart.coframe, rename)
    assert form_residual(back_curv - hopf_flux_chart.curvature_of("th"),
                         hopf_flux_chart.domain, pts) <= 1e-12


def test_scaled_form_not_unimodular(hopf_chart):
    def doubled(cof, chart, dual):
        return standard_correspondence_flux(cof, chart, dual).scale(rat(2))
    pair = DualityPair.from_charts(hopf_chart, build_dual_chart(hopf_chart), doubled)
    rep = validate_pair(pair, n=3)
    assert rep.nondegenerate
    assert rep.unimodular is False
    assert rep.flux_difference_residual > 1e-9  # the doubled form breaks dF = H - Ht


def test_validate_pair_hopf_clean(hopf_pair):
    rep = validate_pair(hopf_pair, n=4)
    assert rep.flux_difference_residual <= 1e-12
    assert rep.nondegenerate and rep.unimodular and rep.ok


def test_validate_pair_rank_zero_reports_empty_block(plane_chart):
    rep = DualityPair.from_chart(plane_chart).validate(n=3)
    assert rep.fiber_rank == 0
    assert rep.min_abs_det == 1.0  # the determinant of the empty block
    assert rep.nondegenerate and rep.ok


def test_validate_pair_small_block_is_nondegenerate(torus_pair):
    """Nondegeneracy is full rank by the relative rank rule: a block of
    1e-5 I has |det| 1e-10 and is still invertible; the zero block is not."""
    def scaled(factor):
        def flux(cof, chart, dual):
            return standard_correspondence_flux(cof, chart, dual).scale(factor)
        return DualityPair.from_charts(torus_pair.chart, torus_pair.dual, flux)

    rep = scaled(rat(1, 100000)).validate(n=3)
    assert rep.nondegenerate is True
    assert rep.min_abs_det == pytest.approx(1e-10)
    assert scaled(0).validate(n=3).nondegenerate is False


def test_block_checks_match_the_reference(rng, hopf_pair, torus_pair, plane_chart):
    """One stacked det and SVD give the point-by-point minimum |det| and
    nondegeneracy, also with no points and for the empty block."""
    pairs = (hopf_pair, torus_pair, twisted_rank_two_pair(),
             DualityPair.from_chart(plane_chart))
    for pair in pairs:
        for n in (0, 1, 8, 64):
            pts = pair.total.domain.sample_many(rng, n)
            assert (_block_nondegeneracy(pair.fiber_block(), pts)
                    == _reference_block_nondegeneracy(pair.fiber_block(), pts))


def test_block_singular_at_one_point_of_many(rng):
    """[[s1, 1], [s1 s2, s2 + 1]] has det s1; at the one point with s1 = 0 the
    stacked rank test fails and the smallest |det| is 0."""
    s1, s2 = var("s1"), var("s2")
    block = [[s1, rat(1)], [s1 * s2, s2 + rat(1)]]
    pts = [{"s1": float(a), "s2": float(b)} for a, b in rng.uniform(0.1, 1.0, (32, 2))]
    assert _block_nondegeneracy(block, pts)[1] is True
    pts[17] = {**pts[17], "s1": 0.0}
    assert _block_nondegeneracy(block, pts) == (0.0, False)
    assert _block_nondegeneracy(block, pts) == _reference_block_nondegeneracy(block, pts)
