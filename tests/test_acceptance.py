"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every randomized criterion uses the fixed seed below.
"""
import numpy as np
import pytest

from tduality.scalar import (CScalar, Domain, ONE, ZERO, rat, sadd, scos, sdiv,
                             smul, ssin, var)
from tduality.exterior import (Coframe, Form, FrameVector, exp_form,
                               mukai_pairing, wedge)
from tduality.bundle import BundleChart, form_residual, twisted_derivative
from tduality.courant import Section, courant_bracket, split_pairing_matrix
from tduality.structures import (PureSpinor, check_integrable, metric_residual,
                                 spinor_types)
from tduality.duality import (DualityPair, buscher_rules, dual_types,
                              dualize_form, dualize_section, split_metric,
                              split_two_form, transport_metric,
                              transport_spinor, uk_transport_residuals)
from tduality.randomgen import random_form, random_pure_spinor, random_section
from tduality.reduction import (LiftedActionPoint, double_quotient_report,
                                fourier_mukai_check, reduce_pointwise)
from tduality.scenarios import twisted_rank_two_pair, load_chart, run_scenario

from conftest import (compatibility_residual, equal_at_samples, pairing, random_metric,
                      section_residual)

SEED = 20240817


def announce(num, text, residual, tol, passed):
    status = "PASS" if passed else "FAIL"
    if residual is None:
        print(f"[{status}] criterion {num}: {text}")
    else:
        print(f"[{status}] criterion {num}: {text} (residual {residual:.3e}, "
              f"tol {tol:g})")
    assert passed, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(SEED)


@pytest.fixture(scope="module")
def hopf_pair():
    return DualityPair.from_chart(load_chart("s3_hopf"))


@pytest.fixture(scope="module")
def mixed_pair():
    return twisted_rank_two_pair()


@pytest.fixture(scope="module")
def circle_pair():
    return DualityPair.from_chart(load_chart("s2"))


@pytest.fixture(scope="module")
def torus_pair():
    return DualityPair.from_chart(load_chart("hopf_surface"))


def test_criterion_1_clifford_module(rng):
    cof = Coframe(("dt", "du", "th"), ("base", "base", "fiber"))
    dom = Domain({"t": (-0.9, 0.9), "u": (0.1, 0.9)})
    pts = dom.sample_many(rng, 3)
    varnames = ("t", "u")
    worst = 0.0
    for _ in range(64):
        x = FrameVector(cof, tuple(CScalar.of(rat(int(k)))
                                   for k in rng.integers(-2, 3, 3)))
        xi = random_form(rng, cof, varnames, degrees=(1,), density=0.8)
        v = Section(x, xi)
        rho = random_form(rng, cof, varnames, density=0.4)
        diff = v.act(v.act(rho)) - rho.scale(pairing(v, v))
        worst = max(worst, form_residual(diff, dom, pts))
    worst_b = 0.0
    for _ in range(64):
        b = random_form(rng, cof, varnames, degrees=(2,), complex_coeffs=False,
                        density=0.7)
        r1 = random_form(rng, cof, varnames, density=0.4)
        r2 = random_form(rng, cof, varnames, density=0.4)
        eb = exp_form(b)
        diff = mukai_pairing(wedge(eb, r1), wedge(eb, r2)) - mukai_pairing(r1, r2)
        worst_b = max(worst_b, form_residual(diff, dom, pts))
    res = max(worst, worst_b)
    announce(1, "Clifford square equals the pairing; spinor pairing is "
                "B-invariant (64 instances each)", res, 1e-9, res <= 1e-9)


def test_criterion_2_intertwining(rng, hopf_pair, mixed_pair):
    worst = 0.0
    for pair in (hopf_pair, mixed_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 3)
        for _ in range(32):
            rho = random_form(rng, chart.coframe, chart.base_vars, density=0.3)
            lhs = dualize_form(twisted_derivative(rho, chart), pair)
            rhs = twisted_derivative(dualize_form(rho, pair), pair.dual)
            worst = max(worst, form_residual(lhs - rhs, pair.dual.domain, pts))
    announce(2, "form transform intertwines the twisted differentials "
                "(32 forms on the curved pair and on the mixed rank-2 pair)",
             worst, 1e-8, worst <= 1e-8)


def test_criterion_3_courant_isomorphism(rng, hopf_pair, mixed_pair):
    worst_pairing = 0.0
    worst_bracket = 0.0
    worst_compat = 0.0
    for pair in (hopf_pair, mixed_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 3)
        for _ in range(32):
            v = random_section(rng, chart)
            w = random_section(rng, chart)
            pv, pw = dualize_section(v, pair), dualize_section(w, pair)
            gap = pairing(pv, pw) - pairing(v, w)
            for p in pts:
                worst_pairing = max(worst_pairing, abs(gap.evaluate(p)))
            lhs = dualize_section(courant_bracket(v, w, chart), pair)
            rhs = courant_bracket(pv, pw, pair.dual)
            worst_bracket = max(worst_bracket, section_residual(lhs - rhs, pts))
        for _ in range(8):
            v = random_section(rng, chart)
            rho = random_form(rng, chart.coframe, chart.base_vars, density=0.3)
            worst_compat = max(worst_compat,
                               compatibility_residual(v, rho, pair, pts))
    ok = worst_pairing <= 1e-9 and worst_bracket <= 1e-8 and worst_compat <= 1e-8
    announce(3, f"section transform is a bracket-preserving isometry compatible "
                f"with the spinor transform (pairing {worst_pairing:.2e}, "
                f"bracket {worst_bracket:.2e}, compat {worst_compat:.2e})",
             max(worst_pairing, worst_bracket, worst_compat), 1e-8, ok)


def test_criterion_4_circle_formula(circle_pair):
    cof = circle_pair.chart.coframe
    dcof = circle_pair.dual.coframe
    t = var("t")
    cases = [
        (rat(2), ssin(t), t, t ** 3),
        (scos(t), rat(0), rat(1, 3), t),
        (rat(0), t * t, rat(0), ssin(t) + rat(2)),
    ]
    ok = True
    for a, f, xi_t, g in cases:
        v = Section.of(cof, vector={"dt": a, "th": f},
                       covector={"dt": xi_t, "th": g})
        expected = Section.of(dcof, vector={"dt": a, "tht": g},
                              covector={"dt": xi_t, "tht": f})
        ok = ok and dualize_section(v, circle_pair) == expected
    announce(4, "circle sections transform by the exact exchange of fiber "
                "velocity and fiber momentum (structural equality)", None, None, ok)


def test_criterion_5_buscher(rng):
    charts = [BundleChart.build("c1", [("t", -0.9, 0.9)], ["th"]),
              BundleChart.build("c2", [("t", -0.9, 0.9), ("u", 0.1, 0.9)], ["th"])]
    ok_match = True
    ok_structural = True
    ok_involution = True
    worst = 0.0
    for trial in range(16):
        chart = charts[trial % 2]
        pair = DualityPair.from_chart(chart)
        back_pair = pair.swap()
        pts = chart.domain.sample_many(rng, 4)
        met = random_metric(rng, chart, pts)
        g0, g1, g2 = split_metric(met.g, chart)
        b1, b2 = split_two_form(met.b, chart)
        closed = buscher_rules(g0, g1, g2, b1, b2, pair)
        transported = transport_metric(met, pair)
        dcof = pair.dual.coframe
        dom = pair.dual.domain
        for i in range(dcof.dim):
            for j in range(i, dcof.dim):
                ok_match = ok_match and equal_at_samples(
                    transported.g.entry(i, j), closed.g.entry(i, j), dom,
                    seed=SEED + trial)
        diffb = transported.b - closed.b
        for c in diffb.coeffs.values():
            ok_match = ok_match and equal_at_samples(c.re, ZERO, dom, seed=SEED + trial)
        ok_structural = ok_structural and (closed.g.entry_of("tht", "tht")
                                           == sdiv(ONE, g0))
        g0t, g1t, g2t = split_metric(closed.g, pair.dual)
        b1t, b2t = split_two_form(closed.b, pair.dual)
        back = buscher_rules(g0t, g1t, g2t, b1t, b2t, back_pair)
        worst = max(worst, metric_residual(back, met, pts))
    ok = ok_match and ok_structural and worst <= 1e-9
    announce(5, "closed-form dual metric rules: transport agrees coefficientwise, "
                "the fiber coefficient inverts symbolically, and the rules are "
                "an involution (16 instances)", worst, 1e-9, ok)


def test_criterion_6_symplectic_sphere():
    report = run_scenario("s2-annulus", seed=SEED, samples=6)
    by_name = {c.name: c for c in report.checks}
    needed = ["dual-spinor-formula", "dual-type-one", "annulus-radius",
              "round-metric-dual", "metric-transport-matches"]
    ok = all(by_name[n].passed for n in needed)
    announce(6, "twice-punctured symplectic sphere dualizes to the complex "
                "annulus with the stated radius and dual metric", None, None, ok)


def test_criterion_7_type_change(rng, circle_pair, torus_pair):
    ok = True
    for pair in (circle_pair, torus_pair):
        chart = pair.chart
        pts = chart.domain.sample_many(rng, 2)
        for _ in range(32):
            sp = random_pure_spinor(rng, chart, pts)
            dual_sp = transport_spinor(sp, pair)
            types = [tt for tt, _ in dual_types(sp, pair, pts)]
            ok = ok and types == spinor_types(dual_sp, pts)
    # the four stated fiber geometries of a rank-two duality
    chart = torus_pair.chart
    cof = chart.coframe
    p = chart.domain.sample_many(rng, 1)[0]
    zero = Form.zero(cof)
    i_unit = CScalar.i()
    rows = []
    omega = wedge(Form.monomial(cof, ("th1",)) + Form.monomial(cof, ("th2",), i_unit),
                  Form.monomial(cof, ("ds1",)) + Form.monomial(cof, ("ds2",), i_unit))
    rows.append((PureSpinor.from_data(zero, zero, omega), 2, 2))        # complex -> complex
    omega = wedge(Form.monomial(cof, ("ds1",)) + Form.monomial(cof, ("th1",), i_unit),
                  Form.monomial(cof, ("ds2",)) + Form.monomial(cof, ("th2",), i_unit))
    rows.append((PureSpinor.from_data(zero, zero, omega), 2, 0))        # complex -> symplectic
    sympl = Form.monomial(cof, ("th1", "th2")) + Form.monomial(cof, ("ds1", "ds2"))
    rows.append((PureSpinor.from_data(zero, sympl, Form.scalar(cof, 1)), 0, 0))
    lag = Form.monomial(cof, ("th1", "ds1")) + Form.monomial(cof, ("th2", "ds2"))
    rows.append((PureSpinor.from_data(zero, lag, Form.scalar(cof, 1)), 0, 2))
    for sp, start, expected in rows:
        ok = ok and spinor_types(sp, [p]) == [start]
        ((tt, _),) = dual_types(sp, torus_pair, [p])
        ok = ok and tt == expected
    announce(7, "dual type equals the transported spinor's type (32 random "
                "spinors per pair); the four model fiber geometries reproduce "
                "the stated type table", None, None, ok)


def test_criterion_8_integrability_transport(rng, circle_pair, torus_pair):
    t = var("t")
    s2 = var("s2")
    c_cof = circle_pair.chart.coframe
    t_cof = torus_pair.chart.coframe
    zero_c = Form.zero(c_cof)
    zero_t = Form.zero(t_cof)
    integrable = []
    for w in (sadd(rat(1, 2), smul(t, t)), sadd(ONE, scos(t)),
              sadd(rat(2), smul(rat(1, 2), ssin(t))), sadd(rat(1), smul(t, t, t, t))):
        omega = Form.monomial(c_cof, ("dt", "th"), w)
        integrable.append((circle_pair,
                           PureSpinor.from_data(zero_c, omega, Form.scalar(c_cof, 1))))
    closed_omegas = [
        Form.monomial(t_cof, ("ds1", "th1")) + Form.monomial(t_cof, ("ds2", "th2")),
        Form.monomial(t_cof, ("ds1", "th1")).scale(rat(2)) + Form.monomial(t_cof, ("ds2", "th2")),
        Form.monomial(t_cof, ("ds1", "ds2")) + Form.monomial(t_cof, ("th1", "th2")),
    ]
    for omega in closed_omegas:
        integrable.append((torus_pair,
                           PureSpinor.from_data(zero_t, omega, Form.scalar(t_cof, 1))))
    # a varying decomposable family, integrable with a covector witness
    alpha = Form.monomial(t_cof, ("ds1",)) + Form.monomial(t_cof, ("th1",), CScalar.i())
    beta = Form.monomial(t_cof, ("ds2",)) + Form.monomial(t_cof, ("th2",),
                                                          CScalar(ZERO, s2))
    integrable.append((torus_pair,
                       PureSpinor.from_data(zero_t, zero_t, wedge(alpha, beta))))
    assert len(integrable) == 8
    worst = 0.0
    for pair, sp in integrable:
        pts = pair.chart.domain.sample_many(rng, 4)
        res = check_integrable(sp, pair.chart, pts)
        worst = max(worst, res.residual)
        res_dual = check_integrable(transport_spinor(sp, pair), pair.dual, pts)
        worst = max(worst, res_dual.residual)
    ok = worst <= 1e-8
    non_integrable = []
    for coeff in (sadd(ONE, smul(s2, s2)), sadd(rat(2), ssin(s2))):
        omega = (Form.monomial(t_cof, ("ds1", "th1"), coeff)
                 + Form.monomial(t_cof, ("ds2", "th2")))
        non_integrable.append(PureSpinor.from_data(zero_t, omega, Form.scalar(t_cof, 1)))
    for coeff in (smul(s2, s2), scos(s2)):
        omega = (Form.monomial(t_cof, ("ds1", "th2"), sadd(rat(2), coeff))
                 + Form.monomial(t_cof, ("ds2", "th1"), rat(1)))
        non_integrable.append(PureSpinor.from_data(zero_t, omega, Form.scalar(t_cof, 1)))
    assert len(non_integrable) == 4
    min_fail = float("inf")
    for sp in non_integrable:
        pts = torus_pair.chart.domain.sample_many(rng, 4)
        res = check_integrable(sp, torus_pair.chart, pts)
        res_dual = check_integrable(transport_spinor(sp, torus_pair),
                                    torus_pair.dual, pts)
        min_fail = min(min_fail, res.residual, res_dual.residual)
    ok = ok and min_fail > 1e-4
    announce(8, f"integrability transports (8 integrable spinors, dual residual "
                f"<= 1e-8) and non-integrability transports (4 spinors, dual "
                f"residual {min_fail:.2e} > 1e-4)", worst, 1e-8, ok)


def test_criterion_9_gibbons_hawking():
    report = run_scenario("gibbons-hawking", seed=SEED, samples=6)
    by_name = {c.name: c for c in report.checks}
    res = max(by_name["harmonic-potential"].residual,
              by_name["monopole-potential"].residual,
              by_name["ansatz-metric"].residual)
    ok = (by_name["harmonic-potential"].passed
          and by_name["monopole-potential"].passed
          and by_name["ansatz-metric"].passed)
    announce(9, "harmonic conformal factor, monopole potential equation, and "
                "the dual ansatz metric hold coefficientwise", res, 1e-8, ok)


def test_criterion_10_reduction(rng, hopf_pair, circle_pair, mixed_pair, torus_pair):
    worst = 0.0
    for pair in (hopf_pair, circle_pair, mixed_pair):
        pts = pair.chart.domain.sample_many(rng, 32)
        for k, rep in enumerate(double_quotient_report(pair, pts)):
            assert rep.split_signature_ok and rep.rank_ok, (pair.chart.coframe.names, k)
            worst = max(worst, rep.isotropy_residual_k, rep.isotropy_residual_kt,
                        rep.isometry_defect_m, rep.isometry_defect_mt)
    ok = worst <= 1e-9
    agree = True
    for trial in range(32):
        n = int(rng.integers(2, 5))
        g = split_pairing_matrix(n)
        if trial % 2 == 0:
            vecs = np.zeros((2 * n, 2))
            vecs[:n, :] = rng.standard_normal((n, 2))
            bmat = rng.standard_normal((n, n))
            bmat = bmat - bmat.T
            vecs = np.block([[np.eye(n), np.zeros((n, n))],
                             [bmat, np.eye(n)]]) @ vecs
        else:
            vecs = rng.standard_normal((2 * n, 2))
        (red,) = reduce_pointwise([LiftedActionPoint(g, vecs)])
        iso = bool(np.abs(vecs.T @ g @ vecs).max() <= 1e-9)
        agree = agree and red.exact == iso
    fm_agree = True
    positives = negatives = 0
    for trial in range(32):
        pair = (circle_pair, torus_pair)[trial % 2]
        pts = pair.chart.domain.sample_many(rng, 1)
        sp = random_pure_spinor(rng, pair.chart, pts)
        if trial % 4 < 2:
            other = transport_spinor(sp, pair)
            ((r1, r2, d1, d2),) = fourier_mukai_check(
                pair, sp.form.eval_vectors(pts), other.form.eval_vectors(pts), pts)
            fm_agree = fm_agree and r1 and r2
            positives += 1
        else:
            other = random_pure_spinor(rng, pair.dual, pts)
            ((r1, r2, d1, d2),) = fourier_mukai_check(
                pair, sp.form.eval_vectors(pts), other.form.eval_vectors(pts), pts)
            if max(d1, d2) < 1e-4:
                continue
            fm_agree = fm_agree and (not r1) and (not r2)
            negatives += 1
    ok = ok and agree and fm_agree and positives >= 16 and negatives >= 10
    announce(10, f"double-quotient isometries at 32 points per pair "
                 f"(defect {worst:.2e}); exactness iff isotropy on 32 actions; "
                 f"the two product-space duality criteria agree "
                 f"({positives} positive, {negatives} negative instances)",
             worst, 1e-9, ok)


def test_criterion_11_uk_transport(rng, circle_pair, torus_pair):
    chart, t = circle_pair.chart, var("t")
    cof = chart.coframe
    omega = Form.monomial(cof, ("dt", "th"), sadd(rat(1, 2), smul(t, t)))
    bfield = Form.monomial(cof, ("dt", "th"), smul(rat(1, 4), t))
    sphere_spinor = PureSpinor.from_data(bfield, omega, Form.scalar(cof, 1))
    worst = max(uk_transport_residuals(sphere_spinor, circle_pair,
                                       chart.domain.sample_many(rng, 4)))
    from tduality.scenarios import _hopf_surface_family
    family = _hopf_surface_family(torus_pair.chart, var("s2"))
    worst = max(worst, *uk_transport_residuals(family, torus_pair,
                                               torus_pair.chart.domain.sample_many(rng, 3)))
    announce(11, "every eigenspace level transports into its dual level on the "
                 "sphere and invariant-surface scenarios", worst, 1e-8,
             worst <= 1e-8)
