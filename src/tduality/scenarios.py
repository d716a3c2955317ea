"""Scenario suites: end-to-end reproductions of the worked dual pairs.

Each scenario builds its chart with a ``CHARTS`` builder, builds the dual
pair, runs its check list with a seeded RNG, and returns a Report.
``samples`` is the number of sample points in every scenario except
reduction-suite, which takes max(4, samples // 4) points per pair;
buscher-random's points lie in the entry space of a generic metric, one set
per chart.  The transform identities of a pair (``_standard_pair_checks``)
do not draw instances: they are certified on the frame (``certify``), and
the points serve only the residuals that do not cancel structurally.

Registered scenarios: s3-hopf, s3-selfdual, s2-annulus, hopf-surface,
gibbons-hawking, buscher-random, reduction-suite.
"""
from __future__ import annotations

import math

import numpy as np

from .scalar import (CScalar, PI, ZERO, ONE, diff, evaluate, rat, sadd, scos, sdiv, smul,
                     sneg, sexp, spow, ssin, ssqrt, var)
from .exterior import (Coframe, Form, FrameVector, _eval_array, _keyed_sum, _value_array,
                       exp_form, fiber_integrate, mukai_pairing, wedge)
from .bundle import (BundleChart, build_dual_chart, dual_fiber_name,
                     exterior_derivative, form_residual, split_flux)
from .courant import lift_splitting_residual, split_pairing_matrix
from .structures import (GeneralizedMetric, PureSpinor, SymTensor,
                         check_integrable, gcs_matrices, is_decomposable,
                         metric_matrices, metric_residual, mukai_norms,
                         spinor_types)
from .duality import (DualityPair, assemble_metric, bihermitian_dual,
                      buscher_rules, dual_types, dualize_form,
                      orientation_sign, reverse_sign, transform_matrices,
                      transport_metric, transport_spinor, uk_transport_residuals)
from .certify import frame_certificate
from .reduction import (LiftedActionPoint, double_quotient_report,
                        duality_lift_sections, fourier_mukai_check,
                        pairing_constant_check, reduce_pointwise,
                        transversality_check)
from .randomgen import random_spinor_values
from .report import Report

__all__ = ["SCENARIOS", "CHARTS", "check_run", "run_scenario", "load_chart",
           "twisted_rank_two_pair"]


def _monomial(*names, coeff=1):
    """A form maker for ``BundleChart.build``: coeff * n1 ^ n2 ^ ..."""
    return lambda cof: Form.monomial(cof, names, coeff)


# The worked examples' charts.  Every call builds a new chart, so the tables
# and caches kept on its coframe and on its pairs die with the pass that
# built it.
CHARTS = {
    # total space of the circle bundle over the two-sphere chart, trivial flux
    "s3_hopf": lambda: BundleChart.build(
        "s3-hopf", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th"],
        curvature={"th": _monomial("dt", "du")}),
    # the same bundle carrying the flux sigma ^ theta; its dual has the same shape
    "s3_flux": lambda: BundleChart.build(
        "s3-flux", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th"],
        curvature={"th": _monomial("dt", "du")}, flux=_monomial("dt", "du", "th")),
    # twice-punctured sphere as a trivial circle bundle over the height interval
    "s2": lambda: BundleChart.build("s2", [("t", -0.95, 0.95)], ["th"]),
    # invariant two-torus chart over an annular log-radius box; the degenerate
    # fibers sit at s2 = 0, outside the box
    "hopf_surface": lambda: BundleChart.build(
        "hopf-surface", [("s1", 0.05, 0.65), ("s2", 0.08, 1.0)], ["th1", "th2"]),
    # flat circle bundle over a punctured box in three-space (pole at the
    # origin, potential string on the x3-axis; the box avoids both)
    "gibbons_hawking": lambda: BundleChart.build(
        "gibbons-hawking", [("x1", 0.6, 1.4), ("x2", 0.4, 1.2), ("x3", -0.5, 0.5)],
        ["th"]),
    # rank-two torus bundle with two independent curvatures and no flux; its
    # twisted dual uses a correspondence form with a fiber-fiber term
    "t2_twisted": lambda: BundleChart.build(
        "t2-twisted", [("u", 0.1, 0.9), ("v", 0.1, 0.9)], ["th1", "th2"],
        curvature={"th1": _monomial("du", "dv"),
                   "th2": _monomial("du", "dv", coeff=sadd(ONE, spow(var("u"), 2)))}),
}


def load_chart(name):
    """A new chart from its ``CHARTS`` builder."""
    return CHARTS[name]()


def _double_quotient_defect(pair, points):
    """Worst double-quotient residual at the points, and whether the split
    signature and the rank test hold at every point."""
    reports = double_quotient_report(pair, points)
    worst = max((max(red.isotropy_residual_k, red.isotropy_residual_kt,
                     red.isometry_defect_m, red.isometry_defect_mt) for red in reports),
                default=0.0)
    return worst, all(red.split_signature_ok and red.rank_ok for red in reports)


def _standard_pair_checks(report, pair, rng, points):
    """Shared suite: validation, then the six transform identities, each
    certified on the frame with its Leibniz and linearity side conditions
    (``certify.frame_certificate``)."""
    rep = pair.validate(n=len(points), seed=int(rng.integers(2**31)))
    report.add("pair-validation", "dF equals the flux difference; fiber block invertible",
               residual=rep.flux_difference_residual, tol=1e-9,
               passed=rep.ok, notes=f"unimodular={rep.unimodular}")
    cert = frame_certificate(pair, points)
    sign = reverse_sign(pair).evaluate({})
    for name, anchor, tol, notes in (
            ("transform-intertwines-differentials",
             "form transform commutes with the twisted differentials", 1e-8, ""),
            ("section-transform-orthogonal",
             "section transform preserves the natural pairing", 1e-9, ""),
            ("section-transform-bracket",
             "section transform preserves the twisted bracket", 1e-8, ""),
            ("clifford-compatibility",
             "transform of v.rho equals transformed v acting on transformed rho", 1e-8, ""),
            ("spinor-bracket-oracle",
             "bracket equals the derived commutator on the spinor module", 1e-8, ""),
            ("transform-invertible",
             "reverse transform returns the input up to the recorded sign", 1e-9,
             f"global sign {sign.real:+g}; ")):
        report.add(name, anchor, residual=cert[name].residual, tol=tol,
                   notes=notes + cert[name].notes)
    return report


def _dual_of_dual_check(report, pair, points):
    chart = pair.chart
    ddual = build_dual_chart(pair.dual)
    twice = {gen: dual_fiber_name(dual_fiber_name(gen)) for gen in chart.fiber_names}
    rename = {back: gen for gen, back in twice.items()}
    res = form_residual(ddual.flux.map_to(chart.coframe, rename) - chart.flux,
                        chart.domain, points)
    for gen in chart.fiber_names:
        back = ddual.curvature_of(twice[gen]).map_to(chart.coframe, rename)
        res = max(res, form_residual(back - chart.curvature_of(gen),
                                     chart.domain, points))
    report.add("dual-of-dual", "double dualization returns the original data",
               residual=res, tol=1e-9)


def _hopf_metric_blocks(chart):
    """The blocks (g0, g1, g2, b1, b2) of the s3-hopf metric on its chart."""
    t, u = var("t"), var("u")
    cof = chart.coframe
    return (sadd(ONE, smul(t, t)),
            Form.monomial(cof, ("du",), smul(rat(1, 2), t)),
            SymTensor.from_names(cof, {("dt", "dt"): sadd(ONE, smul(u, u)),
                                       ("du", "du"): sadd(rat(2), scos(smul(rat(2), PI, u)))}),
            Form.monomial(cof, ("dt",), smul(rat(1, 3), u)),
            Form.monomial(cof, ("dt", "du"), t))


def scenario_s3_hopf(seed, samples):
    report = Report("s3-hopf", seed, samples)
    rng = np.random.default_rng(seed)
    chart = load_chart("s3_hopf")
    pair = DualityPair.from_chart(chart)
    points = chart.domain.sample_many(rng, samples)
    dual = pair.dual
    sigma_tht = Form.monomial(dual.coframe, ("dt", "du", "tht"))
    report.add("dual-is-product-with-flux",
               "trivial-flux circle bundle dualizes to the product with flux "
               "curvature ^ dual fiber",
               passed=dual.flux == sigma_tht and not dual.curvature_of("tht").coeffs,
               notes="structural equality")
    _standard_pair_checks(report, pair, rng, points)
    _dual_of_dual_check(report, pair, points)
    # metric transport against the closed form
    met = assemble_metric(chart, *_hopf_metric_blocks(chart))
    tm = transport_metric(met, pair)
    closed = buscher_rules(met, pair)
    report.add("metric-transport-closed-form",
               "eigenspace transport of (g, b) matches the closed-form rules",
               residual=metric_residual(tm, closed, points), tol=1e-9)
    defect, ok = _double_quotient_defect(pair, points)
    report.add("double-quotient", "correspondence reduces isometrically onto both sides",
               residual=defect, tol=1e-9, passed=ok and defect <= 1e-9)
    ok, spread = pairing_constant_check(duality_lift_sections(pair), points)
    report.add("lift-pairing-constant",
               "the lifted torus action induces a constant split pairing",
               residual=spread, tol=1e-9, passed=ok)
    # lift splitting on the flux chart
    x = FrameVector.basis(chart.coframe, "th")
    report.add("fiber-lift-splitting", "fiber generators satisfy i_X H = d xi with xi = 0",
               residual=lift_splitting_residual(x, Form.zero(chart.coframe), chart, points),
               tol=1e-9)
    return report


def scenario_s3_selfdual(seed, samples):
    report = Report("s3-selfdual", seed, samples)
    rng = np.random.default_rng(seed)
    chart = load_chart("s3_flux")
    pair = DualityPair.from_chart(chart)
    points = chart.domain.sample_many(rng, samples)
    sigma = Form.monomial(chart.coframe, ("dt", "du"))
    ct, h = split_flux(chart)
    report.add("flux-splitting", "H = curvature-part ^ fiber + basic part",
               passed=ct["th"] == sigma and h.is_zero(),
               notes="dual curvature equals the original curvature (self-dual shape); "
                     "sign fixed by the curvature-first splitting convention")
    dual = pair.dual
    same_shape = (dual.curvature_of("tht") == sigma.map_to(dual.coframe)
                  and dual.flux == Form.monomial(dual.coframe, ("dt", "du", "tht")))
    report.add("self-dual-shape", "dual chart carries the same curvature and flux pattern",
               passed=same_shape,
               notes="structural equality")
    _standard_pair_checks(report, pair, rng, points)
    _dual_of_dual_check(report, pair, points)
    return report


def _s2_setup():
    chart = load_chart("s2")
    cof = chart.coframe
    t = var("t")
    w = sadd(rat(1, 2), smul(t, t))
    b = smul(rat(1, 4), t)
    omega = Form.monomial(cof, ("dt", "th"), w)
    bfield = Form.monomial(cof, ("dt", "th"), b)
    spinor = PureSpinor.from_data(bfield, omega, Form.scalar(cof, 1))
    return chart, t, w, b, spinor


def scenario_s2_annulus(seed, samples):
    report = Report("s2-annulus", seed, samples)
    rng = np.random.default_rng(seed)
    chart, t, w, b, spinor = _s2_setup()
    pair = DualityPair.from_chart(chart)
    points = chart.domain.sample_many(rng, samples)
    dual = pair.dual
    dual_spinor = dualize_form(spinor.form, pair)
    expected = (Form.monomial(dual.coframe, ("tht",))
                + Form.monomial(dual.coframe, ("dt",), CScalar(b, w)))
    report.add("dual-spinor-formula",
               "the symplectic exponential dualizes to the fiber form plus "
               "(b + i w) dt",
               passed=dual_spinor == expected,
               notes="structural equality")
    types = set(spinor_types(PureSpinor(dual_spinor), points))
    report.add("dual-type-one", "the dual structure has type one at every sample",
               passed=types == {1})
    tj = dual_types(spinor, pair, points)
    report.add("type-shift", "type changes by 2j - k with j from the fiber integral",
               passed=all(x == (1, 1) for x in tj),
               notes="j = 1 everywhere: the lowest factor is basic")
    # annulus radii: closed-form antiderivative vs Gauss-Legendre quadrature,
    # whose 2 nodes integrate the quadratic w exactly (exact through degree 3)
    nodes, weights = np.polynomial.legendre.leggauss(2)
    quad_val = sum(float(wt) * evaluate(w, {"t": float(x)})
                   for x, wt in zip(nodes, weights))
    anti = sadd(smul(rat(1, 2), t), smul(rat(1, 3), t, t, t))
    closed = evaluate(anti, {"t": 1.0}) - evaluate(anti, {"t": -1.0})
    radius_quad = math.exp(-quad_val)
    radius_closed = math.exp(-closed)
    report.add("annulus-radius",
               "exterior radius equals exp(-total symplectic volume), by quadrature",
               residual=abs(radius_quad - radius_closed), tol=1e-6,
               notes=f"radius {radius_closed:.6f}, interior radius 1")
    # holomorphic coordinate: d z is proportional to the dual spinor pointwise
    antib = smul(rat(1, 8), t, t)
    w_shift = sadd(anti, rat(5, 6))  # W(t) - W(-1) with W = t/2 + t^3/3
    tht = var("tht_angle")
    z_re = smul(sexp(sneg(w_shift)), scos(sadd(tht, antib)))
    z_im = smul(sexp(sneg(w_shift)), ssin(sadd(tht, antib)))
    dual_chart = pair.dual
    envs = [dict(p, tht_angle=angle) for p in points for angle in (0.3, 2.1)]
    rho = _eval_array((dual_spinor.coeff_of("dt"), dual_spinor.coeff_of("tht")), envs).tolist()
    worst = 0.0
    for x, y, w_val, b_val, rho_dt, rho_tht in zip(
            *_value_array((z_re, z_im, w, b), envs).tolist(), *rho):
        z = complex(x, y)
        # dz = z (i thetat - (w - i b) dt)
        worst = max(worst, abs(z * (-(w_val - 1j * b_val)) * rho_tht - z * 1j * rho_dt))
    report.add("holomorphic-coordinate",
               "the dual spinor line agrees with the differential of the "
               "annulus coordinate",
               residual=worst, tol=1e-9)
    # round metric and its dual
    g0 = sadd(ONE, sneg(smul(t, t)))
    g2 = SymTensor.from_names(chart.coframe, {("dt", "dt"): sdiv(ONE, g0)})
    zero1 = Form.zero(chart.coframe)
    met = assemble_metric(chart, g0, zero1, g2, zero1, zero1)
    dual_met = buscher_rules(met, pair)
    inv = sdiv(ONE, g0)
    expected_met = GeneralizedMetric(
        SymTensor.from_names(dual.coframe, {("tht", "tht"): inv, ("dt", "dt"): inv}),
        Form.zero(dual.coframe))
    res = metric_residual(dual_met, expected_met, points)
    report.add("round-metric-dual",
               "round fiber radius inverts: dual metric is (1/(1-t^2))(dthetat^2 + dt^2)",
               residual=res, tol=1e-9,
               passed=(res <= 1e-9 and dual_met.g.entry_of("dt", "tht").is_zero()
                       and dual_met.b.is_zero()))
    tm = transport_metric(met, pair)
    report.add("metric-transport-matches",
               "eigenspace transport reproduces the closed-form dual metric",
               residual=metric_residual(tm, dual_met, points), tol=1e-9)
    res = check_integrable(spinor, chart, points)
    report.add("integrability", "the symplectic exponential is twisted-closed",
               residual=res.residual, tol=1e-8)
    res_dual = check_integrable(PureSpinor(dual_spinor), dual_chart, points)
    report.add("integrability-transported",
               "the dual structure is integrable (transport preserves integrability)",
               residual=res_dual.residual, tol=1e-8)
    worst = max(uk_transport_residuals(spinor, pair, points[:4]))
    report.add("eigenspace-ladder-transport",
               "the form transform maps each eigenspace level onto its dual level",
               residual=worst, tol=1e-8)
    return report


def _hopf_surface_family(chart, eps):
    """Invariant complex-type family: (ds1 + 2 pi i th1) ^ (ds2 + 2 pi i eps th2)."""
    cof = chart.coframe
    two_pi_i = CScalar(ZERO, smul(rat(2), PI))
    alpha = Form.monomial(cof, ("ds1",)) + Form.monomial(cof, ("th1",), two_pi_i)
    beta = Form.monomial(cof, ("ds2",)) + Form.monomial(cof, ("th2",),
                                                        two_pi_i * CScalar.of(eps))
    return PureSpinor.from_data(Form.zero(cof), Form.zero(cof), wedge(alpha, beta))


def scenario_hopf_surface(seed, samples):
    report = Report("hopf-surface", seed, samples)
    rng = np.random.default_rng(seed)
    chart = load_chart("hopf_surface")
    pair = DualityPair.from_chart(chart)
    points = chart.domain.sample_many(rng, samples)
    s2v = var("s2")
    spinor = _hopf_surface_family(chart, s2v)
    rep = pair.validate(n=len(points), seed=seed)
    report.add("pair-validation", "dF equals the flux difference; fiber block invertible",
               residual=rep.flux_difference_residual, tol=1e-9, passed=rep.ok)
    valid = (min(mukai_norms(spinor, points)) >= 1e-6
             and all(is_decomposable(spinor.lowest, points)))
    report.add("family-validity",
               "the invariant family is nondegenerate and decomposable on the chart",
               passed=valid,
               notes="family a1 != a2; phases are real tori away from the "
                     "excluded loci at s2 = 0")
    res = check_integrable(spinor, chart, points)
    report.add("integrability", "the family is closed up to a fiber covector witness",
               residual=res.residual, tol=1e-8)
    dual_spinor = transport_spinor(spinor, pair)
    res_d = check_integrable(dual_spinor, pair.dual, points)
    report.add("integrability-transported",
               "the transported family stays integrable",
               residual=res_d.residual, tol=1e-8)
    types, js = zip(*dual_types(spinor, pair, points))
    report.add("generic-dual-type",
               "dual type is zero (symplectic) at every interior sample, and "
               "matches the transported spinor's type",
               passed=set(types) == {0} and list(types) == spinor_types(dual_spinor, points),
               notes=f"j per sample: {sorted(set(js))}")
    # continuation toward the excluded locus: the surviving integral decays
    # linearly and the limit member jumps to j = 1 (complex dual type 2)
    decay = []
    for s2val in (0.4, 0.2, 0.1):
        member = _hopf_surface_family(chart, rat(int(s2val * 100), 100))
        integrand = pair.pull(member.form)
        integral = fiber_integrate(integrand, ("fiber",))
        p = dict(points[0])
        vals = integral.eval_coeffs(p)
        decay.append(max(abs(v) for v in vals.values()) / (4 * math.pi ** 2))
    linear = all(abs(decay[i] / decay[i + 1] - 2.0) < 1e-9 for i in range(2))
    limit = _hopf_surface_family(chart, ZERO)
    ((tt_limit, j_limit),) = dual_types(limit, pair, points[:1])
    degenerate = mukai_norms(limit, points[:1])[0] < 1e-12
    report.add("type-jump-at-locus",
               "continuing the family to the excluded fibers flips the fiber "
               "integral order and the dual type jumps 0 -> 2",
               passed=linear and (tt_limit, j_limit) == (2, 1) and degenerate,
               notes=f"surviving integral decays linearly ({decay[0]:.3g}, "
                     f"{decay[1]:.3g}, {decay[2]:.3g}); limit member is "
                     f"degenerate with j = {j_limit}")
    worst = max(uk_transport_residuals(spinor, pair, points[:3]))
    report.add("eigenspace-ladder-transport",
               "the form transform maps each eigenspace level onto its dual level",
               residual=worst, tol=1e-8)
    return report


def _gh_data(chart):
    cof = chart.coframe
    x1, x2, x3 = var("x1"), var("x2"), var("x3")
    r = ssqrt(sadd(smul(x1, x1), smul(x2, x2), smul(x3, x3)))
    v_pot = sadd(ONE, sdiv(rat(1, 2), r))
    axis = sadd(smul(x1, x1), smul(x2, x2))
    b1 = (Form.monomial(cof, ("dx2",), sdiv(smul(x3, x1), smul(rat(2), r, axis)))
          + Form.monomial(cof, ("dx1",), sneg(sdiv(smul(x3, x2), smul(rat(2), r, axis)))))
    return v_pot, b1


def scenario_gibbons_hawking(seed, samples):
    report = Report("gibbons-hawking", seed, samples)
    rng = np.random.default_rng(seed)
    chart = load_chart("gibbons_hawking")
    pair = DualityPair.from_chart(chart)
    cof = chart.coframe
    points = chart.domain.sample_many(rng, samples)
    v_pot, b1 = _gh_data(chart)
    lap = sadd(*[diff(diff(v_pot, n), n) for n in ("x1", "x2", "x3")])
    report.add("harmonic-potential", "the conformal factor is harmonic on the box",
               residual=max(abs(v) for v in _value_array([lap], points)[0].tolist()), tol=1e-8)
    star_dv = (Form.monomial(cof, ("dx2", "dx3"), diff(v_pot, "x1"))
               + Form.monomial(cof, ("dx3", "dx1"), diff(v_pot, "x2"))
               + Form.monomial(cof, ("dx1", "dx2"), diff(v_pot, "x3")))
    db1 = exterior_derivative(b1, chart)
    report.add("monopole-potential", "d b1 equals the spatial star of d V",
               residual=form_residual(db1 - star_dv, chart.domain, points), tol=1e-8)
    # dual metric: conformally flat with flux potential dualizes to the
    # hyper-Kahler ansatz metric, sheared by b1
    zero1 = Form.zero(cof)
    g2 = SymTensor(cof, {(i, i): v_pot for i, n in enumerate(cof.names)
                         if cof.tags[i] == "base"})
    met = assemble_metric(chart, v_pot, zero1, g2, b1, zero1)
    dual_met = buscher_rules(met, pair)
    dcof = pair.dual.coframe
    inv_v = sdiv(ONE, v_pot)
    i_t = dcof.index("tht")
    units = [((i, i), 1, inv_v if n == "tht" else v_pot) for i, n in enumerate(dcof.names)]
    b1_dual = b1.map_to(dcof)
    for i in range(dcof.dim):
        c = b1_dual.coeff(1 << i)
        if not c.is_zero():
            units.append(((min(i, i_t), max(i, i_t)), -1, sdiv(c.re, v_pot)))
        for j in range(i, dcof.dim):
            ci, cj = b1_dual.coeff(1 << i).re, b1_dual.coeff(1 << j).re
            prod = sdiv(smul(ci, cj), v_pot)
            if not prod.is_zero():
                units.append(((i, j), 1, prod))
    expected = GeneralizedMetric(SymTensor(dcof, _keyed_sum(units)), Form.zero(dcof))
    report.add("ansatz-metric",
               "dual metric is V (flat) + (1/V)(fiber form - b1)^2 with closed b1",
               residual=metric_residual(dual_met, expected, points),
               tol=1e-8, notes="dual 2-form vanishes (b2 = 0)")
    # the generalized Kahler pair behind the ansatz
    rho1 = wedge(exp_form(met.b + Form.monomial(cof, ("dx1", "dx2"),
                                                  CScalar(ZERO, v_pot))),
                 Form.monomial(cof, ("th",)) + Form.monomial(cof, ("dx3",), CScalar.i()))
    rho2 = wedge(exp_form(met.b + Form.monomial(cof, ("dx3", "th"),
                                                  CScalar(ZERO, v_pot))),
                 Form.monomial(cof, ("dx2",)) + Form.monomial(cof, ("dx1",), CScalar.i()))
    res1 = form_residual(exterior_derivative(rho1, chart), chart.domain, points)
    res2 = form_residual(exterior_derivative(rho2, chart), chart.domain, points)
    report.add("closed-spinor-pair", "both canonical forms are closed",
               residual=max(res1, res2), tol=1e-8)
    m1 = mukai_pairing(rho1, rho1.conj())
    m2 = mukai_pairing(rho2, rho2.conj())
    report.add("volume-normalization",
               "the two canonical forms share the same pairing volume",
               residual=form_residual(m1 - m2, chart.domain, points), tol=1e-8)
    sp1, sp2 = PureSpinor(rho1), PureSpinor(rho2)
    near = points[:3]
    j1 = gcs_matrices(cof, sp1.form.eval_vectors(near), near)
    j2 = gcs_matrices(cof, sp2.form.eval_vectors(near), near)
    worst = max(float(np.abs(j1 @ j2 - j2 @ j1).max()),
                float(np.abs(-j1 @ j2 - metric_matrices(met, near)).max()))
    report.add("kahler-pair",
               "the two structures commute and their product recovers the metric",
               residual=worst, tol=1e-7,
               notes="types (1, 1): the odd four-dimensional case")
    # bi-Hermitian transport at a point (metric connection: no mixed term)
    p = points[0]
    iplus = np.zeros((4, 4))
    ix = {n: i for i, n in enumerate(cof.names)}
    iplus[ix["dx3"], ix["th"]] = 1.0
    iplus[ix["th"], ix["dx3"]] = -1.0
    iplus[ix["dx1"], ix["dx2"]] = 1.0
    iplus[ix["dx2"], ix["dx1"]] = -1.0
    (it_plus,) = bihermitian_dual(iplus, met, chart, [p], +1)
    (it_minus,) = bihermitian_dual(iplus, met, chart, [p], -1)
    ok = (np.abs(it_plus @ it_plus + np.eye(4)).max() <= 1e-9
          and np.abs(it_minus @ it_minus + np.eye(4)).max() <= 1e-9
          and orientation_sign(it_plus) == orientation_sign(iplus)
          and orientation_sign(it_minus) == -orientation_sign(iplus))
    report.add("tangent-structure-transport",
               "dual tangent structures square to minus one; one side keeps "
               "the orientation, the other flips it",
               passed=ok)
    return report


def _generic_metric(coframe):
    """(g, b) with a free variable per entry: g_ij = g{i}{j} for i <= j and
    b = sum over i < j of b{i}{j} e^i ^ e^j."""
    names = coframe.names
    m = coframe.dim
    g = SymTensor(coframe, {(i, j): var(f"g{i}{j}") for i in range(m) for j in range(i, m)})
    b = Form(coframe, {coframe.mask_of((names[i], names[j])): CScalar(var(f"b{i}{j}"))
                       for i in range(m) for j in range(i + 1, m)})
    return GeneralizedMetric(g, b)


def _entry_points(rng, m, n):
    """n points of the entry space of ``_generic_metric``: G = I + A^T A and
    B with A and B standard normal, B read above the diagonal.  One draw of
    every (A, B), one stacked product and one ``tolist`` give the points."""
    a, b = np.moveaxis(rng.standard_normal((n, 2, m, m)), 1, 0)
    g = np.eye(m) + np.swapaxes(a, -1, -2) @ a
    (gi, gj), (bi, bj) = np.triu_indices(m), np.triu_indices(m, 1)
    keys = [f"g{i}{j}" for i, j in zip(gi, gj)] + [f"b{i}{j}" for i, j in zip(bi, bj)]
    rows = np.concatenate((g[:, gi, gj], b[:, bi, bj]), axis=1).tolist()
    return [dict(zip(keys, row)) for row in rows]


def scenario_buscher_random(seed, samples):
    """Both sides of the Buscher rules are rational in the entries of (g, b)
    and neither differentiates, so one metric with a free variable per entry
    certifies the rules for every invariant (g, b) with g0 != 0 by polynomial
    identity testing.  The points bind only the entry variables: a base
    variable entering either side would fail evaluation, not pass."""
    report = Report("buscher-random", seed, samples)
    rng = np.random.default_rng(seed)
    charts = [
        BundleChart.build("b1d", [("t", -0.9, 0.9)], ["th"]),
        BundleChart.build("b2d", [("t", -0.9, 0.9), ("u", 0.1, 0.9)], ["th"]),
    ]
    worst_match = 0.0
    worst_invol = 0.0
    structural = True
    for chart in charts:
        pair = DualityPair.from_chart(chart)
        met = _generic_metric(chart.coframe)
        closed = buscher_rules(met, pair)
        tm = transport_metric(met, pair)
        back = buscher_rules(closed, pair.swap())
        points = _entry_points(rng, chart.coframe.dim, samples)
        worst_match = max(worst_match, metric_residual(tm, closed, points))
        worst_invol = max(worst_invol, metric_residual(back, met, points))
        structural = structural and (closed.g.entry_of("tht", "tht")
                                     == sdiv(ONE, met.g.entry_of("th", "th")))
    notes = f"generic (g, b) on m = 2 and 3; entry-space points per chart: {samples}"
    report.add("transport-matches-closed-form",
               "eigenspace transport equals the closed-form rules for every invariant (g, b)",
               residual=worst_match, tol=1e-9, notes=notes)
    report.add("fiber-coefficient-inversion",
               "the fiber metric coefficient inverts exactly",
               passed=structural,
               notes="structural, on the generic closed form of each chart: dual "
                     "entry is the literal quotient 1/g0")
    report.add("involution", "applying the rules twice returns the original data",
               residual=worst_invol, tol=1e-9, notes=notes)
    return report


def twisted_rank_two_pair():
    """Rank-two pair with a mixed correspondence form (fiber-fiber term)."""
    chart = load_chart("t2_twisted")
    cof = chart.coframe
    c1 = chart.curvature_of("th1")
    c2 = chart.curvature_of("th2")
    dual_cof = Coframe(("du", "dv", "th1t", "th2t"), ("base", "base", "fiber", "fiber"))
    dual_curv = {"th1t": c1.map_to(dual_cof), "th2t": (-c2).map_to(dual_cof)}
    flux_t = (wedge(c1.map_to(dual_cof), Form.monomial(dual_cof, ("th2t",)))
              + wedge(c2.map_to(dual_cof), Form.monomial(dual_cof, ("th1t",))))
    dual = BundleChart("t2-twisted~", chart.base_vars, chart.domain, dual_cof,
                       dual_curv, flux_t)

    def flux_maker(cof_total, c, d):
        return -(Form.monomial(cof_total, ("th1", "th2t"))
                 + Form.monomial(cof_total, ("th2", "th1t"))
                 + Form.monomial(cof_total, ("th1", "th2")))

    return DualityPair.from_charts(chart, dual, flux_maker)


def scenario_reduction_suite(seed, samples):
    report = Report("reduction-suite", seed, samples)
    rng = np.random.default_rng(seed)
    hopf = DualityPair.from_chart(load_chart("s3_hopf"))
    s2 = DualityPair.from_chart(load_chart("s2"))
    mixed = twisted_rank_two_pair()
    rep = mixed.validate(n=5, seed=seed)
    report.add("mixed-pair-validation",
               "the twisted rank-two pair satisfies the duality identity with a "
               "mixed correspondence form",
               residual=rep.flux_difference_residual, tol=1e-9, passed=rep.ok,
               notes=f"fiber block [[0,-1],[-1,0]], unimodular={rep.unimodular}")
    npts = max(4, samples // 4)
    defects, oks = zip(*(_double_quotient_defect(p, p.chart.domain.sample_many(rng, npts))
                         for p in (hopf, s2, mixed)))
    report.add("double-quotient",
               "correspondences reduce isometrically onto both sides at samples",
               residual=max(defects), tol=1e-9, passed=all(oks) and max(defects) <= 1e-9,
               notes="three pairs, incl. the mixed form")
    # scaled correspondence form: pointwise reduction still works
    def scaled_flux(cof_total, c, d):
        from .bundle import standard_correspondence_flux
        return standard_correspondence_flux(cof_total, c, d).scale(rat(2))
    scaled = DualityPair.from_charts(hopf.chart, hopf.dual, scaled_flux)
    (red,) = double_quotient_report(scaled, scaled.chart.domain.sample_many(rng, 1))
    defect = max(red.isometry_defect_m, red.isometry_defect_mt)
    vrep = scaled.validate(n=4, seed=seed)
    report.add("scaled-form-reduces",
               "a non-unimodular correspondence form still reduces pointwise",
               residual=defect, tol=1e-9,
               passed=(defect <= 1e-9 and red.split_signature_ok and red.rank_ok
                       and vrep.unimodular is False),
               notes="unimodularity fails, nondegeneracy and isometry survive")
    # exactness iff isotropy on randomized pointwise actions, reduced in one call
    trials = []
    for trial in range(32):
        n = int(rng.integers(2, 5))
        g = split_pairing_matrix(n)
        if trial % 2 == 0:
            vecs = np.zeros((2 * n, 2))
            vecs[:n, 0] = rng.standard_normal(n)
            vecs[:n, 1] = rng.standard_normal(n)
            bmat = rng.standard_normal((n, n))
            bmat = bmat - bmat.T
            shear = np.eye(2 * n)
            shear[n:, :n] = bmat
            vecs = shear @ vecs
        else:
            vecs = rng.standard_normal((2 * n, 2))
        trials.append((g, vecs))
    agree = True
    for (g, vecs), red in zip(trials, reduce_pointwise([LiftedActionPoint(*t) for t in trials])):
        iso = bool(np.abs(vecs.T @ g @ vecs).max() <= 1e-9)
        agree = agree and (red.exact == iso)
        # the quotient pairing must kill the radical
        if red.radical.shape[1]:
            agree = agree and np.abs(red.radical.conj().T @ g @ red.perp).max() <= 1e-9
    report.add("exact-iff-isotropic",
               "pointwise reduction is exact precisely for isotropic actions",
               passed=agree, notes="32 randomized actions")
    # transversality of the correspondence tangent space, in one call: F as
    # it is, scaled to zero and scaled at random at each of two points
    pts2 = s2.chart.domain.sample_many(rng, 2)
    scales = [float(rng.uniform(0.5, 3.0)) for _ in pts2]
    sides = transversality_check(s2, pts2 * 3, f_scale=[1.0, 1.0, 0.0, 0.0] + scales)
    t_ok = (all(a and b for a, b in sides[:2] + sides[4:])
            and not any(a or b for a, b in sides[2:4]))
    report.add("graph-transversality",
               "the correspondence tangent space meets either factor trivially "
               "iff the fiber block is invertible",
               passed=t_ok)
    # the two duality criteria agree, positive and negative instances: even
    # trials pair a spinor on s2 with its transport, odd trials one on the
    # hopf surface with an unrelated random spinor.  The checks use a spinor
    # only through its values at the trial's point, so they are drawn as such;
    # each pair runs one stacked check.
    pairs_for_fm = (s2, DualityPair.from_chart(load_chart("hopf_surface")))
    pts, rho_m, rho_t = ([], []), ([], []), []
    for trial in range(32):
        side, pair = trial % 2, pairs_for_fm[trial % 2]
        pts[side].extend(pair.chart.domain.sample_many(rng, 1))
        rho_m[side].append(random_spinor_values(rng, pair.chart.coframe.dim))
        if side:
            rho_t.append(random_spinor_values(rng, pair.dual.coframe.dim))
    # the transport's values: the form transform is C-infinity(base)-linear
    partners = (transform_matrices(s2, pts[0]) @ np.array(rho_m[0])[..., None])[..., 0]
    dual_side, other_side = (
        fourier_mukai_check(pair, np.array(rm), np.array(rt), p)
        for pair, rm, rt, p in zip(pairs_for_fm, rho_m, (partners, rho_t), pts))
    # accidental near-duality: skip rather than misjudge
    kept = [(r1, r2) for r1, r2, d1, d2 in other_side if max(d1, d2) >= 1e-4]
    positives, negatives = len(dual_side), len(kept)
    skipped = len(other_side) - negatives
    agree = (all(r1 and r2 for r1, r2, _, _ in dual_side)
             and not any(r1 or r2 for r1, r2 in kept))
    # too many skips would leave the negative side of the equivalence untested
    report.add("product-criterion-equivalence",
               "invariance of the correspondence tangent space under the product "
               "structure agrees with conjugation by the section transform",
               passed=agree and negatives >= 12,
               notes=f"{positives} positive, {negatives} negative instances; "
                     f"{skipped} near-dual negatives skipped (at least 12 of 16 "
                     "negatives must remain)")
    return report


SCENARIOS = {
    "s3-hopf": scenario_s3_hopf,
    "s3-selfdual": scenario_s3_selfdual,
    "s2-annulus": scenario_s2_annulus,
    "hopf-surface": scenario_hopf_surface,
    "gibbons-hawking": scenario_gibbons_hawking,
    "buscher-random": scenario_buscher_random,
    "reduction-suite": scenario_reduction_suite,
}


def check_run(name, seed, samples):
    """Raise the usage error of a run, if any: KeyError for an unknown
    scenario, ValueError for a negative seed or samples below 1."""
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")


def run_scenario(name, seed=0, samples=8):
    check_run(name, seed, samples)
    return SCENARIOS[name](seed, samples)
