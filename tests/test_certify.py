"""The frame certificate of the pair identities, and the mutants it must catch.

Each mutant below breaks one piece of the duality code; the certificate must
fail on it, on a pair where the broken piece shows.  The fiber-block
transposition needs a rank-2 pair whose block is not symmetric: the block of
``twisted_rank_two_pair`` is [[0, -1], [-1, 0]], so transposing it changes
nothing there, and the sheared trivial torus pair below is used instead.
"""
import numpy as np
import pytest

from tduality import certify, courant, duality
from tduality.bundle import (BundleChart, DualityPair, build_dual_chart,
                             exterior_derivative, standard_correspondence_flux)
from tduality.courant import Section
from tduality.exterior import Form, FrameVector, contract, fiber_integrate
from tduality.scenarios import load_chart, twisted_rank_two_pair

# the tolerances the scenarios compare each certified residual with
TOLS = {"transform-intertwines-differentials": 1e-8,
        "section-transform-orthogonal": 1e-9,
        "section-transform-bracket": 1e-8,
        "clifford-compatibility": 1e-8,
        "spinor-bracket-oracle": 1e-8,
        "transform-invertible": 1e-9}


def sheared_torus_pair():
    """Trivial rank-2 torus with F = -(th1^th1t + th2^th2t) - th1^th2t: dF = 0
    = H - Ht, and the fiber block [[-1, -1], [0, -1]] is not symmetric."""
    chart = BundleChart.build("t4", [("s1", 0.05, 0.65), ("s2", 0.08, 1.0)],
                              ["th1", "th2"])

    def flux_maker(cof, c, d):
        return standard_correspondence_flux(cof, c, d) - Form.monomial(cof, ("th1", "th2t"))

    return DualityPair.from_charts(chart, build_dual_chart(chart), flux_maker)


PAIRS = {
    "s3_hopf": lambda: DualityPair.from_chart(load_chart("s3_hopf.cfg")),
    "s3_flux": lambda: DualityPair.from_chart(load_chart("s3_flux.cfg")),
    "t2_twisted": twisted_rank_two_pair,
    "sheared": sheared_torus_pair,
}


def failing_checks(pair):
    points = pair.chart.domain.sample_many(np.random.default_rng(0), 4)
    cert = certify.frame_certificate(pair, points)
    assert set(cert) == set(TOLS)
    return {name for name, c in cert.items() if c.residual > TOLS[name]}


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_certificate_holds_and_counts_its_instances(name):
    pair = PAIRS[name]()
    points = pair.chart.domain.sample_many(np.random.default_rng(1), 3)
    cert = certify.frame_certificate(pair, points)
    m, n = pair.chart.coframe.dim, len(pair.chart.base_vars)
    assert all(c.residual <= TOLS[check] for check, c in cert.items())
    oracle = cert["spinor-bracket-oracle"]
    assert oracle.frame == (2 * m) ** 2 * 2 ** m
    assert cert["transform-intertwines-differentials"].side == 2 * n * 2 ** m
    assert all(0 <= c.frame_zero <= c.frame and 0 <= c.side_zero <= c.side
               for c in cert.values())
    assert oracle.notes == (f"frame: {oracle.frame} instances, {oracle.frame_zero} "
                            f"structurally zero; side conditions: {oracle.side} "
                            f"instances, {oracle.side_zero} structurally zero")


def flipped_flux_bracket(real):
    """The bracket with the sign of its flux term i_X i_Y H flipped."""
    def bracket(v, w, chart):
        b = real(v, w, chart)
        return Section(b.x, b.xi - contract(v.x, contract(w.x, chart.flux)).scale(2))
    return bracket


def transform_without_f(rho, pair):
    """dualize_form with F = 0: the bare fiber integral."""
    return pair.push_mt(fiber_integrate(pair.pull(rho), ("fiber",)))


def lie_bracket_without_y_of_xb(real):
    """e^b([X, Y]) = X(Y^b) - (d e^b)(X, Y): the Y(X^b) term dropped."""
    def bracket(x, y, chart):
        cof = chart.coframe
        y_of_x = [contract(y, exterior_derivative(Form.scalar(cof, c), chart)).coeff(0)
                  for c in x.components]
        return FrameVector(cof, tuple(a + b for a, b in
                                      zip(real(x, y, chart).components, y_of_x)))
    return bracket


def transposed_block(real):
    def block(self):
        return [list(col) for col in zip(*real(self))]
    return block


def install_flux_term_sign(mp):
    bracket = flipped_flux_bracket(courant.courant_bracket)
    for module in (courant, certify):
        mp.setattr(module, "courant_bracket", bracket)


def install_f_zero(mp):
    for module in (duality, certify):
        mp.setattr(module, "dualize_form", transform_without_f)


def install_dropped_term(mp):
    mp.setattr(courant, "lie_bracket", lie_bracket_without_y_of_xb(courant.lie_bracket))


def install_transposed_block(mp):
    mp.setattr(DualityPair, "fiber_block", transposed_block(DualityPair.fiber_block))


# mutant -> (installer, {pair: the checks it must fail there})
MUTANTS = {
    "flux-term-sign": (install_flux_term_sign, {
        "s3_hopf": {"section-transform-bracket"},
        "s3_flux": {"section-transform-bracket", "spinor-bracket-oracle"},
        "t2_twisted": {"section-transform-bracket"}}),
    "f-zero-in-dualize-form": (install_f_zero, {
        name: {"transform-intertwines-differentials", "clifford-compatibility",
               "transform-invertible"} for name in ("s3_hopf", "s3_flux", "t2_twisted")}),
    "lie-bracket-drops-y-of-xb": (install_dropped_term, {
        name: {"section-transform-bracket", "spinor-bracket-oracle"}
        for name in ("s3_hopf", "s3_flux", "t2_twisted")}),
    "fiber-block-transposed": (install_transposed_block, {
        "t2_twisted": set(),      # a symmetric block: the mutant is the same code
        "sheared": {"section-transform-orthogonal", "clifford-compatibility"}}),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_the_certificate(mutant, monkeypatch):
    install, expected = MUTANTS[mutant]
    install(monkeypatch)
    for name, checks in expected.items():
        assert failing_checks(PAIRS[name]()) == checks, name
