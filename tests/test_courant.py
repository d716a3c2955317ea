import dataclasses

import numpy as np
import pytest

from tduality.scalar import CScalar, diff, rat, scos, ssin, var
from tduality.exterior import Form, FrameVector
from tduality.bundle import (BundleChart, build_dual_chart, exterior_derivative,
                             form_residual, twisted_derivative)
from tduality.courant import (Section, courant_bracket, lift_splitting_residual,
                              split_pairing_matrix)
from tduality.randomgen import random_form, random_scalar, random_section
from tduality.scenarios import CHARTS, load_chart

from conftest import (_reference_courant_bracket, _reference_lie_bracket, b_transform,
                      lie_bracket, pairing, section_residual)


def test_pairing_values(plane_chart):
    cof = plane_chart.coframe
    ex = Section.vector_basis(cof, "dx")
    dx = Section.covector_basis(cof, "dx")
    assert pairing(ex, dx) == CScalar.of(rat(1, 2))
    assert pairing(ex, ex).is_zero()
    assert pairing(ex + dx, ex + dx) == CScalar.of(rat(1))


def test_section_checks_its_parts(plane_chart, flat3_chart):
    cof = plane_chart.coframe
    with pytest.raises(ValueError, match="share the coframe"):
        Section(FrameVector.zero(flat3_chart.coframe), Form.zero(cof))
    for xi in (Form.scalar(cof, 1), Form.monomial(cof, ("dx", "dy")),
               Form.monomial(cof, ("dx",)) + Form.scalar(cof, 2)):
        with pytest.raises(ValueError, match="degree one"):
            Section(FrameVector.zero(cof), xi)
    xi = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), 3)
    assert Section(FrameVector.zero(cof), xi).xi == xi
    assert repr(Section.covector_basis(cof, "dy")) == (
        "Section(x=FrameVector(coframe=Coframe(names=('dx', 'dy'), tags=('base', 'base')), "
        "components=(CScalar(re=Scalar(0), im=Scalar(0)), CScalar(re=Scalar(0), "
        "im=Scalar(0)))), xi=Form(1 dy))")


def test_pairing_split_signature(plane_chart, rng):
    from tduality.reduction import signature_of
    m = plane_chart.coframe.dim
    g = split_pairing_matrix(m)
    assert signature_of(g) == (m, m, 0)


def test_bracket_flat_vectors(flat3_chart):
    cof = flat3_chart.coframe
    ex = Section.vector_basis(cof, "dx")
    ey = Section.vector_basis(cof, "dy")
    out = courant_bracket(ex, ey, flat3_chart)
    assert out.x.is_zero() and out.xi.is_zero()


def test_bracket_lie_derivative_term(flat3_chart):
    cof = flat3_chart.coframe
    x = var("x")
    ex = Section.vector_basis(cof, "dx")
    fdy = Section.of(cof, covector={"dy": ssin(x)})
    out = courant_bracket(ex, fdy, flat3_chart)
    assert out.x.is_zero()
    assert out.xi == Form.monomial(cof, ("dy",), scos(x))


def test_bracket_flux_term(flat3_chart):
    # with H = dx^dy^dz the flux contribution to [E_x, E_y] is i_X i_Y H = -dz
    cof = flat3_chart.coframe
    chart = dataclasses.replace(flat3_chart, flux=Form.monomial(cof, ("dx", "dy", "dz")))
    ex = Section.vector_basis(cof, "dx")
    ey = Section.vector_basis(cof, "dy")
    out = courant_bracket(ex, ey, chart)
    assert out.x.is_zero()
    assert out.xi == -Form.monomial(cof, ("dz",))


def test_frame_bracket_curvature(hopf_chart):
    cof = hopf_chart.coframe
    et = FrameVector.basis(cof, "dt")
    eu = FrameVector.basis(cof, "du")
    out = lie_bracket(et, eu, hopf_chart)
    assert out.components[cof.index("th")] == CScalar.of(rat(-1))
    # fiber generators are central
    eth = FrameVector.basis(cof, "th")
    assert lie_bracket(et, eth, hopf_chart).is_zero()


def test_b_transform_identity(hopf_chart, rng):
    v = random_section(rng, hopf_chart)
    assert b_transform(Form.zero(hopf_chart.coframe), v) == v


def test_b_transform_preserves_pairing(rng, hopf_chart):
    pts = hopf_chart.domain.sample_many(rng, 3)
    for _ in range(8):
        b = random_form(rng, hopf_chart.coframe, hopf_chart.base_vars,
                        degrees=(2,), complex_coeffs=False, density=0.8)
        v = random_section(rng, hopf_chart)
        w = random_section(rng, hopf_chart)
        gap = pairing(b_transform(b, v), b_transform(b, w)) - pairing(v, w)
        for p in pts:
            assert abs(gap.evaluate(p)) <= 1e-10


def test_b_transform_closed_is_automorphism(rng, hopf_flux_chart):
    ch = hopf_flux_chart
    cof = ch.coframe
    pts = ch.domain.sample_many(rng, 3)
    b = Form.monomial(cof, ("dt", "du"), rat(2, 3))  # closed
    v = random_section(rng, ch)
    w = random_section(rng, ch)
    lhs = courant_bracket(b_transform(b, v), b_transform(b, w), ch)
    rhs = b_transform(b, courant_bracket(v, w, ch))
    assert section_residual(lhs - rhs, pts) <= 1e-10


def test_b_transform_bracket_relation(rng, hopf_flux_chart):
    # general B shifts the flux: [e^-B v, e^-B w]_H = e^-B [v, w]_{H + dB}
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    b = random_form(rng, ch.coframe, ch.base_vars, degrees=(2,),
                    complex_coeffs=False, density=0.8)
    shifted = dataclasses.replace(ch, flux=ch.flux + exterior_derivative(b, ch))
    for _ in range(4):
        v = random_section(rng, ch)
        w = random_section(rng, ch)
        lhs = courant_bracket(b_transform(b, v), b_transform(b, w), ch)
        rhs = b_transform(b, courant_bracket(v, w, shifted))
        assert section_residual(lhs - rhs, pts) <= 1e-9


# The derived-bracket residual of the spinor module, kept as the reference
# that the frame certificate's spinor-bracket-oracle check replaced.
def bracket_spinor_residual(v, w, rho, chart, points):
    """Max-abs residual of [v,w]_H . rho = [[d_H, v], w] . rho at sample points."""

    def d_h_comm(u, sigma):
        return twisted_derivative(u.act(sigma), chart) + u.act(twisted_derivative(sigma, chart))

    lhs = courant_bracket(v, w, chart).act(rho)
    rhs = d_h_comm(v, w.act(rho)) - w.act(d_h_comm(v, rho))
    return form_residual(lhs - rhs, chart.domain, points)


def test_spinor_oracle_flat(flat3_chart, rng):
    cof = flat3_chart.coframe
    pts = flat3_chart.domain.sample_many(rng, 3)
    ex = Section.vector_basis(cof, "dx")
    ey = Section.vector_basis(cof, "dy")
    rho = random_form(rng, cof, flat3_chart.base_vars, density=0.4)
    assert bracket_spinor_residual(ex, ey, rho, flat3_chart, pts) <= 1e-12


def test_spinor_oracle_random_curved(rng, hopf_flux_chart):
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 4)
    worst = 0.0
    for _ in range(10):
        v = random_section(rng, ch)
        w = random_section(rng, ch)
        rho = random_form(rng, ch.coframe, ch.base_vars, density=0.35)
        worst = max(worst, bracket_spinor_residual(v, w, rho, ch, pts))
    assert worst <= 1e-8


def test_spinor_oracle_equal_arguments(rng, hopf_flux_chart):
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    v = random_section(rng, ch)
    rho = random_form(rng, ch.coframe, ch.base_vars, density=0.4)
    assert bracket_spinor_residual(v, v, rho, ch, pts) <= 1e-8


def test_pairing_derivation_property(rng, hopf_flux_chart):
    # L_{pi(v)} <w1, w2> = <[v,w1], w2> + <w1, [v,w2]>
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 4)
    for _ in range(6):
        v = random_section(rng, ch)
        w1 = random_section(rng, ch)
        w2 = random_section(rng, ch)
        inner = pairing(w1, w2)
        lhs = CScalar()
        for a, name in enumerate(ch.base_vars):
            comp = v.x.components[ch.coframe.index("d" + name)]
            lhs = lhs + comp * CScalar(diff(inner.re, name), diff(inner.im, name))
        rhs = (pairing(courant_bracket(v, w1, ch), w2)
               + pairing(w1, courant_bracket(v, w2, ch)))
        for p in pts:
            assert abs(lhs.evaluate(p) - rhs.evaluate(p)) <= 1e-8


def test_lift_splitting_trivial(flat3_chart, rng):
    cof = flat3_chart.coframe
    pts = flat3_chart.domain.sample_many(rng, 3)
    x = FrameVector.basis(cof, "dx")
    closed = Form.monomial(cof, ("dy",), rat(3))
    assert lift_splitting_residual(x, closed, flat3_chart, pts) <= 1e-9


def test_lift_splitting_flux_solution(hopf_flux_chart, rng):
    # i_{E_theta} H = sigma and xi = t du solves d xi = sigma on the box
    ch = hopf_flux_chart
    cof = ch.coframe
    pts = ch.domain.sample_many(rng, 3)
    x = FrameVector.basis(cof, "th")
    xi = Form.monomial(cof, ("du",), var("t"))
    assert lift_splitting_residual(x, xi, ch, pts) <= 1e-9


def test_lift_splitting_generic_failure(hopf_flux_chart, rng):
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    x = FrameVector.basis(ch.coframe, "th")
    xi = Form.monomial(ch.coframe, ("du",), scos(var("t")))
    assert lift_splitting_residual(x, xi, ch, pts) > 1e-9


def _jacobi_residual(rng, chart):
    def field():
        return FrameVector(chart.coframe, tuple(
            CScalar(random_scalar(rng, chart.base_vars)) for _ in chart.coframe.names))

    x, y, z = field(), field(), field()
    jac = (lie_bracket(x, lie_bracket(y, z, chart), chart)
           + lie_bracket(y, lie_bracket(z, x, chart), chart)
           + lie_bracket(z, lie_bracket(x, y, chart), chart))
    pts = chart.domain.sample_many(rng, 3)
    return max(float(np.abs(jac.eval_vector(p)).max()) for p in pts)


def test_lie_bracket_jacobi_curved_circle(hopf_chart, rng):
    assert _jacobi_residual(rng, hopf_chart) <= 1e-10


def test_lie_bracket_jacobi_two_curvatures(rng):
    chart = BundleChart.build(
        "t2c", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th1", "th2"],
        curvature={"th1": lambda c: Form.monomial(c, ("dt", "du")),
                   "th2": lambda c: Form.monomial(c, ("dt", "du"), ssin(var("t")))})
    assert _jacobi_residual(rng, chart) <= 1e-10


CONFIGS = sorted(CHARTS)


def _random_curved_chart(rng):
    """Rank-2 chart over a 2d base with random curvatures and a random flux
    with at most one fiber leg."""
    base = ("t", "u")

    def coefficient():
        return CScalar(random_scalar(rng, base))

    def flux(cof):
        out = Form.zero(cof)
        for fiber in ("th1", "th2"):
            out = out + Form.monomial(cof, ("dt", "du", fiber), coefficient())
        return out

    return BundleChart.build(
        "random-curved", [("t", -0.8, 0.8), ("u", 0.1, 0.9)], ["th1", "th2"],
        curvature={f: (lambda c, k=coefficient(): Form.monomial(c, ("dt", "du"), k))
                   for f in ("th1", "th2")},
        flux=flux)


def _sections(rng, chart):
    """Random sections, a frame section of each kind, and the zero section."""
    cof = chart.coframe
    out = []
    for _ in range(3):
        s = random_section(rng, chart)
        out += [s, Section(s.x, Form.zero(cof)), Section(FrameVector.zero(cof), s.xi)]
    out += [Section.vector_basis(cof, cof.names[-1]),
            Section.covector_basis(cof, cof.names[0]),
            Section(FrameVector.zero(cof), Form.zero(cof))]
    return out


def test_brackets_match_the_reference(rng):
    charts = [load_chart(name) for name in ("s3_hopf", "s3_flux", "t2_twisted")]
    charts.append(_random_curved_chart(rng))
    for chart in charts:
        sections = _sections(rng, chart)
        for v in sections:
            for w in sections:
                assert lie_bracket(v.x, w.x, chart) == _reference_lie_bracket(v.x, w.x, chart)
                assert (courant_bracket(v, w, chart)
                        == _reference_courant_bracket(v, w, chart))


def test_curvature_is_the_structure_equation():
    assert CONFIGS
    charts = [load_chart(name) for name in CONFIGS]
    charts += [build_dual_chart(chart) for chart in charts]
    for chart in charts:
        cof = chart.coframe
        for g in cof.names:
            assert chart.curvature_of(g) == exterior_derivative(Form.monomial(cof, (g,)), chart)
