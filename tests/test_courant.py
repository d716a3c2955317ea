from tduality.scalar import CScalar, diff, rat, scos, ssin, var
from tduality.exterior import Form, FrameVector
from tduality.bundle import exterior_derivative
from tduality.courant import (Section, b_transform, bracket_spinor_residual,
                              check_lift_splitting, courant_bracket,
                              lie_bracket, pairing, section_residual,
                              split_pairing_matrix)
from tduality.randomgen import random_form, random_section


def test_pairing_values(plane_chart):
    cof = plane_chart.coframe
    ex = Section.vector_basis(cof, "dx")
    dx = Section.covector_basis(cof, "dx")
    assert pairing(ex, dx) == CScalar.of(rat(1, 2))
    assert pairing(ex, ex).is_zero()
    assert pairing(ex + dx, ex + dx) == CScalar.of(rat(1))


def test_pairing_split_signature(plane_chart, rng):
    from tduality.reduction import signature_of
    m = plane_chart.coframe.dim
    g = split_pairing_matrix(m)
    assert signature_of(g) == (m, m, 0)


def test_bracket_flat_vectors(flat3_chart):
    cof = flat3_chart.coframe
    ex = Section.vector_basis(cof, "dx")
    ey = Section.vector_basis(cof, "dy")
    assert courant_bracket(ex, ey, flat3_chart).is_zero()


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
    chart = flat3_chart.with_flux(Form.monomial(cof, ("dx", "dy", "dz")))
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
    assert out.component("th") == CScalar.of(rat(-1))
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
    shifted = ch.with_flux(ch.flux + exterior_derivative(b, ch))
    for _ in range(4):
        v = random_section(rng, ch)
        w = random_section(rng, ch)
        lhs = courant_bracket(b_transform(b, v), b_transform(b, w), ch)
        rhs = b_transform(b, courant_bracket(v, w, shifted))
        assert section_residual(lhs - rhs, pts) <= 1e-9


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
    assert check_lift_splitting(x, closed, flat3_chart, pts)


def test_lift_splitting_flux_solution(hopf_flux_chart, rng):
    # i_{E_theta} H = sigma and xi = t du solves d xi = sigma on the box
    ch = hopf_flux_chart
    cof = ch.coframe
    pts = ch.domain.sample_many(rng, 3)
    x = FrameVector.basis(cof, "th")
    xi = Form.monomial(cof, ("du",), var("t"))
    assert check_lift_splitting(x, xi, ch, pts)


def test_lift_splitting_generic_failure(hopf_flux_chart, rng):
    ch = hopf_flux_chart
    pts = ch.domain.sample_many(rng, 3)
    x = FrameVector.basis(ch.coframe, "th")
    xi = Form.monomial(ch.coframe, ("du",), scos(var("t")))
    assert not check_lift_splitting(x, xi, ch, pts)
