import pytest

from tduality.scalar import CZERO, CScalar, ZERO, rat, ssin, var
from tduality.exterior import (Coframe, Form, FrameVector, contract, exp_form,
                               fiber_integrate, form_to_text, mukai_pairing, mukai_signs,
                               reversal, wedge)
from tduality.bundle import form_residual
from tduality.courant import Section
from tduality.randomgen import random_form

from conftest import _reference_wedge, pairing, vector_from_dict


def vec(cof, name):
    return FrameVector.basis(cof, name)


def mono(cof, *names):
    return Form.monomial(cof, names)


@pytest.fixture
def cof4():
    return Coframe(("dx", "dy", "dz", "dw"),
                   ("base", "base", "base", "base"))


def test_frame_vector_is_a_structural_value(cof4):
    q = var("q")
    a = vector_from_dict(cof4, {"dx": 2, "dz": ssin(q)})
    b = vector_from_dict(Coframe(cof4.names, cof4.tags), {"dz": ssin(var("q")), "dx": 2})
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "value"}[b] == "value"
    assert a != vec(cof4, "dx")
    assert a != (a.coframe, a.components)
    assert repr(vec(Coframe(("dx",), ("base",)), "dx")) == (
        "FrameVector(coframe=Coframe(names=('dx',), tags=('base',)), "
        "components=(CScalar(re=Scalar(1), im=Scalar(0)),))")


def test_frame_vector_constructor_sorts_and_prunes(cof4):
    """The constructor takes an {index: CScalar} dict in any order and keeps
    the components that are not structural zeros, in ascending index; equal
    vectors hash equal, and a sum across coframes raises."""
    two, s = CScalar.of(2), CScalar(ssin(var("q")))
    v = FrameVector(cof4, {3: two, 1: CScalar(ZERO, ZERO), 0: s, 2: CZERO})
    assert list(v.coeffs.items()) == [(0, s), (3, two)]
    assert v.components == (s, CZERO, CZERO, two)
    w = FrameVector(cof4, {0: s, 3: two})
    assert v == w and hash(v) == hash(w)
    zero = FrameVector(cof4, {2: CScalar(ZERO, ZERO)})
    assert zero.coeffs == {} and zero == FrameVector.zero(cof4)
    assert hash(zero) == hash(FrameVector.zero(cof4))
    assert list((vec(cof4, "dw") + vec(cof4, "dx")).coeffs) == [0, 3]
    other = Coframe(("dx", "dy", "dz", "du"), cof4.tags)
    with pytest.raises(ValueError, match="coframe mismatch"):
        v + vec(other, "dx")


def test_wedge_keeps_a_key_that_cancels_and_returns_in_its_first_place():
    """A key's terms are summed at once, so a key whose partial sum cancels
    keeps the place of its first term, as the one sum of the reference body
    does: (1 + p dx + dy) ^ (-p dx^dy + dy + dx) cancels dx^dy at its second
    term and hits it again at its fourth."""
    cof = Coframe(("dx", "dy"), ("base", "base"))
    one, p = CScalar.one(), CScalar(var("p"))
    a = Form(cof, {0: one, 1: p, 2: one})
    b = Form(cof, {3: -p, 2: one, 1: one})
    got, ref = wedge(a, b), _reference_wedge(a, b)
    assert got == ref and list(got.coeffs) == list(ref.coeffs) == [3, 2, 1]
    assert [repr(c) for c in got.coeffs.values()] == [repr(c) for c in ref.coeffs.values()]
    assert form_to_text(got) == form_to_text(ref)


def test_value_types_have_slots_and_no_instance_dict(cof4):
    for value in (CScalar(), vec(cof4, "dx"), Section.vector_basis(cof4, "dx")):
        assert "__slots__" in type(value).__dict__
        assert not hasattr(value, "__dict__")


def test_wedge_square_vanishes(cof4):
    dx = mono(cof4, "dx")
    assert wedge(dx, dx).is_zero()


def test_wedge_anticommutes(cof4):
    dx, dy = mono(cof4, "dx"), mono(cof4, "dy")
    assert wedge(dx, dy) == -wedge(dy, dx)


def test_exp_of_commuting_two_forms(cof4):
    b1 = mono(cof4, "dx", "dy").scale(rat(2))
    b2 = mono(cof4, "dz", "dw").scale(rat(-3))
    lhs = wedge(exp_form(b1), exp_form(b2))
    assert lhs == exp_form(b1 + b2)


def test_wedge_associative_random(rng, cof4):
    from tduality.scalar import Domain
    pts = Domain({"q": (-0.8, 0.8)}).sample_many(rng, 3)
    for _ in range(10):
        a = random_form(rng, cof4, ("q",), density=0.4)
        b = random_form(rng, cof4, ("q",), density=0.4)
        c = random_form(rng, cof4, ("q",), density=0.4)
        lhs, rhs = wedge(wedge(a, b), c), wedge(a, wedge(b, c))
        assert form_residual(lhs - rhs, None, pts) <= 1e-10


def test_graded_commutativity_random(rng, cof4):
    from tduality.scalar import Domain
    pts = Domain({"q": (-0.8, 0.8)}).sample_many(rng, 3)
    for _ in range(8):
        da = int(rng.integers(0, 4))
        db = int(rng.integers(0, 4))
        a = random_form(rng, cof4, ("q",), degrees=(da,), density=1.0)
        b = random_form(rng, cof4, ("q",), degrees=(db,), density=1.0)
        sign = rat(-1) if (da * db) % 2 else rat(1)
        assert form_residual(wedge(a, b) - wedge(b, a).scale(sign), None, pts) <= 1e-10


def test_contract_basis(cof4):
    assert contract(vec(cof4, "dx"), mono(cof4, "dx")) == Form.scalar(cof4, 1)
    assert contract(vec(cof4, "dx"), mono(cof4, "dx", "dy")) == mono(cof4, "dy")
    assert contract(vec(cof4, "dy"), mono(cof4, "dx", "dy")) == -mono(cof4, "dx")


def test_contract_squares_to_zero(rng, cof4):
    from tduality.scalar import Domain
    pts = Domain({"q": (-0.8, 0.8)}).sample_many(rng, 3)
    x = FrameVector(cof4, dict(enumerate(CScalar.of(rat(int(k)))
                                         for k in rng.integers(-3, 4, 4))))
    rho = random_form(rng, cof4, ("q",))
    assert form_residual(contract(x, contract(x, rho)), None, pts) <= 1e-12


def test_contract_antiderivation(rng, cof4):
    from tduality.scalar import Domain
    pts = Domain({"q": (-0.8, 0.8)}).sample_many(rng, 3)
    for _ in range(6):
        d = int(rng.integers(0, 4))
        a = random_form(rng, cof4, ("q",), degrees=(d,), density=1.0)
        b = random_form(rng, cof4, ("q",), density=0.5)
        x = FrameVector(cof4, dict(enumerate(CScalar.of(rat(int(k)))
                                             for k in rng.integers(-2, 3, 4))))
        lhs = contract(x, wedge(a, b))
        sign = rat(-1) if d % 2 else rat(1)
        rhs = wedge(contract(x, a), b) + wedge(a, contract(x, b)).scale(sign)
        assert form_residual(lhs - rhs, None, pts) <= 1e-10


def test_clifford_on_scalar(cof4):
    out = Section(vec(cof4, "dx"), mono(cof4, "dx")).act(Form.scalar(cof4, 1))
    assert out == mono(cof4, "dx")


def test_clifford_square_is_pairing(cof4):
    v = Section(vec(cof4, "dx"), mono(cof4, "dx"))
    rho = mono(cof4, "dy")
    twice = v.act(v.act(rho))
    assert twice == rho  # <v, v> = 1 here
    assert pairing(v, v) == CScalar.of(rat(1))


def test_clifford_vector_contraction(cof4):
    out = Section(vec(cof4, "dx"), Form.zero(cof4)).act(mono(cof4, "dx", "dy"))
    assert out == mono(cof4, "dy")


def test_clifford_identity_random(rng):
    cof = Coframe(("dt", "du", "th"), ("base", "base", "fiber"))
    dom_vars = ("t", "u")
    worst = 0.0
    from tduality.scalar import Domain
    dom = Domain({"t": (-0.9, 0.9), "u": (0.1, 0.9)})
    pts = dom.sample_many(rng, 3)
    for _ in range(64):
        x = FrameVector(cof, dict(enumerate(CScalar.of(rat(int(k)))
                                            for k in rng.integers(-2, 3, 3))))
        xi = random_form(rng, cof, dom_vars, degrees=(1,), density=0.8)
        rho = random_form(rng, cof, dom_vars, density=0.4)
        v = Section(x, xi)
        lhs = v.act(v.act(rho))
        rhs = rho.scale(pairing(v, v))
        worst = max(worst, form_residual(lhs - rhs, dom, pts))
    assert worst <= 1e-9


def test_reversal_signs(cof4):
    assert reversal(mono(cof4, "dx")) == mono(cof4, "dx")
    assert reversal(mono(cof4, "dx", "dy")) == -mono(cof4, "dx", "dy")
    assert reversal(mono(cof4, "dx", "dy", "dz")) == -mono(cof4, "dx", "dy", "dz")
    assert reversal(mono(cof4, "dx", "dy", "dz", "dw")) == mono(cof4, "dx", "dy", "dz", "dw")


def test_mukai_basic_values():
    cof = Coframe(("dx", "dy"), ("base", "base"))
    assert mukai_pairing(Form.scalar(cof, 1), mono(cof, "dx", "dy")) == mono(cof, "dx", "dy")
    assert mukai_pairing(mono(cof, "dx"), mono(cof, "dy")) == mono(cof, "dx", "dy")


def test_mukai_signs_are_the_pairing_of_basis_forms():
    for m in range(7):
        cof = Coframe(tuple(f"e{i}" for i in range(m)), ("base",) * m)
        full = (1 << m) - 1
        table = mukai_signs(m)
        assert [mask for mask, _, _ in table] == list(range(1 << m))
        for mask, comp, sign in table:
            assert comp == full ^ mask and sign in (1, -1)
            pair = mukai_pairing(Form(cof, {mask: CScalar.one()}),
                                 Form(cof, {comp: CScalar.one()}))
            assert pair == Form(cof, {full: CScalar.of(sign)})
        assert mukai_signs(m) is table


def test_mukai_b_invariance_random(rng, cof4):
    from tduality.scalar import Domain
    dom = Domain({"q": (-0.8, 0.8)})
    pts = dom.sample_many(rng, 3)
    worst = 0.0
    for _ in range(64):
        b = random_form(rng, cof4, ("q",), degrees=(2,), complex_coeffs=False,
                        density=0.7)
        r1 = random_form(rng, cof4, ("q",), density=0.4)
        r2 = random_form(rng, cof4, ("q",), density=0.4)
        eb = exp_form(b)
        lhs = mukai_pairing(wedge(eb, r1), wedge(eb, r2))
        rhs = mukai_pairing(r1, r2)
        worst = max(worst, form_residual(lhs - rhs, dom, pts))
    assert worst <= 1e-9


def test_mukai_clifford_compatibility(rng, cof4):
    from tduality.scalar import Domain
    dom = Domain({"q": (-0.8, 0.8)})
    pts = dom.sample_many(rng, 2)
    for _ in range(16):
        x = FrameVector(cof4, dict(enumerate(CScalar.of(rat(int(k)))
                                             for k in rng.integers(-2, 3, 4))))
        xi = random_form(rng, cof4, ("q",), degrees=(1,), density=0.8)
        v = Section(x, xi)
        r1 = random_form(rng, cof4, ("q",), density=0.4)
        r2 = random_form(rng, cof4, ("q",), density=0.4)
        lhs = mukai_pairing(v.act(r1), v.act(r2))
        rhs = mukai_pairing(r1, r2).scale(pairing(v, v))
        assert form_residual(lhs - rhs, dom, pts) <= 1e-9


def test_exp_form_zero(cof4):
    assert exp_form(Form.zero(cof4)) == Form.scalar(cof4, 1)


def test_exp_form_nilpotent():
    cof = Coframe(("th", "tht"), ("fiber", "cofiber"))
    b = mono(cof, "th", "tht")
    assert exp_form(b) == Form.scalar(cof, 1) + b


def test_exp_form_degree_bound(rng, cof4):
    b = random_form(rng, cof4, ("q",), degrees=(2,), density=1.0)
    assert exp_form(b).max_degree() <= cof4.dim


def test_exp_form_rejects_odd(cof4):
    with pytest.raises(ValueError):
        exp_form(mono(cof4, "dx"))


def test_fiber_integrate_conventions():
    cof = Coframe(("dt", "th"), ("base", "fiber"))
    th, dt = mono(cof, "th"), mono(cof, "dt")
    assert fiber_integrate(th) == Form.scalar(cof, 1)
    assert fiber_integrate(Form.scalar(cof, 1)).is_zero()
    h = dt.scale(ssin(var("t")))
    assert fiber_integrate(wedge(h, th)) == h


def test_fiber_integrate_sign_two_fibers():
    cof = Coframe(("dt", "th1", "th2"), ("base", "fiber", "fiber"))
    vol = mono(cof, "th1", "th2")
    assert fiber_integrate(vol) == Form.scalar(cof, 1)
    # dt between the fiber legs picks up the reordering sign
    assert fiber_integrate(mono(cof, "th1", "dt", "th2")) == -mono(cof, "dt")


def test_form_map_to_renames_and_signs():
    cof = Coframe(("dt", "th"), ("base", "fiber"))
    big = Coframe(("dt", "th", "tht"), ("base", "fiber", "cofiber"))
    f = mono(cof, "th", "dt")  # stored as -dt^th
    lifted = f.map_to(big)
    assert lifted == Form.monomial(big, ("th", "dt"))
