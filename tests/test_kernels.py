"""The one-pass kernels against their term-by-term reference bodies
(``conftest._reference_*``), and the invariant that ``Form.coeffs`` holds no
structural zero.

A kernel matches its reference when the results are ``==``, the coefficient
dicts list their masks in the same order and every coefficient has the same
repr: the same trees, collected in the same order.  The inputs are seeded
random forms, frame vectors and sections on every shipped chart and its
dual (real and complex coefficients, density below 1, zero components) and
the coordinate multiples x_a of the frame that the certificate's Leibniz
conditions use.  A frame vector's ``coeffs`` dict must hold its components
that are not structural zeros, in ascending index, and the operations that
read it must build what the bodies that test every component built.
"""
import pytest

from tduality.scalar import CScalar, var
from tduality.exterior import Form, FrameVector, contract, wedge
from tduality.bundle import BundleChart, exterior_derivative, twisted_derivative
from tduality.courant import Section, courant_bracket, section_basis
from tduality.duality import DualityPair
from tduality.randomgen import random_cscalar, random_form, random_scalar, random_section
from tduality.scenarios import CHARTS, load_chart

from conftest import (_reference_courant_bracket, _reference_exterior_derivative,
                      _reference_form_add, _reference_lie_bracket, _reference_pairing,
                      chart_id, lie_bracket, pairing, vector_map_to)

CONFIGS = sorted(CHARTS)


def _charts(config):
    chart = load_chart(config)
    return chart, DualityPair.from_chart(chart).dual


def assert_same_form(new, ref):
    assert new == ref
    assert list(new.coeffs) == list(ref.coeffs)
    assert [repr(c) for c in new.coeffs.values()] == [repr(c) for c in ref.coeffs.values()]


def assert_same_scalars(new, ref):
    assert list(new) == list(ref)
    assert [repr(c) for c in new] == [repr(c) for c in ref]


def _coefficient(rng, chart):
    """Zero, real or complex, with equal odds."""
    kind = rng.integers(0, 3)
    if kind == 0:
        return CScalar()
    if kind == 1:
        return CScalar(random_scalar(rng, chart.base_vars))
    return random_cscalar(rng, chart.base_vars)


def _forms(rng, chart):
    """Random forms of every degree, then x_a e_I for every base variable
    and monomial."""
    cof = chart.coframe
    out = [random_form(rng, cof, chart.base_vars, complex_coeffs=bool(i % 2), density=0.6)
           for i in range(4)]
    out += [Form(cof, {mask: CScalar(var(v))})
            for v in chart.base_vars for mask in range(1 << cof.dim)]
    return out


def _vectors(rng, chart):
    """Random frame vectors with zero components, then x_a E_b."""
    cof = chart.coframe
    out = [FrameVector(cof, dict(enumerate(_coefficient(rng, chart) for _ in cof.names)))
           for _ in range(4)]
    out += [FrameVector.basis(cof, n).scale(var(v))
            for v in chart.base_vars for n in cof.names]
    return out


def _sections(rng, chart):
    """Random sections with zero components, then x_a s for each frame
    section s."""
    cof = chart.coframe
    out = [Section(x, random_form(rng, cof, chart.base_vars, degrees=(1,),
                                  complex_coeffs=bool(i % 2), density=0.6))
           for i, x in enumerate(_vectors(rng, chart)[:4])]
    out += [s.scale(var(v)) for v in chart.base_vars for s in section_basis(cof)]
    return out


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_exterior_derivative_matches_reference(rng, config):
    for chart in _charts(config):
        forms = _forms(rng, chart) + list(chart.curvature.values()) + [chart.flux]
        for rho in forms:
            assert_same_form(exterior_derivative(rho, chart),
                             _reference_exterior_derivative(rho, chart))


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_form_add_matches_reference(rng, config):
    for chart in _charts(config):
        forms = _forms(rng, chart)[:4] + [Form.zero(chart.coframe)]
        for a in forms:
            for b in forms:
                # b - a cancels every mask of a that b lacks
                for other in (b, -a, _reference_form_add(b, -a)):
                    assert_same_form(a + other, _reference_form_add(a, other))


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_form_sub_is_the_sum_of_the_negation(rng, config):
    """a - b builds what a + (-b) builds, with an empty operand on either
    side, and a - a cancels completely, for the random forms, whose
    coefficients include sums, and for x_a e_I."""
    for chart in _charts(config):
        forms = _forms(rng, chart)
        zero = Form.zero(chart.coframe)
        for a in forms[:4] + [zero]:
            for b in forms[:4] + [zero]:
                assert_same_form(a - b, a + (-b))
        assert any(part.kind == "add" for a in forms[:4] for c in a.coeffs.values()
                   for part in (c.re, c.im))
        for a in forms:
            assert (a - a).is_zero() and (a + (-a)).is_zero()
        for a in forms[4:]:
            assert_same_form(forms[0] - (forms[0] + a), forms[0] + -(forms[0] + a))


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_lie_bracket_matches_reference(rng, config):
    for chart in _charts(config):
        vectors = _vectors(rng, chart)
        for x in vectors:
            for y in vectors:
                new = lie_bracket(x, y, chart)
                ref = _reference_lie_bracket(x, y, chart)
                assert new == ref
                assert_same_scalars(new.components, ref.components)


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_courant_bracket_matches_reference(rng, config):
    """The flux term i_X i_Y H is skipped only where it is the empty form:
    no flux, or a structurally zero vector part."""
    for chart in _charts(config):
        sections = _sections(rng, chart)[:4] + section_basis(chart.coframe)
        for v in sections:
            for w in sections:
                new = courant_bracket(v, w, chart)
                ref = _reference_courant_bracket(v, w, chart)
                assert_same_scalars(new.x.components, ref.x.components)
                assert_same_form(new.xi, ref.xi)


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_pairing_matches_reference(rng, config):
    for chart in _charts(config):
        sections = _sections(rng, chart)
        for v in sections:
            for w in sections:
                assert_same_scalars([pairing(v, w)], [_reference_pairing(v, w)])


def _dense_contract(x, form):
    """``contract`` testing every component of X for zero."""
    out = {}
    for i, comp in enumerate(x.components):
        if comp.is_zero():
            continue
        for mask, c in form.coeffs.items():
            if mask >> i & 1:
                term = c * comp
                term = -term if bin(mask & ((1 << i) - 1)).count("1") % 2 else term
                m = mask & ~(1 << i)
                out[m] = out[m] + term if m in out else term
    return Form(form.coframe, out)


def _dense_ops(x, ys, c, target):
    """-x, x.scale(c), vector_map_to(x, target) and x + y for each y as the bodies
    that test every component for zero build them."""
    cof = x.coframe
    neg = tuple(a if a.is_zero() else -a for a in x.components)
    scaled = tuple(a if a.is_zero() else a * c for a in x.components)
    moved = [CScalar()] * target.dim
    for i, a in enumerate(x.components):
        if not a.is_zero():
            moved[target.index(cof.names[i])] = a
    adds = [tuple(b if a.is_zero() else a if b.is_zero() else a + b
                  for a, b in zip(x.components, y.components)) for y in ys]
    return [FrameVector(cof, dict(enumerate(neg))), FrameVector(cof, dict(enumerate(scaled))),
            FrameVector(target, dict(enumerate(moved)))] + [
                FrameVector(cof, dict(enumerate(v))) for v in adds]


def _nonzero(v):
    return [(i, c) for i, c in enumerate(v.components) if not c.is_zero()]


@pytest.mark.parametrize("config", CONFIGS, ids=chart_id)
def test_frame_vector_live_holds_the_nonzero_components(rng, config):
    """``coeffs`` maps the index of each component that is not a structural
    zero to that component, in ascending index, and shares its objects with
    ``components``: on seeded random sections and frame vectors with zero
    components, and after +, -, ``scale`` and ``vector_map_to``.  The operations
    that read ``coeffs`` build the trees that the bodies testing every
    component built, and so does ``contract``."""
    pair = DualityPair.from_chart(load_chart(config))
    target = pair.total.coframe
    for chart in (pair.chart, pair.dual):
        cof, c = chart.coframe, random_cscalar(rng, chart.base_vars)
        vectors = _vectors(rng, chart) + [random_section(rng, chart).x for _ in range(2)]
        vectors += [FrameVector.zero(cof), -vectors[0]]
        forms = _forms(rng, chart)[:4]
        for x in vectors:
            made = [-x, x.scale(c), vector_map_to(x, target)] + [x + y for y in vectors]
            for v in [x] + made:
                assert type(v.coeffs) is dict and list(v.coeffs.items()) == _nonzero(v)
                assert list(v.coeffs) == sorted(v.coeffs)
                assert all(a is v.components[i] for i, a in v.coeffs.items())
                assert v.is_zero() == (not _nonzero(v))
            for new, ref in zip(made, _dense_ops(x, vectors, c, target), strict=True):
                assert new.coframe == ref.coframe
                assert_same_scalars(new.components, ref.components)
            for rho in forms:
                assert_same_form(contract(x, rho), _dense_contract(x, rho))


@pytest.fixture
def curved_r3():
    """A circle bundle over a 3d box with curvature dx^dy and flux
    -dx^dy^dz."""
    return BundleChart.build(
        "r3c", [("x", -1.0, 1.0), ("y", -1.0, 1.0), ("z", -1.0, 1.0)], ["th"],
        curvature={"th": lambda c: Form.monomial(c, ("dx", "dy"))},
        flux=lambda c: Form.monomial(c, ("dx", "dy", "dz"), -1))


def test_cancelled_mask_reappears_at_the_end(curved_r3):
    """d(x dy) = dx^dy, d(y dz) = dy^dz, d(y dx) = -dx^dy cancels the first,
    and d(th) = dx^dy brings the mask back: after dy^dz, not before it."""
    cof = curved_r3.coframe
    x, y = var("x"), var("y")
    rho = Form(cof, {cof.mask_of(["dy"]): CScalar(x), cof.mask_of(["dz"]): CScalar(y),
                     cof.mask_of(["dx"]): CScalar(y), cof.mask_of(["th"]): CScalar.one()})
    d = exterior_derivative(rho, curved_r3)
    assert list(d.coeffs) == [cof.mask_of(["dy", "dz"]), cof.mask_of(["dx", "dy"])]
    assert d.coeff_of("dx", "dy") == CScalar.one()
    assert_same_form(d, _reference_exterior_derivative(rho, curved_r3))


def test_no_structural_zero_survives(rng, curved_r3):
    """Every operation that builds a form prunes what cancels, including
    complex cancellations such as (1+i)(1-i) - 2 and a + (-a) for a form
    with sum coefficients."""
    cof = curved_r3.coframe
    x, y = var("x"), var("y")
    p, q = CScalar.of(1, 1), CScalar.of(1, -1)
    dx, dy = Form.monomial(cof, ("dx",)), Form.monomial(cof, ("dy",))
    ex, ey = FrameVector.basis(cof, "dx"), FrameVector.basis(cof, "dy")
    a = (Form.monomial(cof, ("dx",), CScalar(x, y))
         + Form.monomial(cof, ("dy", "th"), CScalar(x * y + 1, x - y * y)))
    cancelling = {
        "a + (-a)": a + (-a),
        "a - a": a - a,
        "(1+i)(1-i) dx - 2 dx": dx.scale(p).scale(q) + dx.scale(-2),
        "scale by 0": a.scale(0),
        "wedge": wedge(dx.scale(p) + dy.scale(q), dx.scale(p) + dy.scale(q)),
        "contract": contract(ex.scale(p) + ey,
                             Form.monomial(cof, ("dx", "th"), q)
                             + Form.monomial(cof, ("dy", "th"), -2)),
        "d": exterior_derivative(Form(cof, {cof.mask_of(["dy"]): CScalar(x, x),
                                            cof.mask_of(["dx"]): CScalar(y, y)}),
                                 curved_r3),
        "d_H": twisted_derivative(Form.scalar(cof, 1) + Form.monomial(cof, ("dx", "dy"),
                                                                     var("z")),
                                  curved_r3),
        "bracket form": courant_bracket(Section(ey, Form.zero(cof)),
                                        Section(FrameVector.zero(cof), dy.scale(CScalar(x, x))),
                                        curved_r3).xi,
    }
    for name, form in cancelling.items():
        assert form.is_zero(), name
    a = random_form(rng, cof, curved_r3.base_vars, density=0.6)
    b = random_form(rng, cof, curved_r3.base_vars, density=0.6)
    v, w = (Section(FrameVector(cof, dict(enumerate(random_cscalar(rng, curved_r3.base_vars)
                                                    for _ in cof.names))),
                    random_form(rng, cof, curved_r3.base_vars, degrees=(1,)))
            for _ in range(2))
    built = [a + b, a - b, -a, a.scale(p), a.scale(CScalar(x)), wedge(a, b),
             contract(v.x, a), exterior_derivative(a, curved_r3),
             twisted_derivative(a, curved_r3), courant_bracket(v, w, curved_r3).xi]
    for form in built + list(cancelling.values()):
        assert not any(c.is_zero() for c in form.coeffs.values())
