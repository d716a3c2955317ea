"""The frame certificate of the pair identities, and the mutants it must catch.

Each mutant below breaks one piece of the duality code; the certificate must
fail on it, on a pair where the broken piece shows.  The fiber-block
transposition needs a rank-2 pair whose block is not symmetric: the block of
``twisted_rank_two_pair`` is [[0, -1], [-1, 0]], so transposing it changes
nothing there, and the sheared trivial torus pair below is used instead.

The certificates of the four test pairs are pinned; the bracket tables, the
signed residual sum, the Leibniz expected sides, the action of a bracket and
the Clifford action on coefficient dicts are checked against their reference
bodies, two equal sides of opposite sign must be zero unsummed, every zero a
certificate tests is the shared ``ZERO``, and call counts guard against
rebuilding the shared pieces per instance and against a bracket table that
builds a section or calls ``contract``.  The two bracket mutants patch the
table kernel, mutating each entry read back as a Section.  The coframe tables of
``Form.map_to`` and ``fiber_integrate`` are checked against their
mask-by-mask bodies on every coframe move of the four pairs, and with the
cycle collector off a certified pair must die by reference counting.
"""
import gc
import sys
import weakref

import numpy as np
import pytest

from conftest import (_reference_act_sections, _reference_clifford_act,
                      _reference_courant_bracket, _reference_courant_brackets,
                      _reference_fiber_integrate,
                      _reference_frame_action, _reference_leibniz, _reference_map_to,
                      _reference_pairing, _reference_sum, _section_of, count_python_calls,
                      section_of)
from test_courant import _random_curved_chart, _sections
from test_kernels import _sections as _complex_sections
from tduality import bundle, certify, courant, duality, exterior
from tduality.bundle import (BundleChart, DualityPair, build_dual_chart,
                             exterior_derivative, standard_correspondence_flux)
from tduality.courant import Section, section_basis
from tduality.exterior import (Coframe, Form, FrameVector, clifford, contract,
                               fiber_integrate, frame_action)
from tduality.scalar import (CScalar, ONE, Scalar, ZERO, sadd, scalar_to_text, sneg,
                             spow, var)
from tduality.randomgen import random_form, random_section
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
    "s3_hopf": lambda: DualityPair.from_chart(load_chart("s3_hopf")),
    "s3_flux": lambda: DualityPair.from_chart(load_chart("s3_flux")),
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


def mutated_brackets(real, mutate):
    """The bracket tables with each entry, read as a Section b, replaced by
    the coordinates of mutate(v, w, b, chart)."""
    def brackets(vs, ws, chart):
        return [[Section._coordinates(mutate(v, w, _section_of(entry, chart.coframe), chart))
                 for w, entry in zip(ws, row)] for v, row in zip(vs, real(vs, ws, chart))]
    return brackets


def flipped_flux_term(v, w, b, chart):
    """The bracket with the sign of the flux term i_X i_Y H flipped."""
    return Section(b.x, b.xi - contract(v.x, contract(w.x, chart.flux)).scale(2))


def transform_without_f(rho, pair):
    """dualize_form with F = 0: the bare fiber integral."""
    return fiber_integrate(pair.pull(rho), ("fiber",)).map_to(pair.dual.coframe)


def lie_bracket_without_y_of_xb(v, w, b, chart):
    """The bracket with e^b([X, Y]) = X(Y^b) - (d e^b)(X, Y): the Y(X^b)
    term dropped where X and Y are both nonzero."""
    x, y, cof = v.x, w.x, chart.coframe
    if x.is_zero() or y.is_zero():
        return b
    y_of_x = [contract(y, exterior_derivative(Form.scalar(cof, c), chart)).coeff(0)
              for c in x.components]
    return Section(FrameVector(cof, dict(enumerate(a + t for a, t
                                                   in zip(b.x.components, y_of_x)))),
                   b.xi)


def transposed_block(real):
    def block(self):
        return [list(col) for col in zip(*real(self))]
    return block


def install_brackets(mutate):
    def install(mp):
        brackets = mutated_brackets(courant.courant_brackets, mutate)
        for module in (courant, certify):
            mp.setattr(module, "courant_brackets", brackets)
    return install


install_flux_term_sign = install_brackets(flipped_flux_term)
install_dropped_term = install_brackets(lie_bracket_without_y_of_xb)


def install_f_zero(mp):
    for module in (duality, certify):
        mp.setattr(module, "dualize_form", transform_without_f)


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


# frame_certificate at rng seed 7 and 8 points: pair, check, repr of the
# residual, then frame instances, of them structurally zero, side conditions,
# of them structurally zero.  Only t2_twisted leaves coefficients to evaluate.
PINNED = """
s3_flux clifford-compatibility 0.0 48 48 28 28
s3_flux section-transform-bracket 0.0 36 36 170 170
s3_flux section-transform-orthogonal 0.0 36 36 12 12
s3_flux spinor-bracket-oracle 0.0 288 288 160 160
s3_flux transform-intertwines-differentials 0.0 8 8 32 32
s3_flux transform-invertible 0.0 8 8 32 32
s3_hopf clifford-compatibility 0.0 48 48 28 28
s3_hopf section-transform-bracket 0.0 36 36 170 170
s3_hopf section-transform-orthogonal 0.0 36 36 12 12
s3_hopf spinor-bracket-oracle 0.0 288 288 160 160
s3_hopf transform-intertwines-differentials 0.0 8 8 32 32
s3_hopf transform-invertible 0.0 8 8 32 32
sheared clifford-compatibility 0.0 128 128 48 48
sheared section-transform-bracket 0.0 64 64 290 290
sheared section-transform-orthogonal 0.0 64 64 16 16
sheared spinor-bracket-oracle 0.0 1024 1024 288 288
sheared transform-intertwines-differentials 0.0 16 16 64 64
sheared transform-invertible 0.0 16 16 64 64
t2_twisted clifford-compatibility 0.0 128 128 48 48
t2_twisted section-transform-bracket 0.0 64 64 290 290
t2_twisted section-transform-orthogonal 0.0 64 64 16 16
t2_twisted spinor-bracket-oracle 1.1102230246251565e-16 1024 975 288 288
t2_twisted transform-intertwines-differentials 0.0 16 16 64 64
t2_twisted transform-invertible 0.0 16 16 64 64
"""


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_certificate_is_pinned(name):
    """The residual and the notes of every check stay as pinned, including
    which instances cancel structurally and which are evaluated."""
    pair = PAIRS[name]()
    points = pair.chart.domain.sample_many(np.random.default_rng(7), 8)
    cert = certify.frame_certificate(pair, points)
    got = {check: (repr(c.residual), c.notes) for check, c in cert.items()}
    expected = {}
    for line in PINNED.split("\n"):
        if line.startswith(name + " "):
            _, check, residual, frame, frame_zero, side, side_zero = line.split()
            expected[check] = (residual, f"frame: {frame} instances, {frame_zero} "
                               f"structurally zero; side conditions: {side} instances, "
                               f"{side_zero} structurally zero")
    assert got == expected


@pytest.mark.parametrize("key", [1, 2, 3, 4, 5, *sorted(PAIRS)])
def test_frame_action_is_the_clifford_action(key):
    """The frame's action table made from contraction signs is the table read
    off ``contract`` plus ``wedge`` on the frame sections and the monomials,
    on a base coframe of each dimension 1 to 5 and on the chart coframe of
    each pair; the table is kept per m and handed out as the one copy."""
    cof = (PAIRS[key]().chart.coframe if key in PAIRS
           else Coframe(tuple(f"g{k}" for k in range(key)), ("base",) * key))
    monomials = [Form(cof, {mask: CScalar.one()}) for mask in range(1 << cof.dim)]
    assert frame_action(cof.dim) == _reference_frame_action(section_basis(cof), monomials)
    assert frame_action(cof.dim) is frame_action(cof.dim)


def bracket_tables(pair):
    """(vs, ws, chart) of the three bracket tables of the certificate: the
    frame and then (x s_i) for every base coordinate x, against the frame;
    the frame against (x s_j) for every x; and dual sections x dual
    sections."""
    chart = pair.chart
    basis = section_basis(chart.coframe)
    sections = list(duality._section_columns(pair))
    scaled = [s.scale(CScalar(var(v))) for v in chart.base_vars for s in basis]
    return [(basis + scaled, basis, chart), (basis, scaled, chart),
            (sections, sections, pair.dual)]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_bracket_tables_match_the_reference(name):
    for vs, ws, chart in bracket_tables(PAIRS[name]()):
        table = courant.courant_brackets(vs, ws, chart)
        assert [len(row) for row in table] == [len(ws)] * len(vs)
        for v, row in zip(vs, table):
            for w, got in zip(ws, row):
                assert got == Section._coordinates(_reference_courant_bracket(v, w, chart))


def chart_sections(rng, chart):
    """``test_courant._sections``, the four random sections of
    ``test_kernels._sections`` and (1 + i x) e^g for the chart's last
    generator g and first base variable x."""
    cof = chart.coframe
    tilted = section_of(cof, covector={cof.names[-1]: CScalar.of(1, var(chart.base_vars[0]))})
    return _sections(rng, chart) + _complex_sections(rng, chart)[:4] + [tilted]


@pytest.mark.parametrize("name", [*sorted(PAIRS), "charts"])
def test_bracket_entries_are_the_section_table(name):
    """Every entry of ``courant_brackets`` is the coordinate dict of the
    Section that the Section-level table body builds, key for key, in order
    and by repr: on every ``bracket_tables`` shape of a pair, and on the
    ``chart_sections`` x themselves of s3_hopf, s3_flux, t2_twisted and a
    random curved chart.  These sections, real and complex, with zero X or
    xi parts and zero components, reach both the rational and the
    non-rational i_X eta of L_X eta = d(i_X eta) + i_X d eta, the latter
    also with a rational real part (E_g on (1 + i x) e^g)."""
    if name in PAIRS:
        tables = bracket_tables(PAIRS[name]())
    else:
        rng = np.random.default_rng(3)
        charts = [load_chart(c) for c in ("s3_hopf", "s3_flux", "t2_twisted")]
        charts.append(_random_curved_chart(rng))
        tables = [(vs, vs, chart) for chart in charts for vs in [chart_sections(rng, chart)]]
        rational = {(c.re.is_rational(), c.im.is_rational()) for vs, _, _ in tables
                    for v in vs for w in vs if not (c := contract(v.x, w.xi).coeff(0)).is_zero()}
        assert {(True, True), (True, False), (False, False)} <= rational
    for vs, ws, chart in tables:
        table, ref_table = (courant.courant_brackets(vs, ws, chart),
                            _reference_courant_brackets(vs, ws, chart))
        assert [len(row) for row in table] == [len(row) for row in ref_table] == [len(ws)] * len(vs)
        for row, ref_row in zip(table, ref_table):
            for got, ref in zip(row, map(Section._coordinates, ref_row)):
                assert list(got) == list(ref)
                assert [repr(c) for c in got.values()] == [repr(c) for c in ref.values()]


def test_bracket_tables_build_no_section_and_no_contraction(monkeypatch):
    """A ``courant_brackets`` call reads each section once, as rows and live
    pairs: on every table shape of the s3_flux certificate it builds no
    ``Section`` or ``FrameVector``, calls ``contract`` zero times and builds
    at most two forms per distinct section (d xi and i_Y H), none per entry."""
    tables = bracket_tables(PAIRS["s3_flux"]())
    counts = [count_calls(monkeypatch, owner, name) for owner, name in (
        (Section, "__init__"), (FrameVector, "__init__"), (exterior, "contract"))]
    forms = count_calls(monkeypatch, Form, "__init__")
    for vs, ws, chart in tables:
        courant.courant_brackets(vs, ws, chart)
    assert counts == [[0], [0], [0]]
    assert 0 < forms[0] <= 2 * sum(len({id(s) for s in (*vs, *ws)}) for vs, ws, _ in tables)


def test_bracket_table_rejects_a_section_on_another_coframe():
    pair = PAIRS["s3_hopf"]()
    basis = section_basis(pair.chart.coframe)
    other = section_basis(pair.total.coframe)
    for vs, ws in ((other, basis), (basis, other[:1]), (basis[:1], other)):
        with pytest.raises(ValueError, match="chart mismatch"):
            courant.courant_brackets(vs, ws, pair.chart)


@pytest.mark.parametrize("name", [*sorted(PAIRS), "charts"])
def test_pairing_tables_match_the_reference(name):
    """Every entry of ``courant.pairings`` is ``_reference_pairing`` of its
    row and column sections, and every entry of ``_pairing_sums`` that
    pairing times 2, by structure and repr: on the frame sections and on
    their dual images of each pair, and on ``test_courant._sections`` of
    s3_hopf, s3_flux and t2_twisted, square and with fewer rows; sections
    on two coframes are refused."""
    if name in PAIRS:
        pair = PAIRS[name]()
        basis, images = section_basis(pair.chart.coframe), list(duality._section_columns(pair))
        with pytest.raises(ValueError, match="chart mismatch"):
            courant.pairings(basis, images)
        lists = [basis, images]
    else:
        rng = np.random.default_rng(5)
        lists = [_sections(rng, load_chart(c)) for c in ("s3_hopf", "s3_flux", "t2_twisted")]
    for ws in lists:
        for vs in (ws, ws[1::3]):
            ref = [[_reference_pairing(v, w) for w in ws] for v in vs]
            twice = [[p * CScalar.of(2) for p in row] for row in ref]
            for got, want in ((courant.pairings(vs, ws), ref),
                              (courant._pairing_sums(vs, ws), twice)):
                assert got == want
                assert [[repr(c) for c in row] for row in got] == [
                    [repr(c) for c in row] for row in want]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_signed_sum_matches_the_reference(name, monkeypatch):
    """Every residual sum of a certificate is the tree the spreading sum
    builds, with each negated term made."""
    calls = []
    real = certify._sum

    def recorded(terms):
        terms = list(terms)
        out = real(terms)
        calls.append((terms, out))
        return out

    monkeypatch.setattr(certify, "_sum", recorded)
    pair = PAIRS[name]()
    certify.frame_certificate(pair, pair.chart.domain.sample_many(np.random.default_rng(7), 2))
    assert calls
    for terms, out in calls:
        assert type(out) is CScalar and out == _reference_sum(terms)


def test_signed_sum_keeps_the_negated_sum_quirk():
    """sneg(-A) is the sum A, which the sum flattens: c - c is left
    uncancelled for c = -(1 + u^2), by both sums alike."""
    c = CScalar(sneg(sadd(ONE, spow(var("u"), 2))))
    out = certify._sum([(1, c), (-1, c)])
    assert out == _reference_sum([(1, c), (-1, c)])
    assert scalar_to_text(out.re) == "(+ 1 (* -1 (+ 1 (^ u 2))) (^ u 2))"
    assert out.im.is_zero()


def _sides(u):
    """Two structurally equal, distinct coefficient dicts: a real monomial
    coefficient, a sum, the negated sum of the quirk and a complex one."""
    def build():
        return {1: CScalar(u), 3: CScalar(sadd(ONE, spow(u, 2))),
                5: CScalar(sneg(sadd(ONE, spow(u, 2)))), 6: CScalar(u, spow(u, 3))}
    return build(), build()


def test_equal_sides_of_opposite_sign_are_zero_unsummed(monkeypatch):
    """Two sides equal key by key with opposite signs leave no residual and
    are not summed, in either order and for an empty pair; the quirk shape
    c = -(1 + u^2), which ``_sum`` leaves uncancelled, is one of them."""
    a, b = _sides(var("u"))
    assert a == b and all(a[k] is not b[k] for k in a)
    quirk = {3: CScalar(sneg(sadd(ONE, spow(var("u"), 2))))}
    assert certify._sum([(1, quirk[3]), (-1, quirk[3])]).re is not ZERO

    def no_sum(terms):
        raise AssertionError("summed")
    monkeypatch.setattr(certify, "_sum", no_sum)
    for terms in ([(1, a), (-1, b)], [(-1, a), (1, b)], [(1, quirk), (-1, dict(quirk))],
                  [(1, {}), (-1, {})], [(1, {}), (-1, {}), (1, {})]):
        assert certify._form_residual(terms) == []


def test_unequal_or_same_sign_sides_are_summed():
    """The same sign sums every key, and a one-key difference leaves that
    key's sum alone (its other keys cancel in ``_sum``)."""
    u = var("u")
    a, b = _sides(u)
    del a[5], b[5]    # the quirk does not cancel in ``_sum``
    same = certify._form_residual([(1, a), (1, b)])
    assert same == [certify._sum([(1, a[k]), (1, b[k])]) for k in a]
    b[3] = CScalar(spow(u, 2))
    got = certify._form_residual([(1, a), (-1, b)])
    assert got == [certify._sum([(1, a[3]), (-1, b[3])])] == [CScalar.one()]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_clifford_action_on_dicts_is_section_act(name):
    """``exterior.clifford`` and ``Section.act`` build the coefficients that
    ``contract`` plus ``wedge`` build, in the same mask order and with the
    same trees, for each transformed frame section on each transform column
    and for seeded random sections and forms on the dual coframe."""
    pair = PAIRS[name]()
    dual = pair.dual
    table = frame_action(dual.coframe.dim)
    rng = np.random.default_rng(5)
    sections = list(duality._section_columns(pair)) + [random_section(rng, dual)
                                                       for _ in range(4)]
    forms = list(duality._form_columns(pair)) + [
        random_form(rng, dual.coframe, dual.base_vars) for _ in range(4)]
    for s in sections:
        coords = s._coordinates()
        for rho in forms:
            ref = _reference_clifford_act(s.x, s.xi, rho).coeffs
            for got in (exterior.clifford(table, coords, rho.coeffs), s.act(rho).coeffs):
                assert list(got) == list(ref)
                assert [repr(c) for c in got.values()] == [repr(c) for c in ref.values()]


def count_calls(mp, owner, name):
    """Count the calls of ``owner.name``, a function of a module or a method
    of a class, through its owner and every package module that holds it;
    returns the one-element list the count is kept in."""
    real, calls = getattr(owner, name), [0]

    def counted(*args):
        calls[0] += 1
        return real(*args)

    mp.setattr(owner, name, counted)
    for mod in [m for key, m in sys.modules.items() if key.startswith("tduality")]:
        if getattr(mod, name, None) is real:
            mp.setattr(mod, name, counted)
    return calls


def test_certificate_builds_its_shared_pieces_once(monkeypatch):
    """A fresh s3_hopf certificate builds e^F and e^(-F) once each, no more
    exterior derivatives than its shared tables need, and its pairings as
    two tables; it sums no empty term list, and its zero tests and form
    constructions stay within the counts of expected sides built on
    coordinate tuples (7,434 zero tests and 1,990 forms when they were built
    as sections, 1,882 forms with a zero form per bracket-table entry), and
    of actions collected on coefficient dicts (5,950 zero tests, 1,672 forms
    and 142 derivatives when each action built a form, both coordinates of
    every pair were zero-tested and the bracket took d of constants), and of
    sections read once as sparse coordinate dicts (3,757 zero tests when
    residuals were formed on dense coordinate tuples), and of equal sides
    settled unsummed, frame vectors read through ``live`` and Clifford
    actions collected on dicts (3,374 zero tests and 974 forms before).  It
    reads its anchors pi(s)(x) without ``contract`` (24 calls before)."""
    exps = count_calls(monkeypatch, duality, "exp_form")
    contracts = count_calls(monkeypatch, exterior, "contract")
    derivatives = count_calls(monkeypatch, bundle, "exterior_derivative")
    pairings = count_calls(monkeypatch, courant, "_pairing_sums")
    zero_tests = count_calls(monkeypatch, CScalar, "is_zero")
    forms = count_calls(monkeypatch, Form, "__init__")
    sizes, real = [], certify._sum

    def recorded(terms):
        sizes.append(len(terms))
        return real(terms)

    monkeypatch.setattr(certify, "_sum", recorded)
    pair = PAIRS["s3_hopf"]()
    certify.frame_certificate(pair, pair.chart.domain.sample_many(np.random.default_rng(7), 8))
    assert exps[0] <= 2
    assert derivatives[0] <= 110
    assert pairings[0] == 2
    assert sizes and min(sizes) > 0
    assert zero_tests[0] <= 1_200
    assert forms[0] <= 900
    assert contracts[0] == 0


def test_certificate_reads_its_tables_in_few_passes(monkeypatch):
    """An s3_flux certificate makes three ``courant_brackets`` calls (the
    frame with its left Leibniz rows, the right Leibniz columns, the dual
    sections) and two pairing tables (the frame's unhalved sums and the dual
    sections' ``pairings``), each on whole lists of sections: no call reads
    one pair."""
    shapes = {}
    for name in ("courant_brackets", "_pairing_sums", "pairings"):
        real = getattr(courant, name)

        def recorded(vs, ws, *rest, real=real, name=name):
            shapes.setdefault(name, []).append((len(vs), len(ws)))
            return real(vs, ws, *rest)

        for module in (courant, certify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, recorded)
    pair = PAIRS["s3_flux"]()
    certify.frame_certificate(pair, pair.chart.domain.sample_many(np.random.default_rng(7), 8))
    m, k = pair.chart.coframe.dim, len(pair.chart.base_vars)
    assert shapes == {"courant_brackets": [(2 * m * (k + 1), 2 * m), (2 * m, 2 * m * k),
                                           (2 * m, 2 * m)],
                      "_pairing_sums": [(2 * m, 2 * m)] * 2,
                      "pairings": [(2 * m, 2 * m)]}


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the count is CPython 3.11's: 3.12 inlines comprehensions")
def test_certificate_python_call_count():
    """An s3_hopf certificate at 64 points makes at most 15,500 Python-level
    calls on a fresh pair after a warm certificate (36,992 when its expected
    sides were built as sections and its zero tests compared values, 25,216
    when it built a form for each action of a frame section, 20,096 when it
    formed section residuals on dense coordinate tuples, 19,410 when it
    summed equal sides and zero-tested every frame vector component)."""
    chart = load_chart("s3_hopf")
    points = chart.domain.sample_many(np.random.default_rng(0), 64)
    certify.frame_certificate(DualityPair.from_chart(chart), points)
    pair = DualityPair.from_chart(chart)
    assert count_python_calls(lambda: certify.frame_certificate(pair, points)) <= 15_500


def residual_lists(pair):
    """(frame, side) of the pair's certificate at rng seed 7 and 8 points:
    {check: the residuals}, as handed to the evaluation."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "_evaluate", lambda frame, side, points: got.append((frame, side)))
        certify.frame_certificate(pair, pair.chart.domain.sample_many(np.random.default_rng(7), 8))
    return got[0]


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_residuals_match_the_reference_bodies(name, monkeypatch):
    """The oracle's action of each frame bracket on a unit monomial,
    ``exterior.clifford`` on the bracket's coordinate dict, is the per-mask
    body's, key for key and tree for tree, on the frame brackets and on the
    brackets (x_a s_i, s_j) of the left Leibniz rules, which are nonzero on
    a flat pair too; and the Leibniz side conditions built on coordinate
    tuples are the ones ``Section`` arithmetic builds, also under a mutant
    bracket for which they do not cancel."""
    pair = PAIRS[name]()
    cof = pair.chart.coframe
    table, basis = frame_action(cof.dim), section_basis(cof)
    scaled = [s.scale(var(v)) for v in pair.chart.base_vars for s in basis]
    acted = 0
    for row in courant.courant_brackets(basis + scaled, basis, pair.chart):
        for coords in row:
            got = [clifford(table, coords, {mask: CScalar.one()})
                   for mask in range(1 << cof.dim)]
            expected = _reference_act_sections(table, coords, cof)
            assert [list(d.items()) for d in got] == [list(d.items()) for d in expected]
            acted += sum(map(len, got))
    assert acted > 0
    for mutant in (None, install_dropped_term):
        if mutant:
            mutant(monkeypatch)
        pair = PAIRS[name]()
        _, side = residual_lists(pair)
        skip = len(pair.chart.base_vars) << pair.chart.coframe.dim   # the d_H Leibniz rules
        leibniz = side["spinor-bracket-oracle"][skip:]
        assert [repr(r) for r in leibniz] == [repr(r) for r in _reference_leibniz(pair)]
        assert len(leibniz) == 2 * len(pair.chart.base_vars) * (2 * pair.chart.coframe.dim) ** 2
        assert any(leibniz) == (mutant is not None)


def value_zero(s):
    """The zero test by value: a rational node of value 0."""
    return s.kind == "rat" and s.value == 0


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_every_zero_of_a_certificate_is_the_shared_zero(name, monkeypatch):
    """Every structural zero a certificate meets, in a zero test, a missed
    ``Form.coeff`` or a cancelled ``_sum``, has both parts ``ZERO`` itself,
    so testing zeros by identity decides what testing them by value does.
    Each of the four routes meets at least one zero, so none is vacuous."""
    seen = {}

    def record(owner, attr):
        real, route = getattr(owner, attr), seen.setdefault((owner, attr), [])

        def recorded(*args):
            out = real(*args)
            route.append(args[0] if attr == "is_zero" else out)
            return out
        monkeypatch.setattr(owner, attr, recorded)
    for owner, method in ((certify, "_sum"), (Form, "coeff"), (CScalar, "is_zero"),
                          (Scalar, "is_zero")):
        record(owner, method)
    pair = PAIRS[name]()
    certify.frame_certificate(pair, pair.chart.domain.sample_many(np.random.default_rng(7), 8))
    zeros = {route: [p for c in cs for p in ((c.re, c.im) if type(c) is CScalar else (c,))
                     if value_zero(p)] for route, cs in seen.items()}
    assert all(zeros.values())
    assert all(p is ZERO for ps in zeros.values() for p in ps)


def coframe_moves(pair):
    """(source, target, rename) of every move of a form between the coframes
    of the pair: chart or dual to total, total to dual or chart, the
    dual-of-dual rename back to the chart, and the fold of each dual fiber
    generator onto its fiber generator, under which masks collide and a
    monomial holding both repeats a generator."""
    chart, dual, total = pair.chart.coframe, pair.dual.coframe, pair.total.coframe
    ddual = build_dual_chart(pair.dual)
    back = dict(zip(ddual.fiber_names, pair.chart.fiber_names))
    fold = dict(zip(pair.dual.fiber_names, pair.chart.fiber_names))
    return [(chart, total, None), (dual, total, None), (total, dual, None),
            (total, chart, None), (ddual.coframe, chart, back), (total, chart, fold)]


def same_form(got, ref):
    return repr(got) == repr(ref) and list(got.coeffs) == list(ref.coeffs)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_coframe_tables_match_the_reference(name):
    """``Form.map_to`` and ``fiber_integrate`` read masks, signs and images
    from tables kept on the coframe; on seeded random forms they build what
    the mask-by-mask bodies build, in the same mask order, with the tables
    empty and then filled."""
    pair = PAIRS[name]()
    rng = np.random.default_rng(11)
    variables = pair.chart.base_vars
    for source, target, rename in coframe_moves(pair):
        names = [(rename or {}).get(n, n) for n in source.names]
        outside = sum(1 << i for i, n in enumerate(names) if n not in target.names)
        for _ in range(3):
            form = random_form(rng, source, variables)
            form = Form(source, {m: c for m, c in form.coeffs.items() if not m & outside})
            assert same_form(form.map_to(target, rename),
                             _reference_map_to(form, target, rename))
        if outside:
            leg = Form.monomial(source, (source.names[outside.bit_length() - 1],))
            with pytest.raises(ValueError) as got:
                leg.map_to(target, rename)
            with pytest.raises(ValueError) as ref:
                _reference_map_to(leg, target, rename)
            assert str(got.value) == str(ref.value)
    total = pair.total.coframe
    folded = Form.monomial(total, (pair.chart.fiber_names[0], pair.dual.fiber_names[0]))
    assert folded.map_to(pair.chart.coframe, coframe_moves(pair)[-1][2]).is_zero()
    for cof, tags in ((total, ("fiber",)), (total, ("cofiber",)),
                      (total, ("fiber", "cofiber")), (total, ("base",)),
                      (pair.chart.coframe, ("fiber",)), (pair.dual.coframe, ("fiber",))):
        for _ in range(3):
            form = random_form(rng, cof, variables)
            assert same_form(fiber_integrate(form, tags),
                             _reference_fiber_integrate(form, tags))


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_no_table_outlives_its_pair(name):
    """With the cycle collector off, a certified pair, its charts and their
    coframes die by reference counting alone once the pair is dropped: no
    table kept on them refers back to its owner."""
    gc.disable()
    try:
        pair = PAIRS[name]()
        cert = certify.frame_certificate(
            pair, pair.chart.domain.sample_many(np.random.default_rng(7), 2))
        assert all(c.residual <= TOLS[check] for check, c in cert.items())
        charts = (pair.chart, pair.dual, pair.total)
        refs = [weakref.ref(o) for o in (pair, *charts, *(c.coframe for c in charts))]
        del pair, charts
        assert [r() for r in refs] == [None] * len(refs)
    finally:
        gc.enable()
