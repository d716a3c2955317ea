import ast
import math
import re
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import _reference_collect_sum, _reference_sample, equal_at_samples
from tduality.scalar import (CScalar, Domain, EvaluationError, MINUS_ONE, ONE, PI,
                             ZERO, _collect_product, as_scalar, diff,
                             evaluate, evaluate_points,
                             rat, sadd, scalar_to_text, scos,
                             sdiv, sexp, signed_sum, slog, smul, sneg, spow, ssin,
                             ssqrt, ssub, solve_linear_symbolic, sym_matrix_inverse, var)
import tduality
from tduality import randomgen
from tduality.exterior import Coframe, Form
from tduality.scenarios import load_chart, run_scenario

T = var("t")
DOM = Domain({"t": (-0.9, 0.9)})


def test_eval_identity():
    assert evaluate(ssin(T) ** 2 + scos(T) ** 2, {"t": 0.7}) == pytest.approx(1.0)


def test_eval_variable():
    assert evaluate(T, {"t": 0.3}) == 0.3


def test_eval_rational_quotient():
    e = sdiv(ONE, 1 - T ** 2)
    assert evaluate(e, {"t": 0.0}) == pytest.approx(1.0)


def test_evaluate_all_matches_evaluate_bitwise():
    # two expressions built on one shared subexpression, evaluated together
    # at one point (``CScalar.evaluate`` does this for its two parts) at two
    # points in a row: the shared node must be recomputed at the second point
    shared = ssin(T) * sexp(T) + rat(1, 3)
    a = shared * shared + T
    b = sdiv(shared, 1 + T ** 2) - scos(shared)
    for t in (0.37, -0.81):
        p = {"t": t}
        assert CScalar(a, b).evaluate(p) == complex(evaluate(a, p), evaluate(b, p))


def test_eval_unbound_variable():
    with pytest.raises(EvaluationError):
        evaluate(T + var("s"), {"t": 0.1})


def test_eval_singularities():
    with pytest.raises(EvaluationError):
        evaluate(sdiv(ONE, T), {"t": 0.0})
    with pytest.raises(EvaluationError):
        evaluate(slog(T), {"t": -1.0})
    with pytest.raises(EvaluationError):
        evaluate(ssqrt(T), {"t": -1.0})


def test_diff_power():
    assert diff(T ** 2, "t") == smul(rat(2), T)


def test_diff_sin():
    assert diff(ssin(T), "t") == scos(T)


def test_diff_constant():
    assert diff(PI, "t").is_zero()
    assert diff(rat(5, 3), "t").is_zero()


def test_diff_matches_finite_differences(rng):
    exprs = [
        ssin(T) * T + rat(1, 3),
        sexp(smul(rat(1, 2), T)) - T ** 3,
        sdiv(scos(T), 2 + T ** 2),
        ssqrt(2 + T),
        slog(2 + T ** 2) * ssin(T),
    ]
    h = 1e-6
    for e in exprs:
        d = diff(e, "t")
        for p in DOM.sample_many(rng, 16):
            fd = (evaluate(e, {"t": p["t"] + h}) - evaluate(e, {"t": p["t"] - h})) / (2 * h)
            assert evaluate(d, p) == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_like_terms_cancel_structurally():
    u = var("u")
    assert (T * u - T * u).is_zero()
    assert (T + T - smul(rat(2), T)).is_zero()


SAMPLED_DOMAINS = {
    "plain": lambda: Domain({"t": (-0.9, 0.9)}),
    "gibbons_hawking": lambda: load_chart("gibbons_hawking").domain,
    "integer": lambda: Domain({"a": (0, 3), "b": (-2, 5)}),
}


@pytest.mark.parametrize("n", [0, 1, 64])
@pytest.mark.parametrize("name", sorted(SAMPLED_DOMAINS))
def test_sample_many_consumes_the_per_draw_stream(name, n):
    """``sample_many``'s one ``rng.random`` call gives the points of one
    ``rng.uniform`` per draw bit for bit, and leaves the rng in the same
    state."""
    domain = SAMPLED_DOMAINS[name]()
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    got = domain.sample_many(rng, n)
    ref = [_reference_sample(domain, ref_rng) for _ in range(n)]
    assert [{k: x.hex() for k, x in p.items()} for p in got] == \
        [{k: x.hex() for k, x in p.items()} for p in ref]
    assert all(type(x) is float for p in got for x in p.values())
    assert rng.random() == ref_rng.random()
    assert domain.sample_many(rng, 1) == [_reference_sample(domain, ref_rng)]


def test_domain_empty_interior_rejected():
    with pytest.raises(ValueError):
        Domain({"t": (1.0, 1.0)})


def test_cscalar_field_identities(rng):
    a = CScalar(T, scos(T))
    b = CScalar(ssin(T), rat(1, 3))
    (p,) = DOM.sample_many(rng, 1)
    za, zb = a.evaluate(p), b.evaluate(p)
    assert (a * b).evaluate(p) == pytest.approx(za * zb)
    assert (a + b).evaluate(p) == pytest.approx(za + zb)
    assert (a / b).evaluate(p) == pytest.approx(za / zb)
    assert a.conj().evaluate(p) == pytest.approx(za.conjugate())


def test_cscalar_is_a_structural_value():
    a, b = CScalar(T, scos(T)), CScalar(var("t"), scos(var("t")))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "value"}[b] == "value"
    assert a != CScalar(T, ssin(T))
    assert CScalar(ONE) == CScalar(ONE, ZERO) == CScalar.one()
    assert CScalar(ONE) != (ONE, ZERO)
    assert CScalar(ONE).__eq__((ONE, ZERO)) is NotImplemented
    assert repr(CScalar(ONE, T)) == "CScalar(re=Scalar(1), im=Scalar(t))"
    assert repr(CScalar()) == "CScalar(re=Scalar(0), im=Scalar(0))"


def _random_scalar_by_choice(rng, variables):
    """``random_scalar`` drawing its variable with ``rng.choice``."""
    parts = [randomgen._coeff(rng)]
    if variables:
        v = var(str(rng.choice(list(variables))))
        factors = [(v,), (v, v), (ssin(v),), (scos(v),)][rng.integers(0, 4)]
        parts.append(smul(randomgen._coeff(rng), *factors))
    return sadd(*parts)


def test_random_scalar_draws_the_variable_of_rng_choice():
    """Indexing the variables with ``rng.integers`` takes the same draw from
    the stream as ``rng.choice`` over their list, so seeded data is unchanged."""
    for variables in ((), ("t",), ("s1", "s2"), ("a", "b", "c", "d", "e")):
        ours, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(200):
            assert randomgen.random_scalar(ours, variables) == _random_scalar_by_choice(
                ref, variables)
        assert ours.random() == ref.random()


def test_symbolic_solve_rational_block(rng):
    a = [[rat(0), rat(-1)], [rat(-1), rat(0)]]
    rhs = [T, ssin(T)]
    x = solve_linear_symbolic(a, rhs)
    assert x[0] == -ssin(T) if x[0].kind == "mul" else True
    assert equal_at_samples(x[0], -ssin(T), DOM)
    assert equal_at_samples(x[1], -T, DOM)
    # a symbolic block goes through the same inverse: A x = rhs at samples
    a = [[2 + T ** 2, T], [T, ONE]]
    x = solve_linear_symbolic(a, rhs)
    for p in DOM.sample_many(rng, 4):
        a_num = np.array([[evaluate(e, p) for e in row] for row in a])
        x_num = np.array([evaluate(e, p) for e in x])
        rhs_num = np.array([evaluate(e, p) for e in rhs])
        assert np.abs(a_num @ x_num - rhs_num).max() < 1e-12


def test_symbolic_matrix_inverse(rng):
    m = [[2 + T ** 2, T], [T, ONE]]
    inv = sym_matrix_inverse(m)
    for p in DOM.sample_many(rng, 4):
        a = np.array([[evaluate(e, p) for e in row] for row in m])
        b = np.array([[evaluate(e, p) for e in row] for row in inv])
        assert np.abs(a @ b - np.eye(2)).max() < 1e-12


def _nodes(expr):
    """Every distinct node of an expression DAG."""
    seen, stack = {}, [expr]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return list(seen.values())


def test_integral_rationals_are_ints():
    exprs = [
        rat(4, 2), rat(Fraction(6, 3)), smul(rat(1, 2), rat(4)),
        sdiv(T, rat(1, 3)), spow(rat(1, 2), -2), spow(rat(3), -1),
        ssqrt(rat(4)), ssqrt(rat(9, 4)), sadd(rat(1, 2), rat(1, 2), T),
        sadd(smul(rat(1, 2), T), smul(rat(3, 2), T)), sneg(rat(-1, 1)),
        diff(spow(T, 3) * ssin(rat(1, 2) * T) / (T + 2), "t"),
        sadd(rat(Fraction(4, 2)), smul(rat(Fraction(6, 3)), T), spow(T, 2)),
    ]
    for e in exprs:
        for node in _nodes(e):
            if node.kind == "rat":
                v = node.value
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    assert scalar_to_text(rat(4, 2)) == "2"
    assert scalar_to_text(rat(2, 6)) == "1/3"
    assert scalar_to_text(sadd(rat(2), smul(rat(1, 3), T))) == "(+ 2 (* 1/3 t))"


def test_diff_is_cached_on_the_node():
    def build():
        t = var("t")
        return sadd(smul(t, ssin(spow(t, 2))), sdiv(sexp(t), sadd(ONE, spow(t, 2))),
                    ssqrt(sadd(rat(2), t)))

    e = build()
    d = diff(e, "t")
    assert diff(e, "t") is d
    assert scalar_to_text(d) == scalar_to_text(diff(build(), "t"))
    assert diff(e, "u").is_zero()
    assert diff(e, "t") is d


def test_diff_of_shared_dag_is_linear():
    e = T
    for level in range(1, 41):
        e = e * e + ssin(e)
        # the tree has 2^level paths; its derivative DAG grows by 8 nodes a level
        assert len(_nodes(diff(e, "t"))) <= 8 * level + 5
    # e(0) = 0 at every level, so de/dt(0) = 1; evaluating a DAG is linear too
    assert evaluate(diff(e, "t"), {"t": 0.0}) == 1.0


def test_warm_caches_do_not_change_a_report():
    first = run_scenario("s3-hopf", seed=1, samples=8).to_jsonl()
    assert run_scenario("s3-hopf", seed=1, samples=8).to_jsonl() == first


def test_repr_of_shared_dag_is_short():
    e = T
    for _ in range(40):
        e = e * e + ssin(e)
    text = repr(e)
    assert len(text) < 100 and "121 distinct nodes" in text
    assert repr(ssin(T) * 2 + 1) == "Scalar((+ 1 (* 2 (sin t))))"


# -- the evaluation kernel ------------------------------------------------------

U = var("u")


def _bits(x):
    return struct.pack("<d", x)


def _reference(node, point):
    """Plain recursive float evaluation at one point: the semantics the
    kernel must keep (a running sum from 0.0, a running product from 1.0)."""
    kind, args = node.kind, node.args
    if kind == "rat":
        return float(node.value)
    if kind == "const":
        return math.pi
    if kind == "var":
        return float(point[node.name])
    vals = [_reference(a, point) for a in args]
    if kind == "add":
        out = 0.0
        for v in vals:
            out += v
        return out
    if kind == "mul":
        out = 1.0
        for v in vals:
            out *= v
        return out
    if kind == "div":
        return vals[0] / vals[1]
    if kind == "pow":
        return vals[0] ** node.value
    return getattr(math, kind)(vals[0])


def _every_kind():
    """Expressions over t and u with every node kind and shared subexpressions,
    regular on [-1, 1]^2; the last is -t - u, a sum of two -0.0 at the origin."""
    shared = ssin(T) * sexp(U) + rat(1, 3)
    q = 2 + T ** 2
    return [
        shared * shared + T * U * rat(-7, 5),
        sdiv(shared, q) - scos(shared) + PI,
        slog(q) * ssqrt(3 + U) + spow(3 + T, -2),
        sadd(T, U, shared, rat(5, 2), smul(rat(2), T, U)),
        sexp(sdiv(U, q)) * spow(shared, 3),
        sadd(sneg(T), sneg(U)),
    ]


@pytest.mark.parametrize("n", [1, 6, 64])
def test_evaluate_points_matches_evaluate_bitwise(n):
    rng = np.random.default_rng(n)
    points = [{"t": float(t), "u": float(u)} for t, u in rng.uniform(-1, 1, (n, 2))]
    points[0] = {"t": 0.0, "u": 0.0}
    exprs = _every_kind()
    got = evaluate_points(exprs, points)
    for e, vals in zip(exprs, got):
        assert len(vals) == n
        for p, v in zip(points, vals):
            assert _bits(v) == _bits(evaluate(e, p)) == _bits(_reference(e, p))
    assert _bits(got[-1][0]) == _bits(0.0)


def test_kernel_keeps_math_values_where_numpy_differs():
    # numpy's exp, log and integer power may round differently from math and
    # Python's **; the kernel must give the math values at every point
    rng = np.random.default_rng(11)
    xs = rng.uniform(0.01, 5.0, 20000)
    exprs = [sexp(T), slog(T), spow(T, 2), spow(T, 3), spow(T, -2)]
    numpy_values = [np.exp(xs), np.log(xs), np.power(xs, 2), np.power(xs, 3),
                    np.power(xs, -2)]
    math_values = [[fn(x) for x in xs.tolist()] for fn in (
        math.exp, math.log, lambda x: x ** 2, lambda x: x ** 3, lambda x: x ** -2)]
    differ = sorted({i for np_vals, py_vals in zip(numpy_values, math_values)
                     for i in np.flatnonzero(np_vals != np.array(py_vals))[:20]})
    points = [{"t": float(xs[i])} for i in differ + [0, 1, 2]]
    got = evaluate_points(exprs, points)
    for vals, py_vals in zip(got, math_values):
        assert [_bits(v) for v in vals] == [_bits(py_vals[i]) for i in differ + [0, 1, 2]]


def test_evaluate_points_with_no_points():
    assert evaluate_points([T, sdiv(ONE, T)], []) == [[], []]


# -- shortcuts on structural zeros and ones --------------------------------------

def _general_mul(a, b):
    neg = lambda s: _collect_product((MINUS_ONE, s))  # noqa: E731
    collect = _reference_collect_sum
    p, q, r, s = a.re, a.im, b.re, b.im
    return CScalar(collect((_collect_product((p, r)), neg(_collect_product((q, s))))),
                   collect((_collect_product((p, s)), _collect_product((q, r)))))


def _general_add(a, b):
    return CScalar(_reference_collect_sum((a.re, b.re)),
                   _reference_collect_sum((a.im, b.im)))


def _general_neg(a):
    return CScalar(_collect_product((MINUS_ONE, a.re)), _collect_product((MINUS_ONE, a.im)))


def _random_scalars(rng, n):
    """Random expressions built by the public constructors, with a sum that
    holds a sum (a like-term merge left it there with coefficient 1)."""
    nested = sadd(smul(rat(2), T + U), smul(MINUS_ONE, T + U), ssin(T))
    assert any(a.kind == "add" for a in nested.args)
    pool = [T, U, PI, rat(3), rat(-2, 7), ONE, MINUS_ONE, nested, ssin(U) * T]
    for _ in range(n):
        a, b = (pool[i] for i in rng.integers(len(pool), size=2))
        op = int(rng.integers(6))
        pool.append([sadd(a, b), smul(a, b), ssub(a, b), sdiv(a, 2 + U ** 2),
                     smul(rat(int(rng.integers(-3, 4)), 5), a), scos(a)][op])
    return pool


def test_shortcuts_build_what_the_general_formula_builds():
    rng = np.random.default_rng(7)
    scalars = _random_scalars(rng, 60)
    for x in scalars:
        assert sadd(x) == _reference_collect_sum((x,))
        assert sadd(x, ZERO) == sadd(ZERO, x) == _reference_collect_sum((x, ZERO))
        assert sadd(ZERO, x, ZERO) == _reference_collect_sum((ZERO, x, ZERO))
        assert smul(x, ONE) == smul(ONE, x) == _collect_product((ONE, x))
        assert smul(x, ZERO) == smul(ZERO, x) == _collect_product((x, ZERO)) == ZERO
    assert sadd() == sadd(ZERO, ZERO) == _reference_collect_sum((ZERO, ZERO)) == ZERO
    cscalars = []
    for _ in range(60):
        re, im = (scalars[i] for i in rng.integers(len(scalars), size=2))
        cscalars.append(CScalar(re, im if rng.random() < 0.5 else ZERO))
    for a in cscalars:
        assert -a == _general_neg(a)
        for b in cscalars[:20]:
            assert a * b == _general_mul(a, b)
            assert a + b == _general_add(a, b)
            assert a - b == _general_add(a, _general_neg(b))


def _nodes(x):
    """Every node of the expression, once each."""
    seen, stack = {}, [x]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.args)
    return list(seen.values())


def test_negation_and_two_factor_products_build_the_general_product():
    """``sneg(a)`` builds the tree of ``_collect_product((MINUS_ONE, a))``,
    and ``smul(a, b)`` that of ``_collect_product((a, b))``, by structure
    and repr, on ZERO, ONE, MINUS_ONE, shared and large integers, fractions,
    a variable, pi, a power, a sine, sums, a negated sum and products with
    and without a leading rational, in a seeded order; every small integer
    in a result is the shared node.  The complex negation is the negation
    of each part."""
    rng = np.random.default_rng(31)
    pool = [ZERO, ONE, MINUS_ONE, rat(2), rat(-16), rat(17), rat(-40), rat(10**20),
            rat(1, 2), rat(-3, 7), rat(Fraction(5, 3)), T, PI, spow(T, 3), ssin(U),
            sadd(T, U), sneg(sadd(ONE, spow(U, 2))), smul(T, U), smul(rat(3), T),
            smul(rat(-1, 2), T, ssin(U)), smul(rat(-1), spow(U, -2))]
    pool = [pool[i] for i in rng.permutation(len(pool))]
    got, want = [], []
    for a in pool:
        got.append(sneg(a))
        want.append(_collect_product((MINUS_ONE, a)))
        for b in pool:
            got.append(smul(a, b))
            want.append(_collect_product((a, b)))
    assert got == want
    assert list(map(repr, got)) == list(map(repr, want))
    small = [n for x in got for n in _nodes(x)
             if n.kind == "rat" and type(n.value) is int and -16 <= n.value <= 16]
    assert small and all(n is rat(n.value) for n in small)
    assert sneg(ZERO) is ZERO and sneg(MINUS_ONE) is ONE and sneg(ONE) is MINUS_ONE
    for re in pool:
        for im in pool[::4]:
            c = -CScalar(re, im)
            assert c == _general_neg(CScalar(re, im))
            assert (repr(c.re), repr(c.im)) == (repr(sneg(re)), repr(sneg(im)))


def test_signed_sum_builds_what_sadd_of_the_negations_builds():
    """``ssub`` and ``signed_sum`` collect a negated term from its sign, with
    no negation node built for it; the tree is the one ``sadd`` makes of the
    negations built, over random trees, rationals, lone units, ZERO operands
    and sneg(-A), which is the sum A."""
    rng = np.random.default_rng(21)
    pool = [randomgen.random_scalar(rng, ("t", "u")) for _ in range(40)]
    pool += [sadd(a, b) for a, b in zip(pool[::2], pool[1::2])]
    quirk = sneg(sadd(ONE, spow(U, 2)))
    assert quirk.kind == "mul" and sneg(quirk).kind == "add"
    pool = [x for x in pool if x is not ZERO]
    pool += [rat(3, 4), rat(-2), T, sneg(T), quirk, sneg(quirk)]
    for a in pool:
        assert ssub(a, ZERO) is a
        assert ssub(ZERO, a) == sneg(a)
        assert signed_sum([(1, a)]) is a
        assert signed_sum([(-1, a)]) == sneg(a)
        for b in pool[::3] + [rat(1, 2), quirk]:
            assert ssub(a, b) == sadd(a, sneg(b))
    assert ssub(ZERO, ZERO) is ZERO and signed_sum([]) is ZERO
    for _ in range(300):
        units = [(int(rng.choice((-1, 1))), pool[i])
                 for i in rng.integers(len(pool), size=int(rng.integers(2, 6)))]
        assert signed_sum(units) == sadd(*(t if s > 0 else sneg(t) for s, t in units))


def test_every_rational_zero_is_the_shared_zero():
    """``ZERO`` is the one rational zero node, which is what lets
    ``Scalar.is_zero`` and ``CScalar.is_zero`` test identity: each way of
    reaching zero below hands out ``ZERO`` itself."""
    x = smul(rat(3), var("u"), ssin(var("v")))
    zeros = [rat(0), rat(0, 7), rat(Fraction(0)), as_scalar(0.0), as_scalar(0),
             sadd(x, sneg(x)), smul(x, ZERO), smul(ZERO, x, x), ssub(rat(1, 2), rat(1, 2)),
             diff(rat(3, 2), "u"), diff(PI, "u"), diff(ssin(var("v")), "u"),
             sadd(rat(1, 2), rat(-1, 2))]
    assert all(z is ZERO for z in zeros)
    assert all(z.is_zero() for z in zeros)
    assert not rat(1, 7).is_zero() and not x.is_zero()
    assert CScalar(ZERO, ZERO).is_zero() and not CScalar(ZERO, ONE).is_zero()


def test_only_rat_builds_a_rational_node():
    """No package code builds a rational node but ``rat`` and its shared
    small integers, so no second zero node can arise."""
    sites = []
    for path in sorted(Path(tduality.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Scalar"
                    and node.args and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "rat"):
                sites.append(path.stem)
    assert sites == ["scalar"] * 3


def test_as_scalar_keeps_a_float_exact():
    """A float becomes the rational it is, not a nearby one of bounded
    denominator: a tiny coefficient stays nonzero, and a form keeps it; a
    value evaluates back to itself; a non-finite float is a ValueError that
    names it."""
    tiny = as_scalar(1e-13)
    assert tiny is not ZERO and tiny.value == Fraction(1e-13)
    assert not CScalar.of(1e-13).is_zero()
    cof = Coframe(("dx",), ("base",))
    assert Form.monomial(cof, ("dx",), 1e-13).coeffs
    assert evaluate(as_scalar(1.234567e-10), {}) == 1.234567e-10
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(f"non-finite float {bad!r}")):
            as_scalar(bad)
