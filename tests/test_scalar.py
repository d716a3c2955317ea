import re
from fractions import Fraction

import numpy as np
import pytest

from tduality.scalar import (CScalar, Domain, EvaluationError, ONE, PI,
                             diff, equal_numeric, evaluate, evaluate_all, rat,
                             sadd, scalar_from_text, scalar_to_text, scos, sdiv,
                             sexp, slog, smul, sneg, spow, ssin, ssqrt,
                             solve_linear_symbolic, sym_matrix_inverse, var)
from tduality.scenarios import run_scenario

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
    # two expressions built on one shared subexpression, evaluated at two
    # points in a row: the shared node must be recomputed at the second point
    shared = ssin(T) * sexp(T) + rat(1, 3)
    a = shared * shared + T
    b = sdiv(shared, 1 + T ** 2) - scos(shared)
    for t in (0.37, -0.81):
        p = {"t": t}
        assert evaluate_all([a, b], p) == [evaluate(a, p), evaluate(b, p)]


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


def test_equal_numeric_factored():
    assert equal_numeric(1 - T ** 2, (1 - T) * (1 + T), DOM)


def test_equal_numeric_trig_identity():
    assert equal_numeric(ssin(T) ** 2 + scos(T) ** 2, ONE, DOM)


def test_equal_numeric_detects_offset():
    assert not equal_numeric(T, T + rat(1, 1000), DOM)


def test_equal_numeric_reflexive_symmetric(rng):
    e = ssin(T) * T + rat(2, 7)
    f = sexp(T) - T
    assert equal_numeric(e, e, DOM, seed=5)
    assert equal_numeric(e, f, DOM, seed=5) == equal_numeric(f, e, DOM, seed=5)


def test_domain_exclusions():
    d = Domain({"t": (-1.0, 1.0)}, exclusions=(("t", 0.0, 0.2),))
    rng = np.random.default_rng(0)
    for p in d.sample_many(rng, 50):
        assert abs(p["t"]) > 0.2


def test_domain_empty_interior_rejected():
    with pytest.raises(ValueError):
        Domain({"t": (1.0, 1.0)})


def test_serialization_roundtrip():
    exprs = [
        ssin(T) * T + rat(-2, 5),
        sdiv(scos(T), 1 + T ** 2),
        spow(T + ONE, 3),
        ssqrt(2 + T ** 2) * PI,
        slog(sexp(T)),
    ]
    for e in exprs:
        text = scalar_to_text(e)
        back = scalar_from_text(text)
        assert equal_numeric(e, back, DOM)


def test_serialization_exact_atoms():
    assert scalar_from_text("-2/5") == rat(-2, 5)
    assert scalar_from_text("pi") == PI
    assert scalar_from_text("t") == T


def test_truncated_scalar_text_rejected():
    for text in ("(+ 1", "(", ""):
        with pytest.raises(ValueError, match="unexpected end of text"):
            scalar_from_text(text)


def test_serialization_numeric_atoms_exact():
    assert scalar_from_text("0.5") == rat(1, 2)
    assert scalar_from_text("1e-3") == rat(1, 1000)
    assert scalar_from_text("(* 0.5 t)") == smul(rat(1, 2), T)
    for bad in ("1/0", "0.5.1", "t-1", "@"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            scalar_from_text(f"(+ 1 {bad})")


def test_cscalar_field_identities(rng):
    a = CScalar(T, scos(T))
    b = CScalar(ssin(T), rat(1, 3))
    p = DOM.sample(rng)
    za, zb = a.evaluate(p), b.evaluate(p)
    assert (a * b).evaluate(p) == pytest.approx(za * zb)
    assert (a + b).evaluate(p) == pytest.approx(za + zb)
    assert (a / b).evaluate(p) == pytest.approx(za / zb)
    assert a.conj().evaluate(p) == pytest.approx(za.conjugate())


def test_symbolic_solve_rational_block(rng):
    a = [[rat(0), rat(-1)], [rat(-1), rat(0)]]
    rhs = [T, ssin(T)]
    x = solve_linear_symbolic(a, rhs)
    assert x[0] == -ssin(T) if x[0].kind == "mul" else True
    assert equal_numeric(x[0], -ssin(T), DOM)
    assert equal_numeric(x[1], -T, DOM)
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
        scalar_from_text("(+ 4/2 (* 6/3 t) (^ t 2))"),
    ]
    for e in exprs:
        for node in _nodes(e):
            if node.kind == "rat":
                v = node.value
                assert type(v) is int or (type(v) is Fraction and v.denominator != 1)
    assert scalar_to_text(rat(4, 2)) == "2"
    assert scalar_to_text(rat(2, 6)) == "1/3"
    for text in ("2", "1/3", "(+ 2 (* 1/3 t))"):
        assert scalar_to_text(scalar_from_text(text)) == text


def test_diff_is_cached_on_the_node():
    text = "(+ (* t (sin (^ t 2))) (/ (exp t) (+ 1 (^ t 2))) (sqrt (+ 2 t)))"
    e = scalar_from_text(text)
    d = diff(e, "t")
    assert diff(e, "t") is d
    assert scalar_to_text(d) == scalar_to_text(diff(scalar_from_text(text), "t"))
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
