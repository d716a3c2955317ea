"""Exact symbolic scalars over named real variables.

Expression trees with rational constants, the named constant pi, and the
elementary functions sin, cos, exp, log, sqrt.  These carry every coefficient
function in the package.  There is no canonical simplification: a check
that is not settled by a structural zero evaluates its residual at points
drawn from a ``Domain`` box with a seeded RNG (``evaluate_points``).
Construction applies only cheap local folding (rational arithmetic, dropping
zeros/ones, collecting like terms with rational coefficients) so that exact
cancellations such as ``g - g`` produce a structural zero for every ``g``.
``signed_sum`` is the one place that collects like terms and decides how a
sum cancels; ``sadd``, ``ssub`` and the certificate's sums go through it.
Every rational zero is ``ZERO`` itself: only ``rat`` builds rat nodes, and it
returns the shared small integers, so a zero test tests identity.

The value types ``Scalar`` and ``CScalar`` are ``__slots__`` classes,
immutable by convention: nothing assigns to a node or a complex scalar after
it is built, and equality and hash are structural.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from operator import add as _add, mul as _mul, truediv as _truediv

__all__ = [
    "Scalar", "CScalar", "Domain", "EvaluationError",
    "rat", "const", "var", "sadd", "signed_sum", "smul", "sdiv", "spow", "sneg",
    "ssub", "ssin", "scos", "sexp", "slog", "ssqrt", "as_scalar",
    "ZERO", "ONE", "MINUS_ONE", "PI", "CZERO",
    "diff", "evaluate", "evaluate_points",
    "scalar_to_text",
    "solve_linear_symbolic", "sym_matrix_inverse", "sym_det",
]

_NAMED_CONSTANTS = {"pi": math.pi}

_LEAF_KINDS = ("rat", "const", "var")
_FUNC_KINDS = ("sin", "cos", "exp", "log", "sqrt")


class EvaluationError(ValueError):
    """Unbound variable or singular evaluation (zero division, bad log/sqrt,
    overflow).  ``index`` and ``point`` are the sample point that failed:
    its position in the points evaluated together, and its assignment."""

    def __init__(self, message, index=None, point=None):
        if point is not None:
            message = f"{message} at sample point {index}: {point}"
        super().__init__(message)
        self.index = index
        self.point = point


class Scalar:
    """Immutable expression node.

    kind is one of: rat, const, var, add, mul, div, pow, sin, cos, exp,
    log, sqrt.  ``value`` holds the rational constant of a rat node, an
    ``int`` whenever it is integral and a normalised ``Fraction`` only for a
    true ratio, and the integer exponent of a pow node; ``name`` holds
    variable / named-constant names.

    ``_d`` caches derivatives, ``{variable: derivative}``, filled by
    ``diff``.  It lives on the node it indexes and dies with it, so no cached
    derivative can outlive its expression.

    Construction keeps invariants that ``sadd`` and ``smul`` rely on: a mul
    node has no mul argument, and a rat argument of an add or mul node, if
    any, is the single leading one.  An add node has no sum argument and no
    -1 times a sum (``signed_sum``).
    """

    __slots__ = ("kind", "args", "value", "name", "_hash", "_d")

    def __init__(self, kind, args=(), value=None, name=None):
        self.kind = kind
        self.args = args
        self.value = value
        self.name = name
        self._hash = None
        self._d = None

    # Scalars are immutable by convention; hash/eq are structural.
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.kind, self.value, self.name, self.args))
            self._hash = h
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.kind == other.kind and self.value == other.value
                and self.name == other.name and self.args == other.args)

    # -- arithmetic sugar ---------------------------------------------------
    def __add__(self, other):
        return sadd(self, as_scalar(other))

    def __radd__(self, other):
        return sadd(as_scalar(other), self)

    def __sub__(self, other):
        return ssub(self, as_scalar(other))

    def __rsub__(self, other):
        return ssub(as_scalar(other), self)

    def __mul__(self, other):
        return smul(self, as_scalar(other))

    def __rmul__(self, other):
        return smul(as_scalar(other), self)

    def __truediv__(self, other):
        return sdiv(self, as_scalar(other))

    def __rtruediv__(self, other):
        return sdiv(as_scalar(other), self)

    def __pow__(self, n):
        return spow(self, n)

    def __neg__(self):
        return sneg(self)

    def __repr__(self):
        """The text of the expression while its tree has at most
        ``_REPR_TREE_NODES`` nodes, else the node counts: the text spells out
        the tree, which can be exponentially larger than the DAG."""
        distinct, tree = _node_counts(self)
        if tree <= _REPR_TREE_NODES:
            return f"Scalar({scalar_to_text(self)})"
        return f"Scalar(<{self.kind}: {distinct} distinct nodes, {tree} as a tree>)"

    # -- queries --------------------------------------------------------------
    def is_zero(self):
        return self is ZERO

    def is_rational(self):
        return self.kind == "rat"

    def variables(self):
        out = set()
        stack = [self]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node.kind == "var":
                out.add(node.name)
            stack.extend(node.args)
        return out


_REPR_TREE_NODES = 500


def _node_counts(root):
    """(distinct nodes, nodes as a tree) of an expression, in one pass."""
    tree = {}
    stack = [root]
    while stack:
        node = stack[-1]
        pending = [a for a in node.args if id(a) not in tree]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        tree[id(node)] = 1 + sum(tree[id(a)] for a in node.args)
    return len(tree), tree[id(root)]


# Shared nodes for the small integers, which most rational constants are.
_SMALL_INTS = {n: Scalar("rat", value=n) for n in range(-16, 17)}


def rat(p, q=1):
    """Rational constant p/q; its value is an int whenever it is integral."""
    if q != 1 or type(p) is not int:
        v = p if q == 1 and type(p) is Fraction else Fraction(p, q)
        if v.denominator != 1:
            return Scalar("rat", value=v)
        p = v.numerator
    node = _SMALL_INTS.get(p)
    return node if node is not None else Scalar("rat", value=p)


ZERO = rat(0)
ONE = rat(1)
MINUS_ONE = rat(-1)


def const(name):
    if name not in _NAMED_CONSTANTS:
        raise ValueError(f"unknown named constant {name!r}")
    return Scalar("const", name=name)


PI = const("pi")


def var(name):
    return Scalar("var", name=name)


def as_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return rat(x)
    if isinstance(x, float):
        # floats enter only through user-supplied data; keep them exact
        if not isfinite(x):
            raise ValueError(f"cannot coerce the non-finite float {x!r} to Scalar")
        return rat(Fraction(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Scalar")


def _mul_split(term):
    """Split a non-rat term into (rational coefficient, non-rational factor
    tuple), reading the single leading rat of a mul node."""
    if term.kind == "mul":
        args = term.args
        if args[0].kind == "rat":
            return args[0].value, args[1:]
        return 1, args
    return 1, (term,)


def _make_term(coeff, rest):
    """The term coeff * rest for a nonzero coefficient."""
    if not rest:
        return rat(coeff)
    if coeff == 1:
        return rest[0] if len(rest) == 1 else Scalar("mul", rest)
    return Scalar("mul", (rat(coeff),) + rest)


def sadd(*terms):
    """Sum with rational folding and like-term collection (``signed_sum``)."""
    return signed_sum([(1, t) for t in terms if t is not ZERO])


def signed_sum(units):
    """The sum of sign * term over (sign, term) units, sign +1 or -1 and no
    term ``ZERO``: folds the rationals and collects like terms, in the order
    of the units.  The one sign rule: a sum, or -1 times a sum (``sneg`` of
    a sum), adds the terms of that sum, each times the unit's sign and that
    -1; every other term, c * A for c other than 1 and -1 too, is one like
    term, but one that merges to c = 1 or -1 adds the terms of A, so no add
    node holds a sum or -1 times a sum, and a sum is ``ZERO`` exactly when
    its collected coefficients vanish, in any order of its units.  A lone
    unit is returned as it is, or negated: collecting it would build it
    again.  A negated term is built only where nothing combines with it."""
    if len(units) < 2:
        return ZERO if not units else units[0][1] if units[0][0] > 0 else sneg(units[0][1])
    # rest -> [coefficient, the term itself while it is the only one]
    const, collected = 0, {}
    while True:
        for sign, u in units:
            kind = u.kind
            if (kind == "mul" and u.args[0] is MINUS_ONE and len(u.args) == 2
                    and u.args[1].kind == "add"):
                sign, u, kind = -sign, u.args[1], "add"
            for t in (u.args if kind == "add" else (u,)):
                if t.kind == "rat":
                    const += sign * t.value
                    continue
                coeff, rest = _mul_split(t)
                entry = collected.get(rest)
                if entry is None:
                    collected[rest] = [sign * coeff, t if sign > 0 else None]
                else:
                    entry[0] += sign * coeff
                    entry[1] = None
        out = _sum_node(const, collected)
        if out is not None:
            return out
        units = [_pop_merged_sum(collected)]


def _sum_node(const_part, collected):
    """The sum of a rational and the collected terms, {rest: [coefficient,
    the term while it is the only one, else None]}, in insertion order; a
    term held as None is built from its coefficient, or dropped at zero.
    None where a merged term is +-1 * A for a sum A, which is to be spread."""
    out = []
    if const_part != 0:
        out.append(rat(const_part))
    for rest, (coeff, term) in collected.items():
        if term is None:
            if coeff == 0:
                continue
            if (coeff == 1 or coeff == -1) and len(rest) == 1 and rest[0].kind == "add":
                return None
            term = _make_term(coeff, rest)
        out.append(term)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Scalar("add", tuple(out))


def _pop_merged_sum(collected):
    """Take the largest merged +-1 * A of a sum A out of the collected terms,
    as the unit (+-1, A).  Spreading A changes only the coefficients of the
    smaller sums it holds multiples of: each sum spreads with its final one."""
    top = max((rest[0] for rest, (coeff, term) in collected.items() if term is None
               and (coeff == 1 or coeff == -1) and len(rest) == 1 and rest[0].kind == "add"),
              key=lambda a: _node_counts(a)[0])
    return collected.pop((top,))[0], top


def ssub(a, b):
    return signed_sum([u for u in ((1, a), (-1, b)) if u[1] is not ZERO])


def sneg(a):
    """-a, the tree of ``smul(MINUS_ONE, a)``: (* -1 A) for a sum A, spread when summed."""
    kind = a.kind
    if kind == "rat":
        return rat(-a.value)
    if kind == "mul":
        if a.args[0].kind == "rat":
            return _make_term(-a.args[0].value, a.args[1:])
        return Scalar("mul", (MINUS_ONE,) + a.args)
    return Scalar("mul", (MINUS_ONE, a))


def smul(*factors):
    """Product with rational folding.  A pair with a ZERO or ONE factor, or
    with no product factor, builds at once what folding it would build."""
    if len(factors) == 2:
        a, b = factors
        if a is ONE or b is ZERO:
            return b
        if b is ONE or a is ZERO:
            return a
        ka, kb = a.kind, b.kind
        if ka != "mul" and kb != "mul":
            if ka == "rat":
                return rat(a.value * b.value) if kb == "rat" else Scalar("mul", (rat(a.value), b))
            return Scalar("mul", (rat(b.value), a) if kb == "rat" else (a, b))
    return _collect_product(factors)


def _collect_product(factors):
    """The general product: folds the rationals into one leading coefficient
    and flattens nested products."""
    coeff = 1
    rest = []
    for f in factors:
        kind = f.kind
        if kind == "rat":
            coeff *= f.value
        elif kind == "mul":
            args = f.args
            if args[0].kind == "rat":
                coeff *= args[0].value
                rest.extend(args[1:])
            else:
                rest.extend(args)
        else:
            rest.append(f)
    if coeff == 0:
        return ZERO
    return _make_term(coeff, tuple(rest))


def sdiv(a, b):
    if b.is_zero():
        raise ZeroDivisionError("division by structural zero")
    if a.is_zero():
        return ZERO
    if b.kind == "rat":
        return smul(rat(1, b.value), a)
    if a == b:
        return ONE
    return Scalar("div", (a, b))


def spow(base, n):
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return base
    if base.kind == "rat":
        v = base.value
        return rat(v ** n if n > 0 else Fraction(v) ** n)
    return Scalar("pow", (base,), value=n)


def _func(kind, x):
    if x.kind == "rat":
        v = x.value
        if kind == "sin" and v == 0:
            return ZERO
        if kind == "cos" and v == 0:
            return ONE
        if kind == "exp" and v == 0:
            return ONE
        if kind == "log" and v == 1:
            return ZERO
        if kind == "sqrt" and v >= 0:
            if type(v) is int:
                root = math.isqrt(v)
            else:
                root = Fraction(math.isqrt(v.numerator), math.isqrt(v.denominator))
            if root * root == v:
                return rat(root)
    return Scalar(kind, (x,))


def ssin(x):
    return _func("sin", x)


def scos(x):
    return _func("cos", x)


def sexp(x):
    return _func("exp", x)


def slog(x):
    """Kept for the tests and ``perfbench/tracer.py``, which wraps it by name
    (ROADMAP item 8)."""
    return _func("log", x)


def ssqrt(x):
    return _func("sqrt", x)


# -- evaluation -----------------------------------------------------------------

def evaluate(expr, point):
    """Evaluate at a point assignment {var: float}.  IEEE double semantics.

    Raises EvaluationError for unbound variables and singular operations.
    """
    return evaluate_points((expr,), (point,))[0][0]


def evaluate_points(exprs, points):
    """Values of several expressions at several points: one list per
    expression, holding its value at each point in order.

    Each node of the expressions' DAG is visited once per call and computes
    its values at every point together, and each rational constant is
    converted to a float once.  The arithmetic is Python float arithmetic
    and ``math`` per element, so every value equals, bit for bit, the one
    that evaluating its point alone gives.  The memo behind the sharing is
    keyed by node identity and lives only for this call, while ``exprs``
    keeps every node alive, so no value can outlive the node it belongs to.

    Raises EvaluationError for an unbound variable or a singular operation:
    division by zero, log or sqrt out of its domain, or a non-finite value.
    The error names the first point, in order, at which evaluation fails,
    and is the error that evaluating that point alone raises.
    """
    exprs, points = tuple(exprs), tuple(points)
    if not points:
        return [[] for _ in exprs]
    memo = {}
    try:
        return [memo.get(id(e)) or _values(e, points, memo) for e in exprs]
    except _Singular as err:
        message, index = err.args
    # the walk stopped at the first node that fails at some point; a node
    # after it may fail at an earlier point, which then raises here
    if index:
        evaluate_points(exprs, points[:index])
    raise EvaluationError(message, index, points[index])


class _Singular(Exception):
    """(message, index of the first failing point) inside ``_values``."""


_OVERFLOW = "evaluation overflowed to a non-finite value"


def _raise_nonfinite(vals):
    """Raise _Singular for the first non-finite value, if there is one (a
    sum of finite values may overflow too)."""
    for i, v in enumerate(vals):
        if not isfinite(v):
            raise _Singular(_OVERFLOW, i)


def _overflow_index(fn, xs):
    """Position of the first x at which fn overflows."""
    for i, x in enumerate(xs):
        try:
            fn(x)
        except OverflowError:
            return i
    raise AssertionError("no value overflows")  # pragma: no cover


def _values(node, points, memo):
    """Values of ``node`` at every point, once stored in ``memo``; a stored
    list is never empty, so ``memo.get(...) or _values(...)`` reads it.

    Elementwise float operators and ``math`` functions are mapped over the
    points.  Only the arithmetic nodes and variables can make a finite input
    non-finite, so only they are checked."""
    kind = node.kind
    if kind == "rat":
        vals = [float(node.value)] * len(points)
    elif kind == "var":
        name = node.name
        try:
            vals = [float(p[name]) for p in points]
        except KeyError:
            raise _Singular(f"unbound variable {name!r}",
                            next(i for i, p in enumerate(points) if name not in p)) from None
        if not isfinite(sum(vals)):
            _raise_nonfinite(vals)
    elif kind == "const":
        vals = [_NAMED_CONSTANTS[node.name]] * len(points)
    elif kind == "mul" or kind == "add":
        op = _mul if kind == "mul" else _add
        vals = None
        for a in node.args:
            ys = memo.get(id(a)) or _values(a, points, memo)
            vals = ys if vals is None else list(map(op, vals, ys))
        if kind == "add" and 0.0 in vals:
            # the sum runs from 0.0, so it is never -0.0: 0.0 + -0.0 is 0.0
            vals = [0.0 + x for x in vals]
        if not isfinite(sum(vals)):
            _raise_nonfinite(vals)
    elif kind == "div":
        num, den = [memo.get(id(a)) or _values(a, points, memo) for a in node.args]
        if 0.0 in den:
            raise _Singular("singular evaluation: division by zero", den.index(0.0))
        vals = list(map(_truediv, num, den))
        if not isfinite(sum(vals)):
            _raise_nonfinite(vals)
    else:
        a = node.args[0]
        xs = memo.get(id(a)) or _values(a, points, memo)
        if kind == "sin":
            vals = list(map(math.sin, xs))
        elif kind == "cos":
            vals = list(map(math.cos, xs))
        elif kind == "pow":
            n = node.value
            if n < 0 and 0.0 in xs:
                raise _Singular("singular evaluation: zero to negative power",
                                xs.index(0.0))
            try:
                vals = [x ** n for x in xs]
            except OverflowError:
                raise _Singular(_OVERFLOW, _overflow_index(lambda x: x ** n, xs)) from None
        elif kind == "exp":
            try:
                vals = list(map(math.exp, xs))
            except OverflowError:
                raise _Singular(_OVERFLOW, _overflow_index(math.exp, xs)) from None
        elif kind == "log":
            if min(xs) <= 0.0:
                raise _Singular("singular evaluation: log of nonpositive value",
                                next(i for i, x in enumerate(xs) if x <= 0.0))
            vals = list(map(math.log, xs))
        elif kind == "sqrt":
            if min(xs) < 0.0:
                raise _Singular("singular evaluation: sqrt of negative value",
                                next(i for i, x in enumerate(xs) if x < 0.0))
            vals = list(map(math.sqrt, xs))
        else:  # pragma: no cover
            raise AssertionError(f"unknown node kind {kind}")
    memo[id(node)] = vals
    return vals


# -- differentiation -------------------------------------------------------------

def diff(expr, name):
    """Symbolic partial derivative with respect to variable ``name``.

    Each node keeps its derivatives in its ``_d`` cache, so a subexpression
    shared within or between expressions is differentiated once per variable.
    """
    return _diff(expr, name)


def _diff(node, name):
    kind = node.kind
    if kind == "var":
        return ONE if node.name == name else ZERO
    if kind in ("rat", "const"):
        return ZERO
    cache = node._d
    if cache is None:
        cache = node._d = {}
    else:
        got = cache.get(name)
        if got is not None:
            return got
    if kind == "add":
        out = sadd(*[_diff(a, name) for a in node.args])
    elif kind == "mul":
        args = node.args
        terms = []
        for i, a in enumerate(args):
            da = _diff(a, name)
            if da.is_zero():
                continue
            terms.append(smul(*(args[:i] + (da,) + args[i + 1:])))
        out = sadd(*terms) if terms else ZERO
    elif kind == "div":
        a, b = node.args
        da, db = _diff(a, name), _diff(b, name)
        out = sdiv(ssub(smul(da, b), smul(a, db)), spow(b, 2))
    elif kind == "pow":
        base, n = node.args[0], node.value
        out = smul(rat(n), spow(base, n - 1), _diff(base, name))
    elif kind == "sin":
        out = smul(scos(node.args[0]), _diff(node.args[0], name))
    elif kind == "cos":
        out = smul(MINUS_ONE, ssin(node.args[0]), _diff(node.args[0], name))
    elif kind == "exp":
        out = smul(node, _diff(node.args[0], name))
    elif kind == "log":
        out = sdiv(_diff(node.args[0], name), node.args[0])
    elif kind == "sqrt":
        out = sdiv(_diff(node.args[0], name), smul(rat(2), node))
    else:  # pragma: no cover
        raise AssertionError(f"unknown node kind {kind}")
    cache[name] = out
    return out


# -- sampling domain --------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Box of per-variable closed intervals."""

    intervals: dict

    def __post_init__(self):
        for name, (lo, hi) in self.intervals.items():
            if not lo < hi:
                raise ValueError(f"empty interior for variable {name!r}")

    def sample_many(self, rng, n):
        """n points, each variable drawn as lo + (hi - lo) u, the u from one
        ``rng.random(n * k)`` call for k variables: the rng consumes exactly
        the stream of one ``rng.uniform(lo, hi)`` per draw, bit for bit."""
        spec = [(name, float(lo), float(hi) - float(lo))
                for name, (lo, hi) in self.intervals.items()]
        u = iter(rng.random(n * len(spec)).tolist())
        return [{name: lo + span * next(u) for name, lo, span in spec} for _ in range(n)]

    def merge(self, other):
        both = dict(self.intervals)
        both.update(other.intervals)
        return Domain(both)


# -- complex scalars --------------------------------------------------------------

class CScalar:
    """Complex scalar with symbolic real and imaginary parts.

    Immutable by convention, like ``Scalar``; equality and hash are
    structural, on the pair of parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=ZERO, im=ZERO):
        self.re = re
        self.im = im

    def __eq__(self, other):
        if other.__class__ is not CScalar:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"CScalar(re={self.re!r}, im={self.im!r})"

    @staticmethod
    def of(x, y=0):
        if isinstance(x, CScalar):
            return x
        return CScalar(as_scalar(x), as_scalar(y))

    @staticmethod
    def one():
        return CScalar(ONE, ZERO)

    @staticmethod
    def i():
        return CScalar(ZERO, ONE)

    def is_zero(self):
        return self.re is ZERO and self.im is ZERO

    def conj(self):
        return CScalar(self.re, sneg(self.im))

    # The arithmetic skips every sum and product with a structurally zero
    # imaginary part.  Each shortcut builds what the general formula builds:
    # a product or sum with ZERO folds away, a product with one is the other
    # factor (``smul``), and the sum of one term is that term (``sadd``).

    def __add__(self, other):
        other = CScalar.of(other)
        if self.im is ZERO and other.im is ZERO:
            return CScalar(sadd(self.re, other.re), ZERO)
        return CScalar(sadd(self.re, other.re), sadd(self.im, other.im))

    __radd__ = __add__

    def __sub__(self, other):
        other = CScalar.of(other)
        if self.im is ZERO and other.im is ZERO:
            return CScalar(ssub(self.re, other.re), ZERO)
        return CScalar(ssub(self.re, other.re), ssub(self.im, other.im))

    def __neg__(self):
        if self.im is ZERO:
            return CScalar(sneg(self.re), ZERO)
        return CScalar(sneg(self.re), sneg(self.im))

    def __mul__(self, other):
        if other.__class__ is not CScalar:
            other = CScalar.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if c is ONE and d is ZERO:
            return self
        if b is ZERO:
            if d is ZERO:
                return CScalar(smul(a, c), ZERO)
            return CScalar(smul(a, c), smul(a, d))
        if d is ZERO:
            return CScalar(smul(a, c), smul(b, c))
        return CScalar(ssub(smul(a, c), smul(b, d)), sadd(smul(a, d), smul(b, c)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = CScalar.of(other)
        if other.im.is_zero():
            return CScalar(sdiv(self.re, other.re), sdiv(self.im, other.re))
        mod2 = sadd(smul(other.re, other.re), smul(other.im, other.im))
        num = self * other.conj()
        return CScalar(sdiv(num.re, mod2), sdiv(num.im, mod2))

    def evaluate(self, point):
        (re,), (im,) = evaluate_points((self.re, self.im), (point,))
        return complex(re, im)

    def variables(self):
        return self.re.variables() | self.im.variables()


CZERO = CScalar()    # immutable by convention: every missing entry shares it


# -- text serialization (prefix notation) ------------------------------------------

def scalar_to_text(node):
    kind = node.kind
    if kind == "rat":
        return str(node.value)
    if kind == "const":
        return node.name
    if kind == "var":
        return node.name
    if kind == "add":
        return "(+ " + " ".join(scalar_to_text(a) for a in node.args) + ")"
    if kind == "mul":
        return "(* " + " ".join(scalar_to_text(a) for a in node.args) + ")"
    if kind == "div":
        return f"(/ {scalar_to_text(node.args[0])} {scalar_to_text(node.args[1])})"
    if kind == "pow":
        return f"(^ {scalar_to_text(node.args[0])} {node.value})"
    if kind in _FUNC_KINDS:
        return f"({kind} {scalar_to_text(node.args[0])})"
    raise AssertionError(f"unknown node kind {kind}")  # pragma: no cover


# -- small dense symbolic linear algebra -------------------------------------------
# The section transform's fiber-block solve and the metric transport invert
# with ``sym_matrix_inverse``.  Sizes never exceed 4x4.

def solve_linear_symbolic(matrix, rhs):
    """Solve A x = rhs for symbolic entries as x = A^-1 rhs.  No package
    code calls it: it is kept for the tests and for ``perfbench/tracer.py``,
    which wraps it by name (ROADMAP item 8).

    For a rational A the inverse is exact rational, so each x_i is a
    rational combination of the rhs.
    """
    inv = sym_matrix_inverse(matrix)
    return [sadd(*[smul(inv[i][j], rhs[j]) for j in range(len(rhs))])
            for i in range(len(inv))]


def sym_det(matrix):
    n = len(matrix)
    if n == 0:
        return ONE
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return ssub(smul(matrix[0][0], matrix[1][1]), smul(matrix[0][1], matrix[1][0]))
    terms = []
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = smul(matrix[0][j], sym_det(minor))
        terms.append(term if j % 2 == 0 else sneg(term))
    return sadd(*terms)


def sym_matrix_inverse(matrix):
    """Adjugate inverse; entries are Scalars, sizes <= 4.  A structurally
    zero determinant raises ValueError."""
    n = len(matrix)
    det = sym_det(matrix)
    if det.is_zero():
        raise ValueError("matrix is singular: its determinant is structurally zero")
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[matrix[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = sym_det(minor)
            if (i + j) % 2 == 1:
                cof = sneg(cof)
            out[j][i] = sdiv(cof, det)
    return out
