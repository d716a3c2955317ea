"""Exact symbolic scalars over named real variables.

Expression trees with rational constants, the named constant pi, and the
elementary functions sin, cos, exp, log, sqrt.  These carry every coefficient
function in the package.  There is no canonical simplification: equality of
scalars is decided numerically by sampling a domain box with a seeded RNG
(``equal_numeric``).  Construction applies only cheap local folding (rational
arithmetic, dropping zeros/ones, collecting like terms with rational
coefficients) so that exact cancellations such as ``g - g`` produce a
structural zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "Scalar", "CScalar", "Domain", "EvaluationError", "SamplingError",
    "rat", "const", "var", "sadd", "smul", "sdiv", "spow", "sneg", "ssub",
    "ssin", "scos", "sexp", "slog", "ssqrt", "as_scalar",
    "ZERO", "ONE", "MINUS_ONE", "PI",
    "diff", "evaluate", "evaluate_all", "equal_numeric",
    "scalar_to_text", "scalar_from_text",
    "solve_linear_symbolic", "sym_matrix_inverse", "sym_det",
]

_NAMED_CONSTANTS = {"pi": math.pi}

_LEAF_KINDS = ("rat", "const", "var")
_FUNC_KINDS = ("sin", "cos", "exp", "log", "sqrt")


class EvaluationError(ValueError):
    """Unbound variable or singular evaluation (zero division, bad log/sqrt)."""


class SamplingError(RuntimeError):
    """Domain sampling could not avoid the excluded sets."""


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

    Construction keeps two invariants that ``sadd`` and ``smul`` rely on: an
    add node has no add argument, a mul node no mul argument, and a rat
    argument of either, if any, is the single leading one.
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

    def __ne__(self, other):
        res = self.__eq__(other)
        return res if res is NotImplemented else not res

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
        return f"Scalar({scalar_to_text(self)})"

    # -- queries --------------------------------------------------------------
    def is_zero(self):
        return self.kind == "rat" and self.value == 0

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
        return rat(Fraction(x).limit_denominator(10**12))
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
    """Sum with rational folding and like-term collection."""
    # rest -> [coefficient, the term itself while it is the only one]
    collected = {}
    const_part = 0
    for t in terms:
        for u in (t.args if t.kind == "add" else (t,)):
            if u.kind == "rat":
                const_part += u.value
                continue
            coeff, rest = _mul_split(u)
            entry = collected.get(rest)
            if entry is None:
                collected[rest] = [coeff, u]
            else:
                entry[0] += coeff
                entry[1] = None
    out = []
    if const_part != 0:
        out.append(rat(const_part))
    for rest, (coeff, term) in collected.items():
        if term is None:
            if coeff == 0:
                continue
            term = _make_term(coeff, rest)
        out.append(term)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    return Scalar("add", tuple(out))


def ssub(a, b):
    return sadd(a, sneg(b))


def sneg(a):
    return smul(MINUS_ONE, a)


def smul(*factors):
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
    return _func("log", x)


def ssqrt(x):
    return _func("sqrt", x)


# -- evaluation -----------------------------------------------------------------

def evaluate(expr, point):
    """Evaluate at a point assignment {var: float}.  IEEE double semantics.

    Raises EvaluationError for unbound variables and singular operations.
    """
    return _eval(expr, point, {})


def evaluate_all(exprs, point):
    """Values of several expressions at one point, as a list.

    Subexpressions shared between the expressions are evaluated once.  The
    memo behind the sharing is keyed by node identity and lives only for this
    call, while ``exprs`` keeps every node alive, so no cached value can
    outlive the node it belongs to.
    """
    memo = {}
    return [_eval(e, point, memo) for e in exprs]


def _eval(node, point, memo):
    got = memo.get(id(node))
    if got is not None:
        return got
    kind = node.kind
    if kind == "rat":
        val = float(node.value)
    elif kind == "const":
        val = _NAMED_CONSTANTS[node.name]
    elif kind == "var":
        try:
            val = float(point[node.name])
        except KeyError:
            raise EvaluationError(f"unbound variable {node.name!r}") from None
    elif kind == "add":
        val = 0.0
        for a in node.args:
            val += _eval(a, point, memo)
    elif kind == "mul":
        val = 1.0
        for a in node.args:
            val *= _eval(a, point, memo)
    elif kind == "div":
        num = _eval(node.args[0], point, memo)
        den = _eval(node.args[1], point, memo)
        if den == 0.0:
            raise EvaluationError("singular evaluation: division by zero")
        val = num / den
    elif kind == "pow":
        base = _eval(node.args[0], point, memo)
        n = node.value
        if base == 0.0 and n < 0:
            raise EvaluationError("singular evaluation: zero to negative power")
        val = base ** n
    elif kind == "sin":
        val = math.sin(_eval(node.args[0], point, memo))
    elif kind == "cos":
        val = math.cos(_eval(node.args[0], point, memo))
    elif kind == "exp":
        val = math.exp(_eval(node.args[0], point, memo))
    elif kind == "log":
        x = _eval(node.args[0], point, memo)
        if x <= 0.0:
            raise EvaluationError("singular evaluation: log of nonpositive value")
        val = math.log(x)
    elif kind == "sqrt":
        x = _eval(node.args[0], point, memo)
        if x < 0.0:
            raise EvaluationError("singular evaluation: sqrt of negative value")
        val = math.sqrt(x)
    else:  # pragma: no cover
        raise AssertionError(f"unknown node kind {kind}")
    if not math.isfinite(val):
        raise EvaluationError("evaluation overflowed to a non-finite value")
    memo[id(node)] = val
    return val


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
    """Box of per-variable closed intervals, with excluded hyperplanes.

    ``exclusions`` is a tuple of (variable, value, radius): samples keep
    |x - value| > radius, which guards poles on coordinate hyperplanes.
    """

    intervals: dict
    exclusions: tuple = ()

    def __post_init__(self):
        for name, (lo, hi) in self.intervals.items():
            if not lo < hi:
                raise ValueError(f"empty interior for variable {name!r}")

    @property
    def variables(self):
        return tuple(self.intervals)

    def sample(self, rng):
        """One interior point avoiding all exclusions (200 draws per variable)."""
        point = {}
        for name, (lo, hi) in self.intervals.items():
            excl = [(v, r) for (n, v, r) in self.exclusions if n == name]
            for _ in range(200):
                x = float(rng.uniform(lo, hi))
                if all(abs(x - v) > r for v, r in excl):
                    point[name] = x
                    break
            else:
                raise SamplingError(f"cannot sample variable {name!r} outside exclusions")
        return point

    def sample_many(self, rng, n):
        return [self.sample(rng) for _ in range(n)]

    def merge(self, other):
        both = dict(self.intervals)
        both.update(other.intervals)
        return Domain(both, tuple(self.exclusions) + tuple(other.exclusions))


def equal_numeric(a, b, domain, seed=0):
    """Probabilistic equality: |a(p) - b(p)| <= 1e-9 * (1 + |a(p)|) at 16
    points drawn from the domain with the seeded RNG."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        p = domain.sample(rng)
        va = evaluate(a, p)
        vb = evaluate(b, p)
        if abs(va - vb) > 1e-9 * (1.0 + abs(va)):
            return False
    return True


# -- complex scalars --------------------------------------------------------------

@dataclass(frozen=True)
class CScalar:
    """Complex scalar with symbolic real and imaginary parts."""

    re: Scalar = field(default=ZERO)
    im: Scalar = field(default=ZERO)

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
        return self.re.is_zero() and self.im.is_zero()

    def conj(self):
        return CScalar(self.re, sneg(self.im))

    def __add__(self, other):
        other = CScalar.of(other)
        return CScalar(sadd(self.re, other.re), sadd(self.im, other.im))

    __radd__ = __add__

    def __sub__(self, other):
        other = CScalar.of(other)
        return CScalar(ssub(self.re, other.re), ssub(self.im, other.im))

    def __neg__(self):
        return CScalar(sneg(self.re), sneg(self.im))

    def __mul__(self, other):
        other = CScalar.of(other)
        a, b, c, d = self.re, self.im, other.re, other.im
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
        return complex(*evaluate_all((self.re, self.im), point))

    def variables(self):
        return self.re.variables() | self.im.variables()


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


def _tokenize(text):
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _token(tokens, pos):
    if pos >= len(tokens):
        raise ValueError("unexpected end of text")
    return tokens[pos]


def _parse_tokens(tokens, pos):
    tok = _token(tokens, pos)
    if tok == "(":
        head = _token(tokens, pos + 1)
        args = []
        pos += 2
        while _token(tokens, pos) != ")":
            node, pos = _parse_tokens(tokens, pos)
            args.append(node)
        pos += 1
        if head == "+":
            return sadd(*args), pos
        if head == "*":
            return smul(*args), pos
        if head == "/":
            return sdiv(*args), pos
        if head == "^":
            if args[1].kind != "rat" or args[1].value.denominator != 1:
                raise ValueError("power exponent must be an integer")
            return spow(args[0], int(args[1].value)), pos
        if head == "sin":
            return ssin(*args), pos
        if head == "cos":
            return scos(*args), pos
        if head == "exp":
            return sexp(*args), pos
        if head == "log":
            return slog(*args), pos
        if head == "sqrt":
            return ssqrt(*args), pos
        raise ValueError(f"unknown operator {head!r}")
    if tok == ")":
        raise ValueError("unbalanced parenthesis")
    # atom: exact number (integer, ratio, decimal), named constant, or variable
    try:
        return rat(Fraction(tok)), pos + 1
    except (ValueError, ZeroDivisionError):
        pass
    if tok in _NAMED_CONSTANTS:
        return const(tok), pos + 1
    if tok.isidentifier():
        return var(tok), pos + 1
    raise ValueError(f"cannot parse atom {tok!r} in scalar text")


def scalar_from_text(text):
    tokens = _tokenize(text)
    node, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise ValueError(f"trailing tokens in scalar text: {' '.join(tokens[pos:])}")
    return node


# -- small dense symbolic linear algebra -------------------------------------------
# Used for the fiber-block solve of the section transform and for rewriting
# transported metric graphs.  Sizes never exceed 4x4.

def solve_linear_symbolic(matrix, rhs):
    """Solve A x = rhs for symbolic entries as x = A^-1 rhs.

    For a rational A (the common case: unimodular fiber blocks) the inverse
    is exact rational, so each x_i is a rational combination of the rhs.
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
