"""Graded exterior algebra over a named coframe with complex symbolic coefficients.

Forms are sparse maps from generator-index bitmasks to CScalar coefficients.
Generators carry a tag (base / fiber / cofiber) so that fiber integration and
pullback along the two legs of a correspondence space are bitmask operations.
All operations are pure.  ``Form`` and ``FrameVector`` are ``__slots__``
classes, immutable by convention: no operation assigns to one after it is
built.  Each is a coframe and one coefficient dict: a form's by mask, a frame
vector's by generator index in ascending order (its dense ``components``
tuple is built on request).

``Form.coeffs`` never holds a structural zero (both parts the shared
``ZERO``): the constructor prunes them.  ``Form.__add__`` relies on this to
check only the masks it touches and to return the other operand for an empty
one; ``__neg__``, ``conj`` and ``component`` rely on it to skip the pruning
pass, as do ``Form.is_zero`` (an empty dict) and every caller that reads a
missing mask as zero; such a read returns the one shared ``CZERO``, which is
safe because CScalars are immutable by convention.  ``Form._pruned`` builds a form
from a dict that already keeps the invariant and is used in this module only.
``FrameVector.coeffs`` keeps the same invariant.

Every sum at a dict key in the package, CScalar or Scalar, goes through
``_accumulate`` (the certificate's residual collector, ``certify._sum``,
aside): c is added to the entry at its key, and a key whose sum cancels
structurally is deleted, so a later term for it lands at the end of the
dict.  A form or tensor built term by term is collected in one dict.  A term comes with a
sign, +1 or -1, that its call site reads off the data: -c is built only for
a new key, and an existing one gets prev - c, the tree of prev + (-c).

A ``Coframe`` keeps what it would otherwise re-derive on every call in its
instance dict, so that it dies with the coframe: the dimension, the name ->
index dict, and in ``Coframe.table`` the tag masks, each mask's (image, sign)
for ``map_to`` per target names, tags and rename, and each mask's (rest,
sign) for ``fiber_integrate``.  No table refers back to its coframe.  The
Clifford action (X + xi) . rho = i_X rho + xi ^ rho has one kernel,
``clifford``, on one sign table per m, ``frame_action(m)``; the interior
product is its vector half, which ``contract``, ``courant`` and the section
transform call, and ``act_row`` is one unscaled row of it, for the
certificate.  The form transform of a dual pair runs on a ``fiber_routes``
table it keeps.  Values at points have one evaluator, ``_eval_array`` on
``_value_array``, and point-free data one sampling rule, ``_sample``.
``bundle.DualityPair.cache`` is ``Coframe.table``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scalar import CZERO, CScalar, ZERO, evaluate_points, rat, scalar_to_text

__all__ = [
    "Coframe", "Form", "FrameVector",
    "wedge", "contract", "act_row", "clifford",
    "reversal", "mukai_pairing", "mukai_signs", "exp_form", "fiber_integrate",
    "strip_rightmost", "contract_sign", "frame_action", "fiber_routes",
    "integral_transform", "form_to_text",
]

TAGS = ("base", "fiber", "cofiber")


@dataclass(frozen=True)
class Coframe:
    """Ordered generator names with base/fiber/cofiber tags."""

    names: tuple
    tags: tuple

    def __post_init__(self):
        if len(self.names) != len(self.tags):
            raise ValueError("names and tags must align")
        if len(set(self.names)) != len(self.names):
            raise ValueError("generator names must be unique")
        for t in self.tags:
            if t not in TAGS:
                raise ValueError(f"unknown tag {t!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "dim", len(self.names))

    def __eq__(self, other):
        # forms and sections almost always compare a coframe with itself
        if self is other:
            return True
        if other.__class__ is not Coframe:
            return NotImplemented
        return self.names == other.names and self.tags == other.tags

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator {name!r} in coframe "
                             f"({' '.join(self.names)})") from None

    def mask_of(self, names):
        m = 0
        for n in names:
            m |= 1 << self.index(n)
        return m

    def names_of(self, mask):
        return tuple(n for i, n in enumerate(self.names) if mask >> i & 1)

    def table(self, key, build):
        """``build()``, kept under ``key`` in the owner's ``_tables`` dict by
        its first call, so that it dies with the owner (a coframe or a pair)."""
        got = self._tables.get(key)
        if got is None:
            got = self._tables[key] = build()
        return got

    def tag_mask(self, *tags):
        return self.table(("tags", tags), lambda: sum(
            1 << i for i, t in enumerate(self.tags) if t in tags))


def _wedge_sign(a, b):
    """Sign of e_a ^ e_b -> e_{a|b} for disjoint sorted index masks."""
    sign = 1
    bits_b = b
    while bits_b:
        low = bits_b & -bits_b
        # count generators of a strictly above this generator of b
        above = a & ~(low | (low - 1))
        if above.bit_count() % 2:
            sign = -sign
        bits_b &= bits_b - 1
    return sign


def contract_sign(mask, i):
    """Sign of removing generator i from e_mask by moving it to the front."""
    below = mask & ((1 << i) - 1)
    return -1 if below.bit_count() % 2 else 1


@functools.cache
def frame_action(m):
    """The Clifford action of the 2m frame sections (E_1..E_m, e^1..e^m) on
    the 2^m monomials: for each section s and each mask, (mask', sign) with
    s . e_mask = sign e_mask', or None where the action is zero.  E_k removes
    generator k (i_(E_k)) and e^k puts it in front (e^k ^), each with the
    sign of moving generator k to the front.  The one sign table of the
    interior product and the Clifford action (``clifford``); constant and
    shared per m."""
    masks = range(1 << m)
    vectors = [tuple([(mask ^ 1 << k, contract_sign(mask, k)) if mask >> k & 1 else None
                      for mask in masks]) for k in range(m)]
    covectors = [tuple([None if mask >> k & 1 else (mask | 1 << k, contract_sign(mask, k))
                        for mask in masks]) for k in range(m)]
    return tuple(vectors + covectors)


def strip_rightmost(mask, c, right):
    """Rewrite c e_mask as c' e_rest ^ e_right for a submask ``right`` of
    ``mask``; returns (rest, c')."""
    rest = mask & ~right
    return rest, (-c if _wedge_sign(rest, right) < 0 else c)


def _image(names, coframe):
    """(mask, sign) of n1 ^ n2 ^ ... on ``coframe``; sign 0 if a name repeats."""
    mask = 0
    sign = 1
    for n in names:
        bit = 1 << coframe.index(n)
        if mask & bit:
            return 0, 0
        sign *= _wedge_sign(mask, bit)
        mask |= bit
    return mask, sign


def _accumulate(out, key, c, sign=1):
    """Add sign * c to out[key] in a {key: CScalar} or {key: Scalar} dict,
    for a sign +1 or -1: -c is built only for a new key, and prev - c, the
    tree of prev + (-c), otherwise.  A key whose sum cancels structurally is
    deleted, so a later term for it lands at the end."""
    prev = out.get(key)
    if prev is None:
        out[key] = -c if sign < 0 else c
        return
    total = prev - c if sign < 0 else prev + c
    if total.is_zero():
        del out[key]
    else:
        out[key] = total


class Form:
    """Sparse multivector: {bitmask: CScalar}, structural zeros pruned."""

    __slots__ = ("coframe", "coeffs")

    def __init__(self, coframe, coeffs=None):
        self.coframe = coframe
        self.coeffs = pruned = {}
        for mask, c in (coeffs or {}).items():
            if c.re is not ZERO or c.im is not ZERO:
                pruned[mask] = c

    @classmethod
    def _pruned(cls, coframe, coeffs):
        """A form on ``coeffs`` as given: the caller guarantees that no
        coefficient is a structural zero."""
        form = object.__new__(cls)
        form.coframe = coframe
        form.coeffs = coeffs
        return form

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(coframe):
        return Form(coframe)

    @staticmethod
    def scalar(coframe, c):
        return Form(coframe, {0: CScalar.of(c)})

    @staticmethod
    def monomial(coframe, names, coeff=1):
        """coeff * n1 ^ n2 ^ ... with names listed in wedge order."""
        mask, sign = _image(names, coframe)
        if not sign:
            return Form(coframe)
        c = CScalar.of(coeff)
        return Form(coframe, {mask: -c if sign < 0 else c})

    # -- linear structure ----------------------------------------------------
    def __add__(self, other):
        """Sum; only a mask both operands hold can cancel (``_accumulate``)."""
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            _accumulate(out, mask, c)
        return Form._pruned(self.coframe, out)

    def __sub__(self, other):
        """Difference, collected as ``__add__`` collects ``self + (-other)``
        with no negated form built: -c only at a new mask, and prev - c, the
        tree of prev + (-c), at an existing one."""
        self._check(other)
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            _accumulate(out, mask, c, -1)
        return Form._pruned(self.coframe, out)

    def __neg__(self):
        return Form._pruned(self.coframe, {m: -c for m, c in self.coeffs.items()})

    def scale(self, c):
        c = CScalar.of(c)
        return Form(self.coframe, {m: v * c for m, v in self.coeffs.items()})

    def conj(self):
        return Form._pruned(self.coframe, {m: v.conj() for m, v in self.coeffs.items()})

    # -- queries ----------------------------------------------------------------
    def is_zero(self):
        return not self.coeffs

    def coeff(self, mask):
        return self.coeffs.get(mask, CZERO)

    def coeff_of(self, *names):
        return self.coeff(self.coframe.mask_of(names))

    def degrees(self):
        return sorted({m.bit_count() for m in self.coeffs})

    def max_degree(self):
        degs = self.degrees()
        return degs[-1] if degs else 0

    def component(self, degree):
        return Form._pruned(self.coframe, {m: c for m, c in self.coeffs.items()
                                           if m.bit_count() == degree})

    def top_component(self):
        return self.component(self.coframe.dim)

    def variables(self):
        out = set()
        for c in self.coeffs.values():
            out |= c.variables()
        return out

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        return self.coframe == other.coframe and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Form({form_to_text(self)})"

    # -- evaluation -----------------------------------------------------------
    def eval_coeffs(self, point):
        """{mask: complex} at a point."""
        return dict(zip(self.coeffs, _eval_array(self.coeffs.values(), (point,))[:, 0].tolist()))

    def eval_vector(self, point):
        """Dense complex vector of length 2^dim indexed by bitmask.  Kept for
        the tests and ``perfbench/tracer.py``, which wraps it by name
        (ROADMAP 1a)."""
        return self.eval_vectors((point,))[0]

    def eval_vectors(self, points):
        """``eval_vector`` at every point, one row each: (points, 2^dim),
        from one ``_eval_array`` call."""
        v = np.zeros((len(points), 1 << self.coframe.dim), dtype=complex)
        v[:, list(self.coeffs)] = _eval_array(self.coeffs.values(), points).T
        return v

    # -- moving between coframes --------------------------------------------------
    def map_to(self, coframe, rename=None):
        """Reinterpret on another coframe by generator name (pullback/pushdown).

        Every generator present in the form must map to a generator of the
        target coframe; relative order may change, signs follow.
        """
        rename = rename or {}
        images = self.coframe.table(
            ("map", coframe.names, coframe.tags, tuple(rename.items())), dict)
        out = {}
        for mask, c in self.coeffs.items():
            image = images.get(mask)
            if image is None:
                image = images[mask] = _image(
                    [rename.get(n, n) for n in self.coframe.names_of(mask)], coframe)
            m2, sign = image
            if sign:
                _accumulate(out, m2, c, sign)
        return Form(coframe, out)

    def _check(self, other):
        if self.coframe is not other.coframe and self.coframe != other.coframe:
            raise ValueError("coframe mismatch")


class FrameVector:
    """Element of the frame dual to the coframe: ``coeffs`` maps generator
    index to CScalar component, in ascending index, with no structural zero;
    the constructor sorts and prunes the dict it is given.  Equality and
    hash are structural."""

    __slots__ = ("coframe", "coeffs")

    def __init__(self, coframe, coeffs):
        self.coframe = coframe
        self.coeffs = {i: c for i, c in sorted(coeffs.items())
                       if c.re is not ZERO or c.im is not ZERO}

    @property
    def components(self):
        """The dense tuple of the dim components, ``CZERO`` where none is kept."""
        get = self.coeffs.get
        return tuple([get(i, CZERO) for i in range(self.coframe.dim)])

    def __eq__(self, other):
        if other.__class__ is not FrameVector:
            return NotImplemented
        return self.coframe == other.coframe and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coframe, self.components))

    def __repr__(self):
        return f"FrameVector(coframe={self.coframe!r}, components={self.components!r})"

    @staticmethod
    def basis(coframe, name):
        return FrameVector(coframe, {coframe.index(name): CScalar.one()})

    @staticmethod
    def zero(coframe):
        return FrameVector(coframe, {})

    def __add__(self, other):
        if self.coframe is not other.coframe and self.coframe != other.coframe:
            raise ValueError("coframe mismatch")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            _accumulate(out, i, c)
        return FrameVector(self.coframe, out)

    def __neg__(self):
        return FrameVector(self.coframe, {i: -a for i, a in self.coeffs.items()})

    def scale(self, c):
        c = CScalar.of(c)
        return FrameVector(self.coframe, {i: a * c for i, a in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def eval_vector(self, point):
        """Kept for the tests and ``perfbench/tracer.py``, which wraps it by
        name (ROADMAP 1a)."""
        return _eval_array(self.components, (point,))[:, 0]


def _value_array(exprs, points):
    """``evaluate_points`` of a list of Scalars as an (exprs, points) float
    array: the one evaluator that the package calls outside ``scalar.py``."""
    return np.array(evaluate_points(exprs, points), dtype=float).reshape(len(exprs), len(points))


def _eval_array(cscalars, points):
    """Complex values of CScalars as a (CScalars, points) array, from one
    ``_value_array`` over their real and imaginary parts: bit for bit
    ``complex(x, y)``.  ``.tolist()`` gives Python complex values."""
    parts = _value_array([s for c in cscalars for s in (c.re, c.im)], points)
    out = np.empty((len(parts) // 2, len(points)), dtype=complex)
    out.real, out.imag = parts[0::2], parts[1::2]
    return out


def _sample(scalars, points):
    """The points at which to evaluate data that depends only on ``scalars``
    (Scalars or CScalars): ``points[:1]`` when there are two or more points
    and none of them names a variable, else ``points``.  Point-free values
    are bit for bit the same at every point, and so is anything computed
    from them alone, so the pointwise layer decomposes a stack of one and
    repeats or broadcasts the result.  Each distinct object is asked once:
    zero coefficients are mostly the one shared ``CZERO``."""
    if len(points) > 1 and not any(c.variables() for c in {id(c): c for c in scalars}.values()):
        return points[:1]
    return points


# -- products and actions -----------------------------------------------------------

def wedge(a, b):
    """Graded anticommutative product."""
    a._check(b)
    out = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            if ma & mb:
                continue
            _accumulate(out, ma | mb, ca * cb, _wedge_sign(ma, mb))
    return Form(a.coframe, out)


def contract(x, form):
    """Interior product i_X, a degree -1 antiderivation: the vector half of
    ``clifford``, on X's nonzero components only."""
    if x.coframe is not form.coframe and x.coframe != form.coframe:
        raise ValueError("coframe mismatch")
    return Form._pruned(form.coframe, clifford(frame_action(form.coframe.dim),
                                               x.coeffs, form.coeffs))


def act_row(row, coeffs):
    """The frame section of action row ``row`` on the form ``coeffs``, as a
    {mask: CScalar} dict (distinct masks have distinct images), each
    coefficient signed."""
    out = {}
    for mask, c in coeffs.items():
        hit = row[mask]
        if hit is not None:
            out[hit[0]] = c if hit[1] > 0 else -c
    return out


def clifford(table, coords, coeffs):
    """(X + xi) . rho = i_X rho + xi ^ rho for the section's coordinate dict
    ``coords`` (X_k at k, xi_k at m + k) and the form ``coeffs``, on the
    action table ``frame_action(m)``: each coordinate times the coefficients
    its row hits, X_k on the right as in the interior product and xi_k on
    the left as in ``wedge``, signed and accumulated in coordinate order.
    Only the given coordinates' rows are read.  No structural zero is
    returned: the inputs hold none, a product of nonzero CScalars is never
    one, and ``_accumulate`` deletes a sum that cancels."""
    m, out = len(table) // 2, {}
    for k, a in coords.items():
        row, left = table[k], k >= m
        for mask, c in coeffs.items():
            hit = row[mask]
            if hit is not None:
                _accumulate(out, hit[0], a * c if left else c * a, hit[1])
    return out


def _reversal_sign(mask):
    """(-1)^(k(k-1)/2) for a basis form e_mask of degree k."""
    k = mask.bit_count()
    return -1 if (k * (k - 1) // 2) % 2 else 1


def reversal(rho):
    """Reverse the order of factors: degree-k part picks up (-1)^(k(k-1)/2)."""
    out = {}
    for mask, c in rho.coeffs.items():
        out[mask] = -c if _reversal_sign(mask) < 0 else c
    return Form(rho.coframe, out)


def mukai_pairing(a, b):
    """Top-degree component of reversal(a) ^ b."""
    return wedge(reversal(a), b).top_component()


@functools.cache
def mukai_signs(m):
    """The Mukai pairing of basis forms on m generators: the tuple, indexed
    by mask, of (mask, complementary mask, sign) with
    mukai_pairing(e_mask, e_comp) = sign * e_1 ^ ... ^ e_m.  The sign is the
    reversal sign of e_mask times the wedge sign, the two signs that
    ``mukai_pairing`` applies; the table is constant and shared per m."""
    full = (1 << m) - 1
    return tuple((mask, full ^ mask, _reversal_sign(mask) * _wedge_sign(mask, full ^ mask))
                 for mask in range(1 << m))


def exp_form(b):
    """Truncated exponential of an even form of degree >= 2 (exact: nilpotent)."""
    for d in b.degrees():
        if d % 2 or d == 0:
            raise ValueError("exponent must be a sum of even-degree components of degree >= 2")
    out = Form.scalar(b.coframe, 1)
    power = Form.scalar(b.coframe, 1)
    factorial = 1
    for j in range(1, b.coframe.dim // 2 + 1):
        power = wedge(power, b)
        if power.is_zero():
            break
        factorial *= j
        out = out + power.scale(rat(1, factorial))
    return out


def fiber_integrate(rho, coframe_tags=("fiber",)):
    """Integrate over the unit-volume torus fibers tagged by ``coframe_tags``.

    Convention: each term is rewritten as alpha ^ theta_1 ^ ... ^ theta_k with
    the full fiber volume rightmost and alpha free of fiber generators; the
    term integrates to alpha.  Terms missing any fiber generator integrate to
    zero.  Invariance of coefficients is implicit: coefficients are functions
    of base variables only.
    """
    cof = rho.coframe
    vol = cof.tag_mask(*coframe_tags)
    strips = cof.table(("strip", vol), lambda: {    # (rest, sign) of each mask
        mask: (mask & ~vol, _wedge_sign(mask & ~vol, vol))
        for mask in range(1 << cof.dim) if mask & vol == vol})
    out = {}
    for mask, c in rho.coeffs.items():
        rest, sign = strips.get(mask, (0, 0))
        if sign:
            _accumulate(out, rest, c, sign)
    return Form(cof, out)


# -- route kernels: the transforms of a dual pair on plain dicts ------------------------

def fiber_routes(kernel, source, target, tags):
    """An empty route table of ``integral_transform``, filled on first use:
    ``rows[I]`` is the pull sign of e_I and, per kernel term k, the (target
    mask, wedge sign) of e_k ^ e_I, or None where they overlap, lack the full
    fiber volume or have no image; ``ends[J]`` is J's (strip, push) signs."""
    return kernel, source, target, kernel.coframe.tag_mask(*tags), {}, {}


def integral_transform(rho, routes):
    """``fiber_integrate(wedge(kernel, rho.map_to(kernel.coframe)), tags)
    .map_to(target)`` in one pass, with the same keys, order and trees: the
    maps are injective, so terms group at the target mask as ``wedge`` groups
    them, and the strip and push signs follow the sum as one negation each."""
    kernel, source, target, _, rows, ends = routes
    if rho.coframe is not source and rho.coframe != source:
        raise ValueError("coframe mismatch")
    lifted = []
    for mask, c in rho.coeffs.items():
        pull, row = rows.get(mask) or _route(routes, mask)
        lifted.append((row, -c if pull < 0 else c))
    out = {}
    for k, ca in enumerate(kernel.coeffs.values()):
        for row, c in lifted:
            hit = row[k]
            if hit is not None:
                _accumulate(out, hit[0], ca * c, hit[1])
    result = {}
    for j, c in out.items():
        if c.re is not ZERO or c.im is not ZERO:
            strip, push = ends[j]
            if strip < 0:
                c = -c
            result[j] = -c if push < 0 else c
    return Form._pruned(target, result)


def _route(routes, mask):
    """Add the ``rows`` entry of source mask ``mask`` (see ``fiber_routes``)."""
    kernel, source, target, vol, rows, ends = routes
    cof = kernel.coframe
    pulled, pull = _image(source.names_of(mask), cof)
    row = []
    for ma in kernel.coeffs:
        m = ma | pulled
        rest = m & ~vol
        j, push = (_image(cof.names_of(rest), target) if not ma & pulled and m & vol == vol
                   else (0, 0))
        if push:
            ends[j] = (_wedge_sign(rest, vol), push)
        row.append((j, _wedge_sign(ma, pulled)) if push else None)
    rows[mask] = route = (pull, tuple(row))
    return route


# -- text serialization ---------------------------------------------------------------
# A form is a sum of terms "{sexpr} g1^g2^..." joined by " + " (degree 0 uses
# "1" for the generator list); complex coefficients use the (cplx re im) head.

def _cs_to_text(c):
    if c.im.is_zero():
        return scalar_to_text(c.re)
    return f"(cplx {scalar_to_text(c.re)} {scalar_to_text(c.im)})"


def form_to_text(form):
    if form.is_zero():
        return "0 1"
    parts = []
    for mask in sorted(form.coeffs, key=lambda m: (m.bit_count(), m)):
        names = form.coframe.names_of(mask)
        gens = "^".join(names) if names else "1"
        parts.append(f"{_cs_to_text(form.coeffs[mask])} {gens}")
    return " + ".join(parts)
