"""Chart models of principal torus bundles with connection and invariant flux.

A chart is a coordinate box on the base together with a coframe
{dx^a, theta_i} obeying the structure equations d(dx^a) = 0 and
d(theta_i) = c_i for closed basic curvature 2-forms c_i.  The flux H is an
invariant closed 3-form with no component along two fiber directions
(zero holonomy), which is exactly the condition under which a dual chart
exists.  A duality pair glues a chart and its dual over the shared base into
the correspondence chart, which carries the 2-form F realizing dF = H - Ht.

Coefficients are differentiated along the base by ``_partials`` (for d and
the frame bracket) and forms split along their fiber legs by
``split_fiber_legs``; ``DualityPair.cache`` is ``Coframe.table``.

Frame conventions used throughout the package: the frame dual to the coframe
consists of horizontal lifts E_a of the base coordinate fields plus the fiber
generators E_theta.  The structure equations fix their brackets, since
e^b([X, Y]) = X(Y^b) - Y(X^b) - (d e^b)(X, Y): [E_a, E_b] =
-sum_i c_i(E_a, E_b) E_theta_i, and fiber generators are central
(courant.courant_brackets reads d e^b off these structure equations).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import CScalar, Domain, MINUS_ONE, ZERO, diff
from .exterior import (Coframe, Form, _accumulate, _eval_array, _sample, _value_array,
                       _wedge_sign, contract_sign, strip_rightmost, wedge)

__all__ = [
    "BundleChart", "DualityPair", "base_generator", "dual_fiber_name",
    "exterior_derivative", "twisted_derivative",
    "split_fiber_legs", "split_flux", "build_dual_chart",
    "validate_chart", "validate_pair", "ChartReport", "PairReport",
    "standard_correspondence_flux", "form_residual", "block_values",
]


def base_generator(varname):
    return "d" + varname


@dataclass(frozen=True)
class BundleChart:
    """Single-box chart of a principal T^k bundle with connection and flux."""

    name: str
    base_vars: tuple
    domain: Domain
    coframe: Coframe
    curvature: dict          # fiber generator name -> basic closed 2-form
    flux: Form               # invariant 3-form H

    def __post_init__(self):
        cof = self.coframe
        expected = tuple(base_generator(v) for v in self.base_vars)
        base_names = tuple(n for n, t in zip(cof.names, cof.tags) if t == "base")
        if base_names != expected:
            raise ValueError("base generators must be d<var> in base-variable order")
        for gen in self.curvature:
            if cof.tags[cof.index(gen)] == "base":
                raise ValueError("curvature is attached to fiber generators only")
        # what d and the frame bracket read on every call: (variable, index,
        # bit) of each base generator, and the nonzero curvatures by index
        object.__setattr__(self, "fiber_names", tuple(
            n for n, t in zip(cof.names, cof.tags) if t == "fiber"))
        object.__setattr__(self, "base_bits", tuple(
            (v, i, 1 << i) for v, i in zip(self.base_vars, map(cof.index, expected))))
        object.__setattr__(self, "curved", dict(sorted(
            (cof.index(n), c) for n, c in self.curvature.items() if c.coeffs)))

    @property
    def k(self):
        return len(self.fiber_names)

    def curvature_of(self, gen):
        return self.curvature.get(gen, Form.zero(self.coframe))

    @staticmethod
    def build(name, bases, fibers, curvature=None, flux=None):
        """Assemble a chart; ``bases`` is a list of (var, lo, hi)."""
        base_names = tuple(base_generator(v) for v, _, _ in bases)
        names = base_names + tuple(fibers)
        tags = ("base",) * len(bases) + ("fiber",) * len(fibers)
        cof = Coframe(names, tags)
        domain = Domain({v: (lo, hi) for v, lo, hi in bases})
        curv = {}
        if curvature:
            for gen, maker in curvature.items():
                curv[gen] = maker(cof) if callable(maker) else maker
        fl = flux(cof) if callable(flux) else flux
        return BundleChart(name, tuple(v for v, _, _ in bases), domain, cof,
                           curv, fl if fl is not None else Form.zero(cof))


# -- differential ------------------------------------------------------------------

def _partials(c, bases, skip=0):
    """The derivatives of a coefficient along the base, {bit: d_v c} for the
    ``base_bits`` entries (variable, index, bit) of ``bases`` whose bit is not
    in the mask ``skip``, in base order, structural zeros left out."""
    out = {}
    for v, _, bit in bases:
        if bit & skip:
            continue
        dre = diff(c.re, v)
        dim = diff(c.im, v)
        if dre.is_zero() and dim.is_zero():
            continue
        out[bit] = CScalar(dre, dim)
    return out


def exterior_derivative(rho, chart):
    """Structure-equation d: d(dx^a)=0, d(theta_i)=c_i, Leibniz on coefficients.

    One pass into one {mask: CScalar} dict.  For each term c e_I of rho, in
    order: the terms d_v c dx^v ^ e_I in base-variable order, then the
    curvature terms c_i ^ (e_I without theta_i), signed, in generator order.
    """
    if rho.coframe != chart.coframe:
        raise ValueError("coframe mismatch")
    cof = chart.coframe
    out = {}
    for mask, c in rho.coeffs.items():
        for bit, term in _partials(c, chart.base_bits, mask).items():
            _accumulate(out, bit | mask, term, _wedge_sign(bit, mask))
        # Leibniz over generators; d(gen) is even so it moves freely to the front
        for i, dgen in chart.curved.items():
            if not mask >> i & 1:
                continue
            rest = mask & ~(1 << i)
            sign = contract_sign(mask, i)
            # each sign is its own negation and a product that cancels is
            # dropped, as in wedge(c_i, c e_rest) negated: the same trees
            for m, cg in dgen.coeffs.items():
                if m & rest:
                    continue
                term = cg * c
                if _wedge_sign(m, rest) < 0:
                    term = -term
                if term.is_zero():
                    continue
                _accumulate(out, m | rest, term, sign)
    return Form(cof, out)


def twisted_derivative(rho, chart):
    """d_H rho = d rho + H ^ rho."""
    return exterior_derivative(rho, chart) + wedge(chart.flux, rho)


# -- flux splitting and the dual chart ----------------------------------------------

def _check_zero_holonomy(chart):
    fiber_mask = chart.coframe.tag_mask("fiber")
    for mask in chart.flux.coeffs:
        if (mask & fiber_mask).bit_count() >= 2:
            return False
    return True


def split_fiber_legs(form, chart):
    """Write a form with at most one fiber leg per term as
    sum_i alpha_i ^ theta_i + beta, alpha_i and beta basic: each term's fiber
    leg is moved rightmost by ``strip_rightmost``.  Returns ({fiber
    generator: alpha_i}, beta)."""
    cof = chart.coframe
    fibers = cof.tag_mask("fiber")
    alpha = {gen: {} for gen in chart.fiber_names}
    beta = {}
    for mask, c in form.coeffs.items():
        if not mask & fibers:
            beta[mask] = c
            continue
        i = (mask & fibers).bit_length() - 1
        rest, term = strip_rightmost(mask, c, 1 << i)
        alpha[cof.names[i]][rest] = term    # distinct masks leave distinct rests
    return {gen: Form(cof, a) for gen, a in alpha.items()}, Form(cof, beta)


def split_flux(chart):
    """Write H = sum_i ct_i ^ theta_i + h with ct_i, h basic.

    Returns ({fiber generator: ct_i}, h).  Requires zero holonomy.
    """
    if not _check_zero_holonomy(chart):
        raise ValueError("flux violates zero holonomy: a component has two fiber legs")
    return split_fiber_legs(chart.flux, chart)


def dual_fiber_name(name):
    return name + "t"


def build_dual_chart(chart):
    """Construct the dual chart.

    The dual carries curvature ct_i from the flux splitting and flux
    Ht = sum_i c_i ^ thetat_i + h, so that the standard correspondence form
    F = -sum_i theta_i ^ thetat_i satisfies dF = H - Ht structurally.
    """
    ct, h = split_flux(chart)
    dual_fibers = tuple(dual_fiber_name(n) for n in chart.fiber_names)
    dual_cof = Coframe(
        tuple(base_generator(v) for v in chart.base_vars) + dual_fibers,
        ("base",) * len(chart.base_vars) + ("fiber",) * len(dual_fibers))
    dual_curv = {dual_fiber_name(n): ct[n].map_to(dual_cof) for n in chart.fiber_names}
    flux_t = h.map_to(dual_cof)
    for n in chart.fiber_names:
        c_n = chart.curvature_of(n).map_to(dual_cof)
        flux_t = flux_t + wedge(c_n, Form.monomial(dual_cof, (dual_fiber_name(n),)))
    return BundleChart(chart.name + "~", chart.base_vars, chart.domain,
                       dual_cof, dual_curv, flux_t)


def standard_correspondence_flux(total_coframe, chart, dual):
    """F = -sum_i theta_i ^ thetat_i on the correspondence coframe."""
    coeffs = {}
    for n in chart.fiber_names:
        coeffs.update(Form.monomial(total_coframe, (n, dual_fiber_name(n)), MINUS_ONE).coeffs)
    return Form(total_coframe, coeffs)


def _correspondence_chart(chart, dual):
    """The fiber product over the shared base: base, fiber and cofiber
    generators, both curvatures, and flux the pullback of H."""
    if chart.base_vars != dual.base_vars:
        raise ValueError("charts must share the base")
    base = tuple(base_generator(v) for v in chart.base_vars)
    names = base + chart.fiber_names + dual.fiber_names
    tags = (("base",) * len(base) + ("fiber",) * len(chart.fiber_names)
            + ("cofiber",) * len(dual.fiber_names))
    cof = Coframe(names, tags)
    curv = {n: chart.curvature_of(n).map_to(cof) for n in chart.fiber_names}
    curv.update({n: dual.curvature_of(n).map_to(cof) for n in dual.fiber_names})
    return BundleChart(f"{chart.name}x{dual.name}", chart.base_vars,
                       chart.domain.merge(dual.domain), cof, curv,
                       chart.flux.map_to(cof))


@dataclass(frozen=True)
class DualityPair:
    """A chart and its dual glued over the shared base: the correspondence
    chart ``total`` carrying the 2-form ``F``."""

    chart: BundleChart
    dual: BundleChart
    total: BundleChart         # combined coframe; flux is the pullback of H
    F: Form

    @staticmethod
    def from_chart(chart):
        """The dual chart with the standard correspondence form."""
        return DualityPair.from_charts(chart, build_dual_chart(chart),
                                       standard_correspondence_flux)

    @staticmethod
    def from_charts(chart, dual, flux_maker):
        """``flux_maker(total_coframe, chart, dual)`` returns F."""
        total = _correspondence_chart(chart, dual)
        return DualityPair(chart, dual, total, flux_maker(total.coframe, chart, dual))

    @property
    def k(self):
        return self.chart.k

    def swap(self):
        """The same duality read from the dual side: F changes sign and the
        fiber/cofiber roles are exchanged."""
        total = _correspondence_chart(self.dual, self.chart)
        return DualityPair(self.dual, self.chart, total, (-self.F).map_to(total.coframe))

    def pull(self, rho):
        """Pull a form on either chart back to the correspondence."""
        return rho.map_to(self.total.coframe)

    def flux_difference_residual(self):
        """p*H - pt*Ht - dF as a form on the correspondence."""
        lhs = self.pull(self.chart.flux) - self.pull(self.dual.flux)
        return lhs - exterior_derivative(self.F, self.total)

    def __post_init__(self):
        if any(c.im is not ZERO for c in self.F.coeffs.values()):
            raise ValueError("correspondence form must be real")
        if any(mask.bit_count() != 2 for mask in self.F.coeffs):
            raise ValueError("correspondence form must be a 2-form")
        object.__setattr__(self, "_tables", {})

    cache = Coframe.table    # point-independent data, which dies with the pair

    def fiber_block(self):
        """k x k matrix of Scalars F(E_theta_i, E_thetat_j), built once."""
        return self.cache("_fiber_block", self._build_fiber_block)

    def _build_fiber_block(self):
        k = self.k
        block = [[ZERO] * k for _ in range(k)]
        cof = self.total.coframe
        for i, ni in enumerate(self.chart.fiber_names):
            for j, nj in enumerate(self.dual.fiber_names):
                block[i][j] = self.F.coeff(cof.mask_of((ni, nj))).re
        return block

    def validate(self, n=8, seed=0):
        return validate_pair(self, n=n, seed=seed)


# -- validation ---------------------------------------------------------------------

def form_residual(form, domain, points):
    """Max over points of the max absolute coefficient value, 0.0 for none
    (``domain`` is not used; the points carry all the information).
    ``np.hypot`` is bit for bit ``abs(complex(x, y))``."""
    z = _eval_array(form.coeffs.values(), points)
    return float(np.hypot(z.real, z.imag).max(initial=0.0))


@dataclass
class ChartReport:
    name: str
    flux_closed_residual: float
    curvature_closed_residual: float
    zero_holonomy: bool
    invariant_coefficients: bool

    @property
    def ok(self):
        return (self.zero_holonomy and self.invariant_coefficients
                and self.flux_closed_residual <= 1e-9
                and self.curvature_closed_residual <= 1e-9)


def validate_chart(chart, n=8, seed=0):
    rng = np.random.default_rng(seed)
    points = chart.domain.sample_many(rng, n)
    dh = exterior_derivative(chart.flux, chart)
    curv_res = 0.0
    for gen, c in chart.curvature.items():
        curv_res = max(curv_res, form_residual(exterior_derivative(c, chart),
                                               chart.domain, points))
    allowed = set(chart.base_vars)
    invariant = chart.flux.variables() <= allowed and all(
        c.variables() <= allowed for c in chart.curvature.values())
    return ChartReport(
        name=chart.name,
        flux_closed_residual=form_residual(dh, chart.domain, points),
        curvature_closed_residual=curv_res,
        zero_holonomy=_check_zero_holonomy(chart),
        invariant_coefficients=invariant,
    )


@dataclass
class PairReport:
    """``fiber_rank`` is the size k of the k x k fiber block; at 0 the block is
    empty, and its determinant is the empty product 1."""

    chart_m: ChartReport
    chart_mt: ChartReport
    flux_difference_residual: float
    nondegenerate: bool
    unimodular: bool | None
    min_abs_det: float
    fiber_rank: int

    @property
    def ok(self):
        return (self.chart_m.ok and self.chart_mt.ok and self.nondegenerate
                and self.flux_difference_residual <= 1e-9)


def validate_pair(pair, n=8, seed=0):
    """Residual of dF = H - Ht, fiber-block nondegeneracy, unimodularity.

    The block is nondegenerate when it has full rank at every point by the
    package's rank rule (``structures._rank``); ``min_abs_det`` is the
    smallest |det| seen, a measure only."""
    rng = np.random.default_rng(seed)
    points = pair.total.domain.sample_many(rng, n)
    res = form_residual(pair.flux_difference_residual(), pair.total.domain, points)
    block = pair.fiber_block()
    k = len(block)
    min_det, nondegenerate = _block_nondegeneracy(block, points)
    constant = all(e.is_rational() for row in block for e in row)
    unimodular = None
    if constant:
        vals = np.array([[float(e.value) for e in row] for row in block]).reshape(k, k)
        is_int = np.allclose(vals, np.round(vals), atol=1e-9)
        unimodular = bool(is_int and abs(abs(np.linalg.det(np.round(vals))) - 1.0) <= 1e-9)
    return PairReport(
        chart_m=validate_chart(pair.chart, n=n, seed=seed),
        chart_mt=validate_chart(pair.dual, n=n, seed=seed + 1),
        flux_difference_residual=res,
        nondegenerate=nondegenerate,
        unimodular=unimodular,
        min_abs_det=min_det,
        fiber_rank=k,
    )


def block_values(block, points):
    """Values of a k x k block of Scalars at the points, as a (points, k, k)
    stack from one ``_value_array`` call; k = 0 gives (points, 0, 0)."""
    k, npts = len(block), len(points)
    return _value_array([e for row in block for e in row], points).T.reshape(npts, k, k)


def _block_nondegeneracy(block, points):
    """(smallest |det|, full rank at every point) of a k x k block of
    Scalars, from one determinant and one SVD over the stack of its values
    at the points ``exterior._sample`` picks: a point-free block is
    evaluated and decomposed at the first point only, a stack of one matrix."""
    from .structures import _rank    # structures imports this module
    k = len(block)
    mats = block_values(block, _sample([e for row in block for e in row], points))
    min_det = float(np.abs(np.linalg.det(mats)).min(initial=np.inf))
    ranks = _rank(np.linalg.svd(mats, compute_uv=False))
    return min_det, bool((ranks == k).all())
