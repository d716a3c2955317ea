"""Pure spinors, generalized complex structures, and generalized metrics.

Everything pointwise is plain linear algebra on the 2^m-dimensional space of
forms at a base point, with the Clifford action realized as matrices made
from ``exterior.frame_action(m)``; the 2-forms read as matrices (a B-field,
the correspondence form) are real, as their constructors check.  The
pointwise functions take a list of points (the values-level ones a spinor's
values, one row per point): each evaluates once for all points and runs each
step on the stack of all of them, points first, and a check that fails raises
a ValueError naming the first failing point.  A caller whose inputs are
point-free passes the points that ``exterior._sample`` picks, the first
only, and repeats or broadcasts the result, as the double quotient, tau_F,
the fiber-block test and the section transform of the Fourier-Mukai check
do; a failure there names point 0, as the stack would.  Nullspaces use
rank-revealing SVD with a relative threshold of 1e-8 (``_rank``), which is
robust near type-change loci; a stack's bases come grouped by rank
(``_by_rank``).  The rank helpers take stacks only: one matrix is a stack
of one, as in ``duality.orientation_sign``.
Every sum at a dict key, CScalar or Scalar, goes through
``exterior._accumulate``, so a ``SymTensor``, as a ``Form``, holds no
structural zero.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .scalar import CScalar, ZERO, as_scalar
from .exterior import (Form, FrameVector, _accumulate, _eval_array, _value_array, contract,
                       exp_form, frame_action, mukai_signs, wedge)
from .bundle import twisted_derivative
from .courant import Section

__all__ = [
    "PureSpinor", "GeneralizedMetric", "SymTensor", "PointFrame",
    "annihilators", "spinor_types", "check_integrable", "IntegrabilityResult",
    "gcs_matrices", "gcs_matrix_at", "metric_matrices", "uk_spaces",
    "mukai_norms", "mukai_norm", "is_decomposable", "metric_residual", "RANK_TOL",
]

RANK_TOL = 1e-8


# -- symmetric 2-tensors ---------------------------------------------------------

class SymTensor:
    """Symmetric 2-tensor over a coframe with Scalar entries at (i, j), i <= j.
    The entries given at (i, j) and (j, i) are summed, and one that cancels
    structurally is dropped, as ``Form.coeffs`` keeps no structural zero.
    Equality and hash are structural, so metrics compare by value."""

    __slots__ = ("coframe", "entries")

    def __init__(self, coframe, entries=None):
        self.coframe = coframe
        self.entries = {}
        for (i, j), s in (entries or {}).items():
            if not s.is_zero():
                _accumulate(self.entries, (i, j) if i <= j else (j, i), s)

    @staticmethod
    def from_names(coframe, named):
        out = {}
        for (a, b), s in named.items():
            out[(coframe.index(a), coframe.index(b))] = as_scalar(s)
        return SymTensor(coframe, out)

    def __eq__(self, other):
        if other.__class__ is not SymTensor:
            return NotImplemented
        return self.coframe == other.coframe and self.entries == other.entries

    def __hash__(self):
        return hash((self.coframe, frozenset(self.entries.items())))

    def entry(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self.entries.get(key, ZERO)

    def entry_of(self, a, b):
        return self.entry(self.coframe.index(a), self.coframe.index(b))

    def __add__(self, other):
        if self.coframe is not other.coframe and self.coframe != other.coframe:
            raise ValueError("coframe mismatch")
        out = dict(self.entries)
        for key, s in other.entries.items():
            _accumulate(out, key, s)
        return SymTensor(self.coframe, out)

    def eval_matrix(self, point):
        """Kept for the tests and ``perfbench/tracer.py``, which wraps it by
        name (ROADMAP 1a)."""
        return self.eval_matrices((point,))[0]

    def eval_matrices(self, points):
        """The symmetric matrices at the points, stacked: (points, m, m)."""
        m = self.coframe.dim
        out = np.zeros((len(points), m, m))
        for (i, j), v in zip(self.entries, _value_array(self.entries.values(), points)):
            out[:, i, j] = v
            out[:, j, i] = v
        return out

    def apply(self, x):
        """g(X, .) as a 1-form for a frame vector X with real components,
        summed into one dict over X's nonzero components."""
        xs = x.coeffs
        out = {}
        for (i, j), s in self.entries.items():
            cj = xs.get(j)
            if cj is not None:
                _accumulate(out, 1 << i, cj * CScalar.of(s))
            ci = xs.get(i) if i != j else None
            if ci is not None:
                _accumulate(out, 1 << j, ci * CScalar.of(s))
        return Form(self.coframe, out)

    def map_to(self, coframe):
        names = self.coframe.names
        return SymTensor(coframe, {(coframe.index(names[i]), coframe.index(names[j])): s
                                   for (i, j), s in self.entries.items()})


@dataclass(frozen=True)
class PureSpinor:
    """Complex form generating a canonical line, optionally with its
    e^(B + i omega) ^ Omega construction data."""

    form: Form
    b: Form | None = None
    omega: Form | None = None
    lowest: Form | None = None   # the decomposable factor Omega

    @staticmethod
    def from_data(b, omega, lowest):
        two_form = b + omega.scale(CScalar.i())
        rho = wedge(exp_form(two_form), lowest) if not two_form.is_zero() else lowest
        return PureSpinor(rho, b=b, omega=omega, lowest=lowest)

    @property
    def coframe(self):
        return self.form.coframe


@dataclass(frozen=True)
class GeneralizedMetric:
    """Riemannian metric g plus 2-form b, both invariant and real."""

    g: SymTensor
    b: Form

    def __post_init__(self):
        if self.g.coframe != self.b.coframe:
            raise ValueError("coframe mismatch")
        if any(c.im is not ZERO for c in self.b.coeffs.values()):
            raise ValueError("B-field must be real")

    @property
    def coframe(self):
        return self.g.coframe

    def cplus_sections(self):
        """Spanning sections X + b(X) + g(X) of the +1 eigenspace."""
        cof = self.coframe
        out = []
        for name in cof.names:
            x = FrameVector.basis(cof, name)
            out.append(Section(x, contract(x, self.b) + self.g.apply(x)))
        return out


# -- pointwise frames --------------------------------------------------------------

@functools.cache
def _clifford_matrices(m):
    """(wedge, contraction) matrices of the m generators on the 2^m forms,
    the frame's action table (``frame_action``) as matrices: e^k and E_k
    send e_mask to sign e_mask'.  Read-only and shared by every PointFrame
    with m generators."""
    nforms = 1 << m
    mats = []
    for row in frame_action(m):
        a = np.zeros((nforms, nforms))
        for mask, hit in enumerate(row):
            if hit is not None:
                a[hit[0], mask] = hit[1]
        a.setflags(write=False)
        mats.append(a)
    return tuple(mats[m:]), tuple(mats[:m])


class PointFrame:
    """Clifford action matrices on the 2^m forms at a point of a coframe with
    m generators; they depend only on m, so frames of the same size share them.
    Every method takes one row (or matrix) per point, points first."""

    def __init__(self, coframe):
        m = coframe.dim
        self.m = m
        self.nforms = 1 << m
        self._wedge, self._contract = _clifford_matrices(m)

    def section_action(self, comps):
        """Clifford action matrices (points, 2^m, 2^m) of numeric section
        components (points, 2m), (X, xi) in each row."""
        a = np.zeros(comps.shape[:-1] + (self.nforms, self.nforms), dtype=complex)
        for i in range(self.m):
            a += comps[..., i, None, None] * self._contract[i]
            a += comps[..., self.m + i, None, None] * self._wedge[i]
        return a

    def spinor_action_matrix(self, rhos):
        """Matrices (points, 2^m, 2m) of v -> v . rho over the 2m section
        coordinates, for form values ``rhos`` (points, 2^m)."""
        cols = rhos[..., None]
        return np.concatenate([c @ cols for c in self._contract + self._wedge], axis=-1)

    @staticmethod
    def nullspace(a):
        """Orthonormal bases (columns) of the kernels of a stack of matrices,
        grouped by rank (``_by_rank``)."""
        _, s, vh = np.linalg.svd(a)
        return _by_rank(s, lambda at, r: _transpose(vh[at][..., r:, :].conj()))

    @staticmethod
    def orthonormal_span(a):
        """Orthonormal bases (columns) of the spans of a stack of matrices,
        grouped by rank (``_by_rank``); with no columns, no SVD is run."""
        if not a.shape[-1]:
            return [(np.arange(len(a)), a)]
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return _by_rank(s, lambda at, r: u[at][..., :r])


def _rank(s):
    """Numerical ranks from descending singular values with leading stack
    axes, an int array, each relative to its own matrix's largest value."""
    return np.sum(s > RANK_TOL * s.max(axis=-1, initial=0.0, keepdims=True), axis=-1)


def _by_rank(s, basis):
    """[(indices, ``basis(at, r)``)] in increasing rank r, the stacked bases
    of the matrices ``at`` of rank r, from the singular values ``s`` of a
    stack.  An empty stack gives an empty group of every rank, so any
    dimension has one."""
    ranks = _rank(s)
    return [(np.flatnonzero(ranks == r), basis(ranks == r, r))
            for r in sorted(set(ranks.tolist())) or range(s.shape[-1] + 1)]


def _uniform(groups, dim, what, points):
    """The stacked bases of ``_by_rank`` groups when each point has ``dim``
    columns; otherwise a ValueError that names the first point without."""
    bad = [(int(at[0]), bases.shape[-1]) for at, bases in groups
           if len(at) and bases.shape[-1] != dim]
    if bad:
        i, got = min(bad)
        raise _at_point(f"{what} has dimension {got}, expected {dim}", points, i)
    return next(bases for _, bases in groups if bases.shape[-1] == dim)


def _at_point(message, points, i):
    """ValueError naming sample point i, in ``EvaluationError``'s format."""
    return ValueError(f"{message} at sample point {i}: {points[i]}")


def _first_failure(bad, message, points):
    """Raise ``_at_point`` for the first point whose entry of ``bad`` is true."""
    if bad.any():
        raise _at_point(message, points, int(np.argmax(bad)))


def _transpose(stack):
    """Each matrix of a stack transposed (no conjugation)."""
    return np.swapaxes(stack, -1, -2)


def annihilators(coframe, rhos, points):
    """Bases (points, 2m, m) of {v : v . rho = 0} from a pure spinor's values
    ``rhos`` (points, 2^m) at the points; each is maximal isotropic."""
    fr = PointFrame(coframe)
    norms = np.abs(rhos).max(axis=-1)
    _first_failure(norms <= RANK_TOL, "spinor vanishes", points)
    return _uniform(fr.nullspace(fr.spinor_action_matrix(rhos / norms[:, None])),
                    fr.m, "annihilator", points)


def mukai_norms(spinor, points):
    """|(rho, conj rho)| at each point; zero detects type-change loci."""
    coeffs = spinor.form.coeffs
    return [mukai_norm(dict(zip(coeffs, zs)), spinor.coframe.dim)
            for zs in _eval_array(coeffs.values(), points).T.tolist()]


def mukai_norm(values, m):
    """|(rho, conj rho)| of a form on m generators from its values at one
    point, {mask: complex}: the sum of sign * rho_mask * conj(rho_comp) over
    the ``mukai_signs(m)`` table."""
    signs = mukai_signs(m)
    total = 0j
    for mask, v in values.items():
        _, comp, sign = signs[mask]
        w = values.get(comp)
        if w is not None:
            total += sign * v * w.conjugate()
    return abs(total)


def spinor_types(spinor, points):
    """Degree of the lowest component that survives numerically, per point."""
    coeffs = spinor.form.coeffs
    if not coeffs:
        raise ValueError("spinor vanishes identically")
    size = np.abs(_eval_array(coeffs.values(), points))
    top = size.max(axis=0)
    _first_failure(top == 0.0, "spinor vanishes", points)
    degrees = np.array([[mask.bit_count()] for mask in coeffs])
    return np.where(size > RANK_TOL * top, degrees, spinor.coframe.dim + 1).min(axis=0).tolist()


def is_decomposable(form, points):
    """Pluecker test of the lowest degree component at each point: a nonzero
    p-form is decomposable iff the 1-forms xi with xi ^ rho = 0 span p
    dimensions (they never span more).  A vanishing form passes."""
    fr = PointFrame(form.coframe)
    vals = form.eval_vectors(points)
    degree = np.array([mask.bit_count() for mask in range(fr.nforms)])
    lowest = np.where(np.abs(vals) > 0, degree, fr.m + 1).min(axis=-1, keepdims=True)
    vecs = np.where(degree == lowest, vals, 0)[..., None]
    wedges = np.concatenate([w @ vecs for w in fr._wedge], axis=-1)
    kernel = fr.m - _rank(np.linalg.svd(wedges, compute_uv=False))
    return ((lowest[:, 0] > fr.m) | (kernel == lowest[:, 0])).tolist()


@dataclass
class IntegrabilityResult:
    residual: float
    integrable: bool
    witnesses: list          # per-sample numeric section components (2m,)
    points: list


def check_integrable(spinor, chart, points):
    """Least-squares solve of v . rho = d_H rho at each sample point.

    Returns the witness components per point and the worst residual; the
    structure is integrable when the residual stays below 1e-8 everywhere.
    """
    drho = twisted_derivative(spinor.form, chart)
    rhos = spinor.form.eval_vectors(points)
    scale = np.abs(rhos).max(axis=-1)
    _first_failure(scale == 0, "spinor vanishes", points)
    a = PointFrame(chart.coframe).spinor_action_matrix(rhos)
    b = drho.eval_vectors(points)
    x = np.reshape([np.linalg.lstsq(ap, bp, rcond=None)[0] for ap, bp in zip(a, b)],
                   (len(points), a.shape[-1]))
    res = np.abs(a @ x[..., None] - b[..., None]).max(axis=(-2, -1)) / scale
    worst = float(res.max(initial=0.0))
    return IntegrabilityResult(worst, worst <= 1e-8, list(x), list(points))


def gcs_matrices(coframe, rhos, points):
    """Real (points, 2m, 2m) stack from a pure spinor's values ``rhos``
    (points, 2^m): +i on the annihilator, -i on its conjugate."""
    l_basis = annihilators(coframe, rhos, points)
    n = coframe.dim
    b = np.concatenate([l_basis, l_basis.conj()], axis=-1)
    _first_failure(_rank(np.linalg.svd(b, compute_uv=False)) < 2 * n,
                   "annihilator meets its conjugate: no almost complex structure", points)
    d = np.diag([1j] * n + [-1j] * n)
    j = b @ d @ np.linalg.inv(b)
    _first_failure(np.abs(j.imag).max(axis=(-2, -1)) > 1e-7,
                   "eigenspace construction produced a non-real structure", points)
    return j.real


def gcs_matrix_at(spinor, chart, point):
    """``gcs_matrices`` of a spinor at one point.  Kept for the tests and the
    dense-points workload of ``perfbench`` (ROADMAP 1b)."""
    return gcs_matrices(chart.coframe, spinor.form.eval_vectors([point]), [point])[0]


def metric_matrices(metric, points):
    """(points, 2m, 2m): +1 on the graph of b+g, -1 on the graph of b-g."""
    g = metric.g.eval_matrices(points)
    b = _two_form_matrix(metric.b, _eval_array(metric.b.coeffs.values(), points))
    m = metric.coframe.dim
    _first_failure(np.linalg.eigvalsh(g).min(axis=-1) <= 0,
                   "metric not positive definite", points)
    eye = np.broadcast_to(np.eye(m), g.shape)
    p = np.concatenate([np.concatenate([eye, b + g], axis=-2),
                        np.concatenate([eye, b - g], axis=-2)], axis=-1)
    d = np.diag([1.0] * m + [-1.0] * m)
    return p @ d @ np.linalg.inv(p)


def _two_form_matrix(form, values):
    """Antisymmetric matrices A of a real 2-form, (i_X form)_b = sum_a X^a A[a, b],
    from its coefficient values: one row per coefficient in ``form.coeffs``
    order and one column per point give the stack at those points, points first."""
    m = form.coframe.dim
    values = np.real(np.asarray(values, dtype=complex))
    out = np.zeros(values.shape[1:] + (m, m))
    for mask, c in zip(form.coeffs, values):
        idx = [i for i in range(m) if mask >> i & 1]
        if len(idx) != 2:
            raise ValueError("expected a 2-form")
        a, b = idx
        out[..., a, b] = c
        out[..., b, a] = -c
    return out


def metric_residual(a, b, points):
    """Max coefficientwise deviation of two (g, b) packages at the points, 0.0
    for none.  The parts of b_a - b_b and the g entries of both are evaluated
    in one ``_value_array`` call, so an EvaluationError names the first
    point at which any of them fails."""
    parts = [s for c in (a.b - b.b).coeffs.values() for s in (c.re, c.im)]
    keys = a.g.entries.keys() | b.g.entries.keys()
    vals = _value_array(parts + [g.entries.get(key, ZERO) for key in keys for g in (a.g, b.g)],
                        points)
    k = len(parts)
    return float(max(np.hypot(vals[0:k:2], vals[1:k:2]).max(initial=0.0),
                     np.abs(vals[k::2] - vals[k + 1::2]).max(initial=0.0)))


def uk_spaces(coframe, rhos, points):
    """Eigenspace ladder of forms at each point: U_n down to U_{-n}, from a
    pure spinor's values ``rhos`` (points, 2^m).

    U_n is the canonical line span(rho); U_{n-k} is spanned by k-fold Clifford
    products of conjugate-annihilator elements acting on rho.  Returns a list
    of (level, orthonormal bases (points, 2^m, dim)) with levels n, ..., -n;
    the dimensions add up to 2^m.
    """
    fr = PointFrame(coframe)
    m = fr.m
    if m % 2:
        raise ValueError("generalized complex structures need an even-dimensional chart")
    lbar = annihilators(coframe, rhos, points).conj()
    rho = (rhos / np.abs(rhos).max(axis=-1, keepdims=True))[..., None]
    actions = [fr.section_action(lbar[..., i]) for i in range(m)]
    out = []
    for k in range(0, m + 1):
        vecs = []
        for combo in itertools.combinations(range(m), k):
            w = rho
            for i in combo:
                w = actions[i] @ w
            vecs.append(w)
        level = m // 2 - k
        out.append((level, _uniform(fr.orthonormal_span(np.concatenate(vecs, axis=-1)),
                                    len(vecs), f"level {level}", points)))
    return out
