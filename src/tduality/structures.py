"""Pure spinors, generalized complex structures, and generalized metrics.

Everything pointwise is plain linear algebra on the 2^m-dimensional space of
forms at a base point, with the Clifford action realized as matrices.
Nullspaces use rank-revealing SVD with a relative threshold of 1e-8, which is
robust near type-change loci; points where the spinor norm degenerates are
reported, not treated as errors.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .scalar import CScalar, ZERO, as_scalar, evaluate_points
from .exterior import (Form, FrameVector, contract, contract_sign, exp_form,
                       mukai_signs, wedge)
from .bundle import form_residual, twisted_derivative
from .courant import Section

__all__ = [
    "PureSpinor", "GeneralizedMetric", "SymTensor", "PointFrame",
    "annihilator_at", "spinor_type_at", "check_integrable", "IntegrabilityResult",
    "gcs_matrix_at", "metric_matrix_at", "two_form_matrix_at",
    "uk_spaces_at", "mukai_norm_at", "mukai_norm", "is_decomposable_at",
    "metric_residual", "RANK_TOL",
]

RANK_TOL = 1e-8


# -- symmetric 2-tensors ---------------------------------------------------------

class SymTensor:
    """Symmetric 2-tensor over a coframe with Scalar entries."""

    __slots__ = ("coframe", "entries")

    def __init__(self, coframe, entries=None):
        self.coframe = coframe
        self.entries = {}
        if entries:
            for (i, j), s in entries.items():
                key = (i, j) if i <= j else (j, i)
                if not s.is_zero():
                    self.entries[key] = self.entries.get(key, ZERO) + s

    @staticmethod
    def from_names(coframe, named):
        out = {}
        for (a, b), s in named.items():
            out[(coframe.index(a), coframe.index(b))] = as_scalar(s)
        return SymTensor(coframe, out)

    def entry(self, i, j):
        key = (i, j) if i <= j else (j, i)
        return self.entries.get(key, ZERO)

    def entry_of(self, a, b):
        return self.entry(self.coframe.index(a), self.coframe.index(b))

    def __add__(self, other):
        out = dict(self.entries)
        for key, s in other.entries.items():
            out[key] = out.get(key, ZERO) + s
        return SymTensor(self.coframe, out)

    def scale(self, s):
        s = as_scalar(s)
        return SymTensor(self.coframe, {k: v * s for k, v in self.entries.items()})

    def eval_matrix(self, point):
        return self.eval_matrices((point,))[0]

    def eval_matrices(self, points):
        """The symmetric matrix at each point, as a list."""
        m = self.coframe.dim
        vals = evaluate_points(self.entries.values(), points)
        out = []
        for k in range(len(points)):
            mat = np.zeros((m, m))
            for (i, j), v in zip(self.entries, vals):
                mat[i, j] = v[k]
                mat[j, i] = v[k]
            out.append(mat)
        return out

    def apply(self, x):
        """g(X, .) as a 1-form for a frame vector X with real components."""
        cof = self.coframe
        out = Form.zero(cof)
        for (i, j), s in self.entries.items():
            ci, cj = x.components[i], x.components[j]
            if not cj.is_zero():
                out = out + Form.monomial(cof, (cof.names[i],), cj * CScalar.of(s))
            if i != j and not ci.is_zero():
                out = out + Form.monomial(cof, (cof.names[j],), ci * CScalar.of(s))
        return out

    def map_to(self, coframe, rename=None):
        rename = rename or {}
        named = {}
        for (i, j), s in self.entries.items():
            a = rename.get(self.coframe.names[i], self.coframe.names[i])
            b = rename.get(self.coframe.names[j], self.coframe.names[j])
            named[(coframe.index(a), coframe.index(b))] = s
        return SymTensor(coframe, named)

    def variables(self):
        out = set()
        for s in self.entries.values():
            out |= s.variables()
        return out


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
    """Riemannian metric g plus 2-form b, both invariant."""

    g: SymTensor
    b: Form

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
    read-only and shared by every PointFrame with m generators."""
    nforms = 1 << m
    wedges, contractions = [], []
    for i in range(m):
        w = np.zeros((nforms, nforms))
        c = np.zeros((nforms, nforms))
        bit = 1 << i
        for mask in range(nforms):
            if not mask & bit:
                sign = float(contract_sign(mask, i))
                w[mask | bit, mask] = sign
                c[mask, mask | bit] = sign
        w.setflags(write=False)
        c.setflags(write=False)
        wedges.append(w)
        contractions.append(c)
    return tuple(wedges), tuple(contractions)


class PointFrame:
    """Clifford action matrices on the 2^m forms at a point of a coframe with
    m generators; they depend only on m, so frames of the same size share them."""

    def __init__(self, coframe):
        self.coframe = coframe
        m = coframe.dim
        self.m = m
        self.nforms = 1 << m
        self._wedge, self._contract = _clifford_matrices(m)

    def section_action(self, comps):
        """Clifford action matrix of numeric section components (X, xi)."""
        a = np.zeros((self.nforms, self.nforms), dtype=complex)
        for i in range(self.m):
            if comps[i] != 0:
                a += comps[i] * self._contract[i]
            if comps[self.m + i] != 0:
                a += comps[self.m + i] * self._wedge[i]
        return a

    def spinor_action_matrix(self, rho_vec):
        """Matrix of v -> v . rho over the 2m section coordinates."""
        cols = []
        for i in range(self.m):
            cols.append(self._contract[i] @ rho_vec)
        for i in range(self.m):
            cols.append(self._wedge[i] @ rho_vec)
        return np.stack(cols, axis=1)

    @staticmethod
    def nullspace(a):
        """Orthonormal basis (columns) of the kernel of a."""
        _, s, vh = np.linalg.svd(a)
        return vh[_rank(s):].conj().T

    @staticmethod
    def orthonormal_span(a):
        """Orthonormal basis (columns) of the column span of a."""
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        return u[:, :_rank(s)]


def _rank(s):
    """Numerical rank from descending singular values, relative to the largest.

    Singular values with leading stack axes give an int array of ranks, each
    relative to its own matrix's largest singular value."""
    s = np.asarray(s)
    ranks = np.sum(s > RANK_TOL * s.max(axis=-1, initial=0.0, keepdims=True), axis=-1)
    return int(ranks) if s.ndim == 1 else ranks


def annihilator_at(spinor, chart, point):
    """Basis (2m x d complex) of {v : v . rho(p) = 0}; maximal isotropic."""
    return _annihilator(PointFrame(chart.coframe), spinor.form.eval_vector(point))


def _annihilator(fr, rho):
    """``annihilator_at`` of the spinor whose value at the point is ``rho``."""
    norm = np.abs(rho).max()
    if norm <= RANK_TOL:
        raise ValueError("spinor vanishes at the sample point")
    return fr.nullspace(fr.spinor_action_matrix(rho / norm))


def mukai_norm_at(spinor, point):
    """|(rho, conj rho)| at a point; zero detects type-change loci."""
    return mukai_norm(spinor.form.eval_coeffs(point), spinor.coframe.dim)


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


def spinor_type_at(spinor, point):
    """Degree of the lowest component that survives numerically at the point."""
    coeffs = spinor.form.eval_coeffs(point)
    if not coeffs:
        raise ValueError("spinor vanishes identically")
    top = max(abs(v) for v in coeffs.values())
    if top == 0.0:
        raise ValueError("spinor vanishes at the sample point")
    by_degree = {}
    for mask, v in coeffs.items():
        d = bin(mask).count("1")
        by_degree[d] = max(by_degree.get(d, 0.0), abs(v))
    return min(d for d, v in by_degree.items() if v > RANK_TOL * top)


def is_decomposable_at(form, point):
    """Pluecker test of the lowest degree component at the point: a nonzero
    p-form is decomposable iff the 1-forms xi with xi ^ rho = 0 span p
    dimensions (they never span more)."""
    coeffs = form.eval_coeffs(point)
    degs = {bin(m).count("1") for m, v in coeffs.items() if abs(v) > 0}
    if not degs:
        return True
    degree = min(degs)
    fr = PointFrame(form.coframe)
    vec = np.zeros(fr.nforms, dtype=complex)
    for mask, v in coeffs.items():
        if bin(mask).count("1") == degree:
            vec[mask] = v
    wedges = np.stack([w @ vec for w in fr._wedge], axis=1)
    return fr.nullspace(wedges).shape[1] == degree


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
    fr = PointFrame(chart.coframe)
    worst = 0.0
    witnesses = []
    for p in points:
        rho = spinor.form.eval_vector(p)
        scale = np.abs(rho).max()
        if scale == 0:
            raise ValueError("spinor vanishes at a sample point")
        a = fr.spinor_action_matrix(rho)
        b = drho.eval_vector(p)
        x, *_ = np.linalg.lstsq(a, b, rcond=None)
        witnesses.append(x)
        worst = max(worst, float(np.abs(a @ x - b).max() / scale))
    return IntegrabilityResult(worst, worst <= 1e-8, witnesses, list(points))


def gcs_matrix_at(spinor, chart, point):
    """Real 2m x 2m matrix: +i on the annihilator, -i on its conjugate."""
    l_basis = annihilator_at(spinor, chart, point)
    n = chart.coframe.dim
    if l_basis.shape[1] != n:
        raise ValueError(f"annihilator has dimension {l_basis.shape[1]}, expected {n}")
    b = np.concatenate([l_basis, l_basis.conj()], axis=1)
    if _rank(np.linalg.svd(b, compute_uv=False)) < 2 * n:
        raise ValueError("annihilator meets its conjugate: no almost complex structure")
    d = np.diag([1j] * n + [-1j] * n)
    j = b @ d @ np.linalg.inv(b)
    if np.abs(j.imag).max() > 1e-7:
        raise ValueError("eigenspace construction produced a non-real structure")
    return j.real


def metric_matrix_at(metric, point):
    """+1 on the graph of b+g, -1 on the graph of b-g."""
    g = metric.g.eval_matrix(point)
    b = two_form_matrix_at(metric.b, point)
    m = metric.coframe.dim
    eigvals = np.linalg.eigvalsh(g)
    if eigvals.min() <= 0:
        raise ValueError("metric not positive definite at the sample point")
    cplus = np.concatenate([np.eye(m), b + g], axis=0)
    cminus = np.concatenate([np.eye(m), b - g], axis=0)
    p = np.concatenate([cplus, cminus], axis=1)
    d = np.diag([1.0] * m + [-1.0] * m)
    return p @ d @ np.linalg.inv(p)


def two_form_matrix_at(form, point):
    """Antisymmetric matrix A of a real 2-form at a point, with
    (i_X form)_b = sum_a X^a A[a, b]."""
    return _two_form_matrix(form, list(form.eval_coeffs(point).values()))


def _two_form_matrix(form, values):
    """``two_form_matrix_at`` from the values of the form's coefficients, one
    row per coefficient in ``form.coeffs`` order: a row of values over points
    gives the stack of matrices at those points, points first."""
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
    """Max coefficientwise deviation of two (g, b) packages at the points."""
    worst = form_residual(a.b - b.b, None, points)
    keys = a.g.entries.keys() | b.g.entries.keys()
    vals = evaluate_points([g.entries.get(key, ZERO) for key in keys for g in (a.g, b.g)],
                           points)
    return max(worst, max((abs(x - y) for va, vb in zip(vals[0::2], vals[1::2])
                           for x, y in zip(va, vb)), default=0.0))


def uk_spaces_at(spinor, chart, point):
    """Eigenspace ladder of forms at a point: U_n down to U_{-n}.

    U_n is the canonical line span(rho); U_{n-k} is spanned by k-fold Clifford
    products of conjugate-annihilator elements acting on rho.  Returns a list
    of (level, orthonormal basis matrix) with levels n, n-1, ..., -n.
    """
    fr = PointFrame(chart.coframe)
    m = fr.m
    if m % 2:
        raise ValueError("generalized complex structures need an even-dimensional chart")
    half = m // 2
    rho = spinor.form.eval_vector(point)
    lbar = _annihilator(fr, rho).conj()
    rho = rho / np.abs(rho).max()
    actions = [fr.section_action(lbar[:, i]) for i in range(m)]
    out = []
    total = 0
    for k in range(0, m + 1):
        vecs = []
        for combo in itertools.combinations(range(m), k):
            w = rho
            for i in combo:
                w = actions[i] @ w
            vecs.append(w)
        basis = fr.orthonormal_span(np.stack(vecs, axis=1))
        if basis.shape[1] != len(vecs):
            raise ValueError(f"level {half - k}: expected dimension {len(vecs)}, "
                             f"got {basis.shape[1]}")
        out.append((half - k, basis))
        total += basis.shape[1]
    if total != fr.nforms:
        raise ValueError("eigenspace dimensions do not exhaust the form space")
    return out

