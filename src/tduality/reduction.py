"""Pointwise Courant reduction and reinterpretations of the duality.

All statements here are realized as linear algebra at sampled points: the
reduction of a lifted torus action, the two-quotient description of a dual
pair (the correspondence reduces to either side, isometrically), the
generalized tangent space of the correspondence inside the product, and the
two equivalent duality criteria for pointwise structures (invariance of that
tangent space under the product structure, and conjugation of the structure
endomorphisms by the section transform).

``double_quotient_report`` takes a list of points.  Its pointwise linear
algebra runs once on the stack of all of them (numpy's batched ``svd``,
``eigvalsh``, ``det`` and ``@``), not point by point; the orthogonal
complement, whose dimension may differ between points, is taken once per
group of points with the same nullspace rank.

The product space M x Mt has coordinates (TM, TMt, T*M, T*Mt), each factor in
its own coframe order.  The correspondence's generalized tangent space is a
kernel, tau_F = {(E x, xi) : E^T xi = i_x F}, with E the embedding of the
correspondence's generators into TM + TMt read off their names.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import evaluate
from .exterior import Form, FrameVector, contract, eval_complex_points
from .courant import Section, pairing, split_pairing_matrix
from .duality import section_transform_matrix_at
from .structures import (RANK_TOL, PointFrame, _rank, _two_form_matrix,
                         gcs_matrix_at, two_form_matrix_at)

__all__ = [
    "LiftedActionPoint", "ReducedSpace", "reduce_pointwise",
    "pairing_constant_check", "duality_lift_sections", "ReductionReport",
    "double_quotient_report", "generalized_tangent_basis",
    "transversality_check", "fourier_mukai_check", "signature_of",
]


def signature_of(sym_matrix):
    """(positive, negative, null) eigenvalue counts of a symmetric matrix; a
    stack with leading axes gives an int array of such triples."""
    w = np.linalg.eigvalsh((sym_matrix + np.swapaxes(sym_matrix, -1, -2)) / 2)
    scale = np.abs(w).max(axis=-1, initial=1.0, keepdims=True)
    pos = np.sum(w > RANK_TOL * scale, axis=-1)
    neg = np.sum(w < -RANK_TOL * scale, axis=-1)
    counts = np.stack([pos, neg, w.shape[-1] - pos - neg], axis=-1)
    return tuple(int(c) for c in counts) if w.ndim == 1 else counts


@dataclass
class LiftedActionPoint:
    """Generators of a lifted action inside a split pairing space at a point."""

    pairing: np.ndarray        # 2N x 2N symmetric
    generators: np.ndarray     # 2N x m, columns are the generator vectors


@dataclass
class ReducedSpace:
    perp: np.ndarray           # basis of K-perp
    radical: np.ndarray        # basis of K intersect K-perp
    quotient: np.ndarray       # representatives spanning K-perp / radical
    induced_pairing: np.ndarray
    exact: bool                # K isotropic
    signature: tuple

    @property
    def dim(self):
        return self.quotient.shape[1]


def _intersect(a, b):
    """Orthonormal basis of span(a) intersect span(b); a and b need only
    span, their columns may be dependent."""
    null = PointFrame.nullspace(np.concatenate([a, -b], axis=1))
    return PointFrame.orthonormal_span(a @ null[:a.shape[1]])


def reduce_pointwise(action):
    """Quotient K-perp / (K intersect K-perp) with its induced pairing.

    The reduction is exact precisely when K is isotropic; the induced pairing
    is well defined because the radical pairs to zero against all of K-perp.
    """
    g = action.pairing
    k = action.generators
    perp = PointFrame.nullspace(k.T @ g)
    radical = _intersect(k, perp)
    # quotient representatives: complement of the radical inside K-perp
    if radical.shape[1]:
        coords = radical.conj().T @ perp    # radical expressed against perp basis
        complement = PointFrame.nullspace(coords)
        quotient = perp @ complement
    else:
        quotient = perp
    induced = quotient.conj().T @ g @ quotient
    gram_k = k.T @ g @ k
    exact = (bool(np.abs(gram_k).max() <= RANK_TOL * max(1.0, np.abs(g).max()))
             if k.size else True)
    return ReducedSpace(perp, radical, quotient, induced.real, exact,
                        signature_of(induced.real))


def pairing_constant_check(sections, points):
    """True when all pairwise pairings of the lift generators are constant
    across the sampled points, up to 1e-9 relative (a lifted action induces
    a fixed symmetric form on the acting algebra); also returns the spread."""
    n = len(sections)
    vals = eval_complex_points([pairing(a, b) for a in sections for b in sections], points)
    stack = np.array(vals).T.reshape(len(points), n, n)
    spread = np.abs(stack - stack.mean(axis=0)).max()
    return bool(spread <= 1e-9 * (1.0 + np.abs(stack).max())), float(spread)


# -- the double-quotient picture -------------------------------------------------------

def duality_lift_sections(pair):
    """Lift generators on the correspondence: E_theta_i - i_{E_theta_i} F
    for the first factor and E_thetat_j for the second."""
    cof = pair.total.coframe
    lifts = []
    for n in pair.chart.fiber_names:
        x = FrameVector.basis(cof, n)
        lifts.append(Section(x, -contract(x, pair.F)))
    for n in pair.dual.fiber_names:
        lifts.append(Section(FrameVector.basis(cof, n), Form.zero(cof)))
    return lifts


@dataclass
class ReductionReport:
    isotropy_residual_k: float
    isotropy_residual_kt: float
    split_signature_ok: bool
    kk_det: float
    isometry_defect_m: float
    isometry_defect_mt: float
    rank_ok: bool


def double_quotient_report(pair, points):
    """Check that the correspondence reduces isometrically onto both sides;
    one ``ReductionReport`` per point.

    (i) the two halves of the lift are isotropic, (ii) their sum carries a
    nondegenerate split pairing, (iii) dropping the appropriate fiber
    components after the F-shear maps the orthogonal complement isometrically
    onto the invariant T+T* fibers of either side.  The lift coordinates and
    the coefficients of F are evaluated at every point in one pass, and each
    step of the linear algebra runs once on the stack of all points; the
    orthogonal complement does so once per distinct nullspace rank.
    """
    npts = len(points)
    if not npts:
        return []
    total_cof = pair.total.coframe
    mt = total_cof.dim
    g_total = split_pairing_matrix(mt)
    lifts = duality_lift_sections(pair)
    coords = [c for s in lifts for c in s.coordinates()]
    vals = np.array(eval_complex_points(coords + list(pair.F.coeffs.values()), points),
                    dtype=complex).reshape(-1, npts)
    k = pair.k
    # kk[p] has the lift vectors at point p as columns, K then Kt; each matrix
    # is C-contiguous, as a single matrix would be, so matmul runs the same
    # BLAS kernels on it
    kk = np.ascontiguousarray(
        vals[:len(coords)].reshape(len(lifts), 2 * mt, npts).transpose(2, 1, 0))
    iso_k, iso_kt = (np.abs(_transpose(v) @ g_total @ v).max(axis=(1, 2))
                     for v in (np.ascontiguousarray(kk[:, :, :k]),
                               np.ascontiguousarray(kk[:, :, k:])))
    gram = (_transpose(kk) @ g_total @ kk).real
    sig = signature_of(gram)
    split_ok = (sig[:, 0] == k) & (sig[:, 1] == k)
    kk_det = np.linalg.det(gram)
    shear = np.broadcast_to(np.eye(2 * mt), (npts, 2 * mt, 2 * mt)).copy()
    shear[:, mt:, :mt] += _transpose(_two_form_matrix(pair.F, vals[len(coords):]))
    # onto the first factor: perp already has no cofiber covector legs;
    # onto the second: shear by F so the first-factor lift becomes tangent
    routes = []
    for dropped in (pair.dual.fiber_names, pair.chart.fiber_names):
        drop = [total_cof.index(n) for n in dropped]
        keep = [i for i in range(mt) if i not in drop]
        routes.append(([mt + i for i in drop], keep + [mt + i for i in keep],
                       split_pairing_matrix(len(keep))))
    # perp = kernel of kk^T g_total, whose dimension may differ between points
    _, s, vh = np.linalg.svd(_transpose(kk) @ g_total)
    ranks = _rank(s)
    defects = np.zeros((2, npts))
    rank_ok = np.ones(npts, dtype=bool)
    for r in sorted(set(ranks.tolist())):
        at = np.flatnonzero(ranks == r)
        perp = _transpose(vh[at, r:].conj())
        g_perp = _transpose(perp) @ g_total @ perp
        for route, ((drop, keep, g_side), vectors) in enumerate(
                zip(routes, (perp, shear[at] @ perp))):
            if (np.abs(vectors[:, drop]) > 1e-7).any():
                raise AssertionError("covector leg survived where it must vanish")
            mapped = vectors[:, keep]
            defects[route, at] = np.abs(_transpose(mapped) @ g_side @ mapped
                                        - g_perp).max(axis=(1, 2))
            rank_ok[at] &= _rank(np.linalg.svd(mapped, compute_uv=False)) == len(keep)
    return [ReductionReport(*fields) for fields in zip(
        iso_k.tolist(), iso_kt.tolist(), split_ok.tolist(), kk_det.tolist(),
        defects[0].tolist(), defects[1].tolist(), rank_ok.tolist())]


def _transpose(stack):
    """The matrices of a (points, n, m) stack, each transposed (no conjugation)."""
    return stack.transpose(0, 2, 1)


# -- generalized tangent space of the correspondence inside the product -----------------

def generalized_tangent_basis(pair, point, f_scale=1.0):
    """Orthonormal basis of tau_F = {(E x, xi) : E^T xi = A^T x} inside the
    product space, where A^T x = i_x F for F scaled by ``f_scale``.

    E embeds the correspondence's generators into TM + TMt by name, so a
    base generator lands in both factors; E^T xi is the pullback of the
    product covector xi.  tau_F is the image of the kernel of [-A^T | E^T]
    under diag(E, 1).
    """
    names = pair.chart.coframe.names + pair.dual.coframe.names
    e = np.array([[float(a == b) for b in pair.total.coframe.names] for a in names])
    a = f_scale * two_form_matrix_at(pair.F, point)
    kernel = PointFrame.nullspace(np.concatenate([-a.T, e.T], axis=1))
    x, xi = kernel[:e.shape[1]], kernel[e.shape[1]:]
    return PointFrame.orthonormal_span(np.concatenate([e @ x, xi]))


def _first_factor(pair):
    """Product coordinates (TM, TMt, T*M, T*Mt) of the first factor's TM + T*M."""
    m = pair.chart.coframe.dim
    n = m + pair.dual.coframe.dim
    return list(range(m)) + list(range(n, n + m))


def transversality_check(pair, point, f_scale=1.0):
    """tau_F meets TM + T*M trivially iff the fiber block of F is invertible;
    both sides are computed independently and returned."""
    tf = generalized_tangent_basis(pair, point, f_scale)
    inter = _intersect(tf, np.eye(tf.shape[0])[:, _first_factor(pair)])
    transversal = inter.shape[1] == 0
    block = pair.fiber_block()
    mat = np.array([[evaluate(e, point) for e in row] for row in block]).reshape(
        len(block), len(block))
    s = np.linalg.svd(f_scale * mat, compute_uv=False)
    return transversal, _rank(s) == len(block)


def fourier_mukai_check(spinor_m, spinor_t, pair, point):
    """Two independent duality criteria for pointwise structures.

    Route one: tau_F is invariant under the product structure (J, c Jt c^-1)
    with c = diag(1, -1) on the second factor.  Route two: Jt equals the
    conjugate of J by the section transform.  Returns (route1, route2,
    defect1, defect2), each route passing with a defect up to 1e-8; the
    routes agree for valid inputs.
    """
    j_m = gcs_matrix_at(spinor_m, pair.chart, point)
    j_t = gcs_matrix_at(spinor_t, pair.dual, point)
    mt = pair.dual.coframe.dim
    c = np.diag([1.0] * mt + [-1.0] * mt)
    tf = generalized_tangent_basis(pair, point)
    # the product structure in (TM, TMt, T*M, T*Mt) coordinates
    idx_m = _first_factor(pair)
    idx_t = [i for i in range(tf.shape[0]) if i not in idx_m]
    big = np.zeros((tf.shape[0], tf.shape[0]))
    big[np.ix_(idx_m, idx_m)] = j_m
    big[np.ix_(idx_t, idx_t)] = c @ j_t @ c
    proj = tf @ tf.conj().T
    image = big @ tf
    defect1 = float(np.abs(image - proj @ image).max())
    phi = section_transform_matrix_at(pair, point).real
    defect2 = float(np.abs(j_t - phi @ j_m @ np.linalg.inv(phi)).max())
    return defect1 <= 1e-8, defect2 <= 1e-8, defect1, defect2
