"""Pointwise Courant reduction and reinterpretations of the duality.

All statements here are realized as linear algebra at sampled points: the
reduction of a lifted torus action, the two-quotient description of a dual
pair (the correspondence reduces to either side, isometrically), the
generalized tangent space of the correspondence inside the product, and the
two equivalent duality criteria for pointwise structures (invariance of that
tangent space under the product structure, and conjugation of the structure
endomorphisms by the section transform).

The pointwise functions take a list of points (``fourier_mukai_check`` the
spinors' values at them, one row per point; ``reduce_pointwise`` a list of
actions).  Each evaluates what it needs once for all points and runs its
linear algebra once on the stack of all of them (once per shape of action),
with numpy's batched ``svd``, ``eigvalsh``, ``det``, ``inv`` and ``@``; a
basis whose dimension may differ comes grouped by rank (``_by_rank``).

The product space M x Mt has coordinates (TM, TMt, T*M, T*Mt), each factor in
its own coframe order.  The correspondence's generalized tangent space is a
kernel, tau_F = {(E x, xi) : E^T xi = i_x F}, with E the embedding of the
correspondence's generators into TM + TMt read off their names.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import block_values
from .exterior import Form, FrameVector, _eval_array, contract
from .courant import Section, pairings, split_pairing_matrix
from .duality import section_transform_matrices
from .structures import (RANK_TOL, PointFrame, _rank, _transpose, _two_form_matrix,
                         _uniform, gcs_matrices)

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


def reduce_pointwise(actions):
    """Quotients K-perp / (K intersect K-perp) with their induced pairings,
    one ``ReducedSpace`` per action, in order.

    The reduction is exact precisely when K is isotropic; the induced pairing
    is well defined because the radical pairs to zero against all of K-perp.
    Actions of one shape run each step once on their stack, split by rank
    wherever a basis dimension may differ between them.
    """
    out = [None] * len(actions)
    shapes = {}
    for i, act in enumerate(actions):
        shapes.setdefault((act.pairing.shape, act.generators.shape), []).append(i)
    for rows in shapes.values():
        g = np.stack([actions[i].pairing for i in rows])
        k = np.stack([actions[i].generators for i in rows])
        exact = (np.abs(_transpose(k) @ g @ k).max(axis=(-2, -1), initial=0.0)
                 <= RANK_TOL * np.maximum(1.0, np.abs(g).max(axis=(-2, -1), initial=0.0)))
        for at, perp in PointFrame.nullspace(_transpose(k) @ g):
            for sub, radical in _radical(k[at], perp):
                for sub2, quotient in _quotient(perp[sub], radical):
                    local = at[sub][sub2]
                    induced = (_transpose(quotient.conj()) @ g[local] @ quotient).real
                    for fields in zip(local.tolist(), perp[sub][sub2], radical[sub2],
                                      quotient, induced, signature_of(induced).tolist()):
                        i, *spaces, sig = fields
                        out[rows[i]] = ReducedSpace(*spaces, bool(exact[i]), tuple(sig))
    return out


def _radical(k, perp):
    """Bases of K intersect K-perp from the kernel of [K | -perp], by rank."""
    return [(at[sub], radical)
            for at, null in PointFrame.nullspace(np.concatenate([k, -perp], axis=-1))
            for sub, radical in PointFrame.orthonormal_span(k[at] @ null[:, :k.shape[-1]])]


def _quotient(perp, radical):
    """Quotient representatives, the radical's complement in K-perp, by rank."""
    if not radical.shape[-1]:
        return [(slice(None), perp)]
    coords = _transpose(radical.conj()) @ perp    # radical against the perp basis
    return [(at, perp[at] @ complement)
            for at, complement in PointFrame.nullspace(coords)]


def pairing_constant_check(sections, points):
    """True when all pairwise pairings of the lift generators are constant
    across the sampled points, up to 1e-9 relative (a lifted action induces
    a fixed symmetric form on the acting algebra); also returns the spread."""
    n = len(sections)
    vals = _eval_array([p for row in pairings(sections, sections) for p in row], points)
    stack = vals.T.reshape(len(points), n, n)
    spread = np.abs(stack - stack.mean(axis=0)).max(initial=0.0)
    return bool(spread <= 1e-9 * (1.0 + np.abs(stack).max(initial=0.0))), float(spread)


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
    vals = _eval_array(coords + list(pair.F.coeffs.values()), points)
    k = pair.k
    # kk[p] has the lift vectors at point p as columns, K then Kt; each matrix
    # is C-contiguous, as a single matrix would be, so matmul runs the same
    # BLAS kernels on it
    kk = np.ascontiguousarray(
        vals[:len(coords)].reshape(len(lifts), 2 * mt, npts).transpose(2, 1, 0))
    iso_k, iso_kt = (np.abs(_transpose(v) @ g_total @ v).max(axis=(1, 2), initial=0.0)
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
    defects = np.zeros((2, npts))
    rank_ok = np.ones(npts, dtype=bool)
    for at, perp in PointFrame.nullspace(_transpose(kk) @ g_total):
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


# -- generalized tangent space of the correspondence inside the product -----------------

def generalized_tangent_basis(pair, points, f_scale=1.0):
    """Orthonormal bases (points, 2n, n) of tau_F = {(E x, xi) : E^T xi = A^T x}
    inside the product space, where A^T x = i_x F for F scaled by ``f_scale``
    (a number, or one per point).

    E embeds the correspondence's generators into TM + TMt by name, so a
    base generator lands in both factors; E^T xi is the pullback of the
    product covector xi.  tau_F is the image of the kernel of [-A^T | E^T]
    under diag(E, 1).
    """
    names = pair.chart.coframe.names + pair.dual.coframe.names
    e = np.array([[float(a == b) for b in pair.total.coframe.names] for a in names])
    n, nt = e.shape
    a = np.reshape(f_scale, (-1, 1, 1)) * _two_form_matrix(
        pair.F, _eval_array(pair.F.coeffs.values(), points))
    e_t = np.broadcast_to(e.T, (len(points), nt, n))
    kernel = _uniform(PointFrame.nullspace(np.concatenate([-_transpose(a), e_t], axis=-1)),
                      n, "tau_F", points)
    x, xi = kernel[:, :nt], kernel[:, nt:]
    return _uniform(PointFrame.orthonormal_span(np.concatenate([e @ x, xi], axis=-2)),
                    n, "tau_F", points)


def _first_factor(pair):
    """Product coordinates (TM, TMt, T*M, T*Mt) of the first factor's TM + T*M."""
    m = pair.chart.coframe.dim
    n = m + pair.dual.coframe.dim
    return list(range(m)) + list(range(n, n + m))


def transversality_check(pair, points, f_scale=1.0):
    """tau_F meets TM + T*M trivially iff the fiber block of F is invertible;
    both sides are computed independently and returned, one pair per point.
    ``f_scale`` scales F: a number, or one per point."""
    tf = generalized_tangent_basis(pair, points, f_scale)
    first = np.eye(tf.shape[-2])[:, _first_factor(pair)]
    both = np.concatenate([tf, np.broadcast_to(-first, tf.shape[:1] + first.shape)], axis=-1)
    # the two spans meet trivially iff the columns of [tf | -first] are independent
    transversal = _rank(np.linalg.svd(both, compute_uv=False)) == both.shape[-1]
    mats = block_values(pair.fiber_block(), points)
    s = np.linalg.svd(np.reshape(f_scale, (-1, 1, 1)) * mats, compute_uv=False)
    return list(zip(transversal.tolist(), (_rank(s) == pair.k).tolist()))


def fourier_mukai_check(pair, rho_m, rho_t, points):
    """Two independent duality criteria for pointwise structures, at each point.

    ``rho_m`` (points, 2^m) and ``rho_t`` (points, 2^mt) are the values of a
    pure spinor on each side at the points.  Route one: tau_F is invariant
    under the product structure (J, c Jt c^-1) with c = diag(1, -1) on the
    second factor.  Route two: Jt equals the conjugate of J by the section
    transform.  Returns [(route1, route2, defect1, defect2)], one per point,
    each route passing with a defect up to 1e-8; the routes agree for valid
    inputs.
    """
    j_m = gcs_matrices(pair.chart.coframe, rho_m, points)
    j_t = gcs_matrices(pair.dual.coframe, rho_t, points)
    mt = pair.dual.coframe.dim
    c = np.diag([1.0] * mt + [-1.0] * mt)
    tf = generalized_tangent_basis(pair, points)
    # the product structure in (TM, TMt, T*M, T*Mt) coordinates
    dim = tf.shape[-2]
    idx_m = _first_factor(pair)
    idx_t = [i for i in range(dim) if i not in idx_m]
    big = np.zeros((len(points), dim, dim))
    big[(slice(None),) + np.ix_(idx_m, idx_m)] = j_m
    big[(slice(None),) + np.ix_(idx_t, idx_t)] = c @ j_t @ c
    proj = tf @ _transpose(tf.conj())
    image = big @ tf
    defect1 = np.abs(image - proj @ image).max(axis=(-2, -1))
    phi = section_transform_matrices(pair, points).real
    defect2 = np.abs(j_t - phi @ j_m @ np.linalg.inv(phi)).max(axis=(-2, -1))
    return [(d1 <= 1e-8, d2 <= 1e-8, d1, d2)
            for d1, d2 in zip(defect1.tolist(), defect2.tolist())]
