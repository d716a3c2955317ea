"""Pointwise Courant reduction and reinterpretations of the duality.

All statements here are realized as linear algebra at sampled points: the
reduction of a lifted torus action, the two-quotient description of a dual
pair (the correspondence reduces to either side, isometrically), the
generalized tangent space of the correspondence inside the product, and the
two equivalent duality criteria for pointwise structures (invariance of that
tangent space under the product structure, and conjugation of the structure
endomorphisms by the section transform).

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
    """(positive, negative, null) eigenvalue counts of a symmetric matrix."""
    if sym_matrix.size == 0:
        return 0, 0, 0
    w = np.linalg.eigvalsh((sym_matrix + sym_matrix.T) / 2)
    scale = max(np.abs(w).max(), 1.0)
    pos = int(np.sum(w > RANK_TOL * scale))
    neg = int(np.sum(w < -RANK_TOL * scale))
    return pos, neg, len(w) - pos - neg


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
    the coefficients of F are evaluated at every point in one pass.
    """
    total_cof = pair.total.coframe
    mt = total_cof.dim
    g_total = split_pairing_matrix(mt)
    lifts = duality_lift_sections(pair)
    coords = [c for s in lifts for c in s.coordinates()]
    vals = eval_complex_points(coords + list(pair.F.coeffs.values()), points)
    k = pair.k
    # onto the first factor: perp already has no cofiber covector legs;
    # onto the second: shear by F so the first-factor lift becomes tangent
    routes = []
    for dropped in (pair.dual.fiber_names, pair.chart.fiber_names):
        drop = [total_cof.index(n) for n in dropped]
        keep = [i for i in range(mt) if i not in drop]
        routes.append(([mt + i for i in drop], keep + [mt + i for i in keep],
                       split_pairing_matrix(len(keep))))
    reports = []
    for p in range(len(points)):
        at = [zs[p] for zs in vals]
        vecs = [np.array(at[i:i + 2 * mt], dtype=complex)
                for i in range(0, len(coords), 2 * mt)]
        k_vecs = np.stack(vecs[:k], axis=1)
        kt_vecs = np.stack(vecs[k:], axis=1)
        iso_k = float(np.abs(k_vecs.T @ g_total @ k_vecs).max())
        iso_kt = float(np.abs(kt_vecs.T @ g_total @ kt_vecs).max())
        kk = np.concatenate([k_vecs, kt_vecs], axis=1)
        gram = (kk.T @ g_total @ kk).real
        sig = signature_of(gram)
        split_ok = sig[:2] == (k, k)
        perp = PointFrame.nullspace(kk.T @ g_total)
        shear = np.eye(2 * mt)
        shear[mt:, :mt] += _two_form_matrix(pair.F, at[len(coords):]).T
        g_perp = perp.T @ g_total @ perp
        defects, rank_ok = [], True
        for (drop, keep, g_side), vectors in zip(routes, (perp, shear @ perp)):
            if (np.abs(vectors[drop]) > 1e-7).any():
                raise AssertionError("covector leg survived where it must vanish")
            mapped = vectors[keep]
            defects.append(float(np.abs(mapped.T @ g_side @ mapped - g_perp).max()))
            rank_ok = (rank_ok and _rank(np.linalg.svd(mapped, compute_uv=False))
                       == len(keep))
        reports.append(ReductionReport(iso_k, iso_kt, bool(split_ok),
                                       float(np.linalg.det(gram)),
                                       defects[0], defects[1], rank_ok))
    return reports


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
