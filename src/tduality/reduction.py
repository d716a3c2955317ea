"""Pointwise Courant reduction and reinterpretations of the duality.

All statements here are realized as linear algebra at sampled points: the
reduction of a lifted torus action, the two-quotient description of a dual
pair (the correspondence reduces to either side, isometrically), the
generalized tangent space of the correspondence inside the product, and the
two equivalent duality criteria for pointwise structures (invariance of that
tangent space under the product structure, and conjugation of the structure
endomorphisms by the section transform).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scalar import evaluate
from .exterior import Form, FrameVector, contract, eval_complex_points
from .bundle import base_generator
from .courant import Section, pairing, split_pairing_matrix
from .duality import section_transform_matrix_at
from .structures import RANK_TOL, PointFrame, gcs_matrix_at, two_form_matrix_at

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
    """Orthonormal basis of span(a) intersect span(b)."""
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
    k_orth = np.linalg.qr(k)[0] if k.shape[1] else k
    radical = _intersect(k_orth, perp)
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


def double_quotient_report(pair, point):
    """Check that the correspondence reduces isometrically onto both sides.

    (i) the two halves of the lift are isotropic, (ii) their sum carries a
    nondegenerate split pairing, (iii) dropping the appropriate fiber
    components after the F-shear maps the orthogonal complement isometrically
    onto the invariant T+T* fibers of either side.
    """
    total_cof = pair.total.coframe
    mt = total_cof.dim
    g_total = split_pairing_matrix(mt)
    lifts = [s.eval_vector(point) for s in duality_lift_sections(pair)]
    k = pair.k
    k_vecs = np.stack(lifts[:k], axis=1)
    kt_vecs = np.stack(lifts[k:], axis=1)
    iso_k = float(np.abs(k_vecs.T @ g_total @ k_vecs).max())
    iso_kt = float(np.abs(kt_vecs.T @ g_total @ kt_vecs).max())
    kk = np.concatenate([k_vecs, kt_vecs], axis=1)
    gram = (kk.T @ g_total @ kk).real
    sig = signature_of(gram)
    split_ok = sig[:2] == (k, k)
    perp = PointFrame.nullspace(kk.T @ g_total)

    fiber_idx = [total_cof.index(n) for n in pair.chart.fiber_names]
    cofiber_idx = [total_cof.index(n) for n in pair.dual.fiber_names]

    def project(vectors, drop_vec_idx, keep_idx):
        """Drop the given vector components; keep the listed slots (vector
        then covector) as the target-side section coordinates."""
        out = []
        for col in range(vectors.shape[1]):
            v = vectors[:, col]
            for i in drop_vec_idx:
                if abs(v[mt + i]) > 1e-7:
                    raise AssertionError("covector leg survived where it must vanish")
            out.append(np.concatenate([v[keep_idx], v[[mt + i for i in keep_idx]]]))
        return np.stack(out, axis=1)

    # route onto the first factor: perp already has no cofiber covector legs
    keep_m = [i for i in range(mt) if i not in cofiber_idx]
    mapped_m = project(perp, cofiber_idx, keep_m)
    g_m = split_pairing_matrix(len(keep_m))
    defect_m = float(np.abs(mapped_m.T @ g_m @ mapped_m - perp.T @ g_total @ perp).max())
    rank_m = np.linalg.matrix_rank(mapped_m, tol=1e-9) == 2 * len(keep_m)

    # route onto the second factor: shear by F so the first-factor lift
    # becomes tangent, then drop its fiber components
    f_mat = two_form_matrix_at(pair.F, point)
    shear = np.eye(2 * mt)
    shear[mt:, :mt] += f_mat.T
    sheared = shear @ perp
    keep_t = [i for i in range(mt) if i not in fiber_idx]
    mapped_t = project(sheared, fiber_idx, keep_t)
    g_t = split_pairing_matrix(len(keep_t))
    defect_t = float(np.abs(mapped_t.T @ g_t @ mapped_t - perp.T @ g_total @ perp).max())
    rank_t = np.linalg.matrix_rank(mapped_t, tol=1e-9) == 2 * len(keep_t)

    return ReductionReport(iso_k, iso_kt, bool(split_ok), float(np.linalg.det(gram)),
                           defect_m, defect_t, bool(rank_m and rank_t))


# -- generalized tangent space of the correspondence inside the product -----------------

def _product_layout(pair):
    m = pair.chart.coframe.dim
    mt = pair.dual.coframe.dim
    return m, mt, 2 * (m + mt)


def generalized_tangent_basis(pair, point, f_scale=1.0):
    """Basis of tau_F = {X + xi : X tangent to the correspondence,
    xi restricting there to i_X F} inside the product space.

    Product coordinates: (TM, TMt, T*M, T*Mt) with M's base frame first.
    The base diagonal realizes the fiber product; covectors annihilating it
    are added as the pure-covector part of the space.
    """
    cof_m = pair.chart.coframe
    cof_t = pair.dual.coframe
    total_cof = pair.total.coframe
    m, mt, dim = _product_layout(pair)
    n = m + mt
    f_mat = f_scale * two_form_matrix_at(pair.F, point)
    base_idx_m = [cof_m.index(base_generator(v)) for v in pair.chart.base_vars]
    base_idx_t = [cof_t.index(base_generator(v)) for v in pair.dual.base_vars]
    total_of_m = [total_cof.index(nm) for nm in cof_m.names]
    total_of_t = [total_cof.index(nm) for nm in cof_t.names]

    basis = []
    # tangent directions of the fiber product with their F-images
    tangent_dirs = []
    for a, v in enumerate(pair.chart.base_vars):
        vec = np.zeros(dim)
        vec[base_idx_m[a]] = 1.0
        vec[m + base_idx_t[a]] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(base_generator(v))] = 1.0
        tangent_dirs.append((vec, lift))
    for nm in pair.chart.fiber_names:
        vec = np.zeros(dim)
        vec[cof_m.index(nm)] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(nm)] = 1.0
        tangent_dirs.append((vec, lift))
    for nm in pair.dual.fiber_names:
        vec = np.zeros(dim)
        vec[m + cof_t.index(nm)] = 1.0
        lift = np.zeros(total_cof.dim)
        lift[total_cof.index(nm)] = 1.0
        tangent_dirs.append((vec, lift))
    for vec, lift in tangent_dirs:
        ixf = lift @ f_mat               # 1-form on the correspondence coframe
        covec = np.zeros(dim)
        for i, nm in enumerate(cof_m.names):
            covec[n + i] += ixf[total_of_m[i]]
        for j, nm in enumerate(cof_t.names):
            if total_cof.tags[total_of_t[j]] != "base":
                covec[n + m + j] += ixf[total_of_t[j]]
        basis.append(vec + covec)
    # annihilator of the diagonal: dx_M - dx_Mt
    for a in range(len(base_idx_m)):
        covec = np.zeros(dim)
        covec[n + base_idx_m[a]] = 1.0
        covec[n + m + base_idx_t[a]] = -1.0
        basis.append(covec)
    return np.stack(basis, axis=1)


def tau_side_basis(pair):
    """T M + T* M of the first factor inside the product coordinates."""
    m, mt, dim = _product_layout(pair)
    cols = [np.zeros(dim) for _ in range(2 * m)]
    for i in range(m):
        cols[i][i] = 1.0
        cols[m + i][m + mt + i] = 1.0
    return np.stack(cols, axis=1)


def transversality_check(pair, point, f_scale=1.0):
    """tau_F meets TM + T*M trivially iff the fiber block of F is invertible;
    both sides are computed independently and returned."""
    tf = generalized_tangent_basis(pair, point, f_scale)
    tm = tau_side_basis(pair)
    inter = _intersect(np.linalg.qr(tf)[0], tm)
    transversal = inter.shape[1] == 0
    mat = np.array([[evaluate(e, point) for e in row] for row in pair.fiber_block()])
    block_invertible = abs(np.linalg.det(f_scale * mat)) > RANK_TOL
    return transversal, block_invertible


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
    m, mt, dim = _product_layout(pair)
    n = m + mt
    c = np.diag([1.0] * mt + [-1.0] * mt)
    j_t_conj = c @ j_t @ c
    # assemble the product structure in (TM, TMt, T*M, T*Mt) coordinates
    big = np.zeros((dim, dim))
    idx_m = list(range(m)) + list(range(n, n + m))
    idx_t = list(range(m, m + mt)) + list(range(n + m, n + m + mt))
    big[np.ix_(idx_m, idx_m)] = j_m
    big[np.ix_(idx_t, idx_t)] = j_t_conj
    tf = np.linalg.qr(generalized_tangent_basis(pair, point))[0]
    proj = tf @ tf.conj().T
    image = big @ tf
    defect1 = float(np.abs(image - proj @ image).max())
    phi = section_transform_matrix_at(pair, point).real
    defect2 = float(np.abs(j_t - phi @ j_m @ np.linalg.inv(phi)).max())
    return defect1 <= 1e-8, defect2 <= 1e-8, defect1, defect2
