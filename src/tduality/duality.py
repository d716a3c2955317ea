"""Transport of differential forms and generalized structures across a duality.

A dual pair is the correspondence object ``bundle.DualityPair`` (re-exported
here): the chart, its dual, and the correspondence chart carrying F.  The
two transforms of a dual pair:

* ``dualize_form``: rho -> integral over the torus fibers of e^F ^ rho,
  an isomorphism of invariant twisted de Rham complexes;
* ``dualize_section``: X + xi -> the pushforward of the F-transformed unique
  lift whose covector part is basic for the second projection, an orthogonal
  bracket-preserving map of invariant sections.

They intertwine the Clifford module structure:
dualize_form(v . rho) = dualize_section(v) . dualize_form(rho).

Sign conventions, fixed once and validated by the intertwining identity:
fiber volumes are extracted with the fiber generators moved rightmost, and the
standard correspondence form is F = -sum_i theta_i ^ thetat_i.  The
reverse-direction transform uses e^(-F) and integrates over the dual fibers;
the composite is a global constant recorded per pair (for the standard F it
is (-1)^(k(k+3)/2)).

The pointwise functions take a list of points and stack their linear algebra
over them, as in ``structures``; ``transform_matrix_at`` and
``uk_transport_residual`` are the one-point forms the benchmark calls.
"""
from __future__ import annotations

import numpy as np

from .scalar import (CZERO, CScalar, ZERO, ONE, rat, sadd, sdiv, smul, sneg, ssub,
                     sym_matrix_inverse)
from .exterior import (Form, FrameVector, _eval_array, contract, exp_form,
                       fiber_integrate, strip_rightmost, wedge)
from .bundle import DualityPair
from .courant import Section, section_basis
from .structures import (GeneralizedMetric, PointFrame, PureSpinor, SymTensor,
                         _first_failure, _transpose, uk_spaces)

__all__ = [
    "DualityPair", "dualize_form", "dualize_form_reverse", "dualize_section",
    "transform_matrices", "transform_matrix_at", "section_transform_matrices",
    "transport_spinor", "transport_metric",
    "buscher_rules", "split_metric", "split_two_form", "assemble_metric",
    "dual_types", "bihermitian_dual", "orientation_sign",
    "uk_transport_residuals", "uk_transport_residual", "reverse_sign",
]


# -- the form transform ---------------------------------------------------------------

def dualize_form(rho, pair):
    """Integral over the fibers of e^F ^ (pullback of rho), as a form on the
    dual; e^F is built once per pair."""
    lifted = pair.pull(rho)
    integrand = wedge(pair.cache("_exp_F", lambda: exp_form(pair.F)), lifted)
    down = fiber_integrate(integrand, ("fiber",))
    return pair.push_mt(down)


def dualize_form_reverse(rho_t, pair):
    """The reverse-direction transform: e^(-F), built once per pair,
    integrating the dual fibers."""
    lifted = pair.pull(rho_t)
    integrand = wedge(pair.cache("_exp_minus_F", lambda: exp_form(-pair.F)), lifted)
    down = fiber_integrate(integrand, ("cofiber",))
    return pair.push_m(down)


def reverse_sign(pair):
    """Global constant c with reverse(forward(rho)) = c rho, measured on the
    constant probe at the midpoint of the chart box, once per pair."""
    return pair.cache("_reverse_sign", lambda: _measure_reverse_sign(pair))


def _measure_reverse_sign(pair):
    probe = Form.scalar(pair.chart.coframe, 1)
    back = dualize_form_reverse(dualize_form(probe, pair), pair)
    point = {v: (lo + hi) / 2 for v, (lo, hi) in pair.chart.domain.intervals.items()}
    return back.coeff(0).evaluate(point)


def _form_columns(pair):
    """The transforms of the 2^m basis monomials of the chart, in mask order."""
    cof = pair.chart.coframe
    return pair.cache("_form_columns", lambda: tuple(
        dualize_form(Form(cof, {mask: CScalar.one()}), pair)
        for mask in range(1 << cof.dim)))


def transform_matrices(pair, points):
    """Matrices (points, 2^mt, 2^m) of the form transform on coefficient
    vectors: column ``mask`` is the transform of e_mask at the point.  The
    symbolic columns are built once per pair and evaluated once per call."""
    cols = _form_columns(pair)
    out = np.zeros((len(points), 1 << pair.dual.coframe.dim, len(cols)), dtype=complex)
    rows = [m for col in cols for m in col.coeffs]
    js = [j for j, col in enumerate(cols) for _ in col.coeffs]
    out[:, rows, js] = _eval_array([c for col in cols for c in col.coeffs.values()],
                                   points).T
    return out


def transform_matrix_at(pair, point):
    """``transform_matrices`` at one point.  Kept for the tests and
    ``perfbench``, which wraps and calls it by name (ROADMAP 1b)."""
    return transform_matrices(pair, [point])[0]


# -- the section transform --------------------------------------------------------------

def dualize_section(v, pair):
    """Lift, F-transform, and push a section across the duality.

    The unique lift Xhat of the vector part satisfies
    xi(E_theta_i) = F(Xhat, E_theta_i) for every fiber generator, which makes
    the covector part basic for the projection to the dual side.
    """
    cof = pair.total.coframe
    w = v.map_to(cof)
    cofibers = pair.dual.fiber_names
    # right-hand side: xi(E_theta_i) - F(X_known, E_theta_i)
    known = contract(w.x, pair.F)
    rhs = [w.xi.coeff(bit) - known.coeff(bit)
           for bit in (1 << cof.index(n) for n in pair.chart.fiber_names)]
    # the inverse of F(E_thetat_j, E_theta_i) = -F(E_theta_i, E_thetat_j), kept on the pair
    inv = pair.cache("_neg_fiber_block_inverse", lambda: sym_matrix_inverse(
        [[sneg(e) for e in row] for row in pair.fiber_block()]))
    lift_re, lift_im = ([sadd(*map(smul, row, part)) for row in inv]
                        for part in ([r.re for r in rhs], [r.im for r in rhs]))
    comps = list(w.x.components)
    for name, re, im in zip(cofibers, lift_re, lift_im):
        term = CScalar(re, im)
        if not term.is_zero():
            idx = cof.index(name)
            a = comps[idx]
            comps[idx] = term if a.is_zero() else a + term
    lift = FrameVector(cof, tuple(comps))
    eta = w.xi - contract(lift, pair.F)
    # the fiber components of eta vanish by construction; drop them structurally
    fiber_mask = cof.tag_mask("fiber")
    eta = Form(cof, {m: c for m, c in eta.coeffs.items() if not m & fiber_mask})
    pushed_x = FrameVector(cof, tuple(
        CZERO if cof.tags[i] == "fiber" else lift.components[i]
        for i in range(cof.dim)))
    out = Section(pushed_x, eta)
    return out.map_to(pair.dual.coframe)


def _section_columns(pair):
    """The transforms of the 2m sections of ``section_basis``, in order."""
    return pair.cache("_section_columns", lambda: tuple(
        dualize_section(s, pair) for s in section_basis(pair.chart.coframe)))


def section_transform_matrices(pair, points):
    """Numeric (points, 2m, 2m) matrices of the section transform; the
    symbolic columns are built once per pair and evaluated once per call."""
    cols = _section_columns(pair)
    vals = _eval_array([c for s in cols for c in s.coordinates()], points)
    return np.ascontiguousarray(vals.reshape(len(cols), 2 * pair.dual.coframe.dim,
                                             len(points)).transpose(2, 1, 0))


def transport_spinor(spinor, pair):
    """Image of a pure spinor; construction data does not transport."""
    return PureSpinor(dualize_form(spinor.form, pair))


# -- generalized metrics / Buscher ------------------------------------------------------

def transport_metric(metric, pair):
    """Transport (g, b) by pushing the +1 eigenspace graph through the duality.

    A spanning set of the graph of b+g is dualized sectionwise; the image is
    re-expressed as the graph of bt+gt over the dual tangent frame.
    """
    sections = metric.cplus_sections()
    images = [dualize_section(s, pair) for s in sections]
    cof = pair.dual.coframe
    m = cof.dim
    p_cols = [[img.x.components[i] for img in images] for i in range(m)]  # m x m
    for row in p_cols:
        for c in row:
            if not c.im.is_zero():
                raise ValueError("metric transport produced complex tangent data")
    p_matrix = [[p_cols[i][j].re for j in range(m)] for i in range(m)]
    p_inv = sym_matrix_inverse(p_matrix)
    # A = eta . P^{-1}: A[gamma][beta] = sum_alpha eta_alpha[gamma] invP[alpha][beta]
    eta = [[images[a].xi.coeff(1 << g).re for g in range(m)] for a in range(m)]
    g_entries = {}
    b_out = Form.zero(cof)
    a_mat = [[sadd(*[smul(eta[al][ga], p_inv[al][be]) for al in range(m)])
              for be in range(m)] for ga in range(m)]
    for i in range(m):
        for j in range(i, m):
            sym = smul(rat(1, 2), sadd(a_mat[i][j], a_mat[j][i]))
            if not sym.is_zero():
                g_entries[(i, j)] = sym
    for i in range(m):
        for j in range(i + 1, m):
            skew = smul(rat(1, 2), ssub(a_mat[i][j], a_mat[j][i]))
            # A[i][j] is the e^i component of (b+g)(E_j): b(E_j) has e^i part b_ij with
            # b = sum_{i<j} b_ij e^i ^ e^j acting as i_X b
            if not skew.is_zero():
                b_out = b_out + Form.monomial(cof, (cof.names[i], cof.names[j]),
                                              CScalar(sneg(skew)))
    return GeneralizedMetric(SymTensor(cof, g_entries), b_out)


def split_metric(metric_tensor, chart):
    """Split an invariant metric on a circle-bundle chart into (g0, g1, g2)."""
    if chart.k != 1:
        raise ValueError("metric splitting is for circle bundles")
    cof = chart.coframe
    th = cof.index(chart.fiber_names[0])
    g0 = metric_tensor.entry(th, th)
    g1 = Form.zero(cof)
    g2_entries = {}
    for (i, j), s in metric_tensor.entries.items():
        if (i, j) == (th, th):
            continue
        if j == th:
            g1 = g1 + Form.monomial(cof, (cof.names[i],), CScalar(s))
        elif i == th:
            g1 = g1 + Form.monomial(cof, (cof.names[j],), CScalar(s))
        else:
            g2_entries[(i, j)] = s
    return g0, g1, SymTensor(cof, g2_entries)


def split_two_form(b, chart):
    """b = b1 ^ theta + b2 on a circle-bundle chart."""
    cof = chart.coframe
    th_bit = 1 << cof.index(chart.fiber_names[0])
    b1 = Form.zero(cof)
    b2 = Form.zero(cof)
    for mask, c in b.coeffs.items():
        if mask & th_bit:
            rest, term = strip_rightmost(mask, c, th_bit)
            b1 = b1 + Form(cof, {rest: term})
        else:
            b2 = b2 + Form(cof, {mask: c})
    return b1, b2


def assemble_metric(chart, g0, g1, g2, b1, b2):
    """(g, b) on the chart from fiber/base blocks (circle bundles)."""
    cof = chart.coframe
    th = chart.fiber_names[0]
    i_th = cof.index(th)
    entries = dict(g2.entries)
    if not g0.is_zero():
        entries[(i_th, i_th)] = entries.get((i_th, i_th), ZERO) + g0
    for i in range(cof.dim):
        c = g1.coeff(1 << i)
        if not c.is_zero():
            key = (min(i, i_th), max(i, i_th))
            entries[key] = entries.get(key, ZERO) + c.re
    b = wedge(b1, Form.monomial(cof, (th,))) + b2
    return GeneralizedMetric(SymTensor(cof, entries), b)


def buscher_rules(g0, g1, g2, b1, b2, pair):
    """Closed-form dual metric data for a circle bundle.

    gt = (1/g0) thetat . thetat - (b1/g0) . thetat + g2 + (b1.b1 - g1.g1)/g0
    bt = -(g1/g0) ^ thetat + b2 + g1 ^ b1 / g0

    Symmetric products: alpha . beta means alpha x beta + beta x alpha for
    distinct factors and alpha x alpha for a square.
    """
    dual = pair.dual
    cof = dual.coframe
    tht = dual.fiber_names[0]
    i_t = cof.index(tht)
    inv_g0 = sdiv(ONE, g0)
    entries = {(i_t, i_t): inv_g0}
    g1d = g1.map_to(cof)
    b1d = b1.map_to(cof)
    g2d = g2.map_to(cof)
    b2d = b2.map_to(cof)
    m = cof.dim
    for i in range(m):
        c = b1d.coeff(1 << i)
        if not c.is_zero():
            key = (min(i, i_t), max(i, i_t))
            entries[key] = entries.get(key, ZERO) + sneg(sdiv(c.re, g0))
    gt = SymTensor(cof, entries) + g2d
    # (b1 . b1 - g1 . g1) / g0 over base generators
    cross = {}
    for i in range(m):
        for j in range(i, m):
            bi, bj = b1d.coeff(1 << i).re, b1d.coeff(1 << j).re
            gi, gj = g1d.coeff(1 << i).re, g1d.coeff(1 << j).re
            term = smul(bi, bj) - smul(gi, gj)
            term = sdiv(term, g0)
            if not term.is_zero():
                cross[(i, j)] = term
    gt = gt + SymTensor(cof, cross)
    tht_form = Form.monomial(cof, (tht,))
    bt = (wedge(g1d.scale(CScalar(sneg(sdiv(ONE, g0)))), tht_form)
          + b2d
          + wedge(g1d, b1d).scale(CScalar(sdiv(ONE, g0))))
    return GeneralizedMetric(gt, bt)


# -- type change -------------------------------------------------------------------------

def dual_types(spinor, pair, points):
    """Dual type at each point via the smallest j with a surviving fiber integral.

    Computed as type + 2j - k where j is the least power of (F + B + i omega)
    whose wedge with the decomposable factor has a nonzero fiber integral at
    the point, relative to 1e-9 of the integrand.  Requires construction data
    on the spinor.  Returns [(type, j)], one per point.  Each power and its
    fiber integral is built once, and only while some point has no j yet.
    """
    if spinor.lowest is None:
        raise ValueError("spinor carries no construction data")
    cof = pair.total.coframe
    two_form = pair.F + pair.pull(spinor.b + spinor.omega.scale(CScalar.i()))
    omega_big = pair.pull(spinor.lowest)
    k = pair.k
    base_type = spinor.lowest.max_degree()
    js = np.full(len(points), -1)
    power = Form.scalar(cof, 1)
    for j in range(0, k + 1):
        pending = np.flatnonzero(js < 0)
        if not pending.size:
            break
        if j > 0:
            power = wedge(power, two_form)
        integrand = wedge(power, omega_big)
        at = [points[i] for i in pending]
        scale = _magnitudes(integrand, at)
        if scale.any():
            magnitude = _magnitudes(fiber_integrate(integrand, ("fiber",)), at)
            js[pending[magnitude > 1e-9 * scale]] = j
    _first_failure(js < 0, "no power of the correspondence data survives integration; "
                   "the spinor degenerates against the fibers", points)
    return [(base_type + 2 * j - k, j) for j in js.tolist()]


def _magnitudes(form, points):
    """Largest coefficient modulus of a form at each point."""
    return np.abs(_eval_array(form.coeffs.values(), points)).max(axis=0, initial=0.0)


# -- bi-Hermitian transport ---------------------------------------------------------------

def bihermitian_dual(i_matrix, metric, chart, points, side):
    """Dual tangent complex structure under the metric-connection
    identification, at each point: (points, m, m).

    For w orthogonal to span{E_theta, I E_theta}: unchanged; the fiber
    direction maps by +-(1/g0) I E_theta and I E_theta by -+ g0 E_theta.
    Requires the connection to be metric (no mixed fiber/base metric term)
    and I^2 = -1, each up to 1e-9.  side is +1 or -1.
    """
    if side not in (+1, -1):
        raise ValueError("side must be +1 or -1")
    if chart.k != 1:
        raise ValueError("bi-Hermitian transport is for circle bundles")
    cof = chart.coframe
    i_th = cof.index(chart.fiber_names[0])
    g = metric.g.eval_matrices(points)
    base_idx = [i for i in range(cof.dim) if i != i_th]
    _first_failure(np.abs(g[:, i_th, base_idx]).max(axis=-1) > 1e-9,
                   "connection is not the metric connection "
                   "(mixed fiber/base metric term present)", points)
    g0 = g[:, i_th, i_th, None]
    m = cof.dim
    i_mat = np.asarray(i_matrix, dtype=float)
    if np.abs(i_mat @ i_mat + np.eye(m)).max() > 1e-9:
        raise ValueError("input is not an almost complex structure")
    _first_failure(np.abs(i_mat.T @ g @ i_mat - g).max(axis=(-2, -1)) > 1e-6,
                   "complex structure is not compatible with the metric", points)
    e_th = np.zeros(m)
    e_th[i_th] = 1.0
    ie = i_mat @ e_th
    span = np.stack([e_th, ie], axis=1)
    # g-orthogonal projector onto span{e_theta, I e_theta}
    gram = span.T @ g @ span
    proj = span @ np.linalg.inv(gram) @ span.T @ g
    perp = np.eye(m) - proj
    out = i_mat @ perp
    # the rule on the distinguished plane, in plane coordinates (e_th, I e_th)
    coeff = np.linalg.inv(gram) @ span.T @ g
    out += ((side * (1.0 / g0) * ie)[:, :, None] * coeff[:, None, 0]
            + (-side * g0 * e_th)[:, :, None] * coeff[:, None, 1])
    return out


def orientation_sign(j_matrix):
    """Orientation induced by an almost complex structure J: the sign of
    det(u1, J u1, ..., un, J un), where the uk are the real parts of a basis
    of the +i eigenspace of J, so that (u1, ..., un) is a complex basis."""
    j = np.asarray(j_matrix, dtype=float)
    u = PointFrame.nullspace(j - 1j * np.eye(len(j))).real
    basis = np.stack([u, j @ u], axis=2).reshape(len(j), -1)
    return 1 if np.linalg.det(basis) > 0 else -1


# -- eigenspace-ladder transport ------------------------------------------------------------

def uk_transport_residuals(spinor, pair, points):
    """Max membership defect of the transported ladder in the dual ladder, at
    each point.

    For each level, the pointwise form transform of a basis of the source
    eigenspace must land in the span of the dual eigenspace computed
    independently from the transported spinor, which is built once per call.
    """
    t = transform_matrices(pair, points)
    src = uk_spaces(pair.chart.coframe, spinor.form.eval_vectors(points), points)
    dual_rho = dualize_form(spinor.form, pair).eval_vectors(points)
    dst = dict(uk_spaces(pair.dual.coframe, dual_rho, points))
    worst = np.zeros(len(points))
    for level, basis in src:
        target = dst[level]
        proj = target @ _transpose(target.conj())
        for col in range(basis.shape[-1]):
            image = t @ basis[..., col, None]
            norm = _norms(image)
            _first_failure(norm == 0, "transform annihilated an eigenspace member", points)
            worst = np.maximum(worst, _norms(image - proj @ image) / norm)
    return worst.tolist()


def uk_transport_residual(spinor, pair, point):
    """``uk_transport_residuals`` at one point.  Kept for the tests and the
    dense-points workload of ``perfbench`` (ROADMAP 1b)."""
    return uk_transport_residuals(spinor, pair, [point])[0]


def _norms(columns):
    """Norm of each (n, 1) column of a stack, summed as ``np.linalg.norm`` sums
    one (a (1, n) @ (n, 1) product is the same strided dot)."""
    re, im = columns.real, columns.imag
    return np.sqrt(_transpose(re) @ re + _transpose(im) @ im)[:, 0, 0]
