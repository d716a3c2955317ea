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
"""
from __future__ import annotations

import numpy as np

from .scalar import (CScalar, ZERO, ONE, rat, sadd, sdiv, smul, sneg, ssub,
                     solve_linear_symbolic, sym_matrix_inverse)
from .exterior import (Form, FrameVector, contract, eval_complex, exp_form,
                       fiber_integrate, strip_rightmost, wedge)
from .bundle import DualityPair, form_residual
from .courant import Section, section_basis
from .structures import GeneralizedMetric, PureSpinor, SymTensor

__all__ = [
    "DualityPair", "dualize_form", "dualize_form_reverse", "dualize_section",
    "transform_matrix_at", "section_transform_matrix_at",
    "compatibility_residual", "transport_spinor", "transport_metric",
    "buscher_rules", "split_metric", "split_two_form", "assemble_metric",
    "dual_type_at", "bihermitian_dual_at", "orientation_sign",
    "uk_transport_residual", "reverse_sign",
]


# -- the form transform ---------------------------------------------------------------

def dualize_form(rho, pair):
    """Integral over the fibers of e^F ^ (pullback of rho), as a form on the dual."""
    lifted = pair.pull(rho)
    integrand = wedge(exp_form(pair.F), lifted)
    down = fiber_integrate(integrand, ("fiber",))
    return pair.push_mt(down)


def dualize_form_reverse(rho_t, pair):
    """The reverse-direction transform: e^(-F), integrating the dual fibers."""
    lifted = pair.pull(rho_t)
    integrand = wedge(exp_form(-pair.F), lifted)
    down = fiber_integrate(integrand, ("cofiber",))
    return pair.push_m(down)


def reverse_sign(pair):
    """Global constant c with reverse(forward(rho)) = c rho, measured on the
    constant probe at the midpoint of the chart box."""
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


def transform_matrix_at(pair, point):
    """Pointwise matrix of the form transform on coefficient vectors: column
    ``mask`` is the transform of the basis monomial e_mask at the point.  The
    symbolic columns are built once per pair; only their values are per point."""
    cols = _form_columns(pair)
    out = np.zeros((1 << pair.dual.coframe.dim, len(cols)), dtype=complex)
    cells = [(m, j) for j, col in enumerate(cols) for m in col.coeffs]
    vals = eval_complex([c for col in cols for c in col.coeffs.values()], point)
    for (m, j), z in zip(cells, vals):
        out[m, j] = z
    return out


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
    # F(E_thetat_j, E_theta_i) = -F(E_theta_i, E_thetat_j)
    block = [[sneg(e) for e in row] for row in pair.fiber_block()]
    lift_re = solve_linear_symbolic(block, [r.re for r in rhs])
    lift_im = solve_linear_symbolic(block, [r.im for r in rhs])
    lift = FrameVector(cof, tuple(
        w.x.components[idx] + _delta(cof, cofibers, idx, lift_re, lift_im)
        for idx in range(cof.dim)))
    eta = w.xi - contract(lift, pair.F)
    # the fiber components of eta vanish by construction; drop them structurally
    fiber_mask = cof.tag_mask("fiber")
    eta = Form(cof, {m: c for m, c in eta.coeffs.items() if not m & fiber_mask})
    pushed_x = FrameVector(cof, tuple(
        CScalar() if cof.tags[i] == "fiber" else lift.components[i]
        for i in range(cof.dim)))
    out = Section(pushed_x, eta)
    return out.map_to(pair.dual.coframe)


def _delta(cof, cofibers, idx, lift_re, lift_im):
    name = cof.names[idx]
    if name in cofibers:
        j = cofibers.index(name)
        return CScalar(lift_re[j], lift_im[j])
    return CScalar()


def _section_columns(pair):
    """The transforms of the 2m sections of ``section_basis``, in order."""
    return pair.cache("_section_columns", lambda: tuple(
        dualize_section(s, pair) for s in section_basis(pair.chart.coframe)))


def section_transform_matrix_at(pair, point):
    """Numeric 2m x 2m matrix of the section transform at a base point; the
    symbolic columns are built once per pair."""
    cols = _section_columns(pair)
    vals = eval_complex([c for s in cols for c in s.coordinates()], point)
    return np.array(vals, dtype=complex).reshape(len(cols), -1).T.copy()


def compatibility_residual(v, rho, pair, points):
    """Max-abs residual of dualize_form(v . rho) = dualize_section(v) . dualize_form(rho)."""
    lhs = dualize_form(v.act(rho), pair)
    rhs = dualize_section(v, pair).act(dualize_form(rho, pair))
    return form_residual(lhs - rhs, pair.dual.domain, points)


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

def dual_type_at(spinor, pair, point):
    """Dual type via the smallest j with a surviving fiber integral.

    Computed as type + 2j - k where j is the least power of (F + B + i omega)
    whose wedge with the decomposable factor has a nonzero fiber integral at
    the point, relative to 1e-9 of the integrand.  Requires construction data
    on the spinor.  Returns (type, j).
    """
    if spinor.lowest is None:
        raise ValueError("spinor carries no construction data")
    cof = pair.total.coframe
    two_form = pair.F + pair.pull(spinor.b + spinor.omega.scale(CScalar.i()))
    omega_big = pair.pull(spinor.lowest)
    k = pair.k
    base_type = spinor.lowest.max_degree()
    power = Form.scalar(cof, 1)
    for j in range(0, k + 1):
        if j > 0:
            power = wedge(power, two_form)
        integrand = wedge(power, omega_big)
        scale = max((abs(v) for v in integrand.eval_coeffs(point).values()),
                    default=0.0)
        if scale == 0.0:
            continue
        integral = fiber_integrate(integrand, ("fiber",))
        vals = integral.eval_coeffs(point)
        magnitude = max((abs(v) for v in vals.values()), default=0.0)
        if magnitude > 1e-9 * scale:
            return base_type + 2 * j - k, j
    raise ValueError("no power of the correspondence data survives integration; "
                     "the spinor degenerates against the fibers at this point")


# -- bi-Hermitian transport ---------------------------------------------------------------

def bihermitian_dual_at(i_matrix, metric, chart, point, side):
    """Dual tangent complex structure under the metric-connection identification.

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
    g = metric.g.eval_matrix(point)
    base_idx = [i for i in range(cof.dim) if i != i_th]
    if np.abs(g[i_th, base_idx]).max() > 1e-9:
        raise ValueError("connection is not the metric connection "
                         "(mixed fiber/base metric term present)")
    g0 = g[i_th, i_th]
    m = cof.dim
    i_mat = np.asarray(i_matrix, dtype=float)
    if np.abs(i_mat @ i_mat + np.eye(m)).max() > 1e-9:
        raise ValueError("input is not an almost complex structure")
    if np.abs(i_mat.T @ g @ i_mat - g).max() > 1e-6:
        raise ValueError("complex structure is not compatible with the metric")
    e_th = np.zeros(m)
    e_th[i_th] = 1.0
    ie = i_mat @ e_th
    span = np.stack([e_th, ie], axis=1)
    # g-orthogonal projector onto span{e_theta, I e_theta}
    gram = span.T @ g @ span
    proj = span @ np.linalg.inv(gram) @ span.T @ g
    perp = np.eye(m) - proj
    out = i_mat @ perp
    jt_eth = side * (1.0 / g0) * ie
    jt_ie = -side * g0 * e_th
    # the rule on the distinguished plane, in plane coordinates (e_th, I e_th)
    coeff = np.linalg.inv(gram) @ span.T @ g
    out += np.outer(jt_eth, coeff[0]) + np.outer(jt_ie, coeff[1])
    return out


def orientation_sign(j_matrix):
    """Orientation induced by an almost complex structure: sign of det of a
    basis (v1, J v1, v2, J v2, ...) built greedily."""
    j = np.asarray(j_matrix, dtype=float)
    m = j.shape[0]
    cols = []
    for i in range(m):
        v = np.zeros(m)
        v[i] = 1.0
        test = cols + [v, j @ v]
        a = np.stack(test, axis=1)
        if np.linalg.matrix_rank(a, tol=1e-10) == len(test):
            cols = test
        if len(cols) == m:
            break
    det = np.linalg.det(np.stack(cols, axis=1))
    return 1 if det > 0 else -1


# -- eigenspace-ladder transport ------------------------------------------------------------

def uk_transport_residual(spinor, pair, point):
    """Max membership defect of the transported ladder in the dual ladder.

    For each level, the pointwise form transform of a basis of the source
    eigenspace must land in the span of the dual eigenspace computed
    independently from the transported spinor.
    """
    from .structures import uk_spaces_at
    t = transform_matrix_at(pair, point)
    src = uk_spaces_at(spinor, pair.chart, point)
    dual_spinor = transport_spinor(spinor, pair)
    dst = dict()
    for level, basis in uk_spaces_at(dual_spinor, pair.dual, point):
        dst[level] = basis
    worst = 0.0
    for level, basis in src:
        target = dst[level]
        proj = target @ target.conj().T
        for col in range(basis.shape[1]):
            image = t @ basis[:, col]
            norm = np.linalg.norm(image)
            if norm == 0:
                raise ValueError("transform annihilated an eigenspace member")
            defect = np.linalg.norm(image - proj @ image) / norm
            worst = max(worst, float(defect))
    return worst
