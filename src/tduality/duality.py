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
dualize_form(v . rho) = dualize_section(v) . dualize_form(rho).  Each runs as
one pass over plain dicts, reading a route table that its first call builds
and keeps on the pair (``DualityPair.cache``), so that it dies with the pair;
the section transform's interior products are ``exterior.clifford`` on the
lift's nonzero components and F's coefficients: one call for the chart part
of the lift on all of F, one for its cofiber part on F's terms without a
fiber leg.

Sign conventions, fixed once and validated by the intertwining identity:
fiber volumes are extracted with the fiber generators moved rightmost, and the
standard correspondence form is F = -sum_i theta_i ^ thetat_i.  The
reverse-direction transform uses e^(-F) and integrates over the dual fibers;
the composite is a global constant recorded per pair (for the standard F it
is (-1)^(k(k+3)/2)).

The pointwise functions take a list of points and stack their linear algebra
over them, as in ``structures``; ``transform_matrix_at`` and
``uk_transport_residual`` are the one-point forms the benchmark calls, and
``orientation_sign`` hands the rank helpers its one matrix as a stack of one.
The Buscher rules map a generalized metric on a circle-bundle chart to one on
the dual, the map of ``transport_metric`` in closed form: ``buscher_rules``
reads the five blocks of ``split_metric``, the one block splitter (b is split
by ``bundle.split_fiber_legs``), and returns ``assemble_metric`` of the dual
blocks.  The assembly refuses the blocks that the splitter would not give
back, so the two are exact inverses.  Every sum at a dict key, CScalar or
Scalar, is one ``exterior._keyed_sum`` of its signed units.
"""
from __future__ import annotations

import numpy as np

from .scalar import (CZERO, CScalar, ZERO, ONE, rat, sadd, sdiv, smul, sneg, ssub,
                     sym_matrix_inverse)
from .exterior import (Form, FrameVector, _eval_array, _keyed_sum, clifford, exp_form,
                       fiber_integrate, fiber_routes, frame_action, integral_transform, wedge)
from .bundle import DualityPair, split_fiber_legs
from .courant import Section, section_basis
from .structures import (GeneralizedMetric, PointFrame, PureSpinor, SymTensor,
                         _first_failure, _transpose, uk_spaces)

__all__ = [
    "DualityPair", "dualize_form", "dualize_form_reverse", "dualize_section",
    "transform_matrices", "transform_matrix_at", "section_transform_matrices",
    "transport_spinor", "transport_metric",
    "buscher_rules", "split_metric", "assemble_metric",
    "dual_types", "bihermitian_dual", "orientation_sign",
    "uk_transport_residuals", "uk_transport_residual", "reverse_sign",
]


# -- the form transform ---------------------------------------------------------------

def dualize_form(rho, pair):
    """Integral over the fibers of e^F ^ (pullback of rho), as a form on the
    dual; e^F and its route table are built once per pair."""
    return integral_transform(rho, pair.cache("_form_routes", lambda: fiber_routes(
        exp_form(pair.F), pair.chart.coframe, pair.dual.coframe, ("fiber",))))


def dualize_form_reverse(rho_t, pair):
    """The reverse-direction transform: e^(-F), built once per pair with its
    route table, integrating the dual fibers."""
    return integral_transform(rho_t, pair.cache("_reverse_routes", lambda: fiber_routes(
        exp_form(-pair.F), pair.dual.coframe, pair.chart.coframe, ("cofiber",))))


def reverse_sign(pair):
    """Global constant c with reverse(forward(rho)) = c rho, a CScalar: the
    exact coefficient of reverse(forward(1)), built once per pair.  A c that
    names a variable or is zero is not a global constant: ValueError."""
    c = pair.cache("_reverse_sign", lambda: dualize_form_reverse(
        dualize_form(Form.scalar(pair.chart.coframe, 1), pair), pair).coeff(0))
    if c.is_zero() or c.variables():
        raise ValueError(f"reverse(forward(1)) is not a nonzero constant: {c!r}")
    return c


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
    ``perfbench``, which wraps and calls it by name (ROADMAP item 8)."""
    return transform_matrices(pair, [point])[0]


# -- the section transform --------------------------------------------------------------

def dualize_section(v, pair):
    """Lift, F-transform, and push a section across the duality.

    The unique lift Xhat of the vector part satisfies
    xi(E_theta_i) = F(Xhat, E_theta_i) for every fiber generator, which makes
    the covector part basic for the projection to the dual side.  One pass
    over ``_section_routes``, with the trees and order of the Form operations."""
    table, to_total, from_dual, base, fiber_bits, cofibers, coeffs, off_fibers, to_dual, inv = (
        pair.cache("_section_routes", lambda: _section_routes(pair)))
    if v.coframe is not pair.chart.coframe and v.coframe != pair.chart.coframe:
        raise ValueError("coframe mismatch")
    live = dict(sorted((to_total[i], c) for i, c in v.x.coeffs.items()))   # the lift's components
    i_x = clifford(table, live, coeffs)    # i_X F for the chart part X of the lift
    # xi(E_theta_i) - F(X, E_theta_i); a structural zero subtracts as CZERO
    xi = v.xi.coeffs
    rhs = [xi.get(bit, CZERO) - i_x.get(total, CZERO) for bit, total in fiber_bits]
    lift_re, lift_im = ([sadd(*map(smul, row, part)) for row in inv]
                        for part in ([r.re for r in rhs], [r.im for r in rhs]))
    lifted = {}    # the cofiber components, which are not chart generators
    for idx, re, im in zip(cofibers, lift_re, lift_im):
        if re is not ZERO or im is not ZERO:
            lifted[idx] = CScalar(re, im)
    # eta = xi - i_lift F on the dual, fiber components (zero by construction)
    # dropped: a cofiber component lands off the fibers only on F's terms
    # without a fiber leg
    i_off = clifford(table, lifted, off_fibers)
    i_lift = _keyed_sum([(to_dual[mask], 1, c) for part in (i_x, i_off)
                         for mask, c in part.items() if mask in to_dual])
    live.update(lifted)
    dcof = pair.dual.coframe
    eta = (Form(dcof, {base[m]: c for m, c in xi.items() if m in base})
           - Form(dcof, i_lift))
    return Section(FrameVector(dcof, {j: live[i] for j, i in enumerate(from_dual)
                                      if i in live}), eta)


def _section_routes(pair):
    """The section transform's table, built by its first call on the pair:
    the correspondence's action table, chart and dual indices on the
    correspondence, chart -> dual bits off the fibers, the (chart, correspondence)
    bits of each fiber generator, cofiber indices, F's coefficients and those
    of its terms without a fiber leg, correspondence -> dual bits off the
    fibers, and the inverse of -F(E_theta_i, E_thetat_j)."""
    chart, cof, dcof = pair.chart.coframe, pair.total.coframe, pair.dual.coframe
    fibers = cof.tag_mask("fiber")
    return (frame_action(cof.dim),
            [cof.index(n) for n in chart.names], [cof.index(n) for n in dcof.names],
            {1 << i: dcof.mask_of((n,)) for i, n in enumerate(chart.names)
             if chart.tags[i] != "fiber"},
            [(chart.mask_of((n,)), cof.mask_of((n,))) for n in pair.chart.fiber_names],
            [cof.index(n) for n in pair.dual.fiber_names],
            pair.F.coeffs, {mask: c for mask, c in pair.F.coeffs.items() if not mask & fibers},
            {1 << i: dcof.mask_of((n,)) for i, n in enumerate(cof.names) if not fibers >> i & 1},
            sym_matrix_inverse([[sneg(e) for e in row] for row in pair.fiber_block()]))


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
    comps = [img.x.components for img in images]    # P's columns
    if any(not c.im.is_zero() for col in comps for c in col):
        raise ValueError("metric transport produced complex tangent data")
    p_matrix = [[comps[j][i].re for j in range(m)] for i in range(m)]
    p_inv = sym_matrix_inverse(p_matrix)
    # A = eta . P^{-1}: A[gamma][beta] = sum_alpha eta_alpha[gamma] invP[alpha][beta]
    eta = [[images[a].xi.coeff(1 << g).re for g in range(m)] for a in range(m)]
    g_entries = {}
    b_coeffs = {}
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
                b_coeffs[1 << i | 1 << j] = CScalar(sneg(skew))
    return GeneralizedMetric(SymTensor(cof, g_entries), Form(cof, b_coeffs))


def split_metric(metric, chart):
    """The blocks (g0, g1, g2, b1, b2) of (g, b) on a circle-bundle chart,
    g = g0 theta.theta + g1.theta + g2 and b = b1 ^ theta + b2 with g1, b1,
    g2 and b2 basic: the inverse of ``assemble_metric``.  b is split by
    ``bundle.split_fiber_legs``."""
    if chart.k != 1:
        raise ValueError("metric splitting is for circle bundles")
    cof = chart.coframe
    th = cof.index(chart.fiber_names[0])
    g1 = {}
    g2 = {}
    for (i, j), s in metric.g.entries.items():
        if th not in (i, j):
            g2[(i, j)] = s
        elif i != j:
            g1[1 << (i if j == th else j)] = CScalar(s)
    legs, b2 = split_fiber_legs(metric.b, chart)
    return (metric.g.entry(th, th), Form(cof, g1), SymTensor(cof, g2),
            legs[chart.fiber_names[0]], b2)


def _check_blocks(chart, g1, g2, b1, b2):
    """Refuse blocks that ``split_metric`` would not give back, with a
    ValueError naming the block: a g1 or b1 term that is not real, not of
    degree one or has a fiber leg (the assembly reads only the real parts of
    degree-one terms), a g2 entry or a b2 term with a fiber leg (each would
    fold into the fiber blocks)."""
    if chart.k != 1:
        raise ValueError("metric assembly is for circle bundles")
    cof = chart.coframe
    fibers = cof.tag_mask("fiber")
    for block, form in (("g1", g1), ("b1", b1)):
        for mask, c in form.coeffs.items():
            if mask.bit_count() != 1 or mask & fibers or c.im is not ZERO:
                raise ValueError(f"{block} must be a real basic 1-form, "
                                 f"got the term {cof.names_of(mask)}")
    for i, j in g2.entries:
        if (1 << i | 1 << j) & fibers:
            raise ValueError(f"g2 must be basic, got the entry {cof.names[i], cof.names[j]}")
    for mask in b2.coeffs:
        if mask & fibers:
            raise ValueError(f"b2 must be basic, got the term {cof.names_of(mask)}")


def assemble_metric(chart, g0, g1, g2, b1, b2):
    """(g, b) on a circle-bundle chart from its blocks: g = g0 theta.theta +
    g1.theta + g2 and b = b1 ^ theta + b2, with g1 and b1 real basic 1-forms
    and g2 and b2 basic (else a ValueError names the block), so that
    ``split_metric`` gives the blocks back.  The symmetric product is as in
    ``buscher_rules``."""
    _check_blocks(chart, g1, g2, b1, b2)
    cof = chart.coframe
    th = chart.fiber_names[0]
    i_th = cof.index(th)
    entries = dict(g2.entries)     # no key of g2 meets a fiber key
    if not g0.is_zero():
        entries[(i_th, i_th)] = g0
    for i in range(cof.dim):
        c = g1.coeff(1 << i)
        if not c.is_zero():
            entries[(min(i, i_th), max(i, i_th))] = c.re
    b = wedge(b1, Form.monomial(cof, (th,))) + b2
    return GeneralizedMetric(SymTensor(cof, entries), b)


def buscher_rules(metric, pair):
    """Closed-form dual of (g, b) on a circle-bundle chart, the map of
    ``transport_metric``: with the blocks (g0, g1, g2, b1, b2) of
    ``split_metric``, the dual blocks

    gt0 = 1/g0,  gt1 = -b1/g0,  gt2 = g2 + (b1.b1 - g1.g1)/g0,
    bt1 = -g1/g0,  bt2 = b2 + g1 ^ b1 / g0,

    assembled on the dual chart by ``assemble_metric``.

    Symmetric products: alpha . beta means alpha x beta + beta x alpha for
    distinct factors and alpha x alpha for a square.
    """
    g0, g1, g2, b1, b2 = split_metric(metric, pair.chart)
    cof = pair.dual.coframe
    g1d = g1.map_to(cof)
    b1d = b1.map_to(cof)
    # (b1 . b1 - g1 . g1) / g0 over base generators; SymTensor drops the zeros
    m = cof.dim
    bs, gs = ([form.coeff(1 << i).re for i in range(m)] for form in (b1d, g1d))
    cross = {(i, j): sdiv(smul(bs[i], bs[j]) - smul(gs[i], gs[j]), g0)
             for i in range(m) for j in range(i, m)}
    return assemble_metric(
        pair.dual, sdiv(ONE, g0),
        Form(cof, {mask: CScalar(sneg(sdiv(c.re, g0))) for mask, c in b1d.coeffs.items()}),
        g2.map_to(cof) + SymTensor(cof, cross),
        g1d.scale(CScalar(sneg(sdiv(ONE, g0)))),
        b2.map_to(cof) + wedge(g1d, b1d).scale(CScalar(sdiv(ONE, g0))))


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
    [(_, (u,))] = PointFrame.nullspace((j - 1j * np.eye(len(j)))[None])    # a stack of one
    u = u.real
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
    dense-points workload of ``perfbench`` (ROADMAP item 8)."""
    return uk_transport_residuals(spinor, pair, [point])[0]


def _norms(columns):
    """Norm of each (n, 1) column of a stack, summed as ``np.linalg.norm`` sums
    one (a (1, n) @ (n, 1) product is the same strided dot)."""
    re, im = columns.real, columns.imag
    return np.sqrt(_transpose(re) @ re + _transpose(im) @ im)[:, 0, 0]
