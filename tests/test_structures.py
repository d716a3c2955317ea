import itertools

import numpy as np
import pytest

from tduality.scalar import CScalar, rat, var
from tduality.exterior import Coframe, Form, mukai_pairing, wedge
from tduality.bundle import BundleChart
from tduality.courant import split_pairing_matrix
from tduality.structures import (GeneralizedMetric, PointFrame, PureSpinor,
                                 SymTensor, annihilators, check_integrable,
                                 gcs_matrices, gcs_matrix_at, is_decomposable,
                                 metric_matrices, mukai_norm, mukai_norms,
                                 spinor_types, uk_spaces)
from tduality.randomgen import random_form, random_pure_spinor

from conftest import random_metric


def omega_spinor(chart, *pairs):
    cof = chart.coframe
    omega = Form.zero(cof)
    for a, b in pairs:
        omega = omega + Form.monomial(cof, (a, b))
    return PureSpinor.from_data(Form.zero(cof), omega, Form.scalar(cof, 1))


@pytest.fixture
def point():
    return {"x": 0.3, "y": -0.2}


def test_annihilator_symplectic(plane_chart, point):
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    (basis,) = annihilators(plane_chart.coframe, sp.form.eval_vectors([point]), [point])
    assert basis.shape == (4, 2)
    # isotropic: all mutual pairings vanish
    assert np.abs(basis.T @ split_pairing_matrix(2) @ basis).max() <= 1e-10
    # contains X - i omega(X): for X = E_x this is E_x - i dy
    probe = np.array([1.0, 0.0, 0.0, -1j])
    proj = basis @ np.linalg.pinv(basis)
    assert np.abs(proj @ probe - probe).max() <= 1e-9


def test_annihilator_complex(plane_chart, point):
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    (basis,) = annihilators(plane_chart.coframe, dz.eval_vectors([point]), [point])
    assert basis.shape[1] == 2
    # spans (E_x + i E_y)/norm and dz-direction
    proj = basis @ basis.conj().T
    anti = np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2)   # conjugate tangent dir
    hol = np.array([0.0, 0.0, 1.0, 1j]) / np.sqrt(2)    # dz covector dir
    assert np.abs(proj @ anti - anti).max() <= 1e-9
    assert np.abs(proj @ hol - hol).max() <= 1e-9


def test_spinor_types(plane_chart, circle_chart, point):
    assert spinor_types(omega_spinor(plane_chart, ("dx", "dy")), [point]) == [0]
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    assert spinor_types(PureSpinor(dz), [point]) == [1]
    # four-dimensional decomposable two-form: type two
    ch4 = BundleChart.build("c4", [("x", -1, 1), ("y", -1, 1),
                                   ("z", -1, 1), ("w", -1, 1)], [])
    z1 = Form.monomial(ch4.coframe, ("dx",)) + Form.monomial(ch4.coframe, ("dy",), CScalar.i())
    z2 = Form.monomial(ch4.coframe, ("dz",)) + Form.monomial(ch4.coframe, ("dw",), CScalar.i())
    sp = PureSpinor(wedge(z1, z2))
    assert spinor_types(sp, [{"x": .1, "y": .2, "z": .3, "w": -.1}]) == [2]


def test_type_of_circle_dual_spinor(circle_chart):
    # the expected dual-structure shape: fiber form plus (b + i w) dt
    cof = circle_chart.coframe
    t = var("t")
    rho = (Form.monomial(cof, ("th",))
           + Form.monomial(cof, ("dt",), CScalar(rat(1, 4) * t, rat(1, 2) + t * t)))
    assert spinor_types(PureSpinor(rho), [{"t": 0.4}]) == [1]


def test_hint_type_matches_lowest_degree(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 3)
    for _ in range(6):
        sp = random_pure_spinor(rng, torus_chart, pts)
        expected = sp.lowest.max_degree()
        assert spinor_types(sp, pts) == [expected] * len(pts)


def test_mukai_nondegeneracy_matches_annihilator_split(rng, torus_chart):
    # (rho, conj rho) != 0 exactly when L meets conj L trivially
    pts = torus_chart.domain.sample_many(rng, 2)
    for _ in range(4):
        sp = random_pure_spinor(rng, torus_chart, pts)
        for basis, norm in zip(annihilators(torus_chart.coframe, sp.form.eval_vectors(pts),
                                            pts), mukai_norms(sp, pts)):
            stacked = np.concatenate([basis, basis.conj()], axis=1)
            rank = np.linalg.matrix_rank(stacked, tol=1e-8)
            assert norm > 1e-9
            assert rank == stacked.shape[1]
    # degenerate example: a decomposable 1-form wedge exp(0) on the torus chart
    cof = torus_chart.coframe
    degenerate = PureSpinor(Form.monomial(cof, ("ds1",))
                            + Form.monomial(cof, ("th1",), CScalar.i()))
    p = pts[0]
    assert mukai_norms(degenerate, [p])[0] <= 1e-12
    (basis,) = annihilators(torus_chart.coframe, degenerate.form.eval_vectors([p]), [p])
    stacked = np.concatenate([basis, basis.conj()], axis=1)
    assert np.linalg.matrix_rank(stacked, tol=1e-8) < stacked.shape[1]


def test_numeric_mukai_norm_is_the_evaluated_pairing(rng):
    variables = ("q", "r")
    for m in range(2, 7):
        cof = Coframe(tuple(f"e{i}" for i in range(m)), ("base",) * m)
        for _ in range(8):
            rho = random_form(rng, cof, variables, density=0.6)
            p = {v: float(rng.uniform(-1.0, 1.0)) for v in variables}
            values = rho.eval_coeffs(p)
            symbolic = mukai_pairing(rho, rho.conj()).eval_coeffs(p)
            want = max((abs(v) for v in symbolic.values()), default=0.0)
            (got,) = mukai_norms(PureSpinor(rho), [p])
            assert got == mukai_norm(values, m)
            if want:
                assert abs(got - want) <= 1e-12 * want
            else:
                assert got <= 1e-12 * max(abs(v) for v in values.values()) ** 2


def test_decomposability(plane_chart, point):
    cof = plane_chart.coframe
    assert is_decomposable(Form.monomial(cof, ("dx",)), [point]) == [True]
    ch4 = BundleChart.build("c4", [("x", -1, 1), ("y", -1, 1),
                                   ("z", -1, 1), ("w", -1, 1)], [])
    c4 = ch4.coframe
    p4 = {"x": .1, "y": .2, "z": .3, "w": -.1}
    dec = wedge(Form.monomial(c4, ("dx",)) + Form.monomial(c4, ("dy",), CScalar.i()),
                Form.monomial(c4, ("dz",)))
    assert is_decomposable(dec, [p4]) == [True]
    sympl = Form.monomial(c4, ("dx", "dy")) + Form.monomial(c4, ("dz", "dw"))
    assert is_decomposable(sympl, [p4]) == [False]


# The Pluecker test as it was first written, kept as the reference: every
# (p-1)-fold contraction w of the lowest component rho must satisfy w ^ rho = 0.
def _reference_is_decomposable(form, point):
    coeffs = form.eval_coeffs(point)
    degs = {bin(m).count("1") for m, v in coeffs.items() if abs(v) > 0}
    if not degs:
        return True
    degree = min(degs)
    m = form.coframe.dim
    fr = PointFrame(form.coframe)
    vec = np.zeros(fr.nforms, dtype=complex)
    for mask, v in coeffs.items():
        if bin(mask).count("1") == degree:
            vec[mask] = v
    scale = np.abs(vec).max()
    if scale == 0.0 or degree <= 1:
        return True
    vec = vec / scale
    for combo in itertools.combinations(range(m), degree - 1):
        w = vec
        for i in combo:
            w = fr._contract[i] @ w
        out = np.zeros(fr.nforms, dtype=complex)
        for i in range(m):
            if w[1 << i] != 0:
                out = out + w[1 << i] * (fr._wedge[i] @ vec)
        if np.abs(out).max() > 1e-8:
            return False
    return True


@pytest.mark.parametrize("m", [4, 6])
@pytest.mark.parametrize("p", [2, 3])
def test_decomposability_matches_the_reference(rng, m, p):
    """Wedges of p random 1-forms are decomposable; a random p-form is not,
    unless p = m - 1, where every p-form is."""
    chart = BundleChart.build("flat", [(f"x{i}", -1, 1) for i in range(m)], [])
    cof = chart.coframe
    point = chart.domain.sample_many(rng, 1)[0]

    def draw(degree):
        return random_form(rng, cof, chart.base_vars, degrees=(degree,), density=1.0)

    for _ in range(10):
        wedged = Form.scalar(cof, 1)
        for _ in range(p):
            wedged = wedge(wedged, draw(1))
        generic = draw(p)
        assert is_decomposable(wedged, [point]) == [True]
        assert is_decomposable(generic, [point]) == [p == m - 1]
        assert _reference_is_decomposable(wedged, point)
        assert _reference_is_decomposable(generic, point) == (p == m - 1)


def test_integrability_closed_symplectic(plane_chart, rng):
    pts = plane_chart.domain.sample_many(rng, 4)
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    res = check_integrable(sp, plane_chart, pts)
    assert res.integrable and res.residual <= 1e-12
    for wit in res.witnesses:
        assert np.abs(wit).max() <= 1e-9  # closed form: witness vanishes


def test_integrability_complex(plane_chart, rng):
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    res = check_integrable(PureSpinor(dz), plane_chart, plane_chart.domain.sample_many(rng, 4))
    assert res.integrable


def test_integrability_failure(rng):
    # omega with a transverse-variable coefficient is not closed
    ch = BundleChart.build("t4", [("s1", 0.05, 0.65), ("s2", 0.3, 1.0)],
                           ["th1", "th2"])
    cof = ch.coframe
    s2 = var("s2")
    omega = (Form.monomial(cof, ("ds1", "th1"), rat(1) + s2 * s2)
             + Form.monomial(cof, ("ds2", "th2")))
    sp = PureSpinor.from_data(Form.zero(cof), omega, Form.scalar(cof, 1))
    res = check_integrable(sp, ch, ch.domain.sample_many(rng, 4))
    assert not res.integrable
    assert res.residual > 1e-4


def test_gcs_matrix_symplectic(plane_chart, point):
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    (j,) = gcs_matrices(plane_chart.coframe, sp.form.eval_vectors([point]), [point])
    w = np.array([[0.0, -1.0], [1.0, 0.0]])   # matrix of X -> i_X omega
    expected = np.block([[np.zeros((2, 2)), -np.linalg.inv(w)],
                         [w, np.zeros((2, 2))]])
    assert np.abs(j - expected).max() <= 1e-10


def test_gcs_matrix_complex(plane_chart, point):
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    (j,) = gcs_matrices(plane_chart.coframe, dz.eval_vectors([point]), [point])
    i_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.block([[-i_mat, np.zeros((2, 2))],
                         [np.zeros((2, 2)), i_mat.T]])
    assert np.abs(j - expected).max() <= 1e-10


def test_gcs_matrix_properties(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 2)
    g = split_pairing_matrix(torus_chart.coframe.dim)
    for _ in range(4):
        sp = random_pure_spinor(rng, torus_chart, pts)
        (j,) = gcs_matrices(torus_chart.coframe, sp.form.eval_vectors(pts[:1]), pts[:1])
        assert np.abs(j @ j + np.eye(8)).max() <= 1e-9
        assert np.abs(j.T @ g @ j - g).max() <= 1e-9


def test_metric_matrix_identity(plane_chart, point):
    g = SymTensor.from_names(plane_chart.coframe,
                             {("dx", "dx"): rat(1), ("dy", "dy"): rat(1)})
    met = GeneralizedMetric(g, Form.zero(plane_chart.coframe))
    (endo,) = metric_matrices(met, [point])
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.abs(endo - expected).max() <= 1e-12


def test_sym_tensor_keeps_no_structural_zero(plane_chart):
    """Entries given for (i, j) and (j, i) that cancel leave no entry, as a
    form keeps no structural zero; a sum that cancels keeps none either."""
    cof = plane_chart.coframe
    x = var("x")
    assert SymTensor(cof, {(0, 1): x, (1, 0): -x}).entries == {}
    assert SymTensor.from_names(cof, {("dx", "dy"): x, ("dy", "dx"): -x}).entries == {}
    g = SymTensor(cof, {(0, 0): x, (0, 1): x})
    assert (g + SymTensor(cof, {(1, 0): -x})).entries == {(0, 0): x}


def test_sym_tensor_and_metric_compare_by_value(plane_chart):
    """Tensors with equal entries are equal and hash alike, whatever order
    and side (i, j) or (j, i) the entries were given in; another entry,
    coframe or type is unequal.  So metrics compare by value.  A metric
    stays unhashable, as its B-field ``Form`` is."""
    cof = plane_chart.coframe
    x = var("x")
    g = SymTensor(cof, {(0, 0): rat(1), (0, 1): x})
    h = SymTensor(cof, {(1, 0): var("x"), (0, 0): rat(1)})
    assert g == h and g is not h and hash(g) == hash(h) and len({g, h}) == 1
    assert g != SymTensor(cof, {(0, 0): rat(1)})
    assert g != SymTensor(cof, {(0, 0): rat(1), (0, 1): x, (1, 1): x})
    assert g != SymTensor(Coframe(("da", "db"), ("base", "base")), g.entries)
    assert g != g.entries
    zero = Form.zero(cof)
    assert GeneralizedMetric(g, zero) == GeneralizedMetric(h, Form.zero(cof))
    assert GeneralizedMetric(g, zero) != GeneralizedMetric(g, Form.monomial(cof, ("dx", "dy")))
    with pytest.raises(TypeError):
        hash(GeneralizedMetric(g, zero))


def test_sym_tensor_sum_refuses_another_coframe(plane_chart):
    """Tensors on two coframes do not add, as forms do not: merging their
    entries by index would mix generators.  An equal coframe adds."""
    a = plane_chart.coframe
    g = SymTensor(a, {(0, 0): rat(1)})
    with pytest.raises(ValueError, match="coframe mismatch"):
        g + SymTensor(Coframe(("da", "db"), ("base", "base")), {(1, 1): rat(2)})
    same = SymTensor(Coframe(a.names, a.tags), {(1, 1): rat(2)})
    assert g + same == SymTensor(a, {(0, 0): rat(1), (1, 1): rat(2)})


def test_metric_refuses_g_and_b_on_different_coframes(plane_chart):
    """A generalized metric takes its g and b on one coframe."""
    a = plane_chart.coframe
    g = SymTensor(a, {(0, 0): rat(1), (1, 1): rat(1)})
    other = Coframe(("da", "db"), ("base", "base"))
    with pytest.raises(ValueError, match="coframe mismatch"):
        GeneralizedMetric(g, Form.monomial(other, ("da", "db")))
    assert GeneralizedMetric(g, Form.zero(Coframe(a.names, a.tags))).coframe is a


def test_complex_b_field_is_refused(plane_chart):
    """A B-field with an imaginary part is refused, not read as its real part."""
    g = SymTensor.from_names(plane_chart.coframe,
                             {("dx", "dx"): rat(1), ("dy", "dy"): rat(1)})
    b = Form.monomial(plane_chart.coframe, ("dx", "dy"), CScalar(rat(1), rat(2)))
    with pytest.raises(ValueError, match="B-field must be real"):
        GeneralizedMetric(g, b)


def test_metric_matrix_properties(rng, hopf_chart):
    pts = hopf_chart.domain.sample_many(rng, 2)
    met = random_metric(rng, hopf_chart, pts)
    (endo,) = metric_matrices(met, pts[:1])
    m = hopf_chart.coframe.dim
    assert np.abs(endo @ endo - np.eye(2 * m)).max() <= 1e-9
    quad = split_pairing_matrix(m) @ endo
    assert np.linalg.eigvalsh((quad + quad.T) / 2).min() > 0


def test_uk_ladder_dimensions(plane_chart, point):
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    ladder = [(k, b[0]) for k, b in uk_spaces(plane_chart.coframe,
                                              sp.form.eval_vectors([point]), [point])]
    assert [(k, b.shape[1]) for k, b in ladder] == [(1, 1), (0, 2), (-1, 1)]
    top = ladder[0][1]
    rho = sp.form.eval_vector(point)
    rho = rho / np.linalg.norm(rho)
    proj = top @ top.conj().T
    assert np.abs(proj @ rho - rho).max() <= 1e-10


def test_uk_ladder_exhausts_forms(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 1)
    sp = random_pure_spinor(rng, torus_chart, pts)
    ladder = [(k, b[0]) for k, b in uk_spaces(torus_chart.coframe,
                                              sp.form.eval_vectors(pts), pts)]
    dims = [b.shape[1] for _, b in ladder]
    assert sum(dims) == 2 ** torus_chart.coframe.dim
    stacked = np.concatenate([b for _, b in ladder], axis=1)
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == stacked.shape[1]


def test_uk_symplectic_formula(plane_chart, point):
    # U^k = e^{i omega} e^{-Lambda/(2i)} wedge^{n-k} with Lambda the
    # bivector contraction normalized by Lambda(dx^dy) = 1 for omega = dx^dy
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    ladder = {k: b[0] for k, b in uk_spaces(plane_chart.coframe,
                                           sp.form.eval_vectors([point]), [point])}
    lam = np.zeros((4, 4))
    lam[0, 3] = 1.0
    # e^{i omega} acts by adding i * (dx^dy) component of the wedge
    def e_iomega(v):
        out = v.astype(complex).copy()
        out[3] += 1j * v[0]
        return out
    import itertools
    for k, degree in ((1, 0), (0, 1), (-1, 2)):
        target = ladder[k]
        proj = target @ target.conj().T
        for combo in itertools.combinations(range(2), degree):
            v = np.zeros(4, dtype=complex)
            mask = 0
            for i in combo:
                mask |= 1 << i
            v[mask] = 1.0
            image = e_iomega(v - lam @ v / 2j)
            assert np.abs(image - proj @ image).max() <= 1e-10


def test_commuting_pair_detection(plane_chart, point):
    sp1 = omega_spinor(plane_chart, ("dx", "dy"))
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    j1 = gcs_matrix_at(sp1, plane_chart, point)
    (j2,) = gcs_matrices(plane_chart.coframe, dz.eval_vectors([point]), [point])
    assert np.abs(j1 @ j2 - j2 @ j1).max() <= 1e-9


def test_point_frames_of_equal_size_share_read_only_matrices(plane_chart, circle_chart):
    a, b = PointFrame(plane_chart.coframe), PointFrame(circle_chart.coframe)
    assert a._wedge is b._wedge and a._contract is b._contract
    for mat in a._wedge + a._contract:
        assert not mat.flags.writeable


def test_stacked_bases_are_grouped_by_rank(rng):
    """A stack of matrices with ranks 2, 1 and 2 gives one group per rank, in
    increasing rank, each basis equal to that of its matrix alone, a stack
    of one."""
    a = rng.standard_normal((3, 3, 4))
    a[1, 0] = -a[1, 1]
    a[:, 2] = a[:, 0] + a[:, 1]
    for method, dims in ((PointFrame.nullspace, (3, 2)), (PointFrame.orthonormal_span, (1, 2))):
        groups = method(a)
        assert [at.tolist() for at, _ in groups] == [[1], [0, 2]]
        assert [bases.shape[-1] for _, bases in groups] == list(dims)
        for at, bases in groups:
            for i, basis in zip(at, bases):
                [(alone, (expected,))] = method(a[i:i + 1])
                assert alone.tolist() == [0] and np.array_equal(basis, expected)
