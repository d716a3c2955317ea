import numpy as np
import pytest

from tduality.scalar import CScalar, rat, var
from tduality.exterior import Form, wedge
from tduality.bundle import BundleChart
from tduality.courant import split_pairing_matrix
from tduality.structures import (GeneralizedMetric, PureSpinor,
                                 SymTensor, annihilator_at, check_integrable,
                                 commute_at, gb_from_cplus, gcs_matrix_at,
                                 is_decomposable_at, metric_matrix_at,
                                 mukai_norm_at, spinor_type_at, uk_spaces_at)
from tduality.randomgen import random_metric, random_pure_spinor


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
    basis = annihilator_at(sp, plane_chart, point)
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
    basis = annihilator_at(PureSpinor(dz), plane_chart, point)
    assert basis.shape[1] == 2
    # spans (E_x + i E_y)/norm and dz-direction
    proj = basis @ basis.conj().T
    anti = np.array([1.0, 1j, 0.0, 0.0]) / np.sqrt(2)   # conjugate tangent dir
    hol = np.array([0.0, 0.0, 1.0, 1j]) / np.sqrt(2)    # dz covector dir
    assert np.abs(proj @ anti - anti).max() <= 1e-9
    assert np.abs(proj @ hol - hol).max() <= 1e-9


def test_spinor_types(plane_chart, circle_chart, point):
    assert spinor_type_at(omega_spinor(plane_chart, ("dx", "dy")),
                          plane_chart, point) == 0
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    assert spinor_type_at(PureSpinor(dz), plane_chart, point) == 1
    # four-dimensional decomposable two-form: type two
    ch4 = BundleChart.build("c4", [("x", -1, 1), ("y", -1, 1),
                                   ("z", -1, 1), ("w", -1, 1)], [])
    z1 = Form.monomial(ch4.coframe, ("dx",)) + Form.monomial(ch4.coframe, ("dy",), CScalar.i())
    z2 = Form.monomial(ch4.coframe, ("dz",)) + Form.monomial(ch4.coframe, ("dw",), CScalar.i())
    sp = PureSpinor(wedge(z1, z2))
    assert spinor_type_at(sp, ch4, {"x": .1, "y": .2, "z": .3, "w": -.1}) == 2


def test_type_of_circle_dual_spinor(circle_chart):
    # the expected dual-structure shape: fiber form plus (b + i w) dt
    cof = circle_chart.coframe
    t = var("t")
    rho = (Form.monomial(cof, ("th",))
           + Form.monomial(cof, ("dt",), CScalar(rat(1, 4) * t, rat(1, 2) + t * t)))
    assert spinor_type_at(PureSpinor(rho), circle_chart, {"t": 0.4}) == 1


def test_hint_type_matches_lowest_degree(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 3)
    for _ in range(6):
        sp = random_pure_spinor(rng, torus_chart, pts)
        expected = sp.lowest.max_degree()
        for p in pts:
            assert spinor_type_at(sp, torus_chart, p) == expected


def test_mukai_nondegeneracy_matches_annihilator_split(rng, torus_chart):
    # (rho, conj rho) != 0 exactly when L meets conj L trivially
    pts = torus_chart.domain.sample_many(rng, 2)
    for _ in range(4):
        sp = random_pure_spinor(rng, torus_chart, pts)
        for p in pts:
            basis = annihilator_at(sp, torus_chart, p)
            stacked = np.concatenate([basis, basis.conj()], axis=1)
            rank = np.linalg.matrix_rank(stacked, tol=1e-8)
            assert mukai_norm_at(sp, p) > 1e-9
            assert rank == stacked.shape[1]
    # degenerate example: a decomposable 1-form wedge exp(0) on the torus chart
    cof = torus_chart.coframe
    degenerate = PureSpinor(Form.monomial(cof, ("ds1",))
                            + Form.monomial(cof, ("th1",), CScalar.i()))
    p = pts[0]
    assert mukai_norm_at(degenerate, p) <= 1e-12
    basis = annihilator_at(degenerate, torus_chart, p)
    stacked = np.concatenate([basis, basis.conj()], axis=1)
    assert np.linalg.matrix_rank(stacked, tol=1e-8) < stacked.shape[1]


def test_decomposability(plane_chart, point):
    cof = plane_chart.coframe
    assert is_decomposable_at(Form.monomial(cof, ("dx",)), point)
    ch4 = BundleChart.build("c4", [("x", -1, 1), ("y", -1, 1),
                                   ("z", -1, 1), ("w", -1, 1)], [])
    c4 = ch4.coframe
    p4 = {"x": .1, "y": .2, "z": .3, "w": -.1}
    dec = wedge(Form.monomial(c4, ("dx",)) + Form.monomial(c4, ("dy",), CScalar.i()),
                Form.monomial(c4, ("dz",)))
    assert is_decomposable_at(dec, p4)
    sympl = Form.monomial(c4, ("dx", "dy")) + Form.monomial(c4, ("dz", "dw"))
    assert not is_decomposable_at(sympl, p4)


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
    j = gcs_matrix_at(sp, plane_chart, point)
    w = np.array([[0.0, -1.0], [1.0, 0.0]])   # matrix of X -> i_X omega
    expected = np.block([[np.zeros((2, 2)), -np.linalg.inv(w)],
                         [w, np.zeros((2, 2))]])
    assert np.abs(j - expected).max() <= 1e-10


def test_gcs_matrix_complex(plane_chart, point):
    cof = plane_chart.coframe
    dz = Form.monomial(cof, ("dx",)) + Form.monomial(cof, ("dy",), CScalar.i())
    j = gcs_matrix_at(PureSpinor(dz), plane_chart, point)
    i_mat = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.block([[-i_mat, np.zeros((2, 2))],
                         [np.zeros((2, 2)), i_mat.T]])
    assert np.abs(j - expected).max() <= 1e-10


def test_gcs_matrix_properties(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 2)
    g = split_pairing_matrix(torus_chart.coframe.dim)
    for _ in range(4):
        sp = random_pure_spinor(rng, torus_chart, pts)
        j = gcs_matrix_at(sp, torus_chart, pts[0])
        assert np.abs(j @ j + np.eye(8)).max() <= 1e-9
        assert np.abs(j.T @ g @ j - g).max() <= 1e-9


def test_metric_matrix_identity(plane_chart, point):
    g = SymTensor.from_names(plane_chart.coframe,
                             {("dx", "dx"): rat(1), ("dy", "dy"): rat(1)})
    met = GeneralizedMetric(g, Form.zero(plane_chart.coframe))
    endo = metric_matrix_at(met, plane_chart, point)
    expected = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    assert np.abs(endo - expected).max() <= 1e-12


def test_metric_matrix_properties(rng, hopf_chart):
    pts = hopf_chart.domain.sample_many(rng, 2)
    met = random_metric(rng, hopf_chart, pts)
    endo = metric_matrix_at(met, hopf_chart, pts[0])
    m = hopf_chart.coframe.dim
    assert np.abs(endo @ endo - np.eye(2 * m)).max() <= 1e-9
    quad = split_pairing_matrix(m) @ endo
    assert np.linalg.eigvalsh((quad + quad.T) / 2).min() > 0


def test_gb_roundtrip(rng):
    for _ in range(6):
        m = int(rng.integers(2, 5))
        g = rng.standard_normal((m, m))
        g = g @ g.T + m * np.eye(m)
        b = rng.standard_normal((m, m))
        b = b - b.T
        basis = np.concatenate([np.eye(m), b + g], axis=0)
        g2, b2 = gb_from_cplus(basis)
        assert np.abs(g2 - g).max() <= 1e-9
        assert np.abs(b2 - b).max() <= 1e-9


def test_uk_ladder_dimensions(plane_chart, point):
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    ladder = uk_spaces_at(sp, plane_chart, point)
    assert [(k, b.shape[1]) for k, b in ladder] == [(1, 1), (0, 2), (-1, 1)]
    top = ladder[0][1]
    rho = sp.form.eval_vector(point)
    rho = rho / np.linalg.norm(rho)
    proj = top @ top.conj().T
    assert np.abs(proj @ rho - rho).max() <= 1e-10


def test_uk_ladder_exhausts_forms(rng, torus_chart):
    pts = torus_chart.domain.sample_many(rng, 1)
    sp = random_pure_spinor(rng, torus_chart, pts)
    ladder = uk_spaces_at(sp, torus_chart, pts[0])
    dims = [b.shape[1] for _, b in ladder]
    assert sum(dims) == 2 ** torus_chart.coframe.dim
    stacked = np.concatenate([b for _, b in ladder], axis=1)
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == stacked.shape[1]


def test_uk_symplectic_formula(plane_chart, point):
    # U^k = e^{i omega} e^{-Lambda/(2i)} wedge^{n-k} with Lambda the
    # bivector contraction normalized by Lambda(dx^dy) = 1 for omega = dx^dy
    sp = omega_spinor(plane_chart, ("dx", "dy"))
    ladder = dict((k, b) for k, b in uk_spaces_at(sp, plane_chart, point))
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
    assert commute_at(sp1, PureSpinor(dz), plane_chart, point) <= 1e-9
