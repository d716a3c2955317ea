"""Declared failure modes: mismatched coframes, vanishing spinors,
excluded domains, singular data."""
import re

import numpy as np
import pytest

from tduality.scalar import (CScalar, Domain, SamplingError, rat,
                             solve_linear_symbolic, var)
from tduality.exterior import (Coframe, Form, FrameVector, clifford_act,
                               contract, exp_form, form_from_text, wedge)
from tduality.bundle import BundleChart, chart_from_text, exterior_derivative
from tduality.courant import Section, courant_bracket, pairing
from tduality.structures import (PureSpinor, annihilator_at, gcs_matrix_at,
                                 spinor_type_at)


@pytest.fixture
def two_coframes():
    a = Coframe(("dx", "dy"), ("base", "base"))
    b = Coframe(("du", "dv"), ("base", "base"))
    return a, b


def test_wedge_coframe_mismatch(two_coframes):
    a, b = two_coframes
    with pytest.raises(ValueError):
        wedge(Form.monomial(a, ("dx",)), Form.monomial(b, ("du",)))


def test_contract_coframe_mismatch(two_coframes):
    a, b = two_coframes
    with pytest.raises(ValueError):
        contract(FrameVector.basis(a, "dx"), Form.monomial(b, ("du",)))


def test_clifford_requires_degree_one(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        clifford_act(FrameVector.zero(a), Form.monomial(a, ("dx", "dy")),
                     Form.scalar(a, 1))


def test_section_covector_degree_checked(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        Section(FrameVector.zero(a), Form.monomial(a, ("dx", "dy")))


def test_exterior_derivative_coframe_mismatch(plane_chart, two_coframes):
    _, b = two_coframes
    with pytest.raises(ValueError):
        exterior_derivative(Form.monomial(b, ("du",)), plane_chart)


def test_bracket_chart_mismatch(plane_chart, flat3_chart):
    v = Section.vector_basis(plane_chart.coframe, "dx")
    w = Section.vector_basis(flat3_chart.coframe, "dx")
    with pytest.raises(ValueError):
        courant_bracket(v, w, plane_chart)
    with pytest.raises(ValueError):
        pairing(v, w)


def test_fully_excluded_domain_sampling():
    d = Domain({"t": (-0.1, 0.1)}, exclusions=(("t", 0.0, 0.5),))
    rng = np.random.default_rng(0)
    with pytest.raises(SamplingError):
        d.sample(rng)


def test_vanishing_spinor_rejected(plane_chart):
    t = var("x")
    sp = PureSpinor(Form.monomial(plane_chart.coframe, ("dx",), t))
    point = {"x": 0.0, "y": 0.2}
    with pytest.raises(ValueError):
        annihilator_at(sp, plane_chart, point)
    with pytest.raises(ValueError):
        spinor_type_at(sp, point)


def test_gcs_rejects_degenerate_annihilator(torus_chart, rng):
    cof = torus_chart.coframe
    degenerate = PureSpinor(Form.monomial(cof, ("ds1",))
                            + Form.monomial(cof, ("th1",), CScalar.i()))
    p = torus_chart.domain.sample_many(rng, 1)[0]
    with pytest.raises(ValueError):
        gcs_matrix_at(degenerate, torus_chart, p)


def test_singular_fiber_block_rejected():
    with pytest.raises(ValueError):
        solve_linear_symbolic([[rat(0), rat(0)], [rat(0), rat(1)]],
                              [rat(1), rat(1)])


def test_exp_form_degree_zero_component_rejected(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError):
        exp_form(Form.scalar(a, 2))


def test_chart_requires_generator_naming():
    cof = Coframe(("q", "th"), ("base", "fiber"))
    with pytest.raises(ValueError):
        BundleChart("bad", ("t",), Domain({"t": (0.0, 1.0)}), cof, {},
                    Form.zero(cof))


def test_unknown_generator_in_form_text_is_named(two_coframes):
    a, _ = two_coframes
    with pytest.raises(ValueError, match=r"unknown generator 'extra' in coframe \(dx dy\)"):
        form_from_text(a, "(cplx 1 2) extra dx")


def test_unknown_generator_in_chart_config_names_the_line():
    head = "chart bad\nvar t = 0.0 .. 1.0\nvar u = 0.0 .. 1.0\nfiber th\n"
    for line, named in (("curv th = 1 dt^thx", r"unknown generator 'thx'"),
                        ("flux = 1 dt^du^thx", r"unknown generator 'thx'"),
                        ("curv tx = 1 dt^du", r"undeclared fiber generator 'tx'")):
        with pytest.raises(ValueError, match=named + f".*line 5: {re.escape(repr(line))}"):
            chart_from_text(head + line + "\n")
