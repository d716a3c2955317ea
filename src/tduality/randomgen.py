"""Seeded random geometric data for property checks and scenario suites.

Coefficients are small smooth expressions (polynomials plus sin/cos leaves)
in the chart base variables; everything is reproducible from the RNG handed
in, and callers record the seed.  ``random_spinor_values`` draws a pure
spinor directly as its values at one point, for checks that use nothing else.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .scalar import CScalar, EvaluationError, rat, var, ssin, scos, smul, sadd
from .exterior import Form, FrameVector, _eval_array, mukai_signs, wedge
from .courant import Section
from .structures import PureSpinor, _clifford_matrices, mukai_norm

__all__ = [
    "random_scalar", "random_cscalar", "random_form", "random_section",
    "random_pure_spinor", "random_spinor_values",
]


def _coeff(rng):
    return rat(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))


def random_scalar(rng, variables):
    """Small random smooth expression in the given variables: a rational
    constant plus one random term (c v, c v^2, c sin v or c cos v)."""
    parts = [_coeff(rng)]
    if variables:
        v = var(variables[int(rng.integers(0, len(variables)))])
        kind = rng.integers(0, 4)
        if kind == 0:
            parts.append(smul(_coeff(rng), v))
        elif kind == 1:
            parts.append(smul(_coeff(rng), v, v))
        elif kind == 2:
            parts.append(smul(_coeff(rng), ssin(v)))
        else:
            parts.append(smul(_coeff(rng), scos(v)))
    return sadd(*parts)


def random_cscalar(rng, variables):
    return CScalar(random_scalar(rng, variables), random_scalar(rng, variables))


def random_form(rng, coframe, variables, degrees=None, complex_coeffs=True,
                density=0.5):
    """Random invariant form with the given degrees (all by default)."""
    coeffs = {}
    m = coframe.dim
    if degrees is None:
        degrees = range(m + 1)
    degrees = [d for d in degrees if d <= m]
    for d in degrees:
        for combo in itertools.combinations(range(m), d):
            if rng.random() > density:
                continue
            mask = 0
            for i in combo:
                mask |= 1 << i
            c = (random_cscalar(rng, variables) if complex_coeffs
                 else CScalar(random_scalar(rng, variables)))
            coeffs[mask] = c
    total = Form(coframe, coeffs)
    if total.is_zero() and degrees:
        d = degrees[0]
        mask = (1 << d) - 1
        total = Form(coframe, {mask: CScalar.of(_coeff(rng))})
    return total


def random_section(rng, chart):
    """Random real invariant section X + xi.  Kept for the tests and the
    dense-points workload of ``perfbench`` (ROADMAP 1b)."""
    cof = chart.coframe
    variables = chart.base_vars
    x = FrameVector(cof, {i: CScalar(random_scalar(rng, variables)) for i in range(cof.dim)})
    xi = Form(cof, {1 << i: CScalar(random_scalar(rng, variables)) for i in range(cof.dim)})
    return Section(x, xi)


def random_pure_spinor(rng, chart, points):
    """Random nondegenerate spinor with construction data: the symbolic
    test-data generator, used by the tests and named by perfbench's tracer
    (ROADMAP 1a).

    Rejection-samples (B, omega, Omega), up to 40 draws, until the pairing
    with the conjugate survives at every given point.
    """
    cof = chart.coframe
    variables = chart.base_vars
    m = cof.dim
    if m % 2:
        raise ValueError("chart dimension must be even")
    half = m // 2
    for _ in range(40):
        b = random_form(rng, cof, variables, degrees=(2,), complex_coeffs=False,
                        density=0.4)
        omega = random_form(rng, cof, variables, degrees=(2,), complex_coeffs=False,
                            density=0.7)
        deg = int(rng.integers(0, half + 1))
        lowest = Form.scalar(cof, 1)
        for _ in range(deg):
            one = random_form(rng, cof, variables, degrees=(1,),
                              complex_coeffs=True, density=0.8)
            lowest = wedge(lowest, one)
        if lowest.is_zero():
            continue
        spinor = PureSpinor.from_data(b, omega, lowest)
        coeffs = spinor.form.coeffs
        try:
            values = _eval_array(coeffs.values(), points).T.tolist()
        except EvaluationError:
            continue
        at_points = [dict(zip(coeffs, zs)) for zs in values]
        ref = max(max(abs(v) for v in vals.values()) for vals in at_points)
        if ref == 0:
            continue
        if min(mukai_norm(vals, m) for vals in at_points) > 1e-3 * ref * ref:
            return spinor
    raise AssertionError("could not sample a nondegenerate spinor")


@functools.cache
def _spinor_tables(m):
    """The read-only tables of ``random_spinor_values`` on m generators: the
    products wedge_i wedge_j (i < j) and the wedge matrices, (matrices, 2^m,
    2^m) each, and the Mukai sign of each mask (paired with 2^m - 1 - mask)."""
    wedges = np.array(_clifford_matrices(m)[0]).reshape(m, 1 << m, 1 << m)
    tables = (np.array([wedges[i] @ wedges[j] for i, j in itertools.combinations(range(m), 2)]),
              wedges, np.array([sign for _, _, sign in mukai_signs(m)]))
    for t in tables:
        t.setflags(write=False)
    return tables


def random_spinor_values(rng, m):
    """Values (2^m,) at one point of a random nondegenerate pure spinor on m
    generators: ``random_pure_spinor``'s draw with numbers for coefficients,
    rho = exp(B + i omega) . Omega built from the wedge matrices."""
    if m % 2:
        raise ValueError("chart dimension must be even")
    size = 1 << m
    two, wedges, signs = _spinor_tables(m)
    # one row per matrix, so that a combination of them is one product
    two, wedges = two.reshape(-1, size * size), wedges.reshape(m, size * size)

    def draw(n, density, parts=(1.0,)):
        return (rng.random(n) <= density) * (rng.standard_normal((n, len(parts))) @ parts)
    for _ in range(40):
        exponent = ((draw(len(two), 0.4) + 1j * draw(len(two), 0.7)) @ two).reshape(size, size)
        rho = np.zeros(size, dtype=complex)
        rho[0] = 1.0
        for _ in range(int(rng.integers(0, m // 2 + 1))):
            rho = (draw(m, 0.8, (1, 1j)) @ wedges).reshape(size, size) @ rho
        term = rho
        for j in range(1, m // 2 + 1):   # exact: the exponent is nilpotent
            term = exponent @ term / j
            rho = rho + term
        ref = np.abs(rho).max()
        if ref and abs(np.dot(signs * rho, rho[::-1].conj())) > 1e-3 * ref * ref:
            return rho
    raise AssertionError("could not sample a nondegenerate spinor")
