"""The benchmark's workloads: what one pass runs and how its verdicts are checked.

Every workload is a function of the benchmark seed alone: a pass regenerates
its inputs from the seed, so repeated passes in one run do identical work.
A pass returns a ``Verdict`` (how many checks were expected and which failed)
and the wall time of each scenario it ran.

Why these three workloads (README.md has the predictions per layer, and why
BENCHMARK.json lists only the first two):

* ``paper-suite``: the default command-line use, all seven scenarios at
  ``--samples 8``.  Every layer runs in the paper's proportions, including the
  only quadrature, reduction and random-pure-spinor work.
* ``large-samples``: the three scenarios whose work grows with ``--samples``,
  at 64.  Per-instance symbolic construction and ``diff`` dominate; fixed
  per-scenario work is about 4% of the pass (27% at 8).  At 128 a pass took
  17 to 21 s on a 2-core x86-64 machine and a traced run, whose cProfile
  pass alone costs three untraced passes, 142 s; at 64 a traced run takes
  about 80 s there.
* ``dense-points``: a rank sweep k = 1, 2, 3 on random charts with an even
  coframe m = 2k, three charts per rank and 24 points per chart.  Identities
  are built once per chart and evaluated at every point, so evaluation and
  the 2^m-sized pointwise layers do most of the work, and a change whose cost
  depends on m shows here.
"""
from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tduality import bundle, duality, exterior, randomgen, scenarios, structures
from tduality.scalar import CScalar, rat

EXPECTED_CHECKS = json.loads(
    Path(__file__).with_name("expected_checks.json").read_text())

# Tolerances the library functions and scenarios use for the same identities.
INTERTWINING_TOL = 1e-8      # scenarios: transform-intertwines-differentials
COMPATIBILITY_TOL = 1e-8     # scenarios: clifford-compatibility
LADDER_TOL = 1e-8            # duality.uk_transport_residual default
J_SQUARED_TOL = 1e-9         # J^2 = -1 for a generalized complex structure


class Verdict:
    """Expected checks of one pass and the ones that failed, missed or raised."""

    def __init__(self):
        self.expected = 0
        self.failures = []

    def check(self, name, ok):
        self.expected += 1
        if not ok:
            self.failures.append(name)

    def raised(self, names):
        """Every named check is lost to an exception (its traceback is printed)."""
        traceback.print_exc(file=sys.stderr)
        for name in names:
            self.check(name, False)


class ScenarioWorkload:
    """Registered scenarios run through ``run_scenario`` at a fixed sample count."""

    def __init__(self, names, samples):
        self.names = tuple(names)
        self.samples = samples

    def run(self, seed, warm=False):
        samples = 8 if warm else self.samples
        verdict = Verdict()
        times = {}
        for name in self.names:
            expected = EXPECTED_CHECKS[name]
            t0 = time.perf_counter()
            try:
                report = scenarios.run_scenario(name, seed=seed, samples=samples)
            except Exception:   # a raised scenario fails every check it owns
                verdict.raised(f"{name}/{c}" for c in expected)
            else:
                got = {c.name: c.passed for c in report.checks}
                for check in expected:
                    verdict.check(f"{name}/{check}", got.get(check) is True)
            times[name] = time.perf_counter() - t0
        return verdict, times


def _basic_exact_two_form(rng, flat):
    """d of a random real basic 1-form: closed by construction (zero if k = 1)."""
    a = randomgen.random_form(rng, flat.coframe, flat.base_vars, degrees=(1,),
                              complex_coeffs=False, density=1.0)
    return bundle.exterior_derivative(a, flat)


def random_even_chart(rng, k):
    """Random rank-k chart over a k-dimensional base (coframe m = 2k).

    Curvatures c_i and dual curvatures ct_i are exact basic 2-forms, and the
    flux H = sum_i ct_i ^ theta_i + h with a random basic 3-form h, so dH = 0
    and H has zero holonomy.
    """
    bases = []
    for i in range(k):
        lo = float(rng.uniform(-0.9, -0.2))
        bases.append((f"x{i + 1}", lo, lo + float(rng.uniform(0.6, 1.2))))
    fibers = [f"th{i + 1}" for i in range(k)]
    flat = bundle.BundleChart.build("base", bases, [])
    curvature = {f: _basic_exact_two_form(rng, flat) for f in fibers}
    dual_curvature = {f: _basic_exact_two_form(rng, flat) for f in fibers}
    h = randomgen.random_form(rng, flat.coframe, flat.base_vars, degrees=(3,),
                              complex_coeffs=False, density=1.0)

    def flux(cof):
        out = h.map_to(cof)
        for f in fibers:
            fiber = exterior.Form.monomial(cof, (f,))
            out = out + exterior.wedge(dual_curvature[f].map_to(cof), fiber)
        return out

    return bundle.BundleChart.build(
        f"rank{k}", bases, fibers,
        curvature={f: c.map_to for f, c in curvature.items()}, flux=flux)


def random_nondegenerate_spinor(rng, chart, deg):
    """Random pure spinor of type ``deg``, nondegenerate at every point of the chart.

    rho = e^(B + i omega) ^ Omega with a random 2-form B, omega the standard
    symplectic form on the generator pairs (e_2j, e_2j+1) with j >= deg, and
    Omega the wedge of e_2j + i e_2j+1 over j < deg; omega and each factor of
    Omega carry a random real perturbation scaled by 1/40.  Random coefficients
    are at most 6 in size on these chart boxes, so the perturbations stay below
    0.15 and (rho, conj rho) stays away from zero.  ``randomgen.random_pure_spinor``
    instead rejects draws that degenerate at a sample point; each rejection
    rebuilds the pairing at every point, and their number made the pass time
    vary by a third between seeds.
    """
    cof, variables, names = chart.coframe, chart.base_vars, chart.coframe.names

    def form(degree):
        return randomgen.random_form(rng, cof, variables, degrees=(degree,),
                                     complex_coeffs=False, density=1.0)

    b = form(2)
    omega = form(2).scale(rat(1, 40))
    for j in range(deg, cof.dim // 2):
        omega = omega + exterior.Form.monomial(cof, (names[2 * j], names[2 * j + 1]))
    lowest = exterior.Form.scalar(cof, 1)
    for j in range(deg):
        factor = (exterior.Form.monomial(cof, (names[2 * j],))
                  + exterior.Form.monomial(cof, (names[2 * j + 1],), CScalar.i())
                  + form(1).scale(rat(1, 40)))
        lowest = exterior.wedge(lowest, factor)
    return structures.PureSpinor.from_data(b, omega, lowest)


class DensePointsWorkload:
    """Identities built once per chart, then checked at many sample points.

    Each rank k gets three charts, whose pure spinors have type 0, k // 2
    and k.
    """

    ranks = (1, 2, 3)

    def __init__(self, points):
        self.points = points

    def run(self, seed, warm=False):
        n_points = 2 if warm else self.points
        verdict = Verdict()
        times = {}
        for k in self.ranks:
            t0 = time.perf_counter()
            for c, deg in enumerate((0, k // 2, k)):
                name = f"rank{k}/chart{c}"
                before = verdict.expected
                try:
                    self._chart(np.random.default_rng([seed, k, c]), k, deg,
                                n_points, name, verdict)
                except Exception:   # every check the chart had left to make is lost
                    made = verdict.expected - before
                    verdict.raised(f"{name}/lost{i}"
                                   for i in range(made, self.checks_per_chart(n_points)))
            times[f"rank{k}"] = time.perf_counter() - t0
        return verdict, times

    @staticmethod
    def checks_per_chart(n_points):
        return 1 + 4 * n_points

    @staticmethod
    def _chart(rng, k, deg, n_points, name, verdict):
        chart = random_even_chart(rng, k)
        pair = duality.DualityPair.from_chart(chart)
        verdict.check(f"{name}/pair-validation",
                      pair.validate(seed=int(rng.integers(2**31))).ok)
        cof, variables = chart.coframe, chart.base_vars
        rho = randomgen.random_form(rng, cof, variables, density=1.0)
        intertwining = (
            duality.dualize_form(bundle.twisted_derivative(rho, chart), pair)
            - bundle.twisted_derivative(duality.dualize_form(rho, pair), pair.dual))
        v = randomgen.random_section(rng, chart)
        sigma = randomgen.random_form(rng, cof, variables, density=1.0)
        compatibility = (
            duality.dualize_form(v.act(sigma), pair)
            - duality.dualize_section(v, pair).act(duality.dualize_form(sigma, pair)))
        points = chart.domain.sample_many(rng, n_points)
        spinor = random_nondegenerate_spinor(rng, chart, deg)
        minus_one = -np.eye(2 * cof.dim)
        for i, p in enumerate(points):
            at = f"{name}/point{i}"
            verdict.check(f"{at}/intertwining", bundle.form_residual(
                intertwining, pair.dual.domain, [p]) <= INTERTWINING_TOL)
            verdict.check(f"{at}/compatibility", bundle.form_residual(
                compatibility, pair.dual.domain, [p]) <= COMPATIBILITY_TOL)
            try:
                ladder = duality.uk_transport_residual(spinor, pair, p)
            except Exception:
                verdict.raised([f"{at}/ladder"])
            else:
                verdict.check(f"{at}/ladder", ladder <= LADDER_TOL)
            try:
                j = structures.gcs_matrix_at(spinor, chart, p)
            except Exception:
                verdict.raised([f"{at}/j-squared"])
            else:
                verdict.check(f"{at}/j-squared",
                              np.abs(j @ j - minus_one).max() <= J_SQUARED_TOL)


WORKLOADS = {
    "paper-suite": ScenarioWorkload(list(scenarios.SCENARIOS), samples=8),
    "large-samples": ScenarioWorkload(["s3-hopf", "s3-selfdual", "buscher-random"],
                                      samples=64),
    "dense-points": DensePointsWorkload(points=24),
}
