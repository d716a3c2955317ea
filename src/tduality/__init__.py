"""Computational engine for T-duality of principal torus bundles with flux.

Layers, bottom up:

* ``scalar``     exact symbolic coefficients, evaluated at points sampled from
  a box
* ``exterior``   graded forms over a tagged coframe; Clifford action, pairing
  of spinors, exponentials, fiber integration
* ``bundle``     charts with structure equations, flux splitting, dual charts,
  the correspondence of a dual pair
* ``courant``    sections of T+T*, the pairing and the twisted bracket
* ``structures`` pure spinors, generalized complex structures and metrics,
  pointwise linear algebra
* ``duality``    the form and section transforms, metric transport, the
  closed-form dual metric rules, type change, tangent-structure transport
* ``certify``    the transform identities of a dual pair, certified on the
  frame with their Leibniz and linearity side conditions
* ``reduction``  pointwise quotients and the product-space duality criteria
* ``scenarios``  end-to-end reproductions of the worked examples (CLI-driven)
"""

from .scalar import CScalar, Domain, Scalar, diff, evaluate, rat, var
from .exterior import (Coframe, Form, FrameVector, contract, exp_form,
                       fiber_integrate, mukai_pairing, reversal, wedge)
from .bundle import (BundleChart, DualityPair, build_dual_chart,
                     exterior_derivative, split_flux, twisted_derivative,
                     validate_chart, validate_pair)
from .courant import Section, courant_bracket, lift_splitting_residual, pairings
from .structures import (GeneralizedMetric, PureSpinor, SymTensor, annihilators,
                         check_integrable, gcs_matrices, metric_matrices,
                         spinor_types, uk_spaces)
from .duality import (buscher_rules, dual_types, dualize_form, dualize_section,
                      transport_metric, transport_spinor, uk_transport_residuals)
from .reduction import (LiftedActionPoint, double_quotient_report,
                        fourier_mukai_check, reduce_pointwise,
                        transversality_check)
from .scenarios import SCENARIOS, run_scenario

__version__ = "0.1.0"
