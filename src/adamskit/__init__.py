"""Sharp constants, concentration levels, and extremal test functions for
higher-order exponential Sobolev inequalities, verified at desk scale.

Submodules
----------
specfun    log-gamma, digamma, the Euler-Mascheroni constant
constants  critical exponents, sphere constants, concentration level, threshold
hardy      power-weight Hardy sandwiches, probes, iterated constants
rearrange  decreasing rearrangement, symmetrization, radial comparison solution
moser1d    the 1-D exponential functional, tail certificate, maximizer
extremal   the explicit test function and per-dimension gap verdicts
cli        the ``adamskit`` command-line front end
"""

from .constants import (
    AdamsParams,
    SphereConstants,
    beta0,
    beta0_product_form,
    concentration_level,
    eta_exponent,
    t_zero,
    unit_ball_volume,
    unit_sphere_area,
)
from .errors import (
    DegenerateTrialError,
    DomainError,
    EnergyBoundError,
    InfeasibleError,
    MonotonicityError,
    NonSmoothError,
    QuadratureError,
)
from .extremal import VerdictRow, eta_function, make_params, sweep, verdict
from .hardy import HardySetup, Sandwich, Side, b_constant, k_factor, sandwich
from .moser1d import cc_functional, cc_lemma_bound, concentration_maximizer, energy, moser_family
from .profiles import PiecewiseProfile, piecewise_linear
from .quadrature import QuadratureSpec
from .rearrange import (
    RadialProfile,
    SampledFunction,
    decreasing_rearrangement,
    symmetrize,
    talenti_radial_solution,
)
from .specfun import EULER_GAMMA, digamma, log_gamma

__version__ = "0.1.0"

__all__ = [
    "AdamsParams",
    "SphereConstants",
    "beta0",
    "beta0_product_form",
    "concentration_level",
    "eta_exponent",
    "t_zero",
    "unit_ball_volume",
    "unit_sphere_area",
    "DomainError",
    "InfeasibleError",
    "EnergyBoundError",
    "MonotonicityError",
    "NonSmoothError",
    "DegenerateTrialError",
    "QuadratureError",
    "VerdictRow",
    "eta_function",
    "make_params",
    "sweep",
    "verdict",
    "HardySetup",
    "Sandwich",
    "Side",
    "b_constant",
    "k_factor",
    "sandwich",
    "cc_functional",
    "cc_lemma_bound",
    "concentration_maximizer",
    "energy",
    "moser_family",
    "PiecewiseProfile",
    "piecewise_linear",
    "QuadratureSpec",
    "RadialProfile",
    "SampledFunction",
    "decreasing_rearrangement",
    "symmetrize",
    "talenti_radial_solution",
    "EULER_GAMMA",
    "digamma",
    "log_gamma",
    "__version__",
]
