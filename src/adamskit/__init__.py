"""Sharp constants, concentration levels, and extremal test functions for
higher-order exponential Sobolev inequalities, verified at desk scale.

Submodules
----------
specfun    log-gamma, digamma, the Euler-Mascheroni constant
constants  critical exponents, sphere area and ball volume, concentration level, threshold
hardy      power-weight Hardy sandwiches, probes, iterated constants
rearrange  decreasing rearrangement, symmetrization, radial comparison solution
moser1d    the 1-D exponential functional, tail certificate, maximizer
extremal   the explicit test function and per-dimension gap verdicts
cli        the ``adamskit`` command-line front end

The package imports lazily (PEP 562): ``import adamskit`` loads no
submodule, and a public name or submodule is imported on first access.
So ``adamskit.constants`` and ``adamskit.specfun`` never load numpy.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("AdamsParams", "beta0", "beta0_product_form", "concentration_level", "eta_exponent",
         "t_zero", "unit_ball_volume", "unit_sphere_area"),
        "constants",
    ),
    **dict.fromkeys(
        ("DomainError", "InfeasibleError", "EnergyBoundError", "MonotonicityError",
         "DegenerateTrialError", "QuadratureError"),
        "errors",
    ),
    **dict.fromkeys(("VerdictRow", "eta_function", "make_params", "sweep", "verdict"), "extremal"),
    **dict.fromkeys(("HardySetup", "Sandwich", "Side", "b_constant", "k_factor", "sandwich"), "hardy"),
    **dict.fromkeys(
        ("cc_functional", "cc_lemma_bound", "concentration_maximizer", "energy", "moser_family"),
        "moser1d",
    ),
    **dict.fromkeys(("PiecewiseProfile", "piecewise_linear"), "profiles"),
    "QuadratureSpec": "quadrature",
    **dict.fromkeys(
        ("RadialProfile", "SampledFunction", "decreasing_rearrangement", "symmetrize",
         "talenti_radial_solution"),
        "rearrange",
    ),
    **dict.fromkeys(("EULER_GAMMA", "digamma", "log_gamma"), "specfun"),
}

__all__ = [*_EXPORTS, "__version__"]
_SUBMODULES = frozenset((*_EXPORTS.values(), "cli"))


def __getattr__(name: str):
    # Not cached in globals(), so the name follows its submodule's binding
    # (a wrapper or monkeypatch set there is seen here too).
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
