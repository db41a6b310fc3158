"""Adaptive Gauss-Legendre integration shared by the probes and functionals.

Refinement is level-synchronous: each level calls the integrand once, on
the 15 + 31 nodes of every active panel laid out in one 1-D array, so
``f`` must be elementwise on a 1-D numpy array (``f(x)[i]`` depends on
``x[i]`` alone).  The first level is the one panel [lo, hi], or the panels
between the caller's ``breaks``: interior points that must be finite,
strictly increasing and strictly inside (lo, hi), else ``DomainError``.
A caller that knows where its integrand's mass sits puts breaks there, so
the engine need not find it by halving.  The refinement stops when the
summed heuristic error |G31 - G15| meets the tolerance
max(min(1e-13, rel_tol), rel_tol*|I|).
Until then a panel [a, b] is accepted when its error is within its length
share (b - a)/(hi - lo) of the tolerance, and the rest are halved; a panel
at machine resolution is frozen.  ``QuadratureError`` (with the achieved
error, the interval and the panel count) is raised on a NaN or infinite
panel value, when the splits would exceed ``MAX_SUBDIVISIONS``, or when
only frozen panels fail their share.

Each first-level panel must lie within one smooth piece of its integrand:
the callers break there (``profiles.abs_pow_integral`` at the knots and
roots of a profile, such as a Hardy trial, graded geometrically toward an
algebraic end at r = 0 by ``profiles.abs_pow_quadrature``; ``moser1d`` by
one call per profile piece, graded toward both ends of each piece).  The error estimate
is blind to a jump that lies between a panel edge and that panel's
outermost Gauss node, where G15 and G31 see the same side and agree on a
wrong value;
``tests/test_profiles.py::TestAdaptiveGauss::test_jump_next_to_panel_edge``
pins such a case as a strict xfail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, QuadratureError


#: Panel splits one ``adaptive_gauss`` call may make before it gives up.
MAX_SUBDIVISIONS = 4096


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and truncation policy for improper integrals.

    The absolute error floor is min(1e-13, rel_tol).  A tolerance below the
    integrand's rounding cannot be met and raises ``QuadratureError``: the
    sweep's e^{w^q - t} cancels terms up to t ~ 3n, so at rel_tol=1e-13 its
    J raises at n = 3000, 5000, 7000 and 10000.
    """

    rel_tol: float = 1e-10
    truncation_epsilon: float = 1e-12

    def __post_init__(self) -> None:
        for name in ("rel_tol", "truncation_epsilon"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise DomainError(f"{name} must lie in (0, 1), got {value}")


DEFAULT_SPEC = QuadratureSpec()

_X15, _W15 = np.polynomial.legendre.leggauss(15)
_X31, _W31 = np.polynomial.legendre.leggauss(31)
#: Nodes of one panel on [-1, 1]: the 15 of G15, then the 31 of G31.
_NODES = np.concatenate((_X15, _X31))


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    breaks: np.ndarray | None = None,
) -> float:
    """Integral of ``f`` on the finite interval [lo, hi], starting from the
    panels between ``breaks`` (see the module docstring)."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise DomainError("adaptive_gauss requires a finite interval")
    if hi <= lo:
        return 0.0
    if breaks is None:
        a, b = np.array([lo]), np.array([hi])
    else:
        breaks = np.asarray(breaks, dtype=float)
        if breaks.ndim != 1:
            raise DomainError(f"breaks must be a 1-D array, got shape {breaks.shape}")
        edges = np.concatenate(([lo], breaks, [hi]))
        a, b = edges[:-1], edges[1:]
        # One comparison covers every rule: NaN and inf fail it as well.
        if not (a < b).all():
            i = int((a < b).argmin())
            raise DomainError(
                f"breaks must be finite, strictly increasing and strictly inside"
                f" ({lo}, {hi}); the panel [{a[i]}, {b[i]}] is empty or not finite"
            )
    abs_tol = min(1e-13, spec.rel_tol)
    done: list[np.ndarray] = []  # G31 values of accepted and frozen panels
    done_sum = done_err = 0.0
    splits, frozen = 0, False
    while True:
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        x = np.multiply.outer(half, _NODES) + mid[:, None]
        y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        g15, g31 = half * (y[:, :15] @ _W15), half * (y[:, 15:] @ _W31)
        err = np.abs(g31 - g15)
        active_err = float(err.sum())
        if not math.isfinite(active_err) and (bad := ~(np.isfinite(g15) & np.isfinite(g31))).any():
            i = bad.argmax()
            what = "NaN" if np.isnan(g15[i]) or np.isnan(g31[i]) else "infinite"
            raise QuadratureError(
                f"integrand is {what} on the panel [{a[i]}, {b[i]}]",
                interval=(lo, hi),
                panels=sum(v.size for v in done) + a.size,
            )
        tol = max(abs_tol, spec.rel_tol * abs(done_sum + float(g31.sum())))
        # A one-panel call that converges returns here, with no bookkeeping.
        # With a frozen panel only the summed estimate can end the loop.
        converged = done_err + active_err <= tol
        if not converged:
            split = err * (hi - lo) > 2.0 * tol * half  # outside the length share
            converged = not (split.any() or frozen)
        if converged:
            if not done:
                return math.fsum(g31)
            done.append(g31)
            return math.fsum(np.concatenate(done))
        halvable = (a < mid) & (mid < b)
        if not halvable.all():  # a panel at machine resolution is frozen
            frozen = frozen or not halvable[split].all()
            split &= halvable
        keep = ~split
        done.append(g31[keep])
        done_sum += float(done[-1].sum())
        done_err += float(err[keep].sum())
        a, b, mid = a[split], b[split], mid[split]
        if not a.size or splits + a.size > MAX_SUBDIVISIONS:
            why = "no panel can be split"
            if a.size:
                why = f"the budget of {MAX_SUBDIVISIONS} splits is spent"
            panels = sum(v.size for v in done) + a.size
            achieved = done_err + float(err[split].sum())
            raise QuadratureError(
                f"adaptive integration stalled on [{lo}, {hi}]: {why}; panel count {panels},"
                f" error estimate {achieved:.3e} against tolerance {tol:.3e}"
                " (the tolerance may be below the rounding error of the integrand)",
                achieved=achieved,
                interval=(lo, hi),
                panels=panels,
            )
        splits += a.size
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))


def power_integral(c: float, w1: float, a: float, b: float) -> float:
    """c * integral_a^b x^{w1-1} dx for 0 <= a < b <= inf; inf if an end diverges.

    The one closed-form power integral in the package; exact at w1 = 1.
    """
    if math.isinf(b):
        if w1 >= 0.0 or a == 0.0:
            return math.inf
        return -c * a**w1 / w1
    if w1 == 1.0:
        return c * (b - a)
    if a == 0.0:
        if w1 <= 0.0:
            return math.inf
        return c * b**w1 / w1
    if w1 == 0.0:
        return c * math.log(b / a)
    # (b^w1 - a^w1)/w1 via expm1: exact even when w1 is a rounding residue
    # of 0 (e.g. the arc energy's ((n-2)/n - 1) n/2 + 1).
    return c * (math.expm1(w1 * math.log(b)) - math.expm1(w1 * math.log(a))) / w1
