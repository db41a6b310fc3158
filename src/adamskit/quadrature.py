"""Adaptive Gauss-Legendre integration shared by the probes and functionals.

Integrands must accept numpy arrays.  Error is estimated per panel by
comparing 15- and 31-node rules; the worklist refines the worst panel
until the summed estimate meets the tolerance or the subdivision budget is
exhausted, in which case a ``QuadratureError`` carries the achieved error.
A panel whose rule value is NaN raises at once.
"""

from __future__ import annotations

import heapq
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

    The absolute error floor is min(1e-13, rel_tol).
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


def _panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y31 = np.asarray(f(mid + half * _X31), dtype=float)
    i31 = half * float(_W31 @ y31)
    y15 = np.asarray(f(mid + half * _X15), dtype=float)
    i15 = half * float(_W15 @ y15)
    if math.isnan(i31) or math.isnan(i15):
        raise QuadratureError(f"integrand is NaN on the panel [{lo}, {hi}]")
    return i31, abs(i31 - i15)


def adaptive_gauss(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    *,
    initial_panels: int = 1,
) -> float:
    """Integral of ``f`` on the finite interval [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise DomainError("adaptive_gauss requires a finite interval")
    if hi <= lo:
        return 0.0
    edges = np.linspace(lo, hi, initial_panels + 1)
    # Heap entries: (-err, lo, hi, value); frozen panels sit at priority 0.
    heap: list[tuple[float, float, float, float]] = []
    total = 0.0
    active_err = 0.0
    frozen_err = 0.0  # panels at machine resolution that cannot improve
    for a, b in zip(edges[:-1], edges[1:]):
        value, err = _panel(f, a, b)
        total += value
        active_err += err
        heapq.heappush(heap, (-err, a, b, value))
    splits = 0
    abs_tol = min(1e-13, spec.rel_tol)
    while active_err + frozen_err > max(abs_tol, spec.rel_tol * abs(total)):
        if splits >= MAX_SUBDIVISIONS or not heap or heap[0][0] == 0.0:
            raise QuadratureError(
                f"adaptive integration stalled on [{lo}, {hi}]"
                f" (error estimate {active_err + frozen_err:.3e})",
                achieved=active_err + frozen_err,
            )
        neg_err, a, b, value = heapq.heappop(heap)
        active_err += neg_err
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            frozen_err -= neg_err
            heapq.heappush(heap, (0.0, a, b, value))
            continue
        total -= value
        for lo_i, hi_i in ((a, mid), (mid, b)):
            value_i, err_i = _panel(f, lo_i, hi_i)
            total += value_i
            active_err += err_i
            heapq.heappush(heap, (-err_i, lo_i, hi_i, value_i))
        splits += 1
    return float(total)


def power_integral(c: float, w1: float, a: float, b: float) -> float:
    """c * integral_a^b x^{w1-1} dx for 0 <= a < b <= inf; inf if an end diverges."""
    if math.isinf(b):
        if w1 >= 0.0 or a == 0.0:
            return math.inf
        return -c * a**w1 / w1
    if a == 0.0:
        if w1 <= 0.0:
            return math.inf
        return c * b**w1 / w1
    if w1 == 0.0:
        return c * math.log(b / a)
    # (b^w1 - a^w1)/w1 via expm1: exact even when w1 is a rounding residue
    # of 0 (e.g. the arc energy's ((n-2)/n - 1) n/2 + 1).
    return c * (math.expm1(w1 * math.log(b)) - math.expm1(w1 * math.log(a))) / w1
