"""Closed-form constants of the sharp higher-order exponential inequality.

The critical exponent beta0(m, n), its product re-expressions, the
unit-sphere area and unit-ball volume, the concentration-level bound, the
residual integrability exponent eta, and the dimension threshold T0 for
the extremal construction.  Each constant has one formula: all gamma
ratios are assembled in log space from ``specfun.log_gamma`` and
exponentiated once, so the formulas stay finite well past n = 64, and the
ball volume is the sphere area over n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError
from .specfun import EULER_GAMMA, digamma, log_gamma

_LOG_PI = math.log(math.pi)
_LOG_2 = math.log(2.0)

#: sigma = 1 + 2/sqrt(3), the slack constant of the threshold expression.
SIGMA = 1.0 + 2.0 / math.sqrt(3.0)


@dataclass(frozen=True)
class AdamsParams:
    """Derivative order m and dimension n with n >= 2 and 0 < m < n."""

    m: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or isinstance(self.m, bool):
            raise DomainError(f"m must be an integer, got {self.m!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if self.n < 2:
            raise DomainError(f"dimension n must be >= 2, got {self.n}")
        if self.n > sys.float_info.max:  # n/m and n/2 are floats
            raise DomainError(
                f"dimension n must be at most {sys.float_info.max!r}, got an n of {len(str(self.n))} digits"
            )
        if not 0 < self.m < self.n:
            raise DomainError(
                f"derivative order must satisfy 0 < m < n, got m={self.m}, n={self.n}"
            )

    @property
    def m_is_even(self) -> bool:
        return self.m % 2 == 0

    @property
    def subcritical_exponent(self) -> float:
        """The Lebesgue index n/m (> 1)."""
        return self.n / self.m


def log_unit_sphere_area(n: int) -> float:
    """ln of the area of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return _LOG_2 + (n / 2.0) * _LOG_PI - log_gamma(n / 2.0)


def unit_sphere_area(n: int) -> float:
    """Area of S^{n-1}: 2 pi^{n/2} / Gamma(n/2); DomainError once it underflows (n >= 439)."""
    log_area = log_unit_sphere_area(n)
    area = math.exp(log_area)
    if area < sys.float_info.min:
        raise DomainError(
            f"unit sphere area for n = {n} underflows double precision"
            f" (ln area = {log_area:.17g}); use log_unit_sphere_area"
        )
    return area


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n (= sphere area / n)."""
    return unit_sphere_area(n) / n


def _log_beta0(m: int, n: int) -> float:
    if m % 2 == 1:
        inner = (
            (n / 2.0) * _LOG_PI
            + m * _LOG_2
            + log_gamma((m + 1) / 2.0)
            - log_gamma((n - m + 1) / 2.0)
        )
    else:
        inner = (
            (n / 2.0) * _LOG_PI
            + m * _LOG_2
            + log_gamma(m / 2.0)
            - log_gamma((n - m) / 2.0)
        )
    return math.log(n) - log_unit_sphere_area(n) + (n / (n - m)) * inner


def _exp_beta0(log_value: float, params: AdamsParams) -> float:
    """e^log_value for a form of beta0; DomainError naming m and n where
    it overflows (m near n: beta0(19, 20) = e^{1.1e3})."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError(
            f"beta0 overflows double precision at m={params.m}, n={params.n}"
            f" (ln beta0 = {log_value:.17g})"
        ) from None


def beta0(params: AdamsParams) -> float:
    """Critical exponent beta0(m, n) of the parity-split gamma-ratio formula."""
    return _exp_beta0(_log_beta0(params.m, params.n), params)


def beta0_product_form(params: AdamsParams) -> float:
    """beta0(m, n) via the integer-product re-expression.

    Even m = 2k: [n^{(n-m)/n} omega^{m/n} (n-2) prod_{j<k-1} (n-m+2j)(m-2j-2)]^{n/(n-m)}.
    Odd m = 2k+1: same shape with factors (n-m+2j+1)(m-2j-1), j < k.
    Empty products equal 1.
    """
    m, n = params.m, params.n
    log_prod = 0.0
    if params.m_is_even:
        k = m // 2
        log_prod += math.log(n - 2)
        for j in range(k - 1):
            log_prod += math.log((n - m + 2 * j) * (m - 2 * j - 2))
    else:
        k = (m - 1) // 2
        for j in range(k):
            log_prod += math.log((n - m + 2 * j + 1) * (m - 2 * j - 1))
    log_base = (
        ((n - m) / n) * math.log(n)
        + (m / n) * log_unit_sphere_area(n)
        + log_prod
    )
    return _exp_beta0((n / (n - m)) * log_base, params)


def unit_concentration_level(p: float) -> float:
    """1 + e^{psi(p) + gamma}: the level per unit measure at p = n/m (1 + e at p = 2)."""
    return 1.0 + math.exp(digamma(p) + EULER_GAMMA)


def concentration_level(params: AdamsParams, domain_measure: float) -> float:
    """Upper bound |Omega| (1 + e^{psi(n/m) + gamma}) for the functional
    along sequences whose m-th gradient energy concentrates at a point."""
    domain_measure = float(domain_measure)
    if not domain_measure > 0.0:
        raise DomainError(f"domain measure must be positive, got {domain_measure}")
    return domain_measure * unit_concentration_level(params.subcritical_exponent)


def eta_exponent(grad_norm_p: float, p: float) -> float:
    """Residual integrability exponent (1 - ||grad^m u||_p^p)^{-1/(p-1)}.

    A norm >= 1 signals full concentration (eta = infinity) and is rejected.
    """
    grad_norm_p = float(grad_norm_p)
    p = float(p)
    if not p > 1.0:
        raise DomainError(f"p must exceed 1, got {p}")
    if not 0.0 <= grad_norm_p < 1.0:
        raise DomainError(
            f"gradient norm must lie in [0, 1), got {grad_norm_p} (>= 1 means eta = inf)"
        )
    return (1.0 - grad_norm_p**p) ** (-1.0 / (p - 1.0))


class ThresholdResult(NamedTuple):
    """Raw threshold expression and the smallest integer at or above it."""

    raw: float
    integer: int


def t_zero() -> ThresholdResult:
    """Dimension threshold: extremal existence is guaranteed for n >= 2*integer.

    raw = 1 + A + sqrt(1 + A^2 + B) with A = (1+36 sigma)/(17-24 gamma),
    B = 72 sigma/(17-24 gamma), sigma = 1 + 2/sqrt(3).
    """
    denom = 17.0 - 24.0 * EULER_GAMMA
    a = (1.0 + 36.0 * SIGMA) / denom
    b = 72.0 * SIGMA / denom
    raw = 1.0 + a + math.sqrt(1.0 + a * a + b)
    return ThresholdResult(raw=raw, integer=math.ceil(raw))
