"""Gamma-family special functions and harmonic numbers.

Everything here is a plain ``float -> float`` routine, pure and safe for
concurrent use.  ``log_gamma`` is the primitive: the large-argument
constant formulas downstream combine gamma ratios, so they are assembled
as sums of log-gammas and exponentiated once.  Digamma and trigamma use
an upward recurrence shift followed by the Bernoulli asymptotic series;
the Euler-Mascheroni constant is a stored literal (its extrapolation
lives in the test oracle, not here).
"""

from __future__ import annotations

import math

from .errors import DomainError

#: Euler-Mascheroni constant, lim_k (H_k - ln k).
EULER_GAMMA = 0.57721566490153286

#: Largest x for which gamma(x) is finite in double precision.
GAMMA_OVERFLOW_THRESHOLD = 171.62437695630272

# B_{2k} / (2k (2k-1)): tail coefficients of the Stirling series for ln Gamma.
_LOG_GAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)

# B_{2k} / (2k): tail coefficients of the digamma series.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

# B_{2k}: tail coefficients of the trigamma series.
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def euler_gamma() -> float:
    """The Euler-Mascheroni constant gamma."""
    return EULER_GAMMA


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not x > 0.0 or math.isnan(x):
        raise DomainError(f"{name} requires a positive argument, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0.

    Upward recurrence to x >= 10, then the Stirling series with Bernoulli
    corrections; absolute error a few ulps of the result.
    """
    x = _require_positive(x, "log_gamma")
    shift_product = 1.0
    while x < 10.0:
        shift_product *= x
        x += 1.0
    value = (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + _stirling_tail(x)
    if shift_product != 1.0:
        value -= math.log(shift_product)
    return value


def _stirling_tail(x: float) -> float:
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv
    for coeff in _LOG_GAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return tail


def gamma(x: float) -> float:
    """Gamma(x) for x > 0; relative error <= 1e-13 on [0.5, 171].

    Raises ``OverflowError`` beyond the double-precision range.  The
    dominant factor x^{x-1/2} e^{-x} goes through libm ``pow``/``exp``
    (not exp of a ~700-sized log, whose rounding would be amplified);
    near the overflow edge the power is split into two halves.
    """
    x = _require_positive(x, "gamma")
    if x > GAMMA_OVERFLOW_THRESHOLD:
        raise OverflowError(f"gamma({x}) exceeds double-precision range")
    shift_product = 1.0
    z = x
    while z < 10.0:
        shift_product *= z
        z += 1.0
    correction = math.exp(_stirling_tail(z)) * math.sqrt(2.0 * math.pi)
    if z < 140.0:
        value = correction * z ** (z - 0.5) * math.exp(-z)
    else:
        half = correction**0.5 * z ** (0.5 * (z - 0.5)) * math.exp(-0.5 * z)
        value = half * half
    return value / shift_product


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0, absolute error <= 1e-12.

    Recurrence psi(x) = psi(x+1) - 1/x shifts to x >= 8, then the six-term
    asymptotic expansion.
    """
    x = _require_positive(x, "digamma")
    acc = 0.0
    while x < 8.0:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail -= coeff * power
        power *= inv2
    return acc + math.log(x) - 0.5 * inv + tail


def trigamma(x: float) -> float:
    """psi'(x) = sum_k 1/(x+k)^2 for x > 0, absolute error <= 1e-10."""
    x = _require_positive(x, "trigamma")
    acc = 0.0
    while x < 8.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv * inv2
    for coeff in _TRIGAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    return acc + inv + 0.5 * inv2 + tail


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k, correctly rounded via exact summation."""
    if not isinstance(k, (int,)) or isinstance(k, bool) or k < 1:
        raise DomainError(f"harmonic requires an integer k >= 1, got {k!r}")
    # fsum is exactly rounded, so the summation order is immaterial;
    # iterate smallest-first anyway to match the magnitude discipline.
    return math.fsum(1.0 / j for j in range(k, 0, -1))
