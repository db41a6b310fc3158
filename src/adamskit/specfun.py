"""Log-gamma, digamma and the Euler-Mascheroni constant.

Both functions are plain ``float -> float`` routines, pure and safe for
concurrent use.  ``log_gamma`` is the primitive: the large-argument
constant formulas downstream combine gamma ratios, so they are assembled
as sums of log-gammas and exponentiated once.  Both use an upward
recurrence shift followed by the Bernoulli asymptotic series; the
Euler-Mascheroni constant is a stored literal (its extrapolation lives in
the test oracle, not here).
"""

from __future__ import annotations

import math

from .errors import DomainError

#: Euler-Mascheroni constant, lim_k (H_k - ln k).
EULER_GAMMA = 0.57721566490153286

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

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


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
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv
    for coeff in _LOG_GAMMA_TAIL:
        tail += coeff * power
        power *= inv2
    value = (x - 0.5) * math.log(x) - x + _HALF_LOG_TWO_PI + tail
    if shift_product != 1.0:
        value -= math.log(shift_product)
    return value


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
