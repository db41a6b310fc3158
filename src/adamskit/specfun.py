"""Log-gamma, digamma and the Euler-Mascheroni constant.

Both functions are plain ``float -> float`` routines, pure and safe for
concurrent use, and raise ``DomainError`` unless x > 0.  ``log_gamma`` is
the primitive: the large-argument constant formulas downstream combine
gamma ratios, so they are assembled as sums of log-gammas and
exponentiated once.  It is the standard library's ``math.lgamma``.
``digamma`` shifts upward by recurrence and sums the Bernoulli asymptotic
series; the Euler-Mascheroni constant is a stored literal (its
extrapolation lives in the test oracle, not here).
"""

from __future__ import annotations

import math

from .errors import DomainError

#: Euler-Mascheroni constant, lim_k (H_k - ln k).
EULER_GAMMA = 0.57721566490153286

# B_{2k} / (2k): tail coefficients of the digamma series.
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not x > 0.0 or math.isnan(x):
        raise DomainError(f"{name} requires a positive argument, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0, by ``math.lgamma``."""
    return math.lgamma(_require_positive(x, "log_gamma"))


def digamma(x: float) -> float:
    """psi(x) = d/dx ln Gamma(x) for x > 0, within 5e-16 max(1, |psi|).

    Recurrence psi(x) = psi(x+1) - 1/x shifts to x >= 12, its terms summed
    with one rounding (``math.fsum``), then the six-term asymptotic expansion.
    """
    x = _require_positive(x, "digamma")
    terms = []
    while x < 12.0:
        terms.append(-1.0 / x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    power = inv2
    for coeff in _DIGAMMA_TAIL:
        tail -= coeff * power
        power *= inv2
    return math.fsum(terms) + math.log(x) - 0.5 * inv + tail
