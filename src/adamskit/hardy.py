"""Weighted Hardy inequalities with power weights on (0, R).

Carries the two-sided estimate B <= C <= k(q,p) B for the best constant of

    (int_0^R |u|^q r^theta dr)^{1/q} <= C (int_0^R |u'|^p r^alpha dr)^{1/p}

over functions vanishing at 0 (left) or at R (right), the second-order
radial inequality with its iterated constants, and randomized
Rayleigh-quotient probes that certify the sandwich numerically.  A
probe's weighted norm is one ``profiles.abs_pow_integral`` of the trial
or its derivative, which breaks its quadrature at knots, and at roots
unless the power is even, and grades it toward r = 0 in quarter steps
where the weight leaves a power of r there.  A polyline trial's knots
are drawn sorted, and its value norm takes one ``np.interp`` of its knots
and values per level and builds no derivative evaluator (the
derivative norm is closed form).  The second-order trials' polynomials are plain
coefficient arrays: products by ``np.convolve``, derivatives as k c_k,
values by Horner's rule, each in ``numpy.polynomial``'s order of
operations, so the ratios are bit for bit those of ``polymul``/``polyder``/
``polyval`` without their per-call wrappers; only the breaks at the roots
(none at the default p = 2) come from ``polyroots``.  Where no roots
break them (an even p), a probe integrates all its trials' |u|^p r^w as
one stacked engine call, rows of coefficients evaluated by Horner's rule
on (k, 1) columns, and all their |r u'' + (n-1) u'|^p r^w as another;
at other p each trial takes its own two calls.

For pure power weights the product defining B is unimodal in the split
point for every parameter choice (its log-derivative is C - G(x) with G
strictly increasing), so the supremum is located in closed form.
"""

from __future__ import annotations

import contextlib
import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .constants import AdamsParams
from .errors import DegenerateTrialError, DomainError, InfeasibleError, QuadratureError
from .profiles import (
    PiecewiseProfile,
    PowerPiece,
    abs_pow_integral,
    abs_pow_quadrature,
    kinks_at_roots,
    piecewise_linear,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec

_BOUNDARY_RTOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
#: A power whose log is below this stays finite (log of the float max: 709.8).
_LOG_RANGE = 700.0
#: The radii a setup accepts: the probes' norms carry powers of R such as
#: R^(theta+1) and R^(alpha+1-p), and their first-level breaks are graded
#: from the smallest knot toward 0, so R stays far from the float range's ends.
_R_RANGE = (1e-100, 1e100)


class Side(enum.Enum):
    """Which endpoint the admissible functions vanish at."""

    LEFT_VANISHING = "left"
    RIGHT_VANISHING = "right"


@dataclass(frozen=True)
class HardySetup:
    """Exponents (p, q), weight powers (alpha, theta), interval (0, R), side."""

    p: float
    q: float
    alpha: float
    theta: float
    R: float
    side: Side

    def __post_init__(self) -> None:
        if not (self.p > 1.0 and self.q > 1.0):
            raise DomainError(f"need p, q > 1, got p={self.p}, q={self.q}")
        if self.p > self.q:
            raise DomainError(f"the sandwich requires p <= q, got p={self.p} > q={self.q}")
        if not _R_RANGE[0] <= self.R <= _R_RANGE[1]:
            raise DomainError(
                f"interval endpoint must lie in [{_R_RANGE[0]:g}, {_R_RANGE[1]:g}], got R={self.R}"
            )
        if not isinstance(self.side, Side):
            raise DomainError(f"side must be a Side enum member, got {self.side!r}")


@dataclass(frozen=True)
class Sandwich:
    """lower = B <= best constant <= upper = k(q,p) B."""

    lower: float
    upper: float
    k_factor: float


def k_factor(q: float, p: float) -> float:
    """(1 + q(p-1)/p)^{1/q} (1 + p/(q(p-1)))^{(p-1)/p}; equals
    p (p-1)^{-(p-1)/p} on the diagonal q = p."""
    if not (p > 1.0 and q > 1.0):
        raise DomainError(f"k_factor needs p, q > 1, got p={p}, q={q}")
    first = (1.0 + q * (p - 1.0) / p) ** (1.0 / q)
    second = (1.0 + p / (q * (p - 1.0))) ** ((p - 1.0) / p)
    return first * second


def _feasible(setup: HardySetup) -> None:
    s = setup
    shifted = s.alpha - s.p + 1.0
    if s.side is Side.LEFT_VANISHING and not shifted < 0.0:
        raise InfeasibleError(
            f"left-vanishing case needs alpha - p + 1 < 0, got {shifted}"
        )
    if s.side is Side.RIGHT_VANISHING and not shifted > 0.0:
        raise InfeasibleError(
            f"right-vanishing case needs alpha - p + 1 > 0, got {shifted}"
        )
    lhs = s.q * shifted
    rhs = s.p * (s.theta + 1.0)
    scale = max(1.0, abs(lhs), abs(rhs))
    if lhs > rhs + _BOUNDARY_RTOL * scale:
        raise InfeasibleError(
            f"balance condition q(alpha-p+1) <= p(theta+1) fails: {lhs} > {rhs}"
        )


def _b_left(setup: HardySetup) -> float:
    p, q, alpha, theta, R = setup.p, setup.q, setup.alpha, setup.theta, setup.R
    ev = (p - 1.0 - alpha) / (p - 1.0)
    c_crit = q * (p - 1.0 - alpha) / p
    # log x* and log W(x*), W(x) = integral_x^R r^theta dr, in forms that stay
    # exact when x* rounds to R (theta -> inf) or to 0.
    if theta > -1.0:
        # x* = R (c / (theta+1+c))^{1/(theta+1)}: W = R^{theta+1} / (theta+1+c).
        log_x = math.log(R) - math.log1p((theta + 1.0) / c_crit) / (theta + 1.0)
        log_w = (theta + 1.0) * math.log(R) - math.log(theta + 1.0 + c_crit)
    elif theta == -1.0:
        # x* = R e^{-1/c}: W = log(R / x*) = 1/c.
        log_x = math.log(R) - 1.0 / c_crit
        log_w = -math.log(c_crit)
    else:
        edge = -theta - 1.0
        if c_crit <= edge * (1.0 + _BOUNDARY_RTOL):
            # Balance condition holds with equality: the powers of x cancel and
            # the supremum is the x -> 0 limit.
            return edge ** (-1.0 / q) * ev ** (-(p - 1.0) / p)
        # x* = R (1 - edge/c)^{1/edge}: W = x*^{-edge} / c.
        log_x = math.log(R) + math.log1p(-edge / c_crit) / edge
        log_w = -edge * log_x - math.log(c_crit)
    log_v = ev * log_x - math.log(ev)
    return _exp_of_log_b(log_w / q + (p - 1.0) / p * log_v, setup)


def _b_right(setup: HardySetup) -> float:
    p, q, alpha, theta, R = setup.p, setup.q, setup.alpha, setup.theta, setup.R
    ev2 = (alpha - p + 1.0) / (p - 1.0)
    c_crit = q * (alpha - p + 1.0) / p
    # Feasibility forces theta + 1 >= c_crit > 0.
    if theta + 1.0 <= c_crit * (1.0 + _BOUNDARY_RTOL):
        return (theta + 1.0) ** (-1.0 / q) * ev2 ** (-(p - 1.0) / p)
    # At x* = R (1 - t)^{1/ev2}, 1 - (x*/R)^ev2 is t itself, which stays
    # exact when x* rounds to R (theta -> inf).
    t = c_crit / (theta + 1.0)
    log_x = math.log(R) + math.log1p(-t) / ev2
    log_w = (theta + 1.0) * log_x - math.log(theta + 1.0)
    log_v = -ev2 * log_x + math.log(t) - math.log(ev2)
    return _exp_of_log_b(log_w / q + (p - 1.0) / p * log_v, setup)


def _exp_of_log_b(log_b: float, setup: HardySetup) -> float:
    if not abs(log_b) <= _LOG_FLOAT_MAX:
        raise DomainError(
            f"B = exp({log_b:.6g}) is outside the float range"
            f" at theta={setup.theta}, R={setup.R}"
        )
    return math.exp(log_b)


def b_constant(setup: HardySetup) -> float:
    """The characterizing constant B (lower end of the sandwich).

    Raises ``InfeasibleError`` when the power-weight conditions fail, in
    which case B would be infinite.
    """
    _feasible(setup)
    if setup.side is Side.LEFT_VANISHING:
        return _b_left(setup)
    return _b_right(setup)


def sandwich(setup: HardySetup) -> Sandwich:
    """Two-sided estimate [B, k(q,p) B] for the best constant."""
    b = b_constant(setup)
    k = k_factor(setup.q, setup.p)
    return Sandwich(lower=b, upper=k * b, k_factor=k)


# ---------------------------------------------------------------------------
# Rayleigh-quotient probe
# ---------------------------------------------------------------------------

class ProbeResult(NamedTuple):
    max_ratio: float
    witness: PiecewiseProfile


def _random_trial(setup: HardySetup, rng: np.random.Generator) -> PiecewiseProfile:
    R = setup.R
    n_knots = int(rng.integers(3, 7))
    if setup.side is Side.LEFT_VANISHING:
        # Vanish identically near 0 to stay clear of the weight singularity.
        x0 = R * rng.uniform(0.08, 0.35)
        knots = [0.0, x0, *sorted(rng.uniform(x0, R, size=n_knots).tolist()), R]
        values = [0.0, 0.0, *rng.uniform(-1.0, 1.0, size=n_knots + 1).tolist()]
    else:
        knots = [0.0, *sorted(rng.uniform(0.0, R, size=n_knots).tolist()), R]
        values = [*rng.uniform(-1.0, 1.0, size=n_knots + 1).tolist(), 0.0]
    # The knots are sorted: a knot drawn twice is dropped at its second place.
    keep = [0] + [i for i in range(1, len(knots)) if knots[i] != knots[i - 1]]
    return piecewise_linear([knots[i] for i in keep], [values[i] for i in keep], constant_tail=False)


def trial_ratio(
    setup: HardySetup, u: PiecewiseProfile, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """(int |u|^q r^theta)^{1/q} / (int |u'|^p r^alpha)^{1/p} for one trial.

    Returns NaN for trials with zero or infinite derivative norm.
    """
    denom = abs_pow_integral(u, setup.p, setup.alpha, 0.0, setup.R, spec, derivative=True)
    if not 0.0 < denom < math.inf:
        return math.nan
    numer = abs_pow_integral(u, setup.q, setup.theta, 0.0, setup.R, spec)
    return float(numer ** (1.0 / setup.q) / denom ** (1.0 / setup.p))


def rayleigh_probe(
    setup: HardySetup,
    trial_count: int,
    seed: int,
    trials: Sequence[PiecewiseProfile] | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ProbeResult:
    """Max Rayleigh ratio over random piecewise-linear trials in the
    vanishing class of the setup (or over explicitly supplied trials).

    Every ratio must sit below k(q,p) B; a violation certifies a bug.
    """
    _feasible(setup)
    if trials is None:
        if trial_count < 1:
            raise DomainError(f"trial_count must be >= 1, got {trial_count}")
        rng = np.random.default_rng(seed)
        trials = [_random_trial(setup, rng) for _ in range(trial_count)]
    best = -math.inf
    witness = None
    for u in trials:
        ratio = trial_ratio(setup, u, spec)
        if math.isnan(ratio):
            continue
        if ratio > best:
            best = ratio
            witness = u
    if witness is None:
        raise DegenerateTrialError("every trial had zero or infinite derivative norm")
    return ProbeResult(max_ratio=best, witness=witness)


def near_extremal_power_trial(setup: HardySetup, eps: float) -> PiecewiseProfile:
    """u(r) = r^{(p-1-alpha)/(p-1) + eps}, the almost-optimizing power family
    for the left-vanishing balanced case."""
    if setup.side is not Side.LEFT_VANISHING:
        raise DomainError("power trials target the left-vanishing case")
    exponent = (setup.p - 1.0 - setup.alpha) / (setup.p - 1.0) + eps
    piece = PowerPiece(coeff=1.0, shift=0.0, exponent=exponent, offset=0.0)
    return PiecewiseProfile(knots=(0.0, setup.R), pieces=(piece,), tail=None)


# ---------------------------------------------------------------------------
# second-order radial inequality
# ---------------------------------------------------------------------------

def second_order_constant(n: int, q: float) -> float:
    """q^2 / ((q-1) n (n-2q)), the constant in front of the iterated
    radial-laplacian bound; requires n - 2q > 0."""
    q = float(q)
    if not q > 1.0:
        raise DomainError(f"need q > 1, got {q}")
    if not n - 2.0 * q > 0.0:
        raise DomainError(f"need n - 2q > 0, got n={n}, q={q}")
    return q * q / ((q - 1.0) * n * (n - 2.0 * q))


def _abs_pow_poly_integral(
    coef: np.ndarray, power: float, weight_pow: float, R: float, spec: QuadratureSpec
) -> float | np.ndarray:
    """integral_0^R |poly(r)|^power r^weight_pow dr for the power-basis
    coefficients ``coef``, with poly's real roots in (0, R) as breaks where
    ``kinks_at_roots(power)``.  Coefficient rows (k, m) give the k integrals
    by one stacked engine call on one first level, so there the power must
    have no kinks at roots.

    ``DomainError`` naming p where a node's |poly|^power and r^weight_pow
    are 0 and inf, whose product is NaN.  The nodes are checked only where
    a positive weight leaves a factor free to leave the float range: where
    (1 + sum |c_k| R^k)^power or R^weight_pow reaches e^700, with each |c_k|
    the largest over the rows.
    """
    breaks = None
    if kinks_at_roots(power):
        roots = P.polyroots(coef)
        keep = (np.abs(roots.imag) < 1e-12) & (1e-12 < roots.real) & (roots.real < R * (1 - 1e-12))
        breaks = np.unique(roots.real[keep])
    # Highest degree first, as floats or as (k, 1) columns of the rows, so
    # that each row's values take the arithmetic of its own 1-D call.
    if coef.ndim == 1:
        columns, moduli = coef[::-1].tolist(), np.abs(coef)
    else:
        columns, moduli = coef.T[::-1, :, None], np.abs(coef).max(0)

    def value(r):
        # Horner's rule in ``P.polyval``'s order of operations.
        y = columns[0] + r * 0.0
        for c in columns[1:]:
            y = c + y * r
        return y

    bound = 0.0  # sum |c_k| R^k >= |poly| on [0, R]
    for c in moduli[::-1].tolist():
        bound = c + bound * R
    if weight_pow <= 0.0 or (
        power * math.log1p(bound) < _LOG_RANGE and weight_pow * math.log(max(R, 1.0)) < _LOG_RANGE
    ):
        return abs_pow_quadrature(value, power, weight_pow, 0.0, R, spec, breaks=breaks)

    def checked(r):
        # The integrand's own factors, so this refuses exactly its NaNs.
        y = value(r)
        h, w = np.abs(y) ** power, r**weight_pow
        if ((h == 0.0) & (w == math.inf) | (h == math.inf) & (w == 0.0)).any():
            raise DomainError(
                f"at p={power} a trial's |polynomial|^p and the weight r^{weight_pow:g} leave"
                f" the float range together on (0, {R}), where their product is 0 * inf"
            )
        return y

    return abs_pow_quadrature(checked, power, weight_pow, 0.0, R, spec, breaks=breaks)


def _second_order_ratios(
    n: int, p: float, q: float, R: float, coef: np.ndarray, spec: QuadratureSpec
) -> float | list[float]:
    """``second_order_trial_ratio`` of the power-basis coefficients ``coef``:
    one ratio for a 1-D array, the list of ratios for rows (k, m), whose
    integrals are one stacked engine call per side."""
    if not p >= 1.0:
        raise DomainError(f"need p >= 1, got p={p}")
    q_star = n * q / (n - 2.0 * q)
    lhs_weight, rhs_weight = n * p / q_star - 1.0, n * p / q - 1.0 - p
    if not (math.isfinite(lhs_weight) and math.isfinite(rhs_weight)):
        raise DomainError(f"the weight exponents overflow at p={p}")
    factor = np.array([R, -1.0])
    square = np.convolve(factor, factor)
    if coef.ndim == 1:
        u = np.convolve(square, coef)
    else:
        u = np.array([np.convolve(square, c) for c in coef])
    if not np.isfinite(u).all():
        raise DomainError(f"the trial's coefficients overflow at R={R}")
    du = np.arange(1, u.shape[-1]) * u[..., 1:]
    # |r u'' + (n-1) u'|^p r^{np/q - 1 - p} keeps the laplacian integrand
    # polynomial-times-power (no 1/r at the origin).
    lap_times_r = (n - 1.0) * du
    lap_times_r[..., 1:] += np.arange(1, du.shape[-1]) * du[..., 1:]
    lhs = _abs_pow_poly_integral(u, p, lhs_weight, R, spec)
    rhs = _abs_pow_poly_integral(lap_times_r, p, rhs_weight, R, spec)
    if coef.ndim == 1:
        return _ratio(coef, lhs, rhs, p, R)
    return [_ratio(*row, p, R) for row in zip(coef, lhs.tolist(), rhs.tolist())]


def _ratio(coef: np.ndarray, lhs: float, rhs: float, p: float, R: float) -> float:
    """(lhs / rhs)^{1/p}, NaN where rhs = 0; ``DomainError`` where an
    integral of nonzero ``coef`` is below the normal float range."""
    if np.any(coef) and not min(lhs, rhs) >= sys.float_info.min:
        raise DomainError(
            f"the trial's integrals ({lhs:.3g}, {rhs:.3g}) underflow the float range at R={R}"
        )
    if rhs == 0.0:
        return math.nan
    return lhs ** (1.0 / p) / rhs ** (1.0 / p)


def second_order_trial_ratio(
    n: int,
    p: float,
    q: float,
    R: float,
    poly: np.polynomial.Polynomial,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """LHS/RHS of the second-order inequality for u = (R - r)^2 poly(r).

    The boundary conditions u(R) = 0 and u'(R) = 0 hold by construction.
    Raises ``DomainError`` when ``poly`` is not in the power basis (its
    domain differs from its window), when p < 1, when either weight
    exponent overflows (p near 1e308), the coefficients of u overflow, or
    either integral of a nonzero ``poly`` falls below the normal float
    range, where its digits are lost (R near 1e-40 and below).

    Integrals far below 1 are governed by the engine's absolute floor
    min(1e-13, rel_tol), not by rel_tol: at n = 20, p = 1.5, q = 1.1,
    R = 1 and the third ``uniform(-1, 1, 4)`` draw of ``default_rng(7)``
    the lhs, 4.598e-7, is 1.6e-9 off its 40-digit value at rel_tol 1e-10,
    1e-12 and 1e-13 alike (2.8e-10 at 1e-14), and the ratio 1.1e-9.  Where
    large weights put both integrals far below the floor (2e-292 and
    2e-229 at n = 85, p = 17.7), the ratio can be 11 % off.
    """
    if not (poly.domain == poly.window).all():
        raise DomainError(f"the trial polynomial must be in the power basis, got {poly!r}")
    return _second_order_ratios(n, p, q, R, poly.coef, spec)


def second_order_probe(
    n: int,
    p: float,
    q: float,
    R: float,
    trial_count: int,
    seed: int,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Max LHS/RHS over random polynomial trials; must stay below
    second_order_constant(n, q) (up to 1e-6 relative).

    Where |h|^p has no kinks at roots, every trial's integrals share one
    first level, and all trials take one stacked engine call per side.
    Should that pass raise, the trials rerun one at a time, so a refusal
    is the first trial's own, as where each trial takes its own calls."""
    constant = second_order_constant(n, q)  # validates n - 2q > 0
    if not 0.0 < R < math.inf:
        raise DomainError(f"interval endpoint must be positive and finite, got R={R}")
    if trial_count < 1:
        raise DomainError(f"trial_count must be >= 1, got {trial_count}")
    rng = np.random.default_rng(seed)
    coefs = np.array([rng.uniform(-1.0, 1.0, size=4) for _ in range(trial_count)])
    ratios = None
    if not kinks_at_roots(p):
        # A refusal is rerun below, so that it is the trial-by-trial one.
        with contextlib.suppress(ArithmeticError, DomainError, QuadratureError):
            ratios = _second_order_ratios(n, p, q, R, coefs, spec)
    if ratios is None:
        polys = map(np.polynomial.Polynomial, coefs)
        ratios = [second_order_trial_ratio(n, p, q, R, poly, spec) for poly in polys]
    best = -math.inf
    for ratio in ratios:
        if not math.isnan(ratio):
            best = max(best, ratio)
    if best == -math.inf:
        raise DegenerateTrialError("every polynomial trial degenerated")
    if not best <= constant * (1.0 + 1e-6):
        raise AssertionError(
            f"probe ratio {best} exceeds the closed-form constant {constant}"
        )
    return best


# ---------------------------------------------------------------------------
# iterated constants
# ---------------------------------------------------------------------------

def iterated_constant(params: AdamsParams) -> float:
    """Product of the per-step constants in the radial-laplacian iteration.

    Even m = 2k: prod_{j=0}^{k-2} 1/((n-m+2j)(m-2j-2)), empty product = 1.
    Odd m = 2k+1 >= 3: the analogous product times the extra 1/(m-1) step.
    """
    m, n = params.m, params.n
    if m < 2:
        raise DomainError(f"iteration needs m >= 2, got m={m}")
    if m % 2 == 0:
        k = m // 2
        value = 1.0
        for j in range(k - 1):
            value /= (n - m + 2 * j) * (m - 2 * j - 2)
        return value
    if m < 3:
        raise DomainError(f"odd path needs m >= 3, got m={m}")
    k = (m - 1) // 2
    value = 1.0 / (m - 1)
    for j in range(k - 1):
        value /= (n - m + 2 * j + 1) * (m - 2 * j - 3)
    return value
