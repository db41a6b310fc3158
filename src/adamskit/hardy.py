"""Weighted Hardy inequalities with power weights on (0, R).

Carries the two-sided estimate B <= C <= k(q,p) B for the best constant of

    (int_0^R |u|^q r^theta dr)^{1/q} <= C (int_0^R |u'|^p r^alpha dr)^{1/p}

over functions vanishing at 0 (left) or at R (right), the second-order
radial inequality with its iterated constants, and randomized
Rayleigh-quotient probes that certify the sandwich numerically.  A
probe's weighted norm is one ``profiles.abs_pow_integral`` of the trial
or its derivative, which breaks its quadrature at knots, and at roots
unless the power is even, and grades it toward r = 0 in quarter steps
where the weight leaves a power of r there.  A random probe builds no
profile per trial, only the witness: a trial is drawn as its sorted knots
and its values, two float lists, and its norms are ``abs_pow_integral``'s
terms for that polyline, added up in the same order from the lists, the
derivative norm in closed form per segment and the value norm by one
``np.interp`` of the knots and values per level.  A second-order trial
u = (R - r)^2 poly(r) at an even p up to ``_CLOSED_FORM_MAX_P`` has both
norms in closed form on [0, 1], in the scaled Bernstein basis (Farouki &
Rajan 1987), for all of a probe's trials at once.  At any other p each norm is
one engine call on plain coefficient arrays, in ``numpy.polynomial``'s
order of operations, so those ratios are bit for bit those of
``polymul``/``polyder``/``polyval``; ``polyroots`` breaks a kinked |h|^p.

For pure power weights the product defining B is unimodal in the split
point for every parameter choice (its log-derivative is C - G(x) with G
strictly increasing), so the supremum is located in closed form.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial import polynomial as P

from .constants import AdamsParams
from .errors import DegenerateTrialError, DomainError, InfeasibleError
from .profiles import (
    PiecewiseProfile,
    PowerPiece,
    abs_pow_integral,
    abs_pow_quadrature,
    kinks_at_roots,
    piecewise_linear,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, power_integral

_BOUNDARY_RTOL = 1e-12
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
#: A power whose log is below this stays finite (log of the float max: 709.8).
_LOG_RANGE = 700.0
#: The radii a setup accepts: the probes' norms carry powers of R such as
#: R^(theta+1) and R^(alpha+1-p), and their first-level breaks are graded
#: from the smallest knot toward 0, so R stays far from the float range's ends.
_R_RANGE = (1e-100, 1e100)
#: The largest even p whose second-order norms take the closed form.  On
#: seeded draws with n in [5, 200] and R in [1e-2, 1e2], against an exact
#: mpmath expansion, its worst ratios were 3.3e-15 off at p = 2 and 6.3e-14
#: at p = 4 (5 000 draws each), but 1.7e-12 at p = 6 (4 of 3 000 above
#: 1e-13) and 2.4e-12 at p = 8 (9 of 1 000): the Bernstein coefficients of
#: (s v'' + (n-1) v')^p cancel by factors up to 7e5 there.
_CLOSED_FORM_MAX_P = 4


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


def _random_knots(setup: HardySetup, rng: np.random.Generator) -> tuple[list[float], list[float]]:
    """A random trial's knots ``ts`` and values ``ys`` in the vanishing class
    of the setup, drawn sorted: a knot drawn twice is dropped at its second
    place."""
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
    keep = [0] + [i for i in range(1, len(knots)) if knots[i] != knots[i - 1]]
    return [knots[i] for i in keep], [values[i] for i in keep]


def trial_ratio(
    setup: HardySetup, u: PiecewiseProfile, spec: QuadratureSpec = DEFAULT_SPEC
) -> float:
    """(int |u|^q r^theta)^{1/q} / (int |u'|^p r^alpha)^{1/p} for one trial.

    Returns NaN for trials with zero or infinite derivative norm.  Raises
    ``DomainError`` naming the weight exponent and R where the derivative
    norm is positive but below the normal float range, or the value norm
    of a trial with a usable derivative norm is (at theta = 1e300, R = 1
    it underflows to 0): their digits are lost there.
    """
    denom = abs_pow_integral(u, setup.p, setup.alpha, 0.0, setup.R, spec, derivative=True)
    if _degenerate(setup, denom):
        return math.nan
    return _ratio(setup, abs_pow_integral(u, setup.q, setup.theta, 0.0, setup.R, spec), denom)


def _degenerate(setup: HardySetup, denom: float) -> bool:
    """Whether the derivative norm ``denom`` is 0 or infinite, where a
    trial's ratio is NaN; ``DomainError`` where it is positive but below the
    normal float range."""
    if 0.0 < denom < sys.float_info.min:
        raise DomainError(
            f"the trial's derivative norm {denom:.3g} underflows the float range"
            f" at alpha={setup.alpha}, R={setup.R}"
        )
    return not 0.0 < denom < math.inf


def _ratio(setup: HardySetup, numer: float, denom: float) -> float:
    """numer^{1/q} / denom^{1/p}; ``DomainError`` where the value norm
    ``numer`` is below the normal float range."""
    if not numer >= sys.float_info.min:
        raise DomainError(
            f"the trial's value norm {numer:.3g} underflows the float range"
            f" at theta={setup.theta}, R={setup.R}"
        )
    return float(numer ** (1.0 / setup.q) / denom ** (1.0 / setup.p))


def _constant_norm(h: float, power: float, weight_pow: float, a: float, b: float, name: str) -> float:
    """integral_a^b h^power r^weight_pow dr for a constant h >= 0, in
    ``abs_pow_closed_form``'s arithmetic, and ``abs_pow_integral``'s
    refusal where it leaves the float range (``name`` is g or g')."""
    try:
        c = h**power
        return 0.0 if c == 0.0 else power_integral(c, weight_pow + 1.0, a, b)
    except OverflowError:
        raise DomainError(f"|{name}|^p on [{a!r}, {b!r}] leaves the float range at p={power!r}") from None


def _polyline_ratio(setup: HardySetup, ts: list[float], ys: list[float], spec: QuadratureSpec) -> float:
    """``trial_ratio`` of ``piecewise_linear(ts, ys, constant_tail=False)``
    from its knots and values, with no profile built: every ratio and
    refusal is the same to the bit.

    Both norms add up ``abs_pow_integral``'s terms in its order and
    arithmetic.  The derivative norm is one closed form per segment, of
    |s_i|^p r^alpha with s_i = (ys[i+1] - ys[i]) / (ts[i+1] - ts[i]).  The
    value norm is the closed forms of the flat segments, then one
    ``abs_pow_quadrature`` of ``np.interp(t, ts, ys)`` per run of sloped
    segments, broken at its interior knots and, where ``kinks_at_roots(q)``,
    at the roots ts[i] - ys[i]/s_i.
    """
    slopes = [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])]
    denom = 0.0
    for t0, t1, s in zip(ts, ts[1:], slopes):
        denom += _constant_norm(abs(s), setup.p, setup.alpha, t0, t1, "g'")
    if _degenerate(setup, denom):
        return math.nan
    numer, kinks = 0.0, kinks_at_roots(setup.q)
    runs: list[list[float]] = []  # the edges of each run, ends included
    for t0, t1, y0, s in zip(ts, ts[1:], ys, slopes):
        if s == 0.0:
            numer += _constant_norm(abs(y0), setup.q, setup.theta, t0, t1, "g")
            continue
        if not runs or runs[-1][-1] != t0:  # a flat segment ended the last run
            runs.append([t0])
        if kinks and t0 < (root := t0 - y0 / s) < t1:
            runs[-1].append(root)
        runs[-1].append(t1)
    knots, values = np.array(ts), np.array(ys)

    def value(t):
        return np.interp(t, knots, values)

    for edges in runs:
        numer += abs_pow_quadrature(
            value, setup.q, setup.theta, edges[0], edges[-1], spec, breaks=edges[1:-1]
        )
    return _ratio(setup, numer, denom)


def rayleigh_probe(
    setup: HardySetup,
    trial_count: int,
    seed: int,
    trials: Sequence[PiecewiseProfile] | None = None,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> ProbeResult:
    """Max Rayleigh ratio over random piecewise-linear trials in the
    vanishing class of the setup (or over explicitly supplied trials).

    A random trial's ratio is ``trial_ratio``'s of its polyline to the bit,
    but only the winning trial is built as a profile, the witness.
    Every ratio must sit below k(q,p) B; a violation certifies a bug.
    """
    _feasible(setup)
    if trials is None:
        if trial_count < 1:
            raise DomainError(f"trial_count must be >= 1, got {trial_count}")
        rng = np.random.default_rng(seed)
        draws = [_random_knots(setup, rng) for _ in range(trial_count)]
        scored = ((_polyline_ratio(setup, ts, ys, spec), (ts, ys)) for ts, ys in draws)
    else:
        scored = ((trial_ratio(setup, u, spec), u) for u in trials)
    best = -math.inf
    witness = None
    for ratio, trial in scored:
        if ratio > best:  # False for a NaN
            best = ratio
            witness = trial
    if witness is None:
        raise DegenerateTrialError("every trial had zero or infinite derivative norm")
    if trials is None:
        witness = piecewise_linear(*witness, constant_tail=False)
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
) -> float:
    """integral_0^R |poly(r)|^power r^weight_pow dr for the power-basis
    coefficients ``coef``, by one engine call, with poly's real roots in
    (0, R) as breaks where ``kinks_at_roots(power)``.

    ``DomainError`` naming p where a node's |poly|^power and r^weight_pow
    are 0 and inf, whose product is NaN.  The nodes are checked only where
    a positive weight leaves a factor free to leave the float range: where
    (1 + sum |c_k| R^k)^power or R^weight_pow reaches e^700.
    """
    breaks = None
    if kinks_at_roots(power):
        roots = P.polyroots(coef)
        keep = (np.abs(roots.imag) < 1e-12) & (1e-12 < roots.real) & (roots.real < R * (1 - 1e-12))
        breaks = np.unique(roots.real[keep])
    columns = coef[::-1].tolist()  # highest degree first
    bound = 0.0  # sum |c_k| R^k >= |poly| on [0, R]
    for c in np.abs(coef[::-1]).tolist():
        bound = c + bound * R
    largest = max(power * math.log1p(bound), weight_pow * math.log(max(R, 1.0)))
    check = weight_pow > 0.0 and largest >= _LOG_RANGE

    def value(r):
        # Horner's rule in ``P.polyval``'s order of operations.
        y = columns[0] + r * 0.0
        for c in columns[1:]:
            y = c + y * r
        if check:  # the integrand's own factors, so this refuses exactly its NaNs
            h, w = np.abs(y) ** power, r**weight_pow
            if ((h == 0.0) & (w == math.inf) | (h == math.inf) & (w == 0.0)).any():
                raise DomainError(
                    f"at p={power} a trial's |polynomial|^p and the weight r^{weight_pow:g} leave"
                    f" the float range together on (0, {R}), where their product is 0 * inf"
                )
        return y

    return abs_pow_quadrature(value, power, weight_pow, 0.0, R, spec, breaks=breaks)


def _power_basis(n: int, R: float, coef: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The power-basis coefficients of u = (R - r)^2 poly(r) and of
    r u'' + (n-1) u', which keeps the laplacian integrand
    polynomial-times-power (no 1/r at the origin)."""
    factor = np.array([R, -1.0])
    u = np.convolve(np.convolve(factor, factor), coef)
    if not np.isfinite(u).all():
        raise DomainError(f"the trial's coefficients overflow at R={R}")
    du = np.arange(1, u.size) * u[1:]
    lap_times_r = (n - 1.0) * du
    lap_times_r[1:] += np.arange(1, du.size) * du[1:]
    return u, lap_times_r


def _bernstein_integral(beta: np.ndarray, power: int, weight_pow: float) -> np.ndarray:
    """integral_0^1 h(s)^power s^weight_pow ds for each row of ``beta``, the
    coefficients of h in the scaled Bernstein basis s^j (1-s)^(d-j):
    h^power is a plain convolution there, and s^j (1-s)^(D-j) integrates
    to B(w+j+1, D-j+1), by the recurrence B_{j-1} = B_j (D-j+1)/(w+j)
    from B_D = 1/(w+D+1)."""
    rows, width = beta.shape
    h = beta
    for _ in range(power - 1):
        # The products beta_i h_j with row i shifted i places, summed over i
        # in the same order whatever the row count.
        top = width + h.shape[1] - 1
        skewed = np.zeros((rows, width, top + 1))
        skewed[:, :, : h.shape[1]] = beta[:, :, None] * h[:, None, :]
        h = skewed.reshape(rows, -1)[:, : width * top].reshape(rows, width, top).sum(1)
    top = h.shape[1] - 1
    betas = [1.0 / (weight_pow + top + 1.0)]
    for j in range(top, 0, -1):
        betas.append(betas[-1] * (top - j + 1) / (weight_pow + j))
    return (h * np.array(betas[::-1])).sum(-1)


def _closed_form_integrals(n: int, p: int, weights: tuple, R: float, coefs: np.ndarray) -> list:
    """Both second-order integrals of each trial row of ``coefs`` on
    [0, 1], exact but for rounding at an even p.  With r = R s, v(s) =
    (1 - s)^2 poly(R s), whose coefficients c_k R^k are scaled by a power
    of 2 to a largest modulus in [1/2, 1), the integrals are those of v^p
    and (s v'' + (n-1) v')^p at the two ``weights``: the powers of R and of
    the scale cancel in the ratio, as the weights differ by -p."""
    m = coefs.shape[1]
    k = np.arange(m)
    mantissa, exponent = math.frexp(R)
    scaled = coefs * mantissa**k  # c_k R^k / 2^(k exponent), rounded as c_k R^k
    shift = np.where(scaled != 0.0, np.frexp(scaled)[1] + exponent * k, -(2**20))
    scaled = np.ldexp(scaled, exponent * k - shift.max(1, keepdims=True))
    # s^k = s^k (s + 1 - s)^(m-1-k), and (1 - s)^2 appends two zero coefficients.
    to_v = [[math.comb(m - 1 - i, j - i) if i <= j else 0 for i in range(m)] for j in range(m + 2)]
    v = (scaled[:, None, :] * np.array(to_v)).sum(-1)

    def derivative(b):
        d = b.shape[1] - 1
        return np.arange(1, d + 1) * b[:, 1:] - np.arange(d, 0, -1) * b[:, :-1]

    lap = (n - 1.0) * derivative(v)
    lap[:, 1:] += derivative(derivative(v))  # s v'' is v'' shifted one place up
    return [_bernstein_integral(h, p, w).tolist() for h, w in zip((v, lap), weights)]


def _second_order_ratios(
    n: int, p: float, q: float, R: float, coefs: np.ndarray, spec: QuadratureSpec
) -> list[float]:
    """``second_order_trial_ratio`` of each row of the power-basis
    coefficients ``coefs`` (k, m): every integral in closed form at an even
    p up to ``_CLOSED_FORM_MAX_P``, else by one engine call, row by row, so
    a refusal is the first refusing row's own."""
    if not 0.0 < R < math.inf:
        raise DomainError(f"interval endpoint must be positive and finite, got R={R}")
    if not p >= 1.0:
        raise DomainError(f"need p >= 1, got p={p}")
    q_star = n * q / (n - 2.0 * q)
    weights = (n * p / q_star - 1.0, n * p / q - 1.0 - p)
    if not all(map(math.isfinite, weights)):
        raise DomainError(f"the weight exponents overflow at p={p}")
    if p <= _CLOSED_FORM_MAX_P and not kinks_at_roots(p):
        integrals = zip(*_closed_form_integrals(n, int(p), weights, R, coefs))
    else:  # lazily, row by row
        integrals = (
            [_abs_pow_poly_integral(h, p, w, R, spec) for h, w in zip(_power_basis(n, R, c), weights)]
            for c in coefs
        )
    ratios = []
    for coef, (lhs, rhs) in zip(coefs, integrals):
        if np.any(coef) and not min(lhs, rhs) >= sys.float_info.min:
            raise DomainError(
                f"the trial's integrals ({lhs:.3g}, {rhs:.3g}) underflow the float range at R={R}"
            )
        ratios.append(math.nan if rhs == 0.0 else lhs ** (1.0 / p) / rhs ** (1.0 / p))
    return ratios


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
    exponent overflows (p near 1e308), unless 0 < R < inf, or when either
    integral of a nonzero ``poly`` falls below the normal float range,
    where its digits are lost (R near 1e-40 and below on the engine's
    route); on the engine's route also when the coefficients of u
    overflow (R near 1e200).

    An even p up to ``_CLOSED_FORM_MAX_P`` takes the closed form, exact to
    rounding (within 1e-13) whatever ``spec.rel_tol``.  Elsewhere the
    engine's absolute floor min(1e-13, rel_tol), not rel_tol, governs
    integrals far below 1: at n = 20, p = 1.5, q = 1.1, R = 1 and the
    third ``uniform(-1, 1, 4)`` draw of ``default_rng(7)`` the lhs,
    4.598e-7, is 1.6e-9 off its 40-digit value at rel_tol 1e-10, 1e-12 and
    1e-13 alike (2.8e-10 at 1e-14), and the ratio 1.1e-9.  Where large
    weights put both integrals far below the floor (an lhs of 1.4567e-291
    at n = 85, p = 17.7, which the engine returns as 1.3219e-291), the
    ratio, 3.1027e-4 against 3.1200005e-4, is 0.55 % off.
    """
    if not (poly.domain == poly.window).all():
        raise DomainError(f"the trial polynomial must be in the power basis, got {poly!r}")
    return _second_order_ratios(n, p, q, R, poly.coef[None, :], spec)[0]


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

    The trials' ratios are those of ``second_order_trial_ratio`` to the
    bit, and a refusal is the first refusing trial's own."""
    constant = second_order_constant(n, q)  # validates n - 2q > 0
    if trial_count < 1:
        raise DomainError(f"trial_count must be >= 1, got {trial_count}")
    rng = np.random.default_rng(seed)
    coefs = np.array([rng.uniform(-1.0, 1.0, size=4) for _ in range(trial_count)])
    ratios = _second_order_ratios(n, p, q, R, coefs, spec)
    best = max((r for r in ratios if not math.isnan(r)), default=-math.inf)
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
