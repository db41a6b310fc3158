"""One-dimensional exponential functional machinery.

The central object is J(g) = integral_0^inf exp(g(t)^q - t) dt over
nonnegative profiles with unit p-energy (p conjugate to q).  An energy is
one ``profiles.abs_pow_integral`` of the profile's derivative at weight 0.
The improper upper end of J is handled exactly for constant and saturating
tails, by pullback for log-radial tails, and by the sub-unit-energy
majorant otherwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, EnergyBoundError, QuadratureError
from .profiles import (
    ExpApproachPiece,
    LinearPiece,
    LogRadialPiece,
    Piece,
    PiecewiseProfile,
    PowerPiece,
    abs_pow_integral,
    constant_piece,
    piecewise_linear,
)
from .quadrature import DEFAULT_SPEC, QuadratureSpec, _W15, _X15, adaptive_gauss
from .specfun import EULER_GAMMA, digamma


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def energy(
    g: PiecewiseProfile,
    p: float,
    interval: tuple[float, float] = (0.0, math.inf),
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """integral over ``interval`` of |g'|^p dt by ``profiles.abs_pow_integral``
    (closed form where the piece has one)."""
    if not p > 1.0:
        raise DomainError(f"energy requires p > 1, got {p}")
    return abs_pow_integral(g, p, 0.0, *interval, spec, derivative=True)


# ---------------------------------------------------------------------------
# the exponential functional
# ---------------------------------------------------------------------------

#: Unit roundoff of a double, 2^-53.
_UNIT_ROUNDOFF = 2.0**-53
#: 2 u t at t = 2^48, where the float spacing (1/32) is half the narrowest
#: panel ``_cc_breaks`` lays; ``_cc_finite`` refuses a piece beyond it.
_MAX_ROUNDING = 2.0**-4
#: 1/2, 1/4, ...: the graded offsets of ``_cc_breaks`` in uniform panel widths.
_HALVES = 0.5 ** np.arange(1, 64)


def _cc_breaks(lo: float, hi: float) -> np.ndarray:
    """First-level panel edges inside (lo, hi) for ``_cc_finite``.

    Up to 64 uniform panels of width h about 8 (wider on pieces longer
    than 512), and in the first and the last of them the points at
    distance h/2, h/4, ... from the piece's ends, down to a width in
    (1/16, 1/8].  That is where halving the uniform panels used to end up:
    e^{g^q - t} puts its mass in O(1)-wide strips at the ends of a piece.
    The edges are strictly increasing while hi < 2^48.
    """
    width = hi - lo
    count = max(1, min(64, math.ceil(width / 8.0)))
    h = width / count
    grades = max(0, math.ceil(math.log2(8.0 * h)))
    near = _HALVES[:grades][::-1]
    far = count - near[::-1]
    if count == 1:  # one panel: both ends grade from its midpoint
        far = far[1:]
    return lo + h * np.concatenate((near, np.arange(1.0, count), far))


def _cc_finite(piece: Piece, q: float, lo: float, hi: float, spec: QuadratureSpec) -> float:
    """integral_lo^hi exp(piece^q - t) dt on one smooth piece.

    The first level is laid out by ``_cc_breaks``, so a piece whose mass
    sits at its ends converges there without halving.  The exponent
    g^q - t cancels terms as large as t, so the integrand carries a
    relative rounding of about 2 u t (u = 2^-53).  When that rounding at
    the piece's far end exceeds 100 rel_tol (or ``_MAX_ROUNDING``, where
    the graded panels would be as narrow as the float spacing),
    ``QuadratureError`` is raised before any integrand call.  Below that
    the engine's own stall check refuses what rounding leaves unresolved.
    With the default rel_tol = 1e-10 the bound is t = 4.5e7.
    """
    far = max(abs(lo), abs(hi))
    rounding = 2.0 * _UNIT_ROUNDOFF * far
    if rounding > min(100.0 * spec.rel_tol, _MAX_ROUNDING):
        raise QuadratureError(
            f"exp(g^q - t) at t = {far!r} carries a relative rounding of {rounding:.3e},"
            f" more than the tolerance rel_tol = {spec.rel_tol:.3e} can absorb",
            interval=(lo, hi),
        )

    def integrand(t):
        return np.exp(piece.value(t) ** q - t)

    return adaptive_gauss(integrand, lo, hi, spec, breaks=_cc_breaks(lo, hi))


def _cc_tail(
    g: PiecewiseProfile,
    piece: Piece,
    q: float,
    lo: float,
    spec: QuadratureSpec,
) -> float:
    """integral_lo^inf exp(piece^q - t) dt for a tail piece."""
    eps = spec.truncation_epsilon
    if isinstance(piece, LinearPiece):
        if piece.slope != 0.0:
            raise DomainError("a linear tail must be constant: J diverges or g turns negative")
        return math.exp(piece.intercept**q - lo)
    if isinstance(piece, ExpApproachPiece):
        cap = max(float(np.asarray(piece.value(lo))), piece.limit_value)
        hi = max(lo + 1.0, cap**q - math.log(eps))
        return _cc_finite(piece, q, lo, hi, spec)
    if isinstance(piece, LogRadialPiece):
        # Exact pullback: dt = -n dr/r and e^{-t} = (r/R)^n.
        n, big_r = piece.dim, piece.big_r
        r_lo = big_r * math.exp(-lo / n)

        def integrand(r):
            return np.exp((piece.scale * piece.source.value(r)) ** q) * r ** (n - 1.0)

        return n * big_r ** (-n) * adaptive_gauss(integrand, 0.0, r_lo, spec)
    # Generic tail: majorize g by the Hoelder envelope
    # g(t) <= g(lo) + delta^{1/p} (t - lo)^{1/q}, delta the tail energy.
    p = q / (q - 1.0)
    delta = energy(g, p, (lo, math.inf), spec)
    if delta >= 1.0:
        raise DomainError(
            "cannot certify truncation: tail energy >= 1 on a generic tail piece"
        )
    g_lo = float(np.asarray(piece.value(lo)))
    b = delta ** (1.0 / p)

    def envelope_exponent(t: float) -> float:
        return (g_lo + b * (t - lo) ** (1.0 / q)) ** q - t

    hi = lo + 1.0
    while envelope_exponent(hi) > math.log(eps):
        hi = 2.0 * hi + 1.0
        if hi > 1e12:
            raise DomainError("tail truncation point ran away; profile inadmissible")
    return _cc_finite(piece, q, lo, hi, spec)


def cc_integral(
    g: PiecewiseProfile,
    q: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """integral_lo^hi exp(g^q - t) dt along the profile's pieces."""
    total = 0.0
    for seg_lo, seg_hi, piece in g.segments():
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        if b <= a:
            continue
        if math.isinf(b):
            total += _cc_tail(g, piece, q, a, spec)
        else:
            total += _cc_finite(piece, q, a, b, spec)
    return total


def _far_value(g: PiecewiseProfile) -> float:
    """g at its last knot, or its tail's limit as t -> inf where the tail's
    type fixes one, else inf."""
    piece = g.tail
    if piece is None:
        return float(np.asarray(g.value(g.end)))
    if isinstance(piece, ExpApproachPiece):
        return piece.limit_value
    if isinstance(piece, PowerPiece) and piece.exponent < 0.0:
        return piece.offset
    if isinstance(piece, PowerPiece) and piece.exponent > 0.0:
        return math.copysign(math.inf, piece.coeff)
    if isinstance(piece, LinearPiece) and piece.slope != 0.0:
        return math.copysign(math.inf, piece.slope)
    return math.inf


def _check_nonnegative(g: PiecewiseProfile) -> None:
    # Knot values plus the far value; a cheap guard, not a proof of positivity.
    values = [float(np.asarray(piece.value(k))) for k, _hi, piece in g.segments()]
    if min(values + [_far_value(g)]) < -1e-12:
        raise DomainError("profile must be nonnegative")


def cc_functional(
    g: PiecewiseProfile,
    q: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """J(g) = integral_0^inf exp(g^q - t) dt for a nonnegative profile.

    The conjugate-exponent energy must satisfy integral |g'|^p <= 1 + 1e-9,
    p = q/(q-1); ``cc_integral`` evaluates the same integral unchecked.

    Since g >= 0, J >= integral_0^inf e^{-t} dt = 1.  A result below
    1 - 2 (rel_tol + truncation_epsilon) means the quadrature missed the
    integrand's mass, and raises ``QuadratureError`` instead of returning.
    This catches a J near 0, not every miss: a wide ramp can still return
    a J above 1 that lacks the mass near its ends.
    """
    if not q > 1.0:
        raise DomainError(f"cc_functional requires q > 1, got {q}")
    if g.tail is None:
        raise DomainError("profile must extend to infinity (attach a tail piece)")
    if abs(g.start) > 1e-12:
        raise DomainError(f"profile must start at t = 0, got {g.start}")
    _check_nonnegative(g)
    p = q / (q - 1.0)
    total_energy = energy(g, p, (0.0, math.inf), spec)
    if total_energy > 1.0 + 1e-9:
        raise EnergyBoundError(f"profile energy {total_energy} exceeds 1")
    j = cc_integral(g, q, 0.0, math.inf, spec)
    floor = 1.0 - 2.0 * (spec.rel_tol + spec.truncation_epsilon)
    if not j >= floor:
        raise QuadratureError(
            f"J = {j!r} is below {floor!r}, but J >= 1 for every nonnegative profile:"
            " the quadrature missed the integrand's mass"
        )
    return j


# ---------------------------------------------------------------------------
# tail-bound certificate
# ---------------------------------------------------------------------------

class LemmaBound(NamedTuple):
    lhs: float
    rhs: float


def cc_lemma_bound(
    w: PiecewiseProfile,
    p: float,
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> LemmaBound:
    """Tail integral against its closed-form certificate.

    lhs = integral_a^inf exp(w^q - t) dt with q = p/(p-1); rhs is the
    product bound assembled from delta = integral_a^inf |w'|^p dt (< 1
    required), gamma_p = delta (1 - delta^{1/(p-1)})^{1-p}, and
    c = q w(a)^{q-1}.
    """
    if not p >= 2.0:
        raise DomainError(f"the certificate requires p >= 2, got {p}")
    a = float(a)
    if not a > 0.0:
        raise DomainError(f"left endpoint must be positive, got {a}")
    _check_nonnegative(w)
    delta = energy(w, p, (a, math.inf), spec)
    if delta >= 1.0:
        raise DomainError(f"tail energy must be < 1, got {delta}")
    q = p / (p - 1.0)
    lhs = cc_integral(w, q, a, math.inf, spec)
    w_a = float(np.asarray(w.value(a)))
    shrink = 1.0 - delta ** (1.0 / (p - 1.0))
    gamma_p = delta * shrink ** (1.0 - p)
    c = q * w_a ** (q - 1.0)
    exponent = ((p - 1.0) / p) ** (p - 1.0) * c**p * gamma_p / p
    rhs = math.exp(w_a**q - a) / shrink * math.exp(exponent + digamma(p) + EULER_GAMMA)
    return LemmaBound(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# concentrating family
# ---------------------------------------------------------------------------

def moser_family(a: float, p: float) -> PiecewiseProfile:
    """Unit-energy ramp g(t) = t a^{-1/p} on [0, a], constant a^{1/q} beyond.

    Energy on (0, A) equals min(A, a)/a, so the family concentrates as a
    grows.  J(g_a) decreases to p + 1: the ramp meets the diagonal
    g^q = t exactly at t = a, so the right end of the ramp contributes
    1/(q-1) and the plateau contributes 1 on top of the bulk's 1.
    """
    a = float(a)
    if not a > 0.0:
        raise DomainError(f"scale must be positive, got {a}")
    if not p > 1.0:
        raise DomainError(f"p must exceed 1, got {p}")
    q = p / (p - 1.0)
    return PiecewiseProfile(
        knots=(0.0, a),
        pieces=(LinearPiece(intercept=0.0, slope=a ** (-1.0 / p)),),
        tail=constant_piece(a ** (1.0 / q)),
    )


# ---------------------------------------------------------------------------
# constrained maximizer
# ---------------------------------------------------------------------------

class MaximizerResult(NamedTuple):
    profile: PiecewiseProfile
    functional_value: float


#: Width of the maximizer's fixed G15 panels.
_PANEL_WIDTH = 4.0

_PANEL_BUDGET = 32_768
"""Most Gauss panels the maximizer may lay over [0, t_max].

Checked before any array is built, against the bound (knot_count - 1) +
ceil(t_max / _PANEL_WIDTH) on the count.  It admits A up to about 2 180 at
48 knots and up to about 32 600 knots at A <= 10.  At the budget a default
search (6 starts) takes 1.8-3.9 s on a 2-vCPU VM and 32-37 MB above the
library's own footprint (A = 2 181 with 48 knots; A = 5 with 32 600 knots).
The benchmark's (A, knots) = (5, 48) lays 179 panels, 2 685 nodes.
"""

_STEP_FLOOR = 1e-8
"""Step (relative to the largest gradient entry) below which a start ends.

Measured over 49 searches (seeds 0-39 at (p, A, epsilon, knots) =
(2, 5, 0.01, 48) and nine other parameter sets): an accepted step in
[1e-7, 1e-6) raises J by up to 6.2e-9 relative, one in [1e-8, 1e-7) by
at most 1.0e-15, and one below 1e-8 by at most 6.3e-13.  All the steps a
start accepted after its step first fell below 1e-8 added at most 9.3e-13
to J, a hundredth of the rel_tol = 1e-10 to which ``cc_functional``
certifies the returned J.  Searching on down to 1e-14 cost about 100 of
a search's 265 J evaluations at (2, 5, 0.01, 48).
"""


class _SlopeObjective:
    """J and its gradient over nonnegative segment slopes.

    Each segment is covered by fixed panels at most 4 wide, each with the
    engine's G15 rule: the integrand e^{g^q - t} concentrates in O(1)-wide
    strips, which a single rule on a wide geometric segment would miss
    entirely, and a 4-wide G15 panel resolves it to rounding while
    |d/dt (g^q - t)| stays below about 3.  The layout is fixed so that J(s)
    is smooth in s for the gradient; ``cc_functional`` certifies the J the
    search returns.

    ``value(s)`` evaluates J alone and keeps its node arrays; ``grad()``
    turns the arrays of the last ``value`` call into dJ/ds.  A search
    therefore evaluates J alone on trial steps and pays for the gradient
    only on the steps it accepts.
    """

    def __init__(self, knots: np.ndarray, q: float):
        self.q = q
        self.dt = np.diff(knots)
        self.t_end = knots[-1]
        counts = np.maximum(1, np.ceil(self.dt / _PANEL_WIDTH).astype(int))
        ends = np.cumsum(counts)
        seg = np.repeat(np.arange(counts.size), counts)
        # Panel k of segment j spans k h_j + lo_j to (k + 1) h_j + lo_j,
        # h_j = dt_j / count_j, with its last right edge set to hi_j: the
        # edges of np.linspace(lo_j, hi_j, count_j + 1), bit for bit.
        k = np.arange(ends[-1]) - (ends - counts)[seg]
        h, lo = (self.dt / counts)[seg], knots[seg]
        left = k * h + lo
        right = (k + 1) * h + lo
        right[ends - 1] = knots[1:]
        mid = 0.5 * (left + right)[:, None]
        half = 0.5 * (right - left)[:, None]
        self.nodes = mid + half * _X15
        self.weights = half * _W15
        self.panel_seg = seg
        # t - t_j at every node of segment j: dg/ds_j there.
        self.offsets = self.nodes - lo[:, None]

    def value(self, s: np.ndarray) -> float:
        """J of the polyline with slopes ``s``; keeps the arrays ``grad`` needs."""
        q = self.q
        y = np.concatenate(([0.0], np.cumsum(s * self.dt)))
        seg = self.panel_seg
        # In place, in the order of (y + s (t - t_j))^q - t, exp, times weight.
        g_nodes = s[seg][:, None] * self.offsets
        g_nodes += y[seg][:, None]
        core = g_nodes**q
        core -= self.nodes
        np.exp(core, out=core)
        core *= self.weights
        v_end = y[-1]
        j_tail = math.exp(v_end**q - self.t_end)
        self._g_nodes, self._core, self._v_end, self._j_tail = g_nodes, core, v_end, j_tail
        return float(core.sum() + j_tail)

    def grad(self) -> np.ndarray:
        """dJ/ds at the slopes of the last ``value`` call."""
        q, seg = self.q, self.panel_seg
        # dJ/dg at the nodes, weighted; g^{q-1} guarded at g = 0 for q < 2.
        sens = self._core * q * np.maximum(self._g_nodes, 1e-12) ** (q - 1.0)
        seg_sens = np.bincount(seg, weights=sens.sum(axis=1), minlength=self.dt.size)
        local = np.bincount(
            seg, weights=(sens * self.offsets).sum(axis=1), minlength=self.dt.size
        )
        tail_sens = self._j_tail * q * max(self._v_end, 1e-12) ** (q - 1.0)
        # dg/ds_j = (t - t_j) inside segment j, dt_j on every later segment.
        suffix = np.concatenate((np.cumsum(seg_sens[::-1])[::-1][1:], [0.0]))
        return local + self.dt * (suffix + tail_sens)


def _project(s: np.ndarray, dt: np.ndarray, k: int, p: float, epsilon: float) -> np.ndarray:
    """Clip to s >= 0, cap the energy of the window (the first ``k``
    segments) at epsilon, renormalize the total to 1."""
    s = np.maximum(s, 0.0)  # a fresh array: the scalings below act in place
    e_window = float((s[:k] ** p * dt[:k]).sum())
    e_rest = float((s[k:] ** p * dt[k:]).sum())
    if e_rest <= 0.0:
        s[k:] = 0.05
        e_rest = float((s[k:] ** p * dt[k:]).sum())
    if e_window > epsilon:
        s[:k] *= (epsilon / e_window) ** (1.0 / p) * (1.0 - 1e-12)
        e_window = float((s[:k] ** p * dt[:k]).sum())
    s[k:] *= ((1.0 - e_window) / e_rest) ** (1.0 / p)
    return s


def concentration_maximizer(
    p: float,
    big_a: float,
    epsilon: float,
    knot_count: int,
    seed: int,
    *,
    n_starts: int = 6,
    max_iter: int = 400,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> MaximizerResult:
    """Projected-gradient search for the largest J over the concentrated class.

    Feasible set: piecewise-linear g with g(0) = 0, total energy exactly 1,
    and energy on (0, big_a) at most epsilon; the knots reach out to
    t_max = max(600, 60 big_a).  Deterministic given seed.

    Each trial step evaluates J alone and is kept only when J rises; the
    gradient for the next step comes from the accepted step's node arrays.
    A step starts at 0.1 (relative to the largest gradient entry), grows
    by 1.3 on acceptance and shrinks by 0.4 on rejection; a start ends
    after ``max_iter`` trials or when its step falls below ``_STEP_FLOOR``
    = 1e-8, below which accepted steps only add rounding noise to J.
    Inputs whose Gauss panels would exceed ``_PANEL_BUDGET`` raise
    ``DomainError`` before any array is built.
    """
    if not p >= 2.0:
        raise DomainError(f"maximizer requires p >= 2, got {p}")
    if not 0.0 < epsilon < 0.5:
        raise DomainError(f"epsilon must lie in (0, 0.5), got {epsilon}")
    if knot_count < 8:
        raise DomainError(f"knot_count must be >= 8, got {knot_count}")
    if not big_a > 0.0:
        raise DomainError(f"window endpoint must be positive, got {big_a}")
    t_max = max(600.0, 60.0 * big_a)
    # Each segment takes ceil(width / _PANEL_WIDTH) >= 1 panels.
    panels = knot_count - 1 + math.ceil(t_max / _PANEL_WIDTH)
    if panels > _PANEL_BUDGET:
        raise DomainError(
            f"the maximizer would lay up to {panels} Gauss panels over"
            f" [0, t_max = {t_max:g}] with knot_count (--knots) {knot_count},"
            f" above its budget of {_PANEL_BUDGET}: lower A (t_max = max(600, 60 A)) or --knots"
        )
    q = p / (p - 1.0)

    n_window = max(3, knot_count // 6)
    window = np.linspace(0.0, big_a, n_window + 1)
    n_out = knot_count - n_window
    outer = big_a * np.geomspace(1.0, t_max / big_a, n_out + 1)[1:]
    knots = np.concatenate((window, outer))
    dt = np.diff(knots)
    # The knots increase, so the window's segments are the first k.
    k = int(np.count_nonzero(knots[:-1] < big_a - 1e-12))
    objective = _SlopeObjective(knots, q)

    # Warm starts: ramps that spend the window allowance immediately and
    # the remaining energy linearly up to a trial scale; the integrand's
    # e^{-t} weighting makes cold random starts blind to the far region.
    scales = np.geomspace(2.0 * big_a, 1.001 * t_max, n_starts)
    children = np.random.SeedSequence(seed).spawn(n_starts)
    best = None
    for scale, child in zip(scales, children):
        rng = np.random.default_rng(child)
        s0 = np.zeros(knots.size - 1)
        s0[:k] = (epsilon / big_a) ** (1.0 / p)
        ramp_end = int(np.count_nonzero(knots[:-1] < scale))
        span = max(scale - big_a, dt[k:].min())
        s0[k:ramp_end] = ((1.0 - epsilon) / span) ** (1.0 / p)
        # Symmetry-breaking only: slope noise delta shifts the endpoint
        # exponent by ~2 g_end^2 delta, so it must stay tiny.
        s0 *= 1.0 + 1e-4 * rng.standard_normal(s0.size)
        s = _project(s0, dt, k, p, epsilon)
        j_val = objective.value(s)
        grad = objective.grad()
        step = 0.1
        for _ in range(max_iter):
            scale_free = step / max(float(np.max(np.abs(grad))), 1e-12)
            trial = _project(s + scale_free * grad, dt, k, p, epsilon)
            j_trial = objective.value(trial)
            if j_trial > j_val:
                s, j_val = trial, j_trial
                grad = objective.grad()
                step *= 1.3
            else:
                step *= 0.4
                if step < _STEP_FLOOR:
                    break
        if best is None or j_val > best[0]:
            best = (j_val, s)

    _, s = best
    values = np.concatenate(([0.0], np.cumsum(s * dt)))
    profile = piecewise_linear(knots, values, constant_tail=True)
    j_final = cc_functional(profile, q, spec)
    return MaximizerResult(profile=profile, functional_value=j_final)
