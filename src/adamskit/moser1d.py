"""One-dimensional exponential functional machinery.

The central object is J(g) = integral_0^inf exp(g(t)^q - t) dt over
nonnegative profiles with unit p-energy (p conjugate to q).  An energy is
one ``profiles.abs_pow_integral`` of the profile's derivative at weight 0.
J has a closed form on every piece whose g^q is affine in t
(``_cc_closed_form``): a constant piece, on a finite interval or out to
infinity, and a power c (t - shift)^{1/q}, such as the extremal test
function's arc, where w^q = t - 1.  A log-radial profile's tail
(``profiles.LogRadialRun``, from ``rearrange.energy_change_of_variables``)
is one engine call on radii for J and one for its energy.  A polyline
(``profiles.Polyline``) is one engine call per run of adjacent non-constant
segments, of its ``np.interp`` values, graded toward a knot where it is 0
at a non-integer q; every other piece is one engine call.  The improper
upper end of J is handled exactly for constant and saturating tails, by
the radial pullback for log-radial profiles, and by the sub-unit-energy
majorant otherwise.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DomainError, EnergyBoundError, QuadratureError
from .profiles import (
    ExpApproachPiece,
    LinearPiece,
    LogRadialRun,
    Piece,
    PiecewiseProfile,
    Polyline,
    PowerPiece,
    abs_pow_integral,
    constant_piece,
    piecewise_linear,
    quarter_steps,
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
#: 2^-63, ..., 1/4, 1/2, 3/4, ..., 1 - 2^-63: ``_cc_breaks``'s edges on a
#: piece of unit width for every number k < 64 of halvings, the k-th layout
#: being the slice [63 - k, 62 + k).
_UNIT_EDGES = np.concatenate((0.5 ** np.arange(63, 0, -1), 1.0 - 0.5 ** np.arange(2, 64)))


def _cc_breaks(lo: float, hi: float) -> np.ndarray:
    """First-level panel edges inside (lo, hi) for ``_cc_finite``.

    Edges at width/2, width/4, ... from both ends of the piece, down to end
    panels in (1/16, 1/8]; the two halves meet at the midpoint.  That is
    2 ceil(log2(8 width)) panels (one panel for a width of at most 1/8),
    with the ceiling taken exactly.  e^{g^q - t} puts its mass in O(1)-wide
    strips at the ends of a piece, and each panel [d, 2d] from an end is
    no wider than its distance to that end, so G15 resolves an integrand
    analytic away from the ends on the first level.  The edges are strictly
    increasing while hi < 2^48, which ``_cc_finite``'s rounding guard
    ensures, so there are fewer than the 64 grades ``_UNIT_EDGES`` holds.
    """
    width = hi - lo
    mantissa, exponent = math.frexp(8.0 * width)
    grades = max(0, exponent - (mantissa == 0.5))  # ceil(log2(8 width))
    return lo + width * _UNIT_EDGES[63 - grades : 62 + grades]


def _cc_finite(
    value: Callable, q: float, lo: float, hi: float, spec: QuadratureSpec, breaks: np.ndarray | None = None
) -> float:
    """integral_lo^hi exp(value^q - t) dt by one engine call: on one smooth
    piece, or on a polyline's run with the ``breaks`` of ``_cc_run_breaks``.

    On a piece the first level is ``_cc_breaks``'s geometric grading toward
    both ends, 2 ceil(log2(8 w)) panels on a piece of width w, so a piece
    whose mass sits at its ends converges there without halving.  The
    exponent g^q - t cancels terms as large as t, so the integrand carries
    a relative rounding of about 2 u t (u = 2^-53).  When that rounding at
    the far end exceeds 100 rel_tol (or ``_MAX_ROUNDING``, where
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
        return np.exp(value(t) ** q - t)

    if breaks is None:
        breaks = _cc_breaks(lo, hi)
    return adaptive_gauss(integrand, lo, hi, spec, breaks=breaks)


def _cc_run_breaks(g: Polyline, q: float, edges: list[float], spec: QuadratureSpec) -> np.ndarray:
    """First-level breaks of J on a run of adjacent non-constant segments
    of a polyline, ``edges`` their ends: each segment's ``_cc_breaks`` and
    the edges inside the run.  Where g is 0 at an edge and q is not an
    integer, g^q behaves like |t - edge|^q there, and each side of the edge
    in the run is graded toward it by ``profiles.quarter_steps``, from its
    nearest break.  Graded points that round onto an edge merge with it."""
    zero = (g._value_batch(np.array(edges)) == 0.0) & (not float(q).is_integer())
    parts = []
    for a, b, zero_a, zero_b in zip(edges, edges[1:], zero, zero[1:]):
        inner = _cc_breaks(a, b)
        if zero_a:
            parts.append(a + quarter_steps((inner[0] if inner.size else b) - a, q, spec.rel_tol))
        parts.append(inner)
        if zero_b:
            parts.append(b - quarter_steps(b - (inner[-1] if inner.size else a), q, spec.rel_tol)[::-1])
        parts.append([b])
    points = np.unique(np.concatenate(parts))
    return points[(edges[0] < points) & (points < edges[-1])]


def _cc_closed_form(piece: Piece, q: float, lo: float, hi: float) -> float | None:
    """integral_lo^hi exp(piece^q - t) dt in closed form where piece^q is
    affine in t, or None.

    There g^q - t = k t + corner: k = -1 and corner = c^q on a constant
    piece c (slope 0), out to hi = inf as well; on a power coeff
    (t - shift)^e with offset 0, coeff > 0, lo >= shift and e q = 1 up to
    4 u (the rounding of a float 1/q), k = C - 1 and corner = -C shift,
    C = coeff^q.  Then J = e^{k lo + corner} expm1(k (hi - lo))/k, with the
    exponent taken at hi instead where k > 0 (the integrand's peak), and
    (hi - lo) e^{corner} at k = 0.  A constant below 0 at a non-integer q,
    or a J that overflows, raises ``QuadratureError`` as the engine does
    for a NaN or infinite panel.
    """
    constant = isinstance(piece, LinearPiece) and piece.slope == 0.0
    if constant and piece.intercept < 0.0 and not float(q).is_integer():
        raise QuadratureError(
            f"integrand is NaN on [{lo}, {hi}]: the constant g = {piece.intercept!r} of"
            f" {piece!r} is below 0, so g^q has no real value at q = {q!r}",
            interval=(lo, hi),
        )
    affine = (
        isinstance(piece, PowerPiece)
        and piece.offset == 0.0
        and piece.coeff > 0.0
        and lo >= piece.shift
        and not math.isinf(hi)
        and abs(piece.exponent * q - 1.0) <= 4.0 * _UNIT_ROUNDOFF
    )
    if not (constant or affine):
        return None
    try:
        if constant:
            k, corner = -1.0, piece.intercept**q
        else:
            c = piece.coeff**q
            k, corner = c - 1.0, -c * piece.shift
        if k == 0.0:
            value = (hi - lo) * math.exp(corner)
        else:
            edge = hi if k > 0.0 else lo
            value = math.exp(k * edge + corner) * math.expm1(-abs(k) * (hi - lo)) / -abs(k)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        what = "NaN" if math.isnan(value) else "infinite"
        raise QuadratureError(
            f"integrand is {what} on [{lo}, {hi}]: J of {piece!r} at q = {q!r} is {value!r}",
            interval=(lo, hi),
        )
    return value


def _cc_log_radial(run: LogRadialRun, q: float, lo: float, hi: float, spec: QuadratureSpec) -> float:
    """integral_lo^hi exp(g^q - t) dt on a log-radial run by one engine call
    on radii: dt = -n dr / r and e^{-t} = (r/R)^n turn it into
    n R^{-n} integral e^{(scale w(r))^q} r^{n-1} dr over [R e^{-hi/n},
    R e^{-lo/n}], exact out to t = inf (r = 0).  The run's radii are the
    first-level breaks, and w is the run's batch evaluator ``run.w``."""
    n, scale, value = run.dim, run.scale, run.w
    r_lo, r_hi, breaks = run.span(lo, hi)

    def integrand(r):
        return np.exp((scale * value(r)) ** q) * r ** (n - 1.0)

    return n * run.big_r ** (-n) * adaptive_gauss(integrand, r_lo, r_hi, spec, breaks=breaks)


def _cc_tail(
    g: PiecewiseProfile,
    piece: Piece,
    q: float,
    lo: float,
    spec: QuadratureSpec,
) -> float:
    """integral_lo^inf exp(piece^q - t) dt for a tail piece without a
    closed form: a saturating tail truncated where its bound leaves
    truncation_epsilon, a generic one under the Hoelder envelope.  A
    log-radial tail never comes here: it is one ``LogRadialRun``
    (``_cc_log_radial``)."""
    eps = spec.truncation_epsilon
    if isinstance(piece, LinearPiece):
        raise DomainError("a linear tail must be constant: J diverges or g turns negative")
    if isinstance(piece, ExpApproachPiece):
        cap = max(float(np.asarray(piece.value(lo))), piece.limit_value)
        hi = max(lo + 1.0, cap**q - math.log(eps))
        return _cc_finite(piece.value, q, lo, hi, spec)
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
    return _cc_finite(piece.value, q, lo, hi, spec)


def cc_integral(
    g: PiecewiseProfile,
    q: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """integral_lo^hi exp(g^q - t) dt along ``g.segments()``: one engine
    call on radii for a log-radial run (``_cc_log_radial``),
    ``_cc_closed_form`` where a piece has one, ``_cc_tail`` for a tail out
    to infinity without one, else one engine call (``_cc_finite``) per
    piece.  A ``Polyline`` takes one engine call per run of adjacent
    non-constant segments instead, of its ``np.interp`` values, laid out by
    ``_cc_run_breaks``: one tolerance for the run, where its segments'
    ends meet at shared knots.

    Unchecked: where g < 0 at a non-integer q, or exp overflows, the
    integrand is NaN or infinite and ``QuadratureError`` is raised
    (numpy's warnings for those values are silenced for the whole call).
    """
    total = 0.0
    runs: list[list[float]] = []  # a polyline's runs, by their edges
    with np.errstate(over="ignore", invalid="ignore"):
        for seg_lo, seg_hi, piece in g.segments():
            a, b = max(seg_lo, lo), min(seg_hi, hi)
            if b <= a:
                continue
            if isinstance(piece, LogRadialRun):
                total += _cc_log_radial(piece, q, a, b, spec)
                continue
            closed = _cc_closed_form(piece, q, a, b)
            if closed is not None:
                total += closed
            elif math.isinf(b):
                total += _cc_tail(g, piece, q, a, spec)
            elif not isinstance(g, Polyline):
                total += _cc_finite(piece.value, q, a, b, spec)
            elif runs and runs[-1][-1] == a:
                runs[-1].append(b)
            else:
                runs.append([a, b])
        for edges in runs:
            breaks = _cc_run_breaks(g, q, edges, spec)
            total += _cc_finite(g._value_batch, q, edges[0], edges[-1], spec, breaks)
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
    if isinstance(g, Polyline):  # its knot values; a tail is constant at ys[-1]
        low = float(g.ys.min())
    else:
        values = [_far_value(g)]
        for k, _hi, piece in g.segments():
            if isinstance(piece, LogRadialRun):  # its knots are radii[1:]
                values.append(float((piece.scale * piece.w(piece.radii[1:])).min()))
            else:
                values.append(float(np.asarray(piece.value(k))))
        low = min(values)
    if low < -1e-12:
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
    # _check_nonnegative lets w reach -1e-12; there w(a) is 0, or w_a^q is
    # complex at a non-integer q.
    w_a = max(float(np.asarray(w.value(a))), 0.0)
    shrink = 1.0 - delta ** (1.0 / (p - 1.0))
    gamma_p = delta * shrink ** (1.0 - p)
    c = q * w_a ** (q - 1.0)
    exponent = ((p - 1.0) / p) ** (p - 1.0) * c**p * gamma_p / p
    rhs = math.exp(w_a**q - a) / shrink * math.exp(exponent + digamma(p) + EULER_GAMMA)
    return LemmaBound(lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# concentrating family
# ---------------------------------------------------------------------------

#: Largest p of ``moser_family`` and ``concentration_maximizer``: a float
#: slope's energy s^p carries a relative rounding of p u/2, 5.6e-11 at 1e6,
#: under a tenth of the 1e-9 energy allowance of ``cc_functional``.
_P_MAX = 1e6


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
    if not 1.0 < p <= _P_MAX:
        raise DomainError(f"p must lie in (1, {_P_MAX:g}], got {p}")
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
    #: J evaluations of the search (``_SlopeObjective.value`` calls).
    evaluations: int


#: Width of the maximizer's fixed G15 panels.
_PANEL_WIDTH = 4.0
#: Seeded warm starts besides the Moser ramp, and most trials per start.
_N_STARTS, _MAX_ITER = 6, 400

_PANEL_BUDGET = 32_768
"""Most Gauss panels the maximizer may lay over [0, t_max].

Checked before any array is built, against the bound (knot_count - 1) +
ceil(t_max / _PANEL_WIDTH) on the count, t_max = max(600, 60 A): that
admits A up to about 2 180 at 48 knots and up to about 32 600 knots at
A <= 10.  t_max is then raised to a_M = 1.001 A/epsilon, for the Moser
start, only where the same bound holds there too; elsewhere the search runs
without that start.  At 48 knots a_M reaches up to about 130 800: A up to
about 1 307 at epsilon = 0.01, and nowhere at A = 5, epsilon = 1e-5 (a_M =
500 500).  At the budget a default search took 0.3 s and 38 MB above the
library's own footprint (A = 2 181 without the Moser start, A = 1 307 with
it, both at 48 knots), and 1.2 s and 41-45 MB (32 618 knots at A = 5 and
A = 10, and 32 518 at A = 10, the most that still reach a_M = 1 001) on a
2-vCPU VM.  The benchmark's (A, knots) = (5, 48) lays 179 panels, 2 685
nodes.
"""

_STEP_FLOOR = 1e-8
"""Step (relative to the largest gradient entry) below which a start ends.

Measured over 49 searches (seeds 0-39 at (p, A, epsilon, knots) =
(2, 5, 0.01, 48) and nine other parameter sets): an accepted step in
[1e-7, 1e-6) raises J by up to 6.2e-9 relative, one in [1e-8, 1e-7) by
at most 1.0e-15, and one below 1e-8 by at most 6.3e-13.  All the steps a
start accepted after its step first fell below 1e-8 added at most 9.3e-13
to J, a hundredth of the rel_tol = 1e-10 to which ``cc_functional``
certifies the returned J.  Searching on down to 1e-14 costs 53 J
evaluations instead of 38 at (2, 5, 0.01, 48, seed 0), and 211 instead of
136 at (4, 1, 0.499, 8, seed 11).
"""

_GAIN_FLOOR = 1e-2
"""Gain of an accepted step, as a share of J - 1, below which a start that
trails the best J so far ends (every start but the first searched).

J - 1 is the part of J a profile makes: g = 0 gives J = 1.  Measured over
164 searches against searching every start down to ``_STEP_FLOOR``, which
took 28 549 J evaluations: the 12 ``maximizer_golden.json`` cases, 120
seeded draws of p in [2, 4], A in [0.1, 20], epsilon in [0.01, 0.45] and
8-48 knots, and 32 at epsilon in [1e-5, 0.01] (30 draws, and
(2, 5, 1e-5, 8 and 48 knots, seed 0)).  Ending starts at their
first rejected trial when they have accepted none takes 18 273 and loses
J on two draws, by 2.9e-4 and 7.0e-7 relative.  This floor at 3e-3, 1e-2
and 3e-2 of J - 1 then takes 13 681, 12 297 and 10 681; at 3e-2 it loses
on three more draws, by up to 5.1e-2.  A floor of 1e-3 of J itself took
13 665 and lost 8.4e-4 at (2, 5, 1e-5, 48, 0), where J - 1 is 0.02 and a
start climbs by gains of 7e-4 of J.  Applied also to starts above the best
J so far, a floor of 1e-2 of J - 1 loses on eight draws.
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
    # A trial slope above e^{709/p} overflows s^p; its part then scales to 0.
    with np.errstate(over="ignore"):
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
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> MaximizerResult:
    """Projected-gradient search for the largest J over the concentrated class.

    Feasible set: piecewise-linear g with g(0) = 0, total energy exactly 1,
    and energy on (0, big_a) at most epsilon; the knots reach out to
    t_max = max(600, 60 big_a, a_M), a_M = 1.001 big_a/epsilon, geometric
    beyond the window; a_M is left out of t_max where reaching it would
    exceed ``_PANEL_BUDGET``.  Deterministic given seed.

    Starts: ``_N_STARTS`` = 6 seeded warm ramps and, where the window has a
    segment and t_max reaches a_M, the class's Moser ramp
    ``moser_family(a_M, p)`` (window energy epsilon/1.001).  Its kink falls
    on a knot: the geometric knot nearest a_M is moved onto it.  That
    layout is kept where the Moser ramp leads every start on it, or beats
    every start on the unmoved geometric knots; otherwise the search runs
    on the geometric knots (the ramp running on to the knot after a_M),
    which a moved knot would only perturb.  Every start's J and gradient
    are evaluated before any search, and the starts are searched in
    descending order of that J.

    Each trial step evaluates J alone and is kept only when J rises; the
    gradient for the next step comes from the accepted step's node arrays.
    A step starts at 0.1 (relative to the largest gradient entry), grows by
    1.3 on acceptance and shrinks by 0.4 on rejection.  A start ends after
    ``_MAX_ITER`` = 400 trials or when its step falls below ``_STEP_FLOOR``
    = 1e-8, below which accepted steps only add rounding noise to J.  Every
    start after the first also ends at its first rejected trial if it has
    accepted none, and at an accepted step that raises J by less than
    ``_GAIN_FLOOR`` = 1e-2 of J - 1 while its J trails the best so far.
    ``evaluations`` counts the J evaluations.  Inputs whose Gauss panels
    would exceed ``_PANEL_BUDGET`` raise ``DomainError`` before any array
    is built.
    """
    if not 2.0 <= p <= _P_MAX:
        raise DomainError(f"maximizer requires 2 <= p <= {_P_MAX:g}, got {p}")
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
            f" above its budget of {_PANEL_BUDGET}: lower A (t_max = max(600, 60 A),"
            " raised to 1.001 A/epsilon where that fits) or --knots"
        )
    a_moser = 1.001 * big_a / epsilon
    if knot_count - 1 + math.ceil(a_moser / _PANEL_WIDTH) <= _PANEL_BUDGET:
        t_max = max(t_max, a_moser)
    q = p / (p - 1.0)

    n_window = max(3, knot_count // 6)
    window = np.linspace(0.0, big_a, n_window + 1)
    n_out = knot_count - n_window
    outer = big_a * np.geomspace(1.0, t_max / big_a, n_out + 1)[1:]
    # The knots increase, so the window's segments are the first k.
    k = int(np.count_nonzero(window[:-1] < big_a - 1e-12))
    # No Moser start without a window segment or where a_M is past the budget.
    moser = k > 0 and a_moser <= t_max
    children = np.random.SeedSequence(seed).spawn(_N_STARTS)

    def layout(knots):
        """The objective on ``knots``, the starts there, their J and gradients."""
        dt = np.diff(knots)
        starts = []
        # Warm starts: ramps that spend the window allowance immediately and
        # the remaining energy linearly up to a trial scale; the integrand's
        # e^{-t} weighting makes cold random starts blind to the far region.
        scales = np.geomspace(2.0 * big_a, 1.001 * t_max, _N_STARTS)
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
            starts.append(_project(s0, dt, k, p, epsilon))
        if moser:  # the Moser ramp, kinked at the first knot from a_M on
            s0 = np.where(knots[:-1] < a_moser, a_moser ** (-1.0 / p), 0.0)
            starts.append(_project(s0, dt, k, p, epsilon))
        objective = _SlopeObjective(knots, q)
        # Each start's gradient from the node arrays of its J.
        values, grads = zip(*[(objective.value(s), objective.grad()) for s in starts])
        return dt, objective, starts, values, grads

    geometric = np.concatenate((window, outer))
    knots = geometric.copy()
    if moser and a_moser < t_max:
        # The Moser ramp's kink on a segment edge: the geometric knot nearest
        # a_M moves onto it (the last knot stays t_max).
        knots[n_window + 1 + np.argmin(np.abs(outer[:-1] - a_moser))] = a_moser
    dt, objective, starts, start_values, start_grads = layout(knots)
    evaluations = len(starts)
    if not np.array_equal(knots, geometric) and np.argmax(start_values) != _N_STARTS:
        # A warm start leads.  Where one on the geometric knots also beats
        # the Moser ramp, the search runs there, unperturbed by the move.
        unmoved = layout(geometric)
        evaluations += len(unmoved[2])
        if max(unmoved[3]) > start_values[_N_STARTS]:
            dt, objective, starts, start_values, start_grads = unmoved
            knots = geometric

    best_j, best_s = -math.inf, None
    for rank, i in enumerate(np.argsort(start_values, kind="stable")[::-1]):
        s, j_val, grad = starts[i], start_values[i], start_grads[i]
        step, accepted = 0.1, False
        for _ in range(_MAX_ITER):
            scale_free = step / max(float(np.max(np.abs(grad))), 1e-12)
            trial = _project(s + scale_free * grad, dt, k, p, epsilon)
            j_trial = objective.value(trial)
            evaluations += 1
            if j_trial > j_val:
                stalled = j_trial - j_val < _GAIN_FLOOR * (j_val - 1.0) and j_trial < best_j
                s, j_val, accepted = trial, j_trial, True
                if rank and stalled:
                    break
                grad = objective.grad()
                step *= 1.3
            else:
                step *= 0.4
                if (rank and not accepted) or step < _STEP_FLOOR:
                    break
        if j_val > best_j:
            best_j, best_s = j_val, s

    values = np.concatenate(([0.0], np.cumsum(best_s * dt)))
    profile = piecewise_linear(knots, values, constant_tail=True)
    j_final = cc_functional(profile, q, spec)
    return MaximizerResult(profile=profile, functional_value=j_final, evaluations=evaluations)
