"""Piecewise analytic profiles on an interval or half line.

A profile is a list of increasing knots, one analytic piece per gap, and an
optional tail piece on [last knot, infinity).  Pieces expose vectorized
value and derivative, all that the library evaluates of a profile.
``abs_pow_integral`` is the one integral of |h|^power r^weight over a
profile or its derivative, for the energies of ``moser1d`` and the weighted
norms of ``hardy`` alike: it goes through the segments once, sums
``abs_pow_closed_form`` wherever the piece type has a closed form and
integrates the remaining runs of segments with ``abs_pow_quadrature``,
breaking at their knots and roots, and graded toward r = 0 by
``quarter_steps`` where the weight leaves a power of r there.  A polyline
(``piecewise_linear``, such as a Hardy trial or the maximizer's profile)
keeps its knots and values as float arrays: its pieces are in point-slope
form, anchored at their left knots, and a batch of its values is one
``np.interp``, so every route gives the given value at each knot.  Any
other profile evaluates a batch of points by one gather of its segments'
coefficients where they share a type with a ``Piece.gather`` (the radial
comparison slabs, a polyline's derivative), built on first use.  A radial
profile seen through r = R e^{-t/n} is one ``LogRadialRun`` tail, whose
energy is one integral on radii with the evaluators its builder supplies,
so this module needs no import of the source's module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError
from .quadrature import QuadratureSpec, adaptive_gauss, power_integral

_CONTINUITY_TOL = 1e-10
_TINY = np.finfo(float).tiny
#: 2^-1074, ..., 1/4, 1/2: ``quarter_steps``'s grading for K halvings is
#: the even powers 4^-ceil(K/2), ..., 1/16, 1/4 of them,
#: ``_HALVINGS[-K - K % 2::2]``, and K <= 1074 since rel_tol >= 2^-1074.
_HALVINGS = 0.5 ** np.arange(1074, 0, -1)


class Piece:
    """One analytic segment, in global coordinates."""

    kind = "abstract"
    #: ``gather(pieces)``: (value(i, t), derivative(i, t)), piece i of the
    #: ``pieces`` of one type at points t, by one gather of their coefficients.
    gather = None

    def value(self, t):  # pragma: no cover - interface
        raise NotImplementedError

    def derivative(self, t):  # pragma: no cover - interface
        raise NotImplementedError

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class LinearPiece(Piece):
    """intercept + slope * (t - anchor), the line through (anchor, intercept).

    At anchor 0 (the default) this is intercept + slope * t to the bit.  A
    polyline's piece is anchored at its left knot, where it is exact.
    """

    intercept: float
    slope: float
    anchor: float = 0.0
    kind = "linear"

    def value(self, t):
        return self.intercept + self.slope * (np.asarray(t, dtype=float) - self.anchor)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def params(self) -> dict:
        """intercept and slope, and the anchor where it is not 0."""
        params = {"intercept": self.intercept, "slope": self.slope}
        return params | {"anchor": self.anchor} if self.anchor else params

    @staticmethod
    def gather(pieces):
        """``value``'s arithmetic on the gathered coefficients, so bit for bit."""
        intercept = np.array([piece.intercept for piece in pieces], dtype=float)
        slope = np.array([piece.slope for piece in pieces], dtype=float)
        anchor = np.array([piece.anchor for piece in pieces], dtype=float)

        def value(i, t):
            return intercept[i] + slope[i] * (t - anchor[i])

        def derivative(i, _t):
            return slope[i]

        return value, derivative


def constant_piece(value: float) -> LinearPiece:
    return LinearPiece(intercept=value, slope=0.0)


@dataclass(frozen=True)
class PowerPiece(Piece):
    """coeff * (t - shift)^exponent + offset, defined for t > shift."""

    coeff: float
    shift: float
    exponent: float
    offset: float = 0.0
    kind = "power"

    def value(self, t):
        return self.coeff * (np.asarray(t, dtype=float) - self.shift) ** self.exponent + self.offset

    def derivative(self, t):
        e = self.exponent
        return self.coeff * e * (np.asarray(t, dtype=float) - self.shift) ** (e - 1.0)

    def params(self) -> dict:
        return {
            "coeff": self.coeff,
            "shift": self.shift,
            "exponent": self.exponent,
            "offset": self.offset,
        }


@dataclass(frozen=True)
class ExpApproachPiece(Piece):
    """amplitude * (1 - exp(-rate (t - anchor))) + offset, for t >= anchor.

    Saturates at offset + amplitude; the derivative decays like exp(-rate t).
    """

    amplitude: float
    rate: float
    anchor: float
    offset: float = 0.0
    kind = "exp"

    def value(self, t):
        u = np.asarray(t, dtype=float) - self.anchor
        return self.amplitude * (-np.expm1(-self.rate * u)) + self.offset

    def derivative(self, t):
        u = np.asarray(t, dtype=float) - self.anchor
        return self.amplitude * self.rate * np.exp(-self.rate * u)

    @property
    def limit_value(self) -> float:
        return self.amplitude + self.offset

    def params(self) -> dict:
        return {
            "amplitude": self.amplitude,
            "rate": self.rate,
            "anchor": self.anchor,
            "offset": self.offset,
        }


@dataclass(frozen=True, eq=False)
class LogRadialRun(Piece):
    """g(t) = scale * w(R e^{-t/n}) for t >= 0, a radial profile w on
    [0, R] seen through r = R e^{-t/n}, where t = inf is r = 0
    (``rearrange.energy_change_of_variables``).

    ``radii`` are the knots of w, increasing from 0 to R.  ``w`` and
    ``dw`` are w and w' on arrays of radii, the run's one evaluator:
    ``value`` and ``derivative`` are g and g' through them, and the
    integrands of J and the energy take them once per batch of radii, so
    each is one integral on radii, out to t = inf.
    """

    scale: float
    big_r: float
    dim: int
    radii: np.ndarray
    w: Callable[[np.ndarray], np.ndarray]
    dw: Callable[[np.ndarray], np.ndarray]
    kind = "radial-log"

    def radius(self, t):
        return self.big_r * np.exp(-np.asarray(t, dtype=float) / self.dim)

    def value(self, t):
        return self.scale * self.w(self.radius(t))

    def derivative(self, t):
        r = self.radius(t)
        return -self.scale * self.dw(r) * r / self.dim

    def span(self, lo: float, hi: float) -> tuple[float, float, np.ndarray]:
        """The t-interval [lo, hi] of the run on radii: (r_lo, r_hi, the
        run's radii strictly between them, as first-level breaks)."""
        r_lo = self.big_r * math.exp(-hi / self.dim)
        r_hi = self.big_r * math.exp(-lo / self.dim)
        radii = self.radii
        return r_lo, r_hi, radii[(r_lo < radii) & (radii < r_hi)]

    def energy(self, power: float, lo: float, hi: float, spec: QuadratureSpec) -> float:
        """integral_lo^hi |g'(t)|^power dt by one ``abs_pow_quadrature`` on
        radii: dt = -n dr / r and |g'(t)| = |scale| r |w'(r)| / n give
        n (|scale|/n)^power integral |w'(r)|^power r^{power-1} dr."""
        n = self.dim
        r_lo, r_hi, breaks = self.span(lo, hi)
        radial = abs_pow_quadrature(self.dw, power, power - 1.0, r_lo, r_hi, spec, breaks=breaks)
        return n * (abs(self.scale) / n) ** power * radial


@dataclass(frozen=True)
class PiecewiseProfile:
    """Continuous piecewise function on [knots[0], knots[-1]] or [knots[0], inf).

    ``value`` and ``derivative`` take any point of the domain; at a knot
    they take the segment that starts there (the last one at the last knot).
    """

    knots: tuple[float, ...]
    pieces: tuple[Piece, ...]
    tail: Piece | None = None
    check_continuity: bool = True
    _segments: tuple[Piece, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        tail = () if self.tail is None else (self.tail,)
        object.__setattr__(self, "_segments", self.pieces + tail)
        if len(knots) != len(self.pieces) + 1:
            raise DomainError(
                f"need len(knots) == len(pieces) + 1, got {len(knots)} and {len(self.pieces)}"
            )
        _check_knots(knots)
        if self.check_continuity:
            self._check_continuity()

    def _check_continuity(self) -> None:
        for i in range(1, len(self._segments)):
            k = self.knots[i]
            left = float(self._segments[i - 1].value(k))
            right = float(self._segments[i].value(k))
            scale = max(1.0, abs(left), abs(right))
            if abs(left - right) > _CONTINUITY_TOL * scale:
                raise DomainError(
                    f"profile discontinuous at knot {k}: {left} vs {right}"
                )

    @property
    def start(self) -> float:
        return self.knots[0]

    @property
    def end(self) -> float:
        """Last knot; the profile extends beyond it iff it has a tail."""
        return self.knots[-1]

    def segments(self):
        """Yield (lo, hi, piece); the tail has hi = inf."""
        for i, piece in enumerate(self.pieces):
            yield self.knots[i], self.knots[i + 1], piece
        if self.tail is not None:
            yield self.knots[-1], math.inf, self.tail

    @cached_property
    def _gathered(self) -> tuple[np.ndarray, tuple[Callable, Callable] | None]:
        """The knots as an array and, where all segments share a type with a
        ``gather``, its (value, derivative) pair: one gather of the
        coefficients, shared by both batch evaluators."""
        kinds = set(map(type, self._segments))
        gather = kinds.pop().gather if len(kinds) == 1 else None
        return np.array(self.knots), gather(self._segments) if gather else None

    def _evaluator(self, derivative: bool) -> Callable:
        """Unchecked value (or derivative) on arrays in the domain, for the
        engine's integrands and behind ``value``/``derivative``.  A point takes
        the segment of the last knot at or below it (the last past the last
        knot), by the gathered pair where there is one."""
        (knots, gathered), segments = self._gathered, self._segments
        at, last = gathered[derivative] if gathered else None, len(segments) - 1
        method = "derivative" if derivative else "value"

        def evaluate(t):
            i = np.minimum(np.searchsorted(knots, t, side="right") - 1, last)
            if at is not None:
                return at(i, t)
            out = np.empty_like(t)
            for k in np.unique(i):
                mask = i == k
                out[mask] = getattr(segments[k], method)(t[mask])
            return out

        return evaluate

    # Each evaluator is built on its own first use: a Hardy value norm
    # builds no derivative evaluator.
    @cached_property
    def _value_batch(self) -> Callable:
        return self._evaluator(False)

    @cached_property
    def _derivative_batch(self) -> Callable:
        return self._evaluator(True)

    def _batch(self, derivative: bool) -> Callable:
        return self._derivative_batch if derivative else self._value_batch

    def _apply(self, t, derivative: bool):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        below = t_arr < self.knots[0]
        above = t_arr > self.knots[-1]
        if np.any(below) or (self.tail is None and np.any(above)):
            raise DomainError(f"evaluation outside profile domain [{self.knots[0]}, ...]")
        out = self._batch(derivative)(t_arr)
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def value(self, t):
        return self._apply(t, False)

    def derivative(self, t):
        return self._apply(t, True)

    def to_json_obj(self) -> list[dict]:
        """Serialization as [{knot, value, piece_kind, params}, ...]."""
        out = []
        for lo, _hi, piece in self.segments():
            out.append(
                {
                    "knot": lo,
                    "value": float(np.asarray(piece.value(lo))),
                    "piece_kind": piece.kind,
                    "params": piece.params(),
                }
            )
        return out


def _check_knots(knots: Sequence[float]) -> None:
    """``DomainError`` unless the float knots are finite and strictly
    increasing; a NaN fails the comparison ``a < b`` on either side."""
    if not (
        math.isfinite(knots[0])
        and math.isfinite(knots[-1])
        and all(a < b for a, b in zip(knots, knots[1:]))
    ):
        raise DomainError("knots must be finite and strictly increasing")


@dataclass(frozen=True)
class Polyline(PiecewiseProfile):
    """``piecewise_linear``'s profile, which keeps its knots ``ts`` and
    values ``ys`` as float arrays.

    Piece i is ys[i] + s_i (t - ts[i]), s_i = (ys[i+1] - ys[i]) /
    (ts[i+1] - ts[i]), anchored at its left knot.  A batch of values is one
    ``np.interp(t, ts, ys)``, which takes the same arithmetic and returns
    ys[i] at ts[i], the last knot included, so every route gives the given
    values at the knots.
    """

    ts: np.ndarray = field(kw_only=True, repr=False, compare=False)
    ys: np.ndarray = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def _value_batch(self) -> Callable:
        ts, ys = self.ts, self.ys
        return lambda t: np.interp(t, ts, ys)


def piecewise_linear(ts: Sequence[float], ys: Sequence[float], *, constant_tail: bool = True) -> Polyline:
    """Polyline through (ts, ys), optionally continued as a constant."""
    ts = [float(x) for x in ts]
    ys = [float(y) for y in ys]
    if len(ts) != len(ys) or len(ts) < 2:
        raise DomainError("piecewise_linear needs matching arrays of length >= 2")
    _check_knots(ts)
    pieces = tuple(
        LinearPiece(y0, (y1 - y0) / (t1 - t0), t0) for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])
    )
    tail = constant_piece(ys[-1]) if constant_tail else None
    # Continuous by construction: its check could fail only by rounding.
    return Polyline(tuple(ts), pieces, tail, check_continuity=False, ts=np.array(ts), ys=np.array(ys))


def kinks_at_roots(power: float) -> bool:
    """Whether |h|^power stops being smooth where h has a simple root: at
    every power but an even integer, where it is h^power."""
    return power % 2.0 != 0.0


def abs_pow_integral(
    g: PiecewiseProfile,
    power: float,
    weight_pow: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec,
    *,
    derivative: bool = False,
) -> float:
    """integral_lo^hi |h(r)|^power r^weight_pow dr, h the profile g or g'.

    Each segment is clipped to [lo, hi].  ``abs_pow_closed_form`` gives the
    segments that have a closed form; each run of adjacent segments without
    one is one ``abs_pow_quadrature`` call of g (or g'), whose breaks are
    the run's interior knots and, where ``kinks_at_roots(power)``, the roots
    of its linear pieces' values.
    ``DomainError`` when such a segment reaches infinity.  A
    ``LogRadialRun`` is one integral on radii (``LogRadialRun.energy``), out
    to t = inf, and takes no request but its energy (g' at weight 0).
    """
    total = 0.0
    root_breaks = not derivative and kinks_at_roots(power)
    runs: list[list[float]] = []  # the edges of each run, ends included
    for seg_lo, seg_hi, piece in g.segments():
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        if isinstance(piece, LogRadialRun):
            if not (derivative and weight_pow == 0.0):
                raise DomainError("a log-radial run integrates only its energy, |g'|^power at weight 0")
            if a < b:
                total += piece.energy(power, a, b, spec)
            continue
        try:
            closed = abs_pow_closed_form(piece, power, weight_pow, a, b, derivative=derivative)
        except OverflowError:  # a float power such as |slope|^power
            h = "g'" if derivative else "g"
            raise DomainError(f"|{h}|^p on [{a!r}, {b!r}] leaves the float range at p={power!r}") from None
        if closed is not None:
            total += closed
            continue
        if math.isinf(b):
            raise DomainError(f"cannot integrate a {piece.kind} piece over an unbounded interval")
        if not runs or runs[-1][-1] != a:  # a closed-form segment ended the last run
            runs.append([a])
        if root_breaks and isinstance(piece, LinearPiece) and piece.slope != 0.0:
            root = piece.anchor - piece.intercept / piece.slope
            if a < root < b:
                runs[-1].append(root)
        runs[-1].append(b)
    for edges in runs:  # g's batch evaluator is built on the first run
        total += abs_pow_quadrature(
            g._batch(derivative), power, weight_pow, edges[0], edges[-1], spec, breaks=edges[1:-1]
        )
    return total


def abs_pow_closed_form(
    piece: Piece,
    power: float,
    weight_pow: float,
    lo: float,
    hi: float,
    *,
    derivative: bool = False,
) -> float | None:
    """``abs_pow_integral`` of one piece on [lo, hi] in closed form, or None
    where the piece has none.

    Closed forms: an empty interval, a constant integrand (a linear
    derivative, a constant value, zero) and a power of (r - shift) at any
    weight when the shift is 0, else at weight 0; at weight 0 also the
    saturating exponential's derivative (so hi may be inf).
    """
    if hi <= lo:
        return 0.0
    if isinstance(piece, LinearPiece):
        if derivative or piece.slope == 0.0:
            c = abs(piece.slope if derivative else piece.intercept) ** power
            return 0.0 if c == 0.0 else power_integral(c, weight_pow + 1.0, lo, hi)
    elif isinstance(piece, PowerPiece) and (derivative or piece.offset == 0.0):
        if piece.shift == 0.0 or weight_pow == 0.0:
            c = abs(piece.coeff * piece.exponent if derivative else piece.coeff) ** power
            if c == 0.0:
                return 0.0
            e = piece.exponent - 1.0 if derivative else piece.exponent
            w1 = e * power + weight_pow + 1.0
            return power_integral(c, w1, lo - piece.shift, hi - piece.shift)
    elif derivative and weight_pow == 0.0 and isinstance(piece, ExpApproachPiece):
        rate = piece.rate * power
        c = abs(piece.amplitude * piece.rate) ** power
        upper = 0.0 if math.isinf(hi) else math.exp(-rate * (hi - piece.anchor))
        lower = math.exp(-rate * (lo - piece.anchor))
        return c * (lower - upper) / rate
    return None


def abs_pow_quadrature(
    fn: Callable[[np.ndarray], np.ndarray],
    power: float,
    weight_pow: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec,
    *,
    breaks: Sequence[float] | np.ndarray | None = None,
) -> float:
    """integral_lo^hi |fn(r)|^power r^weight_pow dr by one adaptive quadrature call.

    ``abs_pow_integral``'s integral of a run of segments without a closed
    form, and the integral of integrands that are no profile.
    ``breaks`` are the increasing points of (lo, hi) where the integrand is
    not smooth (knots, roots of fn); they become first-level panel edges.
    Under the substitution below a break b moves to s = (b/hi)^{weight_pow+1},
    and images that round together, or onto 0 or 1, are merged.  At lo = 0 a
    non-integer weight leaves a power x^k at 0 (k = weight_pow, or
    1/(weight_pow+1) in s), and the first level is graded toward 0 in
    quarter steps: with K = ceil(-log2(rel_tol)/(1+k)), the breaks
    first 4^-j, j = 1..ceil(K/2), in front of the smallest break (or the
    top) ``first``.  The smallest, at most first 2^-K, leaves less than
    rel_tol of the mass of x^k on [0, first] to the end panel, and G15
    integrates x^k on each panel [d/4, d] to 7.8e-16 relative for every k
    in (0, 13], so that end converges without refinement.  Integer weights
    get no grading.
    """
    scale, top, kink = 1.0, hi, weight_pow
    if lo == 0.0 and -1.0 < weight_pow < 0.0:
        # Substitute r = hi s^{1/(weight_pow+1)} to absorb the endpoint
        # singularity of the weight; s^{1/(weight_pow+1)} is left as a kink.
        wp1 = weight_pow + 1.0
        if breaks is not None:
            # Increasing breaks have nondecreasing images: equal ones are
            # neighbours.
            s = (np.asarray(breaks, dtype=float) / hi) ** wp1
            keep = (0.0 < s) & (s < 1.0)
            keep[1:] &= s[1:] != s[:-1]
            breaks = s[keep]

        def integrand(s):
            return np.abs(fn(hi * s ** (1.0 / wp1))) ** power

        scale, top, kink = hi**wp1 / wp1, 1.0, 1.0 / wp1
    else:

        def integrand(r):
            return np.abs(fn(r)) ** power * r**weight_pow

    if lo == 0.0 and kink > 0.0 and kink != math.floor(kink):
        # The integrand behaves like x^kink at 0: grade in front of the
        # smallest break (or the top).
        first = top if breaks is None or not len(breaks) else float(breaks[0])
        graded = quarter_steps(first, kink, spec.rel_tol)
        breaks = graded if breaks is None else np.concatenate((graded, breaks))
    # An overflow of |fn|^power ends in the engine's QuadratureError.
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * adaptive_gauss(integrand, lo, top, spec, breaks=breaks)


def quarter_steps(first: float, kink: float, rel_tol: float) -> np.ndarray:
    """first 4^-J, ..., first/16, first/4, J = ceil(K/2), K =
    ceil(-log2(rel_tol)/(1+kink)): the increasing distances from an end at
    which an integrand that behaves like x^kink there (x the distance) is
    graded toward it, ``first`` the distance of the nearest break.  K leaves
    less than rel_tol of the mass x^kink has on [0, first] in
    [0, first 2^-K], which holds [0, first 4^-J].  Distances below the
    normal range are dropped.  ``abs_pow_quadrature`` grades toward r = 0
    with it, ``moser1d`` a polyline's J toward a knot where it is 0.
    """
    k = math.ceil(-math.log2(rel_tol) / (1.0 + kink))
    graded = first * _HALVINGS[-k - k % 2 :: 2]
    return graded[graded >= _TINY]
