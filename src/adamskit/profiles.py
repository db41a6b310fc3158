"""Piecewise analytic profiles on an interval or half line.

A profile is a list of increasing knots, one analytic piece per gap, and an
optional tail piece on [last knot, infinity).  Pieces expose vectorized
value and derivative.  ``abs_pow_integral`` is the one integral of
|h|^power r^weight over a profile or its derivative, for the energies of
``moser1d`` and the weighted norms of ``hardy`` alike: it walks the
segments once, sums ``abs_pow_closed_form`` wherever the piece type has a
closed form and integrates the remaining runs of segments with
``abs_pow_quadrature``, breaking at their knots and roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, NonSmoothError
from .quadrature import QuadratureSpec, adaptive_gauss, power_integral

_CONTINUITY_TOL = 1e-10
_TINY = np.finfo(float).tiny


class Piece:
    """One analytic segment, in global coordinates."""

    kind = "abstract"

    def value(self, t):  # pragma: no cover - interface
        raise NotImplementedError

    def derivative(self, t):  # pragma: no cover - interface
        raise NotImplementedError

    def second_derivative(self, t):
        raise NonSmoothError(f"{self.kind} piece has no second derivative")

    def params(self) -> dict:
        return {}


@dataclass(frozen=True)
class LinearPiece(Piece):
    """intercept + slope * t."""

    intercept: float
    slope: float
    kind = "linear"

    def value(self, t):
        return self.intercept + self.slope * np.asarray(t, dtype=float)

    def derivative(self, t):
        return np.full_like(np.asarray(t, dtype=float), self.slope)

    def second_derivative(self, t):
        return np.zeros_like(np.asarray(t, dtype=float))

    def params(self) -> dict:
        return {"intercept": self.intercept, "slope": self.slope}


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

    def second_derivative(self, t):
        e = self.exponent
        return self.coeff * e * (e - 1.0) * (np.asarray(t, dtype=float) - self.shift) ** (e - 2.0)

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


@dataclass(frozen=True)
class FuncPiece(Piece):
    """Callable-backed piece; derivatives must be supplied when needed."""

    fn: Callable[[np.ndarray], np.ndarray]
    dfn: Callable[[np.ndarray], np.ndarray] | None = None
    d2fn: Callable[[np.ndarray], np.ndarray] | None = None
    kind = "callable"

    def value(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def derivative(self, t):
        if self.dfn is None:
            raise NonSmoothError("callable piece has no derivative attached")
        return self.dfn(np.asarray(t, dtype=float))

    def second_derivative(self, t):
        if self.d2fn is None:
            raise NonSmoothError("callable piece has no second derivative attached")
        return self.d2fn(np.asarray(t, dtype=float))


@dataclass(frozen=True)
class LogRadialPiece(Piece):
    """Radial piece seen through r = R e^{-t/n}, scaled by a constant.

    g(t) = scale * w(R e^{-t/n}).  Keeps the source piece so integrals can
    be pulled back to the bounded radial domain (exact treatment of the
    t -> infinity end).
    """

    source: Piece
    scale: float
    big_r: float
    dim: int
    kind = "radial-log"

    def radius(self, t):
        return self.big_r * np.exp(-np.asarray(t, dtype=float) / self.dim)

    def value(self, t):
        return self.scale * self.source.value(self.radius(t))

    def derivative(self, t):
        r = self.radius(t)
        return -self.scale * self.source.derivative(r) * r / self.dim


@dataclass(frozen=True)
class PiecewiseProfile:
    """Continuous piecewise function on [knots[0], knots[-1]] or [knots[0], inf).

    ``strict_interior`` makes evaluation at knots (and outside the domain)
    raise, for derived profiles that are only defined inside open pieces.
    """

    knots: tuple[float, ...]
    pieces: tuple[Piece, ...]
    tail: Piece | None = None
    strict_interior: bool = False
    check_continuity: bool = True
    _knots_arr: np.ndarray = field(init=False, repr=False, compare=False)
    _segments: tuple[Piece, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots = tuple(float(k) for k in self.knots)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        arr = np.asarray(knots, dtype=float)
        object.__setattr__(self, "_knots_arr", arr)
        tail = () if self.tail is None else (self.tail,)
        object.__setattr__(self, "_segments", self.pieces + tail)
        if len(knots) != len(self.pieces) + 1:
            raise DomainError(
                f"need len(knots) == len(pieces) + 1, got {len(knots)} and {len(self.pieces)}"
            )
        if np.any(np.diff(arr) <= 0):
            raise DomainError("knots must be strictly increasing")
        if self.check_continuity:
            self._check_continuity()

    def _check_continuity(self) -> None:
        for i in range(1, len(self._segments)):
            k = self.knots[i]
            left = float(np.asarray(self._segments[i - 1].value(k)))
            right = float(np.asarray(self._segments[i].value(k)))
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

    def _piece_index(self, t: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._knots_arr, t, side="right") - 1
        return np.clip(idx, 0, len(self._segments) - 1)

    def _apply(self, t, method: str):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        below = t_arr < self.knots[0]
        above = t_arr > self.knots[-1]
        if np.any(below) or (self.tail is None and np.any(above)):
            raise DomainError(f"evaluation outside profile domain [{self.knots[0]}, ...]")
        if self.strict_interior:
            at_knot = np.isin(t_arr, self._knots_arr)
            if np.any(at_knot):
                raise NonSmoothError(
                    f"evaluation at knot(s) {t_arr[at_knot]} interior to no piece"
                )
        out = np.empty_like(t_arr)
        idx = self._piece_index(t_arr)
        for i in np.unique(idx):
            mask = idx == i
            out[mask] = getattr(self._segments[i], method)(t_arr[mask])
        if np.isscalar(t) or np.asarray(t).ndim == 0:
            return float(out[0])
        return out

    def value(self, t):
        return self._apply(t, "value")

    def derivative(self, t):
        return self._apply(t, "derivative")

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


def piecewise_linear(ts: Sequence[float], ys: Sequence[float], *, constant_tail: bool = True) -> PiecewiseProfile:
    """Polyline through (ts, ys), optionally continued as a constant."""
    ts = [float(x) for x in ts]
    ys = [float(y) for y in ys]
    if len(ts) != len(ys) or len(ts) < 2:
        raise DomainError("piecewise_linear needs matching arrays of length >= 2")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise DomainError("knots must be strictly increasing")
    pieces = []
    for i in range(len(ts) - 1):
        slope = (ys[i + 1] - ys[i]) / (ts[i + 1] - ts[i])
        pieces.append(LinearPiece(intercept=ys[i] - slope * ts[i], slope=slope))
    tail = constant_piece(ys[-1]) if constant_tail else None
    return PiecewiseProfile(knots=tuple(ts), pieces=tuple(pieces), tail=tail)


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
    the run's interior knots and the roots of its linear pieces' values.
    ``DomainError`` when such a segment reaches infinity.
    """
    total = 0.0
    runs: list[list[float]] = []  # the edges of each run, ends included
    for seg_lo, seg_hi, piece in g.segments():
        a, b = max(seg_lo, lo), min(seg_hi, hi)
        closed = abs_pow_closed_form(piece, power, weight_pow, a, b, spec, derivative=derivative)
        if closed is not None:
            total += closed
            continue
        if math.isinf(b):
            raise DomainError(f"cannot integrate a {piece.kind} piece over an unbounded interval")
        if not runs or runs[-1][-1] != a:  # a closed-form segment ended the last run
            runs.append([a])
        if not derivative and isinstance(piece, LinearPiece) and piece.slope != 0.0:
            # |value|^power stops being smooth at the root.
            root = -piece.intercept / piece.slope
            if a < root < b:
                runs[-1].append(root)
        runs[-1].append(b)
    fn = g.derivative if derivative else g.value
    for edges in runs:
        total += abs_pow_quadrature(
            fn, power, weight_pow, edges[0], edges[-1], spec, breaks=edges[1:-1]
        )
    return total


def abs_pow_closed_form(
    piece: Piece,
    power: float,
    weight_pow: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec,
    *,
    derivative: bool = False,
) -> float | None:
    """``abs_pow_integral`` of one piece on [lo, hi] in closed form, or None
    where the piece has none.

    Closed forms: an empty interval, a constant integrand (a linear
    derivative, a constant value, zero) and a power of (r - shift) at any
    weight when the shift is 0, else at weight 0; at weight 0 also the
    saturating exponential's derivative and the log-radial derivative,
    pulled back to radii (so hi may be inf).
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
    elif derivative and weight_pow == 0.0:
        if isinstance(piece, ExpApproachPiece):
            rate = piece.rate * power
            c = abs(piece.amplitude * piece.rate) ** power
            upper = 0.0 if math.isinf(hi) else math.exp(-rate * (hi - piece.anchor))
            lower = math.exp(-rate * (lo - piece.anchor))
            return c * (lower - upper) / rate
        if isinstance(piece, LogRadialPiece):
            # dt = -n dr / r and |g'(t)|^p = (scale r |w'(r)| / n)^p, so the
            # t -> inf end becomes the bounded endpoint r -> 0.
            n = piece.dim
            r_hi = 0.0 if math.isinf(hi) else piece.big_r * math.exp(-hi / n)
            r_lo = piece.big_r * math.exp(-lo / n)
            dw = piece.source.derivative
            radial = abs_pow_quadrature(dw, power, power - 1.0, r_hi, r_lo, spec)
            return n * (abs(piece.scale) / n) ** power * radial
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
    ``breaks`` are the points of (lo, hi) where the integrand is not smooth
    (knots, roots of fn); they become first-level panel edges.  Under the
    substitution below a break b moves to s = (b/hi)^{weight_pow+1}, and
    images that round together, or onto 0 or 1, are merged.  At lo = 0 a
    non-integer weight leaves a power x^k at 0 (k = weight_pow, or
    1/(weight_pow+1) in s), and the first level is graded toward 0 with
    K = ceil(-log2(rel_tol)/(1+k)) halvings of the smallest break, so that
    end converges without refinement.  Integer weights get no grading.
    """
    scale, top, kink = 1.0, hi, weight_pow
    if lo == 0.0 and -1.0 < weight_pow < 0.0:
        # Substitute r = hi s^{1/(weight_pow+1)} to absorb the endpoint
        # singularity of the weight; s^{1/(weight_pow+1)} is left as a kink.
        wp1 = weight_pow + 1.0
        if breaks is not None:
            s = np.unique((np.asarray(breaks, dtype=float) / hi) ** wp1)
            breaks = s[(0.0 < s) & (s < 1.0)]

        def integrand(s):
            return np.abs(fn(hi * s ** (1.0 / wp1))) ** power

        scale, top, kink = hi**wp1 / wp1, 1.0, 1.0 / wp1
    else:

        def integrand(r):
            return np.abs(fn(r)) ** power * r**weight_pow

    if lo == 0.0 and kink > 0.0 and kink != math.floor(kink):
        # The integrand behaves like x^kink at 0: put the breaks first 2^-K,
        # ..., first/4, first/2 in front of the smallest break (or the top).
        # On each panel [d/2, d] the power is smooth, and K leaves less than
        # rel_tol of the mass x^kink has on [0, first] in [0, first 2^-K].
        first = top if breaks is None or not len(breaks) else float(breaks[0])
        k = math.ceil(-math.log2(spec.rel_tol) / (1.0 + kink))
        graded = first * 0.5 ** np.arange(k, 0, -1)
        graded = graded[graded >= _TINY]  # below the normal range: dropped
        breaks = graded if breaks is None else np.concatenate((graded, breaks))
    # An overflow of |fn|^power ends in the engine's QuadratureError.
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * adaptive_gauss(integrand, lo, top, spec, breaks=breaks)
