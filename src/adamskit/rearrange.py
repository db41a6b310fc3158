"""Decreasing rearrangement, radial symmetrization, and the explicit
radial comparison solution.

Simple functions are kept as (measure, value) cells, so rearrangement is
exact sorting and the double integral defining the radial comparison
solution evaluates in closed form piece by piece (the inner integral of a
step function is piecewise linear; the outer integrand s^{2/n-2} times a
linear factor has an elementary antiderivative).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import AdamsParams, beta0, unit_ball_volume
from .errors import DomainError, MonotonicityError
from .profiles import (
    FuncPiece,
    LogRadialPiece,
    Piece,
    PiecewiseProfile,
    constant_piece,
)


@dataclass(frozen=True)
class SampledFunction:
    """Simple function as (measure, value) cells on an abstract measure space."""

    cells: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        cells = tuple((float(m), float(v)) for m, v in self.cells)
        object.__setattr__(self, "cells", cells)
        if not cells:
            raise DomainError("a sampled function needs at least one cell")
        if not all(math.isfinite(m) and math.isfinite(v) for m, v in cells):
            raise DomainError("cell measures and values must be finite")
        if any(m <= 0.0 for m, _v in cells):
            raise DomainError("cell measures must be positive")

    @property
    def total_measure(self) -> float:
        return math.fsum(m for m, _v in self.cells)

    def p_norm_pth_power(self, p: float) -> float:
        """sum_i mu_i |v_i|^p (exact up to one rounding per term)."""
        return math.fsum(m * abs(v) ** p for m, v in self.cells)

    def measure_above(self, t: float) -> float:
        """|{ |f| > t }|."""
        return math.fsum(m for m, v in self.cells if abs(v) > t)


@dataclass(frozen=True)
class RadialProfile:
    """Radial function value(|x|) on the ball of the given radius."""

    radius: float
    dimension: int
    profile: PiecewiseProfile

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise DomainError(f"dimension must be >= 2, got {self.dimension}")
        if not self.radius > 0.0:
            raise DomainError(f"radius must be positive, got {self.radius}")

    def value(self, r):
        return self.profile.value(r)


def decreasing_rearrangement(f: SampledFunction) -> SampledFunction:
    """Cells of |f| sorted by value descending (ties keep input order)."""
    order = sorted(
        range(len(f.cells)), key=lambda i: (-abs(f.cells[i][1]), i)
    )
    return SampledFunction(
        cells=tuple((f.cells[i][0], abs(f.cells[i][1])) for i in order)
    )


def symmetrize(f: SampledFunction, n: int) -> RadialProfile:
    """Radial nonincreasing step function equimeasurable with |f|.

    Lives on the ball whose volume is the total measure; the plateau of the
    i-th largest value ends at radius (cumulative measure / omega_n)^{1/n}.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    sharp = decreasing_rearrangement(f)
    omega = unit_ball_volume(n)
    cumulative = np.cumsum([m for m, _v in sharp.cells])
    radii = (cumulative / omega) ** (1.0 / n)
    knots = (0.0, *map(float, radii))
    pieces = tuple(constant_piece(v) for _m, v in sharp.cells)
    profile = PiecewiseProfile(
        knots=knots, pieces=pieces, tail=None, check_continuity=False
    )
    return RadialProfile(radius=float(radii[-1]), dimension=n, profile=profile)


class _SlabIntegral:
    """Antiderivative of s^{2/n-2} (A + c s), the outer integrand over one
    volume slab where the step data has constant value."""

    def __init__(self, n: int, a: float, c: float):
        self.n = n
        self.a = a
        self.c = c

    def antiderivative(self, s):
        s = np.asarray(s, dtype=float)
        n = self.n
        if n == 2:
            # a == 0 exactly on the innermost slab, where s may be 0.
            a_term = self.a * np.log(s) if self.a != 0.0 else np.zeros_like(s)
            return a_term + self.c * s
        if self.a == 0.0:
            a_term = np.zeros_like(s)
        else:
            a_term = self.a * s ** (2.0 / n - 1.0) / (2.0 / n - 1.0)
        return a_term + self.c * s ** (2.0 / n) / (2.0 / n)

    def between(self, s_lo, s_hi):
        return self.antiderivative(s_hi) - self.antiderivative(s_lo)


@dataclass(frozen=True)
class _ComparisonPiece(Piece):
    """v(r) on one annulus, via the closed-form outer integral.

    value(r) = tail_value + int_{omega r^n}^{s_hi} s^{2/n-2} F(s) ds / (n^2 omega^{2/n})
    with F(s) = f_val (s - s_lo) + f_accum on the slab [s_lo, s_hi].
    """

    n: int
    omega: float
    s_lo: float
    s_hi: float
    f_val: float
    f_accum: float
    tail_value: float
    kind = "radial-comparison"

    def _norm(self) -> float:
        return 1.0 / (self.n**2 * self.omega ** (2.0 / self.n))

    def _slab(self) -> _SlabIntegral:
        return _SlabIntegral(
            self.n, self.f_accum - self.f_val * self.s_lo, self.f_val
        )

    def value(self, r):
        s = self.omega * np.asarray(r, dtype=float) ** self.n
        return self.tail_value + self._norm() * self._slab().between(s, self.s_hi)

    def derivative(self, r):
        # v'(r) = -(1/(n omega)) r^{1-n} F(omega r^n) with
        # F(s) = a + f_val s, a = f_accum - f_val s_lo; a vanishes on the
        # innermost slab, killing the r^{1-n} factor there.
        r = np.asarray(r, dtype=float)
        a = self.f_accum - self.f_val * self.s_lo
        singular = a * r ** (1.0 - self.n) if a != 0.0 else np.zeros_like(r)
        return -(singular + self.f_val * self.omega * r) / (self.n * self.omega)

    def second_derivative(self, r):
        r = np.asarray(r, dtype=float)
        a = self.f_accum - self.f_val * self.s_lo
        singular = a * r**-self.n if a != 0.0 else np.zeros_like(r)
        return (self.n - 1.0) / (self.n * self.omega) * singular - self.f_val / self.n


def talenti_radial_solution(
    f_sharp: SampledFunction, n: int, big_r: float
) -> RadialProfile:
    """Radial solution v with -laplacian(v) = f_sharp(omega |x|^n), v(R) = 0.

    The data must already be nonincreasing; its total measure must fit in
    the ball of radius ``big_r``.  The double integral is evaluated in
    closed form slab by slab, from the boundary inward.
    """
    if n < 2:
        raise DomainError(f"dimension must be >= 2, got {n}")
    if not big_r > 0.0:
        raise DomainError(f"radius must be positive, got {big_r}")
    values = [v for _m, v in f_sharp.cells]
    if any(b > a + 1e-15 * max(1.0, abs(a)) for a, b in zip(values, values[1:])):
        raise MonotonicityError("rearranged data must be nonincreasing")
    omega = unit_ball_volume(n)
    s_ball = omega * big_r**n
    total = f_sharp.total_measure
    if total > s_ball * (1.0 + 1e-12):
        raise DomainError(
            f"data of measure {total} does not fit in a ball of measure {s_ball}"
        )

    # Volume slabs [s_i, s_{i+1}] with constant data value, padded with a
    # zero-data slab out to the ball boundary.
    edges = [0.0]
    slab_values = []
    accum = 0.0
    for m, v in f_sharp.cells:
        accum += m
        edges.append(min(accum, s_ball))
        slab_values.append(v)
    if edges[-1] < s_ball * (1.0 - 1e-15) or len(edges) == 1:
        edges.append(s_ball)
        slab_values.append(0.0)
    else:
        edges[-1] = s_ball

    # Cumulative inner integral F at slab edges.
    f_at_edges = [0.0]
    for (lo, hi), v in zip(zip(edges[:-1], edges[1:]), slab_values):
        f_at_edges.append(f_at_edges[-1] + v * (hi - lo))

    # Accumulate the outer integral from the boundary inward.
    pieces_rev: list[_ComparisonPiece] = []
    norm = 1.0 / (n**2 * omega ** (2.0 / n))
    tail_value = 0.0
    for i in range(len(slab_values) - 1, -1, -1):
        s_lo, s_hi = edges[i], edges[i + 1]
        piece = _ComparisonPiece(
            n=n,
            omega=omega,
            s_lo=s_lo,
            s_hi=s_hi,
            f_val=slab_values[i],
            f_accum=f_at_edges[i],
            tail_value=tail_value,
        )
        pieces_rev.append(piece)
        slab = _SlabIntegral(n, f_at_edges[i] - slab_values[i] * s_lo, slab_values[i])
        tail_value += norm * slab.between(s_lo, s_hi)

    radii = [(s / omega) ** (1.0 / n) for s in edges]
    radii[0] = 0.0
    profile = PiecewiseProfile(
        knots=tuple(radii), pieces=tuple(reversed(pieces_rev)), tail=None
    )
    return RadialProfile(radius=big_r, dimension=n, profile=profile)


def radial_laplacian(profile: RadialProfile) -> PiecewiseProfile:
    """r -> u''(r) + (n-1) u'(r)/r per piece, on open pieces only.

    Evaluation at a knot (or outside the domain) raises, since the radial
    laplacian may jump there.
    """
    n = profile.dimension

    def make_piece(piece: Piece) -> FuncPiece:
        def fn(r, piece=piece):
            r = np.asarray(r, dtype=float)
            return piece.second_derivative(r) + (n - 1.0) * piece.derivative(r) / r

        return FuncPiece(fn=fn)

    return PiecewiseProfile(
        knots=profile.profile.knots,
        pieces=tuple(make_piece(piece) for piece in profile.profile.pieces),
        tail=None,
        strict_interior=True,
        check_continuity=False,
    )


def energy_change_of_variables(profile: RadialProfile, m: int) -> PiecewiseProfile:
    """g(t) = beta0(m, n)^{(n-m)/n} w(R e^{-t/n}) on [0, infinity).

    The innermost radial piece becomes the tail; derivatives come from the
    chain rule inside each mapped piece.
    """
    n = profile.dimension
    params = AdamsParams(m, n)  # validates m < n
    scale = beta0(params) ** ((n - m) / n)
    big_r = profile.radius
    source = profile.profile
    if abs(source.knots[0]) > 1e-15 or abs(source.knots[-1] - big_r) > 1e-12 * big_r:
        raise DomainError("radial profile must span [0, R]")

    mapped = [
        LogRadialPiece(source=piece, scale=scale, big_r=big_r, dim=n)
        for piece in reversed(source.pieces)
    ]
    t_knots = [0.0] + [n * math.log(big_r / r) for r in reversed(source.knots[1:-1])]
    return PiecewiseProfile(knots=tuple(t_knots), pieces=tuple(mapped[:-1]), tail=mapped[-1])
