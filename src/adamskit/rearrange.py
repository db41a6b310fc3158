"""Decreasing rearrangement, radial symmetrization, and the explicit
radial comparison solution.

Simple functions are kept as (measure, value) cells, so rearrangement is
exact sorting and the double integral defining the radial comparison
solution evaluates in closed form slab by slab: where the data is a
constant f, w(r) = w(r_hi) + b (x(r) - x(r_hi)) + c (r_hi^2 - r^2) with
x = r^{2-n} (log r at n = 2).  ``_slab`` is that formula and its
derivative, for one slab's coefficients or for arrays of them gathered per
point.  It gives the slab tops at construction, the pointwise values and
derivatives of the pieces, and ``_ComparisonPiece.gather``, with which a
``PiecewiseProfile`` of slabs evaluates a batch of radii, so the J and
energy integrals of ``energy_change_of_variables``'s ``LogRadialRun`` take
one gather per engine level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import AdamsParams, beta0, unit_ball_volume
from .errors import DomainError, MonotonicityError
from .profiles import LogRadialRun, Piece, PiecewiseProfile, constant_piece


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


def _slab(n: int, big_a, c, top, r_hi, r, derivative: bool = False):
    """w(r), or w'(r) if ``derivative``, on a slab of the radial comparison
    solution where the data has a constant value f.

    Over the slab -w'(r) = (F(s_lo) + f (omega r^n - s_lo)) / (n omega r^{n-1})
    with F(s) the integral of the data inside volume s, so with
    A = (F(s_lo) - f s_lo)/(n omega) and c = f/(2n)

        w(r) = top + b (x(r) - x(r_hi)) + c (r_hi^2 - r^2),
        w'(r) = -(A r^{1-n} + 2 c r),

    top = w(r_hi), x = r^{2-n} and b = A/(n-2) (x = log r and b = -A at
    n = 2).  The coefficients are one slab's scalars or arrays gathered per
    point.  A = 0 on the innermost slab, where r may be 0: there the A term
    is taken at r_hi, where it is 0.
    """
    r = np.asarray(r, dtype=float)
    r_a = np.where(big_a == 0.0, r_hi, r)
    if derivative:
        return -(big_a * r_a ** (1.0 - n) + 2.0 * c * r)
    if n == 2:
        rise = -big_a * np.log(r_a / r_hi)
    else:
        rise = big_a / (n - 2.0) * (r_a ** (2.0 - n) - r_hi ** (2.0 - n))
    return top + (rise + c * (r_hi * r_hi - r * r))


@dataclass(frozen=True)
class _ComparisonPiece(Piece):
    """w on one slab of the radial comparison solution, as ``_slab``'s
    coefficients: A, c, top = w(r_hi) and the slab's outer radius r_hi."""

    n: int
    big_a: float
    c: float
    top: float
    r_hi: float
    kind = "radial-comparison"

    def value(self, r):
        return _slab(self.n, self.big_a, self.c, self.top, self.r_hi, r)

    def derivative(self, r):
        return _slab(self.n, self.big_a, self.c, self.top, self.r_hi, r, derivative=True)

    @staticmethod
    def gather(pieces):
        """``_slab`` on the gathered coefficients of the slabs ``pieces``."""
        n = pieces[0].n
        big_a, c, top, r_hi = np.array([(p.big_a, p.c, p.top, p.r_hi) for p in pieces]).T

        def value(i, r):
            return _slab(n, big_a[i], c[i], top[i], r_hi[i], r)

        def derivative(i, r):
            return _slab(n, big_a[i], c[i], top[i], r_hi[i], r, derivative=True)

        return value, derivative


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

    # Slab coefficients, F(s_lo) the integral of the data inside each slab.
    edges, f = np.array(edges), np.array(slab_values)
    inner_integral = np.append(0.0, np.cumsum(f * np.diff(edges))[:-1])
    big_a, c = (inner_integral - f * edges[:-1]) / (n * omega), f / (2.0 * n)
    radii = np.array([(s / omega) ** (1.0 / n) for s in edges.tolist()])
    radii[0], radii[-1] = 0.0, big_r  # exactly, so the profile spans [0, R]
    # w(r_hi) from the boundary inward: the rises w(r_lo) - w(r_hi) of the
    # slabs outside, summed.
    rises = _slab(n, big_a, c, 0.0, radii[1:], radii[:-1])
    tops = np.append(np.cumsum(rises[:0:-1])[::-1], 0.0)
    slabs = zip(big_a.tolist(), c.tolist(), tops.tolist(), radii[1:].tolist())
    pieces = tuple(_ComparisonPiece(n, *slab) for slab in slabs)
    profile = PiecewiseProfile(knots=tuple(radii.tolist()), pieces=pieces, tail=None)
    return RadialProfile(radius=big_r, dimension=n, profile=profile)


def energy_change_of_variables(profile: RadialProfile, m: int) -> PiecewiseProfile:
    """g(t) = beta0(m, n)^{(n-m)/n} w(R e^{-t/n}) on [0, infinity), one
    ``LogRadialRun`` tail.

    The run's radii are the source's knots, and its w and w' the source's
    batch evaluator.  A source built without its continuity check
    (``symmetrize``'s steps) is checked here.
    """
    n = profile.dimension
    params = AdamsParams(m, n)  # validates m < n
    scale = beta0(params) ** ((n - m) / n)
    big_r = profile.radius
    source = profile.profile
    if source.knots[0] != 0.0 or abs(source.knots[-1] - big_r) > 1e-12 * big_r:
        raise DomainError("radial profile must span [0, R]")
    if not source.check_continuity:
        source._check_continuity()
    run = LogRadialRun(scale, big_r, n, np.array(source.knots), source._value_batch, source._derivative_batch)
    return PiecewiseProfile(knots=(0.0,), pieces=(), tail=run)
