"""Log-radial profiles: J and the energy of each run of log-radial pieces
are one integral on radii, against 30-digit mpmath references.

``energy_change_of_variables`` maps the radial comparison solution w to
g(t) = scale w(R e^{-t/n}).  Its J and energy are compared with mpmath
integrals over r of the closed-form solution, on the whole half line and on
intervals that start or end inside the run.  The solution's own w and w',
and the ``rearrange --mode talenti`` values pinned in ``cli_golden.json``,
are checked against the same closed form.
"""

import bisect
import csv
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamskit import moser1d, profiles
from adamskit.constants import unit_ball_volume
from adamskit.moser1d import cc_functional, cc_integral, energy
from adamskit.profiles import LinearPiece, LogRadialRun, PiecewiseProfile
from adamskit.quadrature import adaptive_gauss
from adamskit.rearrange import (
    RadialProfile,
    SampledFunction,
    _ComparisonPiece,
    energy_change_of_variables,
    talenti_radial_solution,
)

J_TOL = 1e-11
ENERGY_TOL = 1e-12
DATA = Path(__file__).parent / "data"


class Radial:
    """30-digit w and -w' of a radial profile on [0, R], with the radii where
    it is not smooth, and J and the energy of g(t) = scale w(R e^{-t/n}) over
    [lo, hi] as integrals over r."""

    def __init__(self, n, m, big_r, scale, edges, w, minus_dw):
        self.n, self.big_r, self.scale = n, mpmath.mpf(big_r), mpmath.mpf(scale)
        self.q = mpmath.mpf(n) / (n - m)
        self.p = mpmath.mpf(n) / m
        self.edges, self.w, self.minus_dw = edges, w, minus_dw

    def _integral(self, f, lo, hi):
        r_lo = self.big_r * mpmath.exp(-mpmath.mpf(hi) / self.n) if hi < math.inf else mpmath.mpf(0)
        r_hi = self.big_r * mpmath.exp(-mpmath.mpf(lo) / self.n)
        points = [r_lo] + [e for e in self.edges if r_lo < e < r_hi] + [r_hi]
        return mpmath.quad(f, points)

    def functional(self, lo=0.0, hi=math.inf):
        """n R^{-n} integral e^{(scale w)^q} r^{n-1} dr."""
        with mpmath.workdps(30):
            n, q, scale = self.n, self.q, self.scale
            body = self._integral(lambda r: mpmath.exp((scale * self.w(r)) ** q) * r ** (n - 1), lo, hi)
            return float(n * self.big_r ** (-n) * body)

    def energy(self, lo=0.0, hi=math.inf):
        """n (scale/n)^p integral |w'|^p r^{p-1} dr."""
        with mpmath.workdps(30):
            n, p = self.n, self.p
            body = self._integral(lambda r: abs(self.minus_dw(r)) ** p * r ** (p - 1), lo, hi)
            return float(n * (abs(self.scale) / n) ** p * body)


def talenti_reference(cells, n, m, big_r, scale, padded):
    """``Radial`` of -laplacian(w) = f on the ball of radius R, w(R) = 0, for
    step data f with nonincreasing values: on the slab where f = f_i,
    -w'(r) = (A_i + f_i omega r^n) / (n omega r^{n-1}), A_i = F(S_i) - f_i S_i,
    S_i the measure inside the slab and F(s) the integral of f over it."""
    with mpmath.workdps(30):
        mpf = mpmath.mpf
        omega = mpmath.pi ** (mpf(n) / 2) / mpmath.gamma(mpf(n) / 2 + 1)
        R = mpf(big_r)
        slabs = []  # [r_lo, r_hi, f_i, A_i]
        s = big_f = r = mpf(0)
        for measure, value in cells:
            a = big_f - mpf(value) * s
            s += mpf(measure)
            big_f += mpf(value) * mpf(measure)
            r_hi = (s / omega) ** (1 / mpf(n))
            slabs.append([r, r_hi, mpf(value), a])
            r = r_hi
        if padded:
            slabs.append([r, R, mpf(0), big_f])
        slabs[-1][1] = R

    def slab(r):
        return next(i for i, sl in enumerate(slabs) if r <= sl[1])

    def minus_dw(r):
        _lo, _hi, f, a = slabs[slab(r)]
        return (a + f * omega * r**n) / (n * omega * r ** (n - 1))

    def primitive(i, r):  # of -w' on slab i
        _lo, _hi, f, a = slabs[i]
        singular = 0 if a == 0 else a / (n * omega) * (mpmath.log(r) if n == 2 else r ** (2 - n) / (2 - n))
        return singular + f * r**2 / (2 * n)

    def w(r):
        i = slab(r)
        outer = sum(primitive(j, slabs[j][1]) - primitive(j, slabs[j][0]) for j in range(i + 1, len(slabs)))
        return outer + primitive(i, slabs[i][1]) - primitive(i, r)

    edges = [sl[1] for sl in slabs[:-1]]
    return Radial(n, m, big_r, scale, edges, w, minus_dw)


def comparison_profile(n, m, big_r, values, shares, fill, target):
    """The library's g for step data on ``fill`` of the ball's volume, scaled
    so its energy is about ``target``, and the matching ``Radial``."""
    ball = unit_ball_volume(n) * big_r**n
    cells = [(fill * ball * share / sum(shares), v) for share, v in zip(shares, sorted(values, reverse=True))]

    def profile(cells):
        radial = talenti_radial_solution(SampledFunction(cells=tuple(cells)), n, big_r)
        return energy_change_of_variables(radial, m)

    # The energy is homogeneous of degree p = n/m in the data.
    factor = (target / energy(profile(cells), n / m)) ** (m / n)
    cells = [(measure, v * factor) for measure, v in cells]
    g = profile(cells)
    return g, talenti_reference(cells, n, m, big_r, g.tail.scale, padded=fill < 1.0)


def t_knots(run):
    """The run's knots in t: t = n log(R/r) of its radii, from R inward."""
    return (0.0, *(run.dim * math.log(run.big_r / r) for r in run.radii[-2:0:-1]))


def assert_close(got, want, tol):
    assert abs(got / want - 1.0) <= tol, (got, want, got / want - 1.0)


class TestComparisonRuns:
    @settings(max_examples=14, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 6),
        data=st.data(),
        big_r=st.floats(0.5, 2.0),
        values=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=8),
        shares=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8),
        fill=st.one_of(st.just(1.0), st.floats(0.3, 0.95)),
        target=st.floats(0.3, 0.95),
    )
    def test_against_mpmath(self, n, data, big_r, values, shares, fill, target):
        m = data.draw(st.integers(1, n - 1), label="m")
        g, ref = comparison_profile(n, m, big_r, values, shares[: len(values)], fill, target)
        run = g.tail  # the whole profile is one run
        assert isinstance(run, LogRadialRun)
        q, p = n / (n - m), n / m
        assert_close(cc_functional(g, q), ref.functional(), J_TOL)
        assert_close(energy(g, p), ref.energy(), ENERGY_TOL)
        # Intervals that start or end inside the run, between or at knots.
        t_end = t_knots(run)[-1] + 2.0
        lo = data.draw(st.floats(0.0, t_end), label="lo")
        hi = data.draw(st.one_of(st.just(math.inf), st.floats(lo + 0.05, t_end + 5.0)), label="hi")
        assert_close(cc_integral(g, q, lo, hi), ref.functional(lo, hi), J_TOL)
        assert_close(energy(g, p, (lo, hi)), ref.energy(lo, hi), ENERGY_TOL)

    def test_one_engine_call_each_for_j_and_energy(self, monkeypatch):
        calls = {"moser1d": 0, "profiles": 0}

        def counted(module):
            def gauss(*args, **kwargs):
                calls[module] += 1
                return adaptive_gauss(*args, **kwargs)

            return gauss

        monkeypatch.setattr(moser1d, "adaptive_gauss", counted("moser1d"))
        monkeypatch.setattr(profiles, "adaptive_gauss", counted("profiles"))
        for cells in (1, 4, 8):
            g, _ref = comparison_profile(4, 2, 1.0, [3.0 - 0.3 * i for i in range(cells)], [1.0] * cells, 0.8, 0.9)
            assert len(t_knots(g.tail)) == cells + 1  # cells + 1 pieces in one run
            calls.update(moser1d=0, profiles=0)
            cc_functional(g, 2.0)
            assert calls == {"moser1d": 1, "profiles": 1}, cells


class TestComparisonSolution:
    """w and w' of ``talenti_radial_solution`` pointwise (the pieces) and in
    batches (the run's ``w`` and ``dw``) against the 30-digit closed form."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_batch_is_finite_at_the_center(self, n):
        g, _ref = comparison_profile(n, 1, 1.0, [3.0, 1.0], [1.0, 1.0], 0.8, 0.9)
        r = np.array([0.0, 1e-300, 1e-5])
        assert np.all(np.isfinite(g.tail.w(r))), g.tail.w(r)
        assert np.all(np.isfinite(g.tail.dw(r))), g.tail.dw(r)

    @staticmethod
    def seeded(seed):
        """n, R, the cells and the solution of a seeded draw: n = 2..6 and 1-8
        cells filling the ball or part of it."""
        rng = np.random.default_rng(seed)
        n = 2 + seed % 5
        values = sorted(rng.uniform(0.1, 5.0, size=1 + seed % 8), reverse=True)
        shares = rng.uniform(0.05, 1.0, size=len(values))
        fill = 1.0 if seed % 2 else rng.uniform(0.3, 0.95)
        big_r = rng.uniform(0.5, 2.0)
        ball = unit_ball_volume(n) * big_r**n
        cells = [(fill * ball * share / shares.sum(), v) for share, v in zip(shares, values)]
        radial = talenti_radial_solution(SampledFunction(cells=tuple(cells)), n, big_r)
        return n, big_r, cells, radial

    @pytest.mark.parametrize("seed", range(40))
    def test_knots_and_midpoints(self, seed):
        n, big_r, cells, radial = self.seeded(seed)
        g = energy_change_of_variables(radial, 1)
        padded = len(radial.profile.pieces) > len(cells)
        ref = talenti_reference(cells, n, 1, big_r, 1.0, padded)
        knots = np.array(radial.profile.knots)
        r = np.concatenate([knots, (knots[:-1] + knots[1:]) / 2])
        with mpmath.workdps(30):
            w = np.array([float(ref.w(mpmath.mpf(x))) for x in r])
            dw = np.array([-float(ref.minus_dw(mpmath.mpf(x))) if x > 0 else 0.0 for x in r])
        tol = 1e-14 * np.abs(w).max()
        for got_w, got_dw in ((radial.profile.value, radial.profile.derivative), (g.tail.w, g.tail.dw)):
            assert np.abs(got_w(r) - w).max() <= tol
            assert np.abs(got_dw(r) - dw).max() <= tol

    @pytest.mark.parametrize("seed", range(60))
    def test_batch_equals_the_pieces(self, seed):
        # The gather takes _slab on arrays of coefficients, a piece on its
        # scalars, and numpy's powers round the two apart: by at most 1 u of
        # max|w| over 300 seeded profiles, and not at all in w'.
        _n, big_r, _cells, radial = self.seeded(seed)
        profile = radial.profile
        knots = np.array(profile.knots)
        r = np.concatenate((knots, np.random.default_rng(seed).uniform(0.0, big_r, 100)))
        i = [min(bisect.bisect_right(profile.knots, x) - 1, len(profile.pieces) - 1) for x in r]
        for method in ("value", "derivative"):
            want = np.array([float(getattr(profile.pieces[k], method)(x)) for k, x in zip(i, r)])
            got = getattr(profile, method)(r)
            assert np.abs(got - want).max() <= 2.0 * 2.0**-53 * np.abs(want).max(), method

    def test_j_and_energy_take_the_gather(self, monkeypatch):
        g, _ref = comparison_profile(4, 2, 1.0, [3.0, 2.0, 1.0], [1.0, 1.0, 1.0], 0.8, 0.9)
        want = cc_functional(g, 2.0), energy(g, 2.0)

        def refuse(self, r):
            raise AssertionError("a comparison slab evaluated piece by piece")

        monkeypatch.setattr(_ComparisonPiece, "value", refuse)
        monkeypatch.setattr(_ComparisonPiece, "derivative", refuse)
        assert (cc_functional(g, 2.0), energy(g, 2.0)) == want

    def test_one_gather_for_both_evaluators(self, monkeypatch):
        # The run takes w and w' from its source, each evaluator built on its
        # own first use over one shared gather of the slabs' coefficients.
        calls = []
        gather = _ComparisonPiece.gather

        def counted(pieces):
            calls.append(len(pieces))
            return gather(pieces)

        monkeypatch.setattr(_ComparisonPiece, "gather", staticmethod(counted))
        cells = ((0.5, 3.0), (0.5, 2.0), (0.5, 1.0))
        radial = talenti_radial_solution(SampledFunction(cells=cells), 4, 1.0)
        g = energy_change_of_variables(radial, 2)
        r = np.array([0.25, 0.5, 0.75])
        assert np.isfinite(g.tail.w(r)).all() and np.isfinite(g.tail.dw(r)).all()
        assert math.isfinite(energy(g, 2.0))
        assert calls == [len(radial.profile.pieces)]

    def test_talenti_golden(self):
        """Every radius and value that ``rearrange --mode talenti --n 3
        --radius 1`` prints for ``cells.csv``, as pinned, within 1e-14 of
        the 30-digit solution."""
        pinned = json.loads((DATA / "cli_golden.json").read_text())
        stdout = pinned["rearrange --input cells.csv --mode talenti --n 3 --radius 1"]["stdout"]
        rows = [(float(r), float(v)) for r, v in list(csv.reader(stdout.splitlines()))[1:]]
        with (DATA / "cells.csv").open(newline="") as handle:
            cells = [(float(m), abs(float(v))) for m, v in list(csv.reader(handle))[1:]]
        cells.sort(key=lambda cell: -cell[1])  # the decreasing rearrangement
        ref = talenti_reference(cells, 3, 1, 1.0, 1.0, padded=True)
        with mpmath.workdps(30):
            radii = [mpmath.mpf(0), *ref.edges, mpmath.mpf(1)]
            assert len(rows) == len(radii)
            for (r, v), want_r in zip(rows, radii):
                assert abs(r - want_r) <= 1e-15 * want_r, (r, want_r)
                want = ref.w(mpmath.mpf(r))
                assert abs(v - want) <= 1e-14 * abs(want), (r, v, want)


class TestOtherSources:
    def test_linear_sources_take_the_per_piece_gather(self):
        # w falls linearly to 0 at R = 1 through two kinks; its energy is 0.8.
        n, m = 4, 2
        knots = (0.0, 0.3, 0.7, 1.0)

        def profile(values):
            pieces = []
            for r0, r1, w0, w1 in zip(knots, knots[1:], values, values[1:]):
                slope = (w1 - w0) / (r1 - r0)
                pieces.append(LinearPiece(intercept=w0 - slope * r0, slope=slope))
            radial = RadialProfile(radius=1.0, dimension=n, profile=PiecewiseProfile(knots, tuple(pieces)))
            return energy_change_of_variables(radial, m), pieces

        values = np.array([1.0, 0.8, 0.3, 0.0])
        g, _pieces = profile(values)
        g, pieces = profile(values * math.sqrt(0.8 / energy(g, 2.0)))  # energy is quadratic in w

        def piece(r):
            return pieces[min(np.searchsorted(knots, float(r), side="right") - 1, 2)]

        def w(r):
            return piece(r).intercept + piece(r).slope * r

        ref = Radial(n, m, 1.0, g.tail.scale, knots[1:-1], w, lambda r: -piece(r).slope)
        q, p = n / (n - m), n / m
        assert_close(energy(g, p), ref.energy(), ENERGY_TOL)
        assert_close(cc_functional(g, q), ref.functional(), J_TOL)
        assert_close(cc_integral(g, q, 0.5, 3.0), ref.functional(0.5, 3.0), J_TOL)
