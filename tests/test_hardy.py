"""Hardy sandwiches, probes, and the iterated-laplacian constants."""

import math
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from adamskit.constants import AdamsParams, beta0_product_form, unit_sphere_area
import adamskit.hardy as hardy_module
import adamskit.profiles as profiles_module
from adamskit.errors import DegenerateTrialError, DomainError, InfeasibleError, QuadratureError
from adamskit.hardy import (
    HardySetup,
    Side,
    b_constant,
    iterated_constant,
    k_factor,
    near_extremal_power_trial,
    rayleigh_probe,
    sandwich,
    second_order_constant,
    second_order_probe,
    second_order_trial_ratio,
    trial_ratio,
)
from adamskit.profiles import PiecewiseProfile, constant_piece, piecewise_linear
from adamskit.quadrature import DEFAULT_SPEC


def balanced_left(p: float, alpha: float, R: float = 1.0) -> HardySetup:
    """p = q = alpha - theta, the case with R-independent closed forms."""
    return HardySetup(p=p, q=p, alpha=alpha, theta=alpha - p, R=R, side=Side.LEFT_VANISHING)


class TestKFactor:
    def test_diagonal_identity(self):
        # k(p, p) = p (p-1)^{-(p-1)/p}; at p = 2 this is exactly 2.
        for p in (2.0, 3.0, 5.0):
            assert k_factor(p, p) == pytest.approx(
                p * (p - 1.0) ** (-(p - 1.0) / p), rel=1e-13
            )
        assert k_factor(2.0, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_at_least_one_on_grid(self):
        for p in np.linspace(1.1, 10.0, 12):
            for q in np.linspace(1.1, 10.0, 12):
                assert k_factor(float(q), float(p)) >= 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            k_factor(1.0, 2.0)
        with pytest.raises(DomainError):
            k_factor(2.0, 0.5)


class TestBConstant:
    def test_balanced_left_closed_form(self):
        # (p-1)^{(p-1)/p} / (p - 1 - alpha), independent of R.
        for p, alpha in ((2.0, -1.0), (3.0, 0.5), (2.5, -4.0)):
            expected = (p - 1.0) ** ((p - 1.0) / p) / (p - 1.0 - alpha)
            for R in (0.5, 1.0, 10.0):
                setup = balanced_left(p, alpha, R)
                assert b_constant(setup) == pytest.approx(expected, rel=1e-12)

    def test_balanced_right_closed_form(self):
        # (p-1)^{(p-1)/p} / (alpha - p + 1) (corrected sign; the product
        # of the general sandwich with p/(alpha-p+1) must give 1/(m-1) in
        # the odd iteration step).
        for p, alpha in ((2.5, 4.0), (2.0, 3.5)):
            setup = HardySetup(
                p=p, q=p, alpha=alpha, theta=alpha - p, R=1.7, side=Side.RIGHT_VANISHING
            )
            expected = (p - 1.0) ** ((p - 1.0) / p) / (alpha - p + 1.0)
            assert b_constant(setup) == pytest.approx(expected, rel=1e-12)

    def test_balanced_right_against_grid_scan(self):
        p, alpha = 2.5, 4.0
        setup = HardySetup(
            p=p, q=p, alpha=alpha, theta=alpha - p, R=1.7, side=Side.RIGHT_VANISHING
        )
        xs = np.linspace(1e-6, setup.R * (1 - 1e-9), 200_000)
        ev2 = (alpha - p + 1.0) / (p - 1.0)
        w = xs ** (setup.theta + 1.0) / (setup.theta + 1.0)
        v = (xs**-ev2 - setup.R**-ev2) / ev2
        scan = np.max(w ** (1.0 / p) * v ** ((p - 1.0) / p))
        assert b_constant(setup) == pytest.approx(float(scan), rel=1e-6)

    def test_general_cases_against_grid_scan(self):
        # Unbalanced exponents, both sides, against a dense-scan oracle.
        cases = [
            HardySetup(p=2.0, q=3.0, alpha=-0.5, theta=0.4, R=2.0, side=Side.LEFT_VANISHING),
            HardySetup(p=2.0, q=2.0, alpha=0.3, theta=-0.2, R=0.8, side=Side.LEFT_VANISHING),
            HardySetup(p=1.5, q=2.5, alpha=-2.0, theta=-1.0, R=1.0, side=Side.LEFT_VANISHING),
            HardySetup(p=2.0, q=4.0, alpha=2.0, theta=1.5, R=3.0, side=Side.RIGHT_VANISHING),
            HardySetup(p=3.0, q=3.0, alpha=4.0, theta=1.2, R=1.0, side=Side.RIGHT_VANISHING),
        ]
        for setup in cases:
            xs = np.linspace(setup.R * 1e-7, setup.R * (1 - 1e-7), 300_000)
            if setup.side is Side.LEFT_VANISHING:
                if setup.theta == -1.0:
                    w = np.log(setup.R / xs)
                else:
                    w = (setup.R ** (setup.theta + 1) - xs ** (setup.theta + 1)) / (
                        setup.theta + 1
                    )
                ev = (setup.p - 1.0 - setup.alpha) / (setup.p - 1.0)
                v = xs**ev / ev
            else:
                w = xs ** (setup.theta + 1) / (setup.theta + 1)
                ev2 = (setup.alpha - setup.p + 1.0) / (setup.p - 1.0)
                v = (xs**-ev2 - setup.R**-ev2) / ev2
            scan = float(np.max(w ** (1 / setup.q) * v ** ((setup.p - 1) / setup.p)))
            assert b_constant(setup) == pytest.approx(scan, rel=1e-5), setup

    def test_iteration_step_upper_bounds(self):
        # p = q = n/2 with the weights of the second-order reduction gives
        # an upper bound exactly 1/(n-2).
        for n in (4, 8, 16):
            p = n / 2.0
            alpha = n / 2.0 - n * n / 2.0 + n - 1.0
            setup = HardySetup(
                p=p, q=p, alpha=alpha, theta=alpha - p, R=1.0, side=Side.LEFT_VANISHING
            )
            assert sandwich(setup).upper == pytest.approx(1.0 / (n - 2.0), rel=1e-12)

    def test_odd_iteration_step_upper_bound(self):
        # p = q = n/m, alpha = n-1, theta = n(m-1)/m - 1 gives 1/(m-1).
        for m, n in ((3, 12), (5, 20)):
            p = n / m
            setup = HardySetup(
                p=p, q=p, alpha=n - 1.0, theta=n * (m - 1) / m - 1.0,
                R=2.0, side=Side.RIGHT_VANISHING,
            )
            assert sandwich(setup).upper == pytest.approx(1.0 / (m - 1.0), rel=1e-12)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleError):
            b_constant(
                HardySetup(p=2.0, q=2.0, alpha=3.0, theta=0.0, R=1.0, side=Side.LEFT_VANISHING)
            )
        with pytest.raises(InfeasibleError):
            b_constant(
                HardySetup(p=2.0, q=2.0, alpha=-1.0, theta=0.0, R=1.0, side=Side.RIGHT_VANISHING)
            )
        with pytest.raises(InfeasibleError):
            # balance condition violated: q(alpha-p+1) = -6 > p(theta+1) = -7
            b_constant(
                HardySetup(p=2.0, q=3.0, alpha=-1.0, theta=-4.5, R=1.0, side=Side.LEFT_VANISHING)
            )


class TestSetup:
    @pytest.mark.parametrize("radius", [0.0, -1.0, 1e-300, 1e300, math.inf, math.nan])
    def test_radius_outside_the_range_rejected(self, radius):
        with pytest.raises(DomainError, match=r"interval endpoint must lie in \[1e-100, 1e\+100\]"):
            HardySetup(p=2.0, q=2.0, alpha=-1.0, theta=-3.0, R=radius, side=Side.LEFT_VANISHING)


class TestSandwich:
    def test_balanced_pair(self):
        setup = balanced_left(2.0, -1.0)
        sw = sandwich(setup)
        assert sw.lower == pytest.approx(0.5, rel=1e-13)
        assert sw.upper == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("theta", [10.0, 1e8, 1e300])
    def test_right_at_large_theta(self, theta):
        # p = q = alpha = 2, R = 1: B^2 = max_x x^{theta+1} (1/x - 1)/(theta+1),
        # at x* = theta/(theta+1), where x* rounds to 1 for theta > 2^53.
        setup = HardySetup(p=2.0, q=2.0, alpha=2.0, theta=theta, R=1.0, side=Side.RIGHT_VANISHING)
        with mpmath.workdps(30):
            t = mpmath.mpf(theta)
            want = mpmath.sqrt((t / (t + 1)) ** t) / (t + 1)
        assert sandwich(setup).lower == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("theta", [10.0, 1e8, 1e300])
    def test_left_at_large_theta(self, theta):
        # p = q = 2, alpha = -1, R = 1: B^2 = max_x (1 - x^{theta+1}) x^2 / (2 (theta+1)),
        # at x* = (2/(theta+3))^{1/(theta+1)}, where x* rounds to 1 for theta > 2^53.
        setup = HardySetup(p=2.0, q=2.0, alpha=-1.0, theta=theta, R=1.0, side=Side.LEFT_VANISHING)
        with mpmath.workdps(30):
            t = mpmath.mpf(theta)
            x_star = (2 / (t + 3)) ** (1 / (t + 1))
            want = x_star / mpmath.sqrt(2 * (t + 3))
        assert sandwich(setup).lower == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("theta", [-1.0, -2.0, -2.5])
    def test_left_at_theta_minus_one_and_below(self, theta):
        # p = q = 2, alpha = -3, R = 1.7: B^2 = max_x W(x) x^4 / 4 with
        # W(x) = integral_x^R r^theta dr, maximized by mpmath without x*'s formula.
        setup = HardySetup(p=2.0, q=2.0, alpha=-3.0, theta=theta, R=1.7, side=Side.LEFT_VANISHING)
        with mpmath.workdps(30):
            t, radius = mpmath.mpf(theta), mpmath.mpf("1.7")

            def log_b2(x):
                if theta == -1.0:
                    w = mpmath.log(radius / x)
                else:
                    w = (x ** (t + 1) - radius ** (t + 1)) / (-t - 1)
                return mpmath.log(w * x**4 / 4)

            x_star = mpmath.findroot(lambda x: mpmath.diff(log_b2, x), 0.75 * radius)
            want = mpmath.exp(log_b2(x_star) / 2)
        assert sandwich(setup).lower == pytest.approx(float(want), rel=1e-12)

    @pytest.mark.parametrize("radius, log_b", [(2.0, "3.46574e+299"), (0.5, "-3.46574e+299")])
    def test_left_b_out_of_float_range_rejected(self, radius, log_b):
        # B grows like R^{theta/2}: above R = 1 it overflows, below it underflows.
        setup = HardySetup(
            p=2.0, q=2.0, alpha=-1.0, theta=1e300, R=radius, side=Side.LEFT_VANISHING
        )
        message = f"B = exp({log_b}) is outside the float range at theta=1e+300, R={radius}"
        with pytest.raises(DomainError, match=re.escape(message)):
            sandwich(setup)

    def test_right_b_out_of_float_range_rejected(self):
        # B grows like R^{theta/2}: at R = 3 it overflows.
        setup = HardySetup(p=2.0, q=2.0, alpha=2.0, theta=1e300, R=3.0, side=Side.RIGHT_VANISHING)
        with pytest.raises(DomainError, match=r"outside the float range at theta=1e\+300, R=3.0"):
            sandwich(setup)

    def test_ratio_is_k(self):
        for setup in (
            balanced_left(2.0, -1.0),
            balanced_left(3.0, 0.5),
            HardySetup(p=2.0, q=3.0, alpha=-0.5, theta=0.4, R=2.0, side=Side.LEFT_VANISHING),
        ):
            sw = sandwich(setup)
            assert sw.upper / sw.lower == pytest.approx(
                k_factor(setup.q, setup.p), rel=1e-13
            )
            assert sw.lower <= sw.upper


class TestRayleighProbe:
    def test_never_exceeds_upper_bound(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            side = Side.LEFT_VANISHING if trial % 2 == 0 else Side.RIGHT_VANISHING
            p = float(rng.uniform(1.2, 3.0))
            q = float(rng.uniform(p, p + 2.0))
            if side is Side.LEFT_VANISHING:
                alpha = float(rng.uniform(-3.0, p - 1.2))
                theta_min = q * (alpha - p + 1.0) / p - 1.0
                theta = float(rng.uniform(theta_min, theta_min + 3.0))
            else:
                alpha = float(rng.uniform(p - 0.8, p + 2.0))
                theta = float(rng.uniform(q * (alpha - p + 1.0) / p - 1.0, 5.0))
            setup = HardySetup(p=p, q=q, alpha=alpha, theta=theta, R=float(rng.uniform(0.5, 3.0)), side=side)
            sw = sandwich(setup)
            result = rayleigh_probe(setup, trial_count=5, seed=trial)
            assert result.max_ratio <= sw.upper + 1e-9, setup

    def test_near_extremal_power_family(self):
        setup = balanced_left(2.0, -1.0)
        b = b_constant(setup)
        ratios = []
        for eps in (0.5, 0.1, 0.02):
            u = near_extremal_power_trial(setup, eps)
            # quadrature route through the probe must match the closed form
            beta = (setup.p - 1.0 - setup.alpha) / (setup.p - 1.0)
            closed = 1.0 / (beta + eps)
            got = trial_ratio(setup, u)
            assert got == pytest.approx(closed, rel=1e-10)
            ratios.append(got)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[-1] >= 0.9 * b

    def test_power_trials_through_probe(self):
        setup = balanced_left(2.0, -1.0)
        trials = [near_extremal_power_trial(setup, eps) for eps in (0.5, 0.1, 0.02)]
        result = rayleigh_probe(setup, trial_count=0, seed=0, trials=trials)
        assert result.max_ratio == pytest.approx(
            trial_ratio(setup, trials[-1]), rel=1e-12
        )
        assert result.max_ratio <= sandwich(setup).upper + 1e-9

    def test_zero_trial_degenerates(self):
        setup = balanced_left(2.0, -1.0)
        zero = PiecewiseProfile(knots=(0.0, 1.0), pieces=(constant_piece(0.0),), tail=None)
        with pytest.raises(DegenerateTrialError):
            rayleigh_probe(setup, trial_count=0, seed=0, trials=[zero])

    def test_infinite_derivative_norm_degenerates(self):
        # alpha = -1: int_0^1 |u'|^2 r^{-1} dr diverges for a ramp from r = 0.
        setup = HardySetup(p=2.0, q=2.0, alpha=-1.0, theta=-3.0, R=1.0, side=Side.LEFT_VANISHING)
        ramp = piecewise_linear([0.0, 1.0], [0.0, 1.0], constant_tail=False)
        assert math.isnan(trial_ratio(setup, ramp))
        with pytest.raises(DegenerateTrialError):
            rayleigh_probe(setup, trial_count=0, seed=0, trials=[ramp])

    def test_deterministic_given_seed(self):
        setup = balanced_left(2.0, -1.0)
        a = rayleigh_probe(setup, trial_count=6, seed=9)
        b = rayleigh_probe(setup, trial_count=6, seed=9)
        assert a.max_ratio == b.max_ratio


def unique_trial(setup, rng):
    """``hardy._random_trial``'s draws, deduplicated by ``np.unique``."""
    R = setup.R
    n_knots = int(rng.integers(3, 7))
    if setup.side is Side.LEFT_VANISHING:
        x0 = R * rng.uniform(0.08, 0.35)
        interior = np.sort(rng.uniform(x0, R, size=n_knots))
        knots = np.concatenate(([0.0, x0], interior, [R]))
        values = np.concatenate(([0.0, 0.0], rng.uniform(-1.0, 1.0, size=n_knots + 1)))
    else:
        interior = np.sort(rng.uniform(0.0, R, size=n_knots))
        knots = np.concatenate(([0.0], interior, [R]))
        values = np.concatenate((rng.uniform(-1.0, 1.0, size=n_knots + 1), [0.0]))
    knots, idx = np.unique(knots, return_index=True)
    return knots, values[idx]


def knots_and_values(u):
    """A polyline's knots and values at them, as bytes."""
    knots = np.array(u.knots)
    return knots.tobytes(), np.array([piece.value(k) for k, piece in zip(knots, u.pieces)]).tobytes()


class ScriptedRng:
    """A generator stub that returns given draws in order."""

    def __init__(self, n_knots, *draws):
        self.n_knots, self.draws = n_knots, list(draws)

    def integers(self, lo, hi):
        return self.n_knots

    def uniform(self, lo, hi, size=None):
        return self.draws.pop(0) if size is None else np.array(self.draws.pop(0), dtype=float)


class TestRandomTrial:
    LEFT = HardySetup(p=2.0, q=3.0, alpha=0.0, theta=0.4, R=1.5, side=Side.LEFT_VANISHING)
    RIGHT = HardySetup(p=2.0, q=2.5, alpha=1.2, theta=0.42, R=1.5, side=Side.RIGHT_VANISHING)

    @pytest.mark.parametrize("setup", [LEFT, RIGHT], ids=["left", "right"])
    def test_equals_the_unique_construction(self, setup):
        for seed in range(1000):
            u = hardy_module._random_trial(setup, np.random.default_rng(seed))
            knots, values = unique_trial(setup, np.random.default_rng(seed))
            want = piecewise_linear(knots, values, constant_tail=False)
            assert knots_and_values(u) == knots_and_values(want), seed

    @pytest.mark.parametrize(
        "setup, draws",
        [
            # x0 = 1.5 * 0.2 drawn again as an interior knot, and 0.9 twice.
            (LEFT, (0.2, [0.9, 1.5 * 0.2, 0.9], [0.5, -0.25, 0.75, -1.0])),
            # 0.0 drawn as an interior knot, and 0.6 twice.
            (RIGHT, ([0.6, 0.0, 0.6], [0.5, -0.25, 0.75, -1.0])),
        ],
        ids=["left", "right"],
    )
    def test_repeated_knot_dropped(self, setup, draws):
        u = hardy_module._random_trial(setup, ScriptedRng(3, *draws))
        knots, values = unique_trial(setup, ScriptedRng(3, *draws))
        assert len(u.knots) == len(knots) == 3 + (setup.side is Side.LEFT_VANISHING)
        assert knots_and_values(u) == knots_and_values(piecewise_linear(knots, values, constant_tail=False))

    def test_value_norm_builds_no_derivative_evaluator(self):
        u = hardy_module._random_trial(self.RIGHT, np.random.default_rng(3))
        assert 0.0 < trial_ratio(self.RIGHT, u) < math.inf
        assert "_value_batch" in vars(u) and "_derivative_batch" not in vars(u)


class TestOneEngineCallPerNorm:
    """Each quadrature norm is one engine call whose first-level edges hold
    every interior knot and root where its integrand stops being smooth: the
    roots only at a power that is no even integer."""

    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        engine = profiles_module.adaptive_gauss

        def recording(f, lo, hi, spec, *, breaks=None):
            calls.append((lo, hi, np.asarray([] if breaks is None else breaks, dtype=float)))
            return engine(f, lo, hi, spec, breaks=breaks)

        monkeypatch.setattr(profiles_module, "adaptive_gauss", recording)
        return calls

    @pytest.mark.parametrize(
        "setup",
        [
            HardySetup(p=2.0, q=3.0, alpha=0.0, theta=0.4, R=1.5, side=Side.LEFT_VANISHING),
            # theta in (-1, 0): the norm goes through r = R s^{1/(theta+1)}.
            HardySetup(p=2.0, q=3.5, alpha=1.2, theta=-0.5, R=1.5, side=Side.RIGHT_VANISHING),
            # |u|^q = u^q is smooth at the roots of u: they are no breaks.
            HardySetup(p=2.0, q=2.0, alpha=0.0, theta=0.4, R=1.5, side=Side.LEFT_VANISHING),
            HardySetup(p=2.0, q=4.0, alpha=1.2, theta=-0.5, R=1.5, side=Side.RIGHT_VANISHING),
        ],
        ids=["left", "right", "left-q=2", "right-q=4"],
    )
    def test_trial_ratio(self, setup, engine_calls):
        u = hardy_module._random_trial(setup, np.random.default_rng(7))
        assert 0.0 < trial_ratio(setup, u) < math.inf
        # |u'|^p r^alpha is closed form on every linear piece; |u|^q r^theta
        # is one call from the first nonzero piece to R.
        assert len(engine_calls) == 1
        lo, hi, breaks = engine_calls[0]
        knots = np.array(u.knots)
        ys = u.value(knots)
        first = 1 if setup.side is Side.LEFT_VANISHING else 0  # u = 0 on [0, x0]
        i = np.flatnonzero(ys[:-1] * ys[1:] < 0.0)
        assert i.size  # the trial has a root
        roots = knots[i] - ys[i] * (knots[i + 1] - knots[i]) / (ys[i + 1] - ys[i])
        if setup.q in (2.0, 4.0):
            roots = roots[:0]
        edges = np.sort(np.concatenate((knots[first + 1 : -1], roots)))
        if setup.side is Side.LEFT_VANISHING:
            assert (lo, hi) == (knots[1], setup.R)
        else:
            assert (lo, hi) == (0.0, 1.0)
            edges = (edges / setup.R) ** (setup.theta + 1.0)
        np.testing.assert_allclose(breaks, edges, rtol=1e-12)

    def test_second_order_trial_ratio(self, engine_calls):
        n, p, q, R = 8, 3.0, 2.0, 1.0
        poly = np.polynomial.Polynomial.fromroots([0.3, 0.65, 1.7])
        assert 0.0 < second_order_trial_ratio(n, p, q, R, poly) < math.inf
        assert len(engine_calls) == 2
        u = np.polynomial.Polynomial([R, -1.0]) ** 2 * poly
        lap_times_r = np.polynomial.Polynomial([0.0, 1.0]) * u.deriv(2) + (n - 1.0) * u.deriv()
        for (lo, hi, breaks), integrand in zip(engine_calls, (u, lap_times_r)):
            roots = integrand.roots()
            roots = np.sort(roots[(roots.imag == 0.0) & (0.0 < roots.real) & (roots.real < R)].real)
            assert (lo, hi) == (0.0, R) and roots.size > 0
            np.testing.assert_allclose(breaks, roots, rtol=1e-12)

    def test_second_order_even_p_solves_no_roots(self, engine_calls, monkeypatch):
        # At p = 2 |poly|^2 is smooth at the roots, so none is solved for;
        # the integer weights r^3 and r^5 leave the first level unbroken.
        def refuse(*args, **kwargs):
            raise AssertionError("polyroots called")

        monkeypatch.setattr(P, "polyroots", refuse)
        poly = np.polynomial.Polynomial.fromroots([0.3, 0.65, 1.7])
        assert 0.0 < second_order_trial_ratio(8, 2.0, 2.0, 1.0, poly) < math.inf
        assert len(engine_calls) == 2
        for lo, hi, breaks in engine_calls:
            assert (lo, hi) == (0.0, 1.0) and breaks.size == 0


class TestGradedFirstLevel:
    """At lo = 0 the first level is graded toward 0, so a weight r^w with
    non-integer w converges there without refinement: each norm takes at
    most two integrand calls (one level, or two)."""

    @pytest.fixture
    def integrand_calls(self, monkeypatch):
        counts = []
        engine = profiles_module.adaptive_gauss

        def counting(f, lo, hi, spec, *, breaks=None):
            counts.append(0)

            def counted(x):
                counts[-1] += 1
                return f(x)

            return engine(counted, lo, hi, spec, breaks=breaks)

        monkeypatch.setattr(profiles_module, "adaptive_gauss", counting)
        return counts

    @pytest.mark.parametrize("theta", [0.094, 0.42, 0.73, 1.4])
    def test_trial_ratio(self, theta, integrand_calls):
        # q = 4 keeps |u|^q smooth at the roots of u and at u(R) = 0, so
        # r^theta at 0 is the numerator's one singularity; the denominator
        # is closed form.
        setup = HardySetup(p=2.0, q=4.0, alpha=1.2, theta=theta, R=1.5, side=Side.RIGHT_VANISHING)
        for seed in range(3):
            u = hardy_module._random_trial(setup, np.random.default_rng(seed))
            assert 0.0 < trial_ratio(setup, u) < math.inf
        assert len(integrand_calls) == 3
        assert max(integrand_calls) <= 2

    @pytest.mark.parametrize(
        "n, q", [(8, 2.6), (6, 2.6)], ids=["weights-1.15-3.15", "weights-(-0.38)-1.62"]
    )
    def test_second_order_trial_ratio(self, n, q, integrand_calls):
        # p = 2 keeps |poly|^p smooth at its roots; a weight in (-1, 0)
        # goes through the substitution and is graded in s.
        for seed in range(3):
            coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=4)
            poly = np.polynomial.Polynomial(coeffs)
            assert 0.0 < second_order_trial_ratio(n, 2.0, q, 1.0, poly) < math.inf
        assert len(integrand_calls) == 6
        assert max(integrand_calls) <= 2


class TestSecondOrder:
    def test_zero_times_inf_refused_and_finite_ratios_kept(self, monkeypatch):
        # At p = 300 and 1000, (1 + sum |c_k| R^k)^p leaves the float range,
        # so the nodes are checked: a trial whose |poly|^p overflows where
        # r^w underflows raises DomainError naming p, where the unchecked
        # integrand is NaN; every other trial returns the unchecked ratio.
        def ratios():
            out = []
            for p in (300.0, 1000.0):
                for c in np.random.default_rng(1).uniform(-1.0, 1.0, size=(40, 4)):
                    try:
                        out.append(second_order_trial_ratio(4, p, 1.78, 1.0, np.polynomial.Polynomial(c)))
                    except (DomainError, QuadratureError) as exc:
                        out.append(str(exc))
            return out

        checked = ratios()
        monkeypatch.setattr(hardy_module, "_LOG_RANGE", math.inf)
        unchecked = ratios()
        finite = [a for a in checked if isinstance(a, float)]
        refused = [(a, b) for a, b in zip(checked, unchecked) if a != b]
        assert len(finite) >= 20 and refused
        assert finite == [b for b in unchecked if isinstance(b, float)]
        for a, b in refused:
            assert a.startswith("at p=1000.0 a trial's |polynomial|^p") and "is NaN" in b

    def test_constant_values(self):
        assert second_order_constant(8, 2.0) == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert second_order_constant(12, 3.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_critical_dimension_rejected(self):
        with pytest.raises(DomainError):
            second_order_constant(4, 2.0)

    def test_regression_pin_simple_trial(self):
        # u = (1-r)^2, n = 8, p = q = 2: ratio = sqrt(3/560) exactly
        # (LHS^2 = B(4,5) = 1/280, RHS^2 = 2/3 by hand integration).
        ratio = second_order_trial_ratio(8, 2.0, 2.0, 1.0, np.polynomial.Polynomial([1.0]))
        assert ratio == pytest.approx(math.sqrt(3.0 / 560.0), rel=1e-11)

    def test_trial_outside_the_power_basis_rejected(self):
        poly = np.polynomial.Polynomial([1.0, 2.0], domain=[0.0, 1.0])
        with pytest.raises(DomainError, match="power basis"):
            second_order_trial_ratio(8, 2.0, 2.0, 1.0, poly)

    def test_subnormal_integrals_rejected(self):
        # At R = 1e-40 both integrals are subnormal and the ratio read 0.0995.
        poly = np.polynomial.Polynomial(np.random.default_rng(0).uniform(-1.0, 1.0, 4))
        ratio = second_order_trial_ratio(8, 2.0, 2.0, 1e-30, poly)
        assert ratio == pytest.approx(0.07319250547113967, rel=1e-12)
        with pytest.raises(DomainError, match=r"underflow the float range at R=1e-40"):
            second_order_trial_ratio(8, 2.0, 2.0, 1e-40, poly)

    def test_boundary_conditions_by_construction(self):
        poly = np.polynomial.Polynomial([0.3, -1.2, 0.7])
        R = 1.4
        u = np.polynomial.Polynomial([R, -1.0]) ** 2 * poly
        assert u(R) == pytest.approx(0.0, abs=1e-12)
        assert u.deriv()(R) == pytest.approx(0.0, abs=1e-12)

    def test_probe_below_constant(self):
        for n, q in ((8, 2.0), (12, 3.0), (16, 2.0)):
            best = second_order_probe(n, 2.0, q, 1.0, trial_count=40, seed=3)
            assert best <= second_order_constant(n, q) * (1.0 + 1e-6)

    def test_probe_multiple_seeds(self):
        c = second_order_constant(8, 2.0)
        for seed in range(5):
            assert second_order_probe(8, 2.0, 2.0, 1.0, 15, seed) <= c * (1 + 1e-6)

    def test_probe_check_survives_optimize_flag(self):
        # With the constant patched to a tiny value the probe must still
        # refuse its result when asserts are stripped (python -O).
        script = (
            "import adamskit.hardy as hardy\n"
            "hardy.second_order_constant = lambda n, q: 1e-30\n"
            "try:\n"
            "    hardy.second_order_probe(8, 2.0, 2.0, 1.0, 3, 0)\n"
            "except AssertionError as exc:\n"
            "    print('debug' if __debug__ else 'optimized', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(hardy_module.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("optimized probe ratio")


def closed_form_p2_ratio(n, q, R, coeffs):
    """The p = 2 second-order ratio of u = (R - r)^2 g(r) in mpmath: each
    integral of poly(r)^2 r^w on (0, R) is sum_k a_k R^{k+w+1}/(k+w+1) over
    the coefficients a of poly^2, summed at 60 digits (the terms cancel)."""
    with mpmath.workdps(60):
        R_, q_ = mpmath.mpf(R), mpmath.mpf(q)
        u = [mpmath.mpf(0)] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            for j, b in enumerate((R_**2, -2 * R_, 1)):
                u[i + j] += mpmath.mpf(c) * b
        du = [k * c for k, c in enumerate(u)][1:]
        lap = [(n - 1) * c for c in du]  # r u'' + (n-1) u'
        for k, c in enumerate(du[1:], start=1):
            lap[k] += k * c

        def integral(poly, w):
            square = [mpmath.mpf(0)] * (2 * len(poly) - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(poly):
                    square[i + j] += a * b
            return mpmath.fsum(a * R_ ** (k + w + 1) / (k + w + 1) for k, a in enumerate(square))

        # Weights n p/q* - 1 and n p/q - 1 - p at p = 2, q* = nq/(n - 2q).
        return mpmath.sqrt(integral(u, 2 * (n - 2 * q_) / q_ - 1) / integral(lap, 2 * n / q_ - 3))


class TestSecondOrderClosedForm:
    """At p = 2 both integrals are polynomials times a power of r, so every
    ratio has a closed form; the quadrature must meet it to rel_tol."""

    def test_seeded_trials(self):
        rng = np.random.default_rng(2500)
        for _ in range(240):
            n = int(rng.choice([5, 6, 8, 12, 20, 50]))
            q = 1.0 + (n / 2.0 - 1.0) * float(rng.uniform(0.05, 0.95))
            R = float(10.0 ** rng.uniform(-2.0, 2.0))
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            got = second_order_trial_ratio(n, 2.0, q, R, np.polynomial.Polynomial(coeffs))
            want = closed_form_p2_ratio(n, q, R, coeffs)
            assert abs(got - want) <= DEFAULT_SPEC.rel_tol * want, (n, q, R, coeffs)


def reference_second_order_ratio(n, p, q, R, poly):
    """The second-order ratio through numpy.polynomial's polymul, polyder,
    polyadd, polymulx and polyval: the reference that the library's plain
    coefficient arithmetic must reproduce bit for bit."""
    q_star = n * q / (n - 2.0 * q)
    u = P.polymul(P.polymul([R, -1.0], [R, -1.0]), poly.coef)
    du = P.polyder(u)
    lap_times_r = P.polyadd(P.polymulx(P.polyder(u, 2)), (n - 1.0) * du)

    def integral(coef, weight_pow):
        breaks = None
        if profiles_module.kinks_at_roots(p):
            roots = P.polyroots(coef)
            real = roots.real[
                (np.abs(roots.imag) < 1e-12) & (1e-12 < roots.real) & (roots.real < R * (1 - 1e-12))
            ]
            breaks = np.unique(real)
        return profiles_module.abs_pow_quadrature(
            lambda r: P.polyval(r, coef), p, weight_pow, 0.0, R, DEFAULT_SPEC, breaks=breaks
        )

    lhs = integral(u, n * p / q_star - 1.0)
    rhs = integral(lap_times_r, n * p / q - 1.0 - p)
    if rhs == 0.0:
        return math.nan
    return lhs ** (1.0 / p) / rhs ** (1.0 / p)


class TestCoefficientArithmetic:
    """``second_order_trial_ratio`` forms its polynomials on plain arrays and
    must return the bits of the numpy.polynomial route."""

    @pytest.mark.parametrize("n", [6, 8, 12])
    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_equals_the_numpy_polynomial_route(self, n, k, p):
        q = float(np.linspace(1.2, n / 2.0 - 0.4, 3)[k])
        rng = np.random.default_rng(100 * n + k)
        for _ in range(3):
            poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
            R = float(rng.uniform(0.5, 2.0))
            want = reference_second_order_ratio(n, p, q, R, poly)
            assert second_order_trial_ratio(n, p, q, R, poly) == want

    def test_constant_and_zero_polynomials(self):
        one = np.polynomial.Polynomial([1.0])
        assert second_order_trial_ratio(8, 2.0, 2.0, 1.0, one) == reference_second_order_ratio(
            8, 2.0, 2.0, 1.0, one
        )
        zero = np.polynomial.Polynomial([0.0, 0.0, 0.0, 0.0])
        assert math.isnan(second_order_trial_ratio(8, 2.0, 2.0, 1.0, zero))
        assert math.isnan(reference_second_order_ratio(8, 2.0, 2.0, 1.0, zero))

    def test_no_numpy_polynomial_arithmetic(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.polynomial arithmetic called")

        for name in ("polymul", "polyder", "polyadd", "polymulx", "polyval"):
            monkeypatch.setattr(P, name, refuse)
        assert 0.0 < second_order_probe(8, 2.0, 2.0, 1.0, 3, 0) < math.inf

    @pytest.mark.parametrize("p", [-1.0, 0.0, 1e-300, 0.5, math.nan])
    def test_p_below_one_rejected(self, p):
        with pytest.raises(DomainError, match=r"need p >= 1, got p="):
            second_order_trial_ratio(8, p, 2.0, 1.0, np.polynomial.Polynomial([1.0]))

    @pytest.mark.parametrize("p", [1.0, 50.0])
    def test_p_from_one_up_accepted(self, p):
        assert 0.0 < second_order_trial_ratio(8, p, 2.0, 1.0, np.polynomial.Polynomial([1.0])) < 1.0


class TestIteratedConstant:
    def test_even_values(self):
        assert iterated_constant(AdamsParams(2, 6)) == 1.0
        assert iterated_constant(AdamsParams(4, 8)) == pytest.approx(1.0 / 8.0, rel=1e-15)

    def test_odd_values(self):
        # m = 3: only the extra 1/(m-1) step.
        assert iterated_constant(AdamsParams(3, 8)) == pytest.approx(0.5, rel=1e-15)
        # m = 5, k = 2: 1/(m-1) * 1/((n-m+1)(m-3)).
        assert iterated_constant(AdamsParams(5, 12)) == pytest.approx(
            1.0 / (4.0 * (12 - 5 + 1) * 2.0), rel=1e-15
        )

    def test_first_order_rejected(self):
        with pytest.raises(DomainError):
            iterated_constant(AdamsParams(1, 4))

    def test_reconstructs_product_form_even(self):
        # beta0 product form = [n^{(n-m)/n} omega^{m/n} (n-2) / iterated]^{n/(n-m)}.
        for m in (2, 4, 6):
            for n in range(m + 1, 33):
                params = AdamsParams(m, n)
                omega = unit_sphere_area(n)
                rebuilt = (
                    n ** ((n - m) / n)
                    * omega ** (m / n)
                    * (n - 2.0)
                    / iterated_constant(params)
                ) ** (n / (n - m))
                assert rebuilt == pytest.approx(beta0_product_form(params), rel=1e-10)

    def test_reconstructs_product_form_odd(self):
        # The same shape holds for odd m: the 1/(m-1) step and the factor
        # mismatch between (m-2j-1) and (m-2j-3) cancel into (n-2).
        for m in (3, 5):
            for n in range(m + 1, 33):
                params = AdamsParams(m, n)
                omega = unit_sphere_area(n)
                rebuilt = (
                    n ** ((n - m) / n)
                    * omega ** (m / n)
                    * (n - 2.0)
                    / iterated_constant(params)
                ) ** (n / (n - m))
                assert rebuilt == pytest.approx(beta0_product_form(params), rel=1e-10)
