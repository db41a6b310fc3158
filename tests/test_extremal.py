"""The extremal-beating test function: junctions, norms, functional, verdicts."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from adamskit import extremal
from adamskit.errors import DomainError, QuadratureError
from adamskit.extremal import (
    chain_bound_for_s,
    concentration_level_unit_ball,
    eta_function,
    functional_lower_bound,
    functional_quadrature,
    make_params,
    norm_chain_bound,
    norm_quadrature,
    sweep,
    tail_norm_contribution,
    test_function as build_test_function,
    verdict,
)
from adamskit.moser1d import cc_integral
from adamskit.quadrature import DEFAULT_SPEC, QuadratureSpec
from adamskit.specfun import EULER_GAMMA, digamma


class TestMakeParams:
    def test_admissible_from_sixteen(self):
        for n in (16, 104, 128, 512):
            params = make_params(n)
            assert params.admissible
            assert 0.0 < params.s < params.b
            assert params.lam > n / 2.0

    def test_s_over_b_below_one_for_n_at_least_15(self):
        # Even surrogate of the n >= 15 guarantee.
        for n in range(16, 200, 2):
            params = make_params(n)
            assert params.s / params.b < 1.0

    def test_regression_pins_at_104(self):
        params = make_params(104)
        assert params.b == pytest.approx(1.7252806835996162, rel=1e-13)
        assert params.s == pytest.approx(0.11232353210071001, rel=1e-12)
        assert params.lam == pytest.approx(256.89898690861673, rel=1e-12)

    def test_small_dimension_inadmissible_not_error(self):
        params = make_params(4)
        assert not params.admissible  # s >= b there; flagged, no exception

    def test_parity_and_domain(self):
        with pytest.raises(DomainError):
            make_params(15)
        with pytest.raises(DomainError):
            make_params(2)


class TestTestFunction:
    @pytest.mark.parametrize("n", [16, 104, 128])
    def test_continuity_at_junctions(self, n):
        params = make_params(n)
        w = build_test_function(params)
        half = n / 2.0
        # Left and right limits at both junction knots.
        mid_left = params.ramp_slope * half
        mid_right = (half - 1.0) ** ((n - 2.0) / n)
        assert mid_left == pytest.approx(mid_right, rel=1e-12)
        assert mid_left == pytest.approx(((n - 2.0) / 2.0) ** ((n - 2.0) / n), rel=1e-12)
        lam_left = (params.lam - 1.0) ** ((n - 2.0) / n)
        assert w.value(params.lam) == pytest.approx(lam_left, rel=1e-12)

    def test_junction_values_tight_across_range(self):
        # Both one-sided junction values agree to 1e-12 for every even
        # dimension up to 512 (closed forms on each side).
        for n in range(16, 513, 2):
            params = make_params(n)
            mid_left = params.ramp_slope * (n / 2.0)
            mid_right = (n / 2.0 - 1.0) ** ((n - 2.0) / n)
            assert abs(mid_left - mid_right) <= 1e-12 * max(1.0, mid_right)
            # third piece's leading term vanishes at lambda by construction
            lam_val = (params.lam - 1.0) ** ((n - 2.0) / n)
            w = build_test_function(params)
            assert abs(w.value(params.lam) - lam_val) <= 1e-12 * max(1.0, lam_val)

    def test_zero_at_origin_and_nondecreasing(self):
        params = make_params(104)
        w = build_test_function(params)
        assert w.value(0.0) == 0.0
        grid = np.linspace(0.0, params.lam * 2.0, 400)
        vals = w.value(grid)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_c1_at_junctions(self):
        params = make_params(104)
        w = build_test_function(params)
        for knot in (params.n / 2.0, params.lam):
            eps = 1e-7 * max(1.0, knot)
            left = w.derivative(knot - eps)
            right = w.derivative(knot + eps)
            assert left == pytest.approx(right, rel=1e-5)

    def test_inadmissible_params_rejected(self):
        with pytest.raises(DomainError):
            build_test_function(make_params(4))


def displayed_l(params, t):
    """L(t) = (n/(n-2)) w''(t) - w'(t) as displayed, one closed form per piece."""
    n, lam = params.n, params.lam
    if t < n / 2.0:
        return -(n - 2.0) / n * ((n - 2.0) / 2.0) ** (-2.0 / n)
    if t < lam:
        return -((n - 2.0) * (t - 1.0) ** (-2.0 / n) + 2.0 * (t - 1.0) ** (-(n + 2.0) / n)) / n
    return -(n + 1.0) / n * (lam - 1.0) ** (-2.0 / n) * math.exp(3.0 * (lam - t) / n)


class TestLOperator:
    def test_ramp_piece_magnitude(self):
        # w'' = 0 on the ramp, so L = -w'.
        for n in (16, 104):
            params = make_params(n)
            w = build_test_function(params)
            assert displayed_l(params, 1.0) == pytest.approx(-w.derivative(1.0), rel=1e-13)

    def test_matches_finite_differences(self):
        params = make_params(104)
        n = params.n
        w = build_test_function(params)
        rng = np.random.default_rng(0)
        points = np.concatenate(
            [
                rng.uniform(0.5, n / 2.0 - 0.5, 30),
                rng.uniform(n / 2.0 + 0.5, params.lam - 1.0, 40),
                rng.uniform(params.lam + 0.5, params.lam + 80.0, 30),
            ]
        )
        h = 2e-3  # w ~ 2e2 here; smaller h lets rounding dominate the second difference
        for t in points:
            wpp = (w.value(t + h) - 2.0 * w.value(t) + w.value(t - h)) / h**2
            wp = (w.value(t + h) - w.value(t - h)) / (2.0 * h)
            fd = n / (n - 2.0) * wpp - wp
            assert displayed_l(params, float(t)) == pytest.approx(fd, abs=1e-6)

    def test_saturating_piece_at_junction(self):
        # The saturating piece has w'' = -rate w'.
        params = make_params(104)
        n, t = params.n, params.lam + 1e-12
        w = build_test_function(params)
        wp = w.derivative(t)
        expected = n / (n - 2.0) * (-w.tail.rate * wp) - wp
        assert displayed_l(params, t) == pytest.approx(expected, rel=1e-9)


class TestNorms:
    def test_chain_bound_at_most_one(self):
        for n in (16, 104, 256, 512):
            assert norm_chain_bound(make_params(n)) <= 1.0

    def test_chain_loses_admissibility_without_s(self):
        for n in (104, 512):
            assert chain_bound_for_s(n, 0.0) > 1.0

    def test_norm_quadrature_below_chain(self):
        for n in (16, 104, 110, 128):
            params = make_params(n)
            assert norm_quadrature(params) <= norm_chain_bound(params) + 1e-9
            assert norm_quadrature(params) <= 1.0

    def test_norm_against_scipy_oracle(self):
        # Independent quadrature of |L|^{n/2} over all three pieces.
        for n in (16, 104):
            params = make_params(n)
            lam = params.lam
            ramp = ((n - 2.0) / n) ** (n / 2.0) * ((n - 2.0) / 2.0) ** (-1.0) * (n / 2.0)
            arc = quad(
                lambda t: (
                    ((n - 2.0) * (t - 1.0) ** (-2.0 / n) + 2.0 * (t - 1.0) ** (-(n + 2.0) / n))
                    / n
                )
                ** (n / 2.0),
                n / 2.0,
                lam,
                limit=500,
            )[0]
            tail = tail_norm_contribution(params)
            oracle = (ramp + arc + tail) ** (2.0 / n)
            assert norm_quadrature(params) == pytest.approx(oracle, rel=1e-10)

    def test_tail_contribution_closed_form(self):
        params = make_params(104)
        n = params.n
        expected = (2.0 / 3.0) * ((n + 1.0) / n) ** (n / 2.0) / (params.lam - 1.0)
        assert tail_norm_contribution(params) == pytest.approx(expected, rel=1e-15)
        oracle = quad(
            lambda t: (
                (n + 1.0) / n * (params.lam - 1.0) ** (-2.0 / n)
                * math.exp(3.0 * (params.lam - t) / n)
            )
            ** (n / 2.0),
            params.lam,
            params.lam + 400.0,
            limit=500,
        )[0]
        assert tail_norm_contribution(params) == pytest.approx(oracle, rel=1e-9)


class TestFunctional:
    def test_lower_bound_formula(self):
        params = make_params(104)
        expected = 1.0 + 51.0 * math.exp(params.b - params.s - 1.0)
        assert functional_lower_bound(params) == pytest.approx(expected, rel=1e-14)

    def test_middle_piece_exact_value(self):
        # The power arc contributes exactly (lambda - n/2)/e.
        params = make_params(104)
        n = params.n
        w = build_test_function(params)
        got = cc_integral(w, n / (n - 2.0), n / 2.0, params.lam, DEFAULT_SPEC)
        assert got == pytest.approx((params.lam - n / 2.0) / math.e, rel=1e-10)
        identity = (
            -(n / 2.0 - 1.0) / math.e
            + (n / 2.0 - 1.0) * math.exp(params.b - params.s - 1.0)
        )
        assert got == pytest.approx(identity, rel=1e-10)

    def test_saturating_piece_at_least_one_over_e(self):
        params = make_params(104)
        n = params.n
        w = build_test_function(params)
        got = cc_integral(w, n / (n - 2.0), params.lam, math.inf, DEFAULT_SPEC)
        assert got >= 1.0 / math.e

    def test_integrand_at_origin(self):
        params = make_params(104)
        w = build_test_function(params)
        assert math.exp(w.value(0.0) ** (104 / 102) - 0.0) == 1.0

    def test_quadrature_above_lower_bound(self):
        for n in (104, 128):
            params = make_params(n)
            assert functional_quadrature(params) >= functional_lower_bound(params) - 1e-8

    def test_beats_level_at_104(self):
        params = make_params(104)
        level = concentration_level_unit_ball(104)
        assert functional_lower_bound(params) > level
        assert functional_quadrature(params) > level


class TestEta:
    def test_strictly_decreasing_on_grid(self):
        grid = np.arange(2.0, 200.0 + 0.25, 0.25)
        values = [eta_function(float(t)) for t in grid]
        assert all(b - a < 0.0 for a, b in zip(values, values[1:]))

    def test_sign_values(self):
        assert eta_function(52.0) < 0.0
        assert eta_function(2.0) > 0.0

    def test_majorizes_gap_expression(self):
        # eta(n/2) dominates psi(n/2) + gamma + s - b + 1 - ln(n/2 - 1).
        for n in (16, 104, 300):
            params = make_params(n)
            half = n / 2.0
            gap = (
                digamma(half)
                + EULER_GAMMA
                + params.s
                - params.b
                + 1.0
                - math.log(half - 1.0)
            )
            assert gap < eta_function(half)

    def test_negative_for_all_integers_past_threshold(self):
        for k in range(52, 501, 7):
            assert eta_function(float(k + 1)) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_function(1.9)


class TestVerdict:
    def test_at_threshold(self):
        row = verdict(104)
        assert row.gap_analytic and row.gap_numeric

    def test_exploratory_below_threshold(self):
        row = verdict(16)
        assert row.n == 16
        assert not row.gap_analytic  # numbers recorded, nothing asserted

    def test_well_past_threshold(self):
        row = verdict(200)
        assert row.gap_analytic and row.gap_numeric

    def test_sweep_rows(self):
        rows = sweep(100, 140, 2)
        assert [r.n for r in rows] == list(range(100, 141, 2))
        for row in rows:
            if row.n >= 104:
                assert row.gap_analytic

    def test_domain(self):
        with pytest.raises(DomainError):
            verdict(14)

    def test_empty_range_rejected(self):
        # It used to return no rows, and the CLI printed a bare header.
        with pytest.raises(DomainError, match="the range is empty: n_to = 16 is below n_from = 17"):
            sweep(17, 16)
        assert [row.n for row in sweep(16, 16)] == [16]

    @pytest.mark.parametrize("n", [5000, 10000])
    def test_tolerance_below_rounding_raises(self, n):
        # exp(w^q - t) cancels terms of size ~n, so its rounding (about
        # 1.7e-12 relative at n = 5000) lies above a 1e-13 request.
        with pytest.raises(QuadratureError, match="rounding error of the integrand") as exc:
            verdict(n, QuadratureSpec(rel_tol=1e-13))
        assert exc.value.achieved > 0.0

    def test_quadrature_below_the_lower_bound_raises(self, monkeypatch):
        # J >= functional_lower_bound is proven, so a quadrature J of 1
        # (every nonnegative profile's floor) can only be a missed mass.
        lower = functional_lower_bound(make_params(104))
        monkeypatch.setattr(extremal, "cc_functional", lambda *_args: 1.0)
        message = (
            f"at n = 104 the quadrature J = 1.0 is below the proven lower bound {lower!r}:"
            " the quadrature missed the integrand's mass"
        )
        with pytest.raises(QuadratureError, match=re.escape(message)):
            verdict(104)

    def test_quadrature_within_the_allowance_of_the_bound_passes(self, monkeypatch):
        lower = functional_lower_bound(make_params(104))
        j_quad = lower * (1.0 - 1.9 * (DEFAULT_SPEC.rel_tol + DEFAULT_SPEC.truncation_epsilon))
        monkeypatch.setattr(extremal, "cc_functional", lambda *_args: j_quad)
        assert verdict(104).functional_quadrature == j_quad

    @pytest.mark.parametrize("excess", [8.0 * 2.0**-53, 1e-12, math.nan], ids=["8u", "1e-12", "nan"])
    def test_norm_above_the_chain_bound_raises(self, excess, monkeypatch):
        # The chain is a proven upper bound on the norm; the measured gap
        # is 6.40-6.75/n^2, far above the 4 u rounding allowance.
        chain = norm_chain_bound(make_params(104))
        norm = chain * (1.0 + excess)
        monkeypatch.setattr(extremal, "norm_quadrature", lambda _params: norm)
        message = (
            f"at n = 104 the integrated norm {norm!r} is above the proven chain bound"
            f" {chain!r} by more than rounding: the norm integration is wrong"
        )
        with pytest.raises(QuadratureError, match=re.escape(message)):
            verdict(104)

    def test_norm_within_the_rounding_allowance_passes(self, monkeypatch):
        norm = norm_chain_bound(make_params(104)) * (1.0 + 2.0 * 2.0**-53)
        monkeypatch.setattr(extremal, "norm_quadrature", lambda _params: norm)
        assert verdict(104).norm_quadrature == norm

    @pytest.mark.parametrize("n", [16, 104, 512, 5000, 20000, 10**5, 10**6])
    def test_norm_gap_is_far_above_rounding(self, n):
        params = make_params(n)
        gap = norm_chain_bound(params) - norm_quadrature(params)
        assert 6.3 / n**2 < gap < 6.8 / n**2

    def test_norm_check_survives_optimize_flag(self):
        script = (
            "import adamskit.extremal as extremal\n"
            "from adamskit.errors import QuadratureError\n"
            "extremal.norm_quadrature = lambda params: 2.0\n"
            "try:\n"
            "    extremal.verdict(104)\n"
            "except QuadratureError as exc:\n"
            "    print('debug' if __debug__ else 'optimized', exc)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(extremal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("optimized at n = 104 the integrated norm 2.0")

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-11, 1e-12])
    def test_converges_at_tight_tolerances(self, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol)
        for n in [*range(104, 513, 8), 600, 800, 1000, 1500, 2000, 3000, 5000, 7000, 10000]:
            assert verdict(n, spec).functional_quadrature > 0.0
