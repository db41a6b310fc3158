"""Log-gamma, digamma and the Euler-Mascheroni constant against
independent oracles.

Oracles: exact rational harmonic sums, series partial sums with analytic
tail brackets, Richardson extrapolation, half-integer quadrature,
scipy.special as an independently-coded reference, and 30-digit mpmath.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special as sps
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from adamskit.errors import DomainError
from adamskit.specfun import EULER_GAMMA, digamma, log_gamma


def harmonic(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k; fsum rounds the sum of the terms once."""
    return math.fsum(1.0 / j for j in range(k, 0, -1))


class TestGamma:
    """Gamma(x) as exp(log_gamma(x)), and log_gamma itself."""

    def test_factorial_value(self):
        assert math.exp(log_gamma(5.0)) == pytest.approx(24.0, rel=2e-15)
        assert math.exp(log_gamma(1.0)) == pytest.approx(1.0, rel=2e-15)

    def test_half_integer_against_quadrature(self):
        # Independent oracle: Gamma(1/2) = int_0^inf t^{-1/2} e^{-t} dt,
        # integrated as 2 int_0^inf e^{-u^2} du (t = u^2 kills the singularity).
        oracle, err = quad(lambda u: 2.0 * math.exp(-u * u), 0.0, np.inf, limit=200)
        assert math.exp(log_gamma(0.5)) == pytest.approx(oracle, abs=max(1e-12, 2 * err))
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=2e-15)

    def test_against_scipy_grid(self):
        xs = np.linspace(0.5, 171.0, 700)
        ours = np.array([log_gamma(float(x)) for x in xs])
        ref = sps.gammaln(xs)
        assert np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref))) < 1e-15

    def test_recurrence(self):
        # ln Gamma(x + 1) - ln Gamma(x) = ln x.
        for x in np.linspace(0.5, 50.0, 250):
            x = float(x)
            assert abs(log_gamma(x + 1.0) - log_gamma(x) - math.log(x)) <= 1e-12

    def test_domain_and_overflow(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-3.2)
        # Past the double range of Gamma itself, its logarithm stays finite.
        assert log_gamma(172.0) == pytest.approx(float(sps.gammaln(172.0)), rel=1e-14)

    def test_log_gamma_matches_scipy(self):
        xs = np.concatenate((np.linspace(0.5, 20, 100), [64.0, 128.0, 345.6]))
        for x in xs:
            assert log_gamma(float(x)) == pytest.approx(float(sps.gammaln(x)), abs=5e-13)


class TestDigamma:
    def test_at_one(self):
        # psi(1) = -gamma.
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-15)

    def test_at_two_via_recurrence(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-15)

    def test_harmonic_bridge_exact_rational(self):
        h10 = Fraction(0)
        for j in range(1, 11):
            h10 += Fraction(1, j)
        assert h10 == Fraction(7381, 2520)
        assert digamma(11.0) == pytest.approx(float(h10) - EULER_GAMMA, abs=1e-15)

    def test_harmonic_bridge_up_to_200(self):
        for k in range(1, 201):
            assert abs(digamma(k + 1.0) + EULER_GAMMA - harmonic(k)) <= 2e-15

    def test_recurrence_invariant(self):
        for x in np.linspace(0.5, 100.0, 400):
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 4e-15

    def test_series_partial_sums(self):
        # psi(x) - psi(1) = sum_k (1/(k+1) - 1/(x+k)); tail after K terms is
        # sum_{k>=K} (x-1)/((k+1)(x+k)), bracketed by (x-1)/(K+x) and (x-1)/K.
        for x in (1.5, 3.0, 7.25):
            k = np.arange(0, 2_000_000)
            partial = float(np.sum(1.0 / (k + 1.0) - 1.0 / (x + k)))
            lo, hi = (x - 1) / (2_000_000 + x), (x - 1) / 2_000_000
            diff = digamma(x) - digamma(1.0) - partial
            assert lo - 1e-12 <= diff <= hi + 1e-12

    def test_monotone_on_grid(self):
        xs = np.linspace(0.25, 30.0, 500)
        vals = [digamma(float(x)) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)
        with pytest.raises(DomainError):
            digamma(-1.0)


class TestAgainstMpmath:
    """30-digit references on a grid over [0.5, 500], near 0 and near the
    root of ln Gamma at 1, relative to max(1, |reference|)."""

    XS = [*map(float, np.linspace(0.5, 500.0, 2000)), 1e-3, 1.0 + 1e-9]

    @pytest.mark.parametrize(
        "fn, ref, tol", [(log_gamma, mpmath.loggamma, 1e-15), (digamma, mpmath.digamma, 5e-16)],
        ids=["log_gamma", "digamma"],
    )
    def test_grid(self, fn, ref, tol):
        with mpmath.workdps(30):
            want = [ref(mpmath.mpf(x)) for x in self.XS]
            worst = max(abs(fn(x) - w) / max(1, abs(w)) for x, w in zip(self.XS, want))
        assert worst <= tol, worst


class TestEulerGamma:
    def test_richardson_extrapolation_oracle(self):
        # gamma = lim (H_n - ln n); the error expands in powers of 1/n, so
        # Richardson with node doubling converges fast.
        levels = 11
        table = []
        for k in range(levels):
            n = 20 * 2**k
            table.append(harmonic(n) - math.log(n))
        table = [table]
        for j in range(1, levels):
            prev = table[-1]
            factor = 2.0**j
            table.append(
                [
                    (factor * prev[i + 1] - prev[i]) / (factor - 1.0)
                    for i in range(len(prev) - 1)
                ]
            )
        oracle = table[-1][0]
        assert EULER_GAMMA == pytest.approx(oracle, abs=1e-12)

    def test_digamma_consistency(self):
        assert abs(digamma(1.0) + EULER_GAMMA) <= 1e-12

    def test_below_seventeen_twentyfourths(self):
        assert EULER_GAMMA < 17.0 / 24.0


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(float(Fraction(25, 12)), abs=1e-15)

    def test_exact_against_fractions(self):
        for k in (2, 7, 33, 100):
            exact = sum(Fraction(1, j) for j in range(1, k + 1))
            assert harmonic(k) == pytest.approx(float(exact), abs=2e-16 * k)

    def test_qiu_estimate_at_100(self):
        # H_k - ln k < gamma + 1/(2k) - beta/k^2 with beta = gamma - 1/2.
        beta = EULER_GAMMA - 0.5
        gamma_100 = harmonic(100) - math.log(100)
        assert gamma_100 < EULER_GAMMA + 1.0 / 200.0 - beta / 10_000.0

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=1, max_value=20_000))
    def test_gap_to_log_bracket(self, k):
        gap = harmonic(k) - math.log(k) - EULER_GAMMA
        assert 0.0 < gap < 1.0 / (2.0 * k)
