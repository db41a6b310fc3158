"""Closed-form constants: parity formulas, product identities, level, threshold."""

import math
import sys

import numpy as np
import pytest
import scipy.special as sps

from adamskit.constants import (
    SIGMA,
    AdamsParams,
    beta0,
    beta0_product_form,
    concentration_level,
    eta_exponent,
    log_unit_sphere_area,
    t_zero,
    unit_ball_volume,
    unit_sphere_area,
)
from adamskit.errors import DomainError


class TestAdamsParams:
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (1, 1), (0, 5), (-1, 4)])
    def test_rejects_invalid(self, m, n):
        with pytest.raises(DomainError):
            AdamsParams(m, n)

    def test_rejects_non_integers(self):
        with pytest.raises(DomainError):
            AdamsParams(1.5, 4)  # type: ignore[arg-type]


class TestSphereConstants:
    def test_known_dimensions(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2, rel=1e-14)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3, rel=1e-14)

    def test_area_is_n_times_volume(self):
        for n in range(2, 65):
            assert unit_sphere_area(n) == pytest.approx(n * unit_ball_volume(n), rel=1e-15)

    def test_against_scipy_gammaln(self):
        for n in range(2, 65):
            ref = math.exp(
                math.log(2.0) + (n / 2) * math.log(math.pi) - float(sps.gammaln(n / 2))
            )
            assert unit_sphere_area(n) == pytest.approx(ref, rel=1e-13)

    def test_underflow_refers_to_log_area(self):
        # Subnormal from n = 439, exactly 0 from n = 456.
        assert unit_sphere_area(438) >= sys.float_info.min
        for n in (439, 456, 100000):
            with pytest.raises(DomainError, match="log_unit_sphere_area"):
                unit_sphere_area(n)
        assert math.isfinite(log_unit_sphere_area(100000))


class TestBeta0:
    def test_first_order_planar(self):
        # Hand evaluation of the odd branch: (2/(2pi)) (2 pi)^2 = 4 pi.
        assert beta0(AdamsParams(1, 2)) == pytest.approx(4 * math.pi, rel=1e-12)

    def test_second_order_dim4(self):
        # Even branch with omega_3 = 2 pi^2: (4/(2 pi^2)) (4 pi^2)^2 = 32 pi^2.
        assert beta0(AdamsParams(2, 4)) == pytest.approx(32 * math.pi**2, rel=1e-12)

    def test_second_order_identity(self):
        # [omega^{2/n} n^{(n-2)/n} (n-2)]^{n/(n-2)}, n = 3..64.
        for n in range(3, 65):
            omega = unit_sphere_area(n)
            ident = (omega ** (2 / n) * n ** ((n - 2) / n) * (n - 2)) ** (n / (n - 2))
            assert beta0(AdamsParams(2, n)) == pytest.approx(ident, rel=1e-12)

    def test_product_form_agreement(self):
        for m in range(1, 7):
            for n in range(m + 1, 65):
                params = AdamsParams(m, n)
                assert beta0_product_form(params) == pytest.approx(
                    beta0(params), rel=1e-10
                )

    def test_product_form_spot_values(self):
        assert beta0_product_form(AdamsParams(2, 6)) == pytest.approx(
            beta0(AdamsParams(2, 6)), rel=1e-10
        )
        assert beta0_product_form(AdamsParams(4, 8)) == pytest.approx(
            beta0(AdamsParams(4, 8)), rel=1e-10
        )
        assert beta0_product_form(AdamsParams(1, 2)) == pytest.approx(
            4 * math.pi, rel=1e-12
        )

    def test_positive_and_finite(self):
        for m in range(1, 7):
            for n in range(m + 1, 65):
                value = beta0(AdamsParams(m, n))
                assert 0.0 < value < math.inf


class TestConcentrationLevel:
    def test_classical_value(self):
        # n/m = 2 gives psi(2) + gamma = 1, hence 1 + e per unit measure.
        assert concentration_level(AdamsParams(1, 2), 1.0) == pytest.approx(
            1.0 + math.e, rel=1e-15
        )
        assert concentration_level(AdamsParams(2, 4), 1.0) == pytest.approx(
            1.0 + math.e, rel=1e-15
        )

    def test_linear_in_measure(self):
        assert concentration_level(AdamsParams(2, 4), 2.0) == pytest.approx(
            2.0 * (1.0 + math.e), rel=1e-14
        )

    def test_increasing_in_ratio(self):
        levels = [concentration_level(AdamsParams(1, n), 1.0) for n in range(2, 30)]
        assert all(b > a for a, b in zip(levels, levels[1:]))

    def test_measure_domain(self):
        with pytest.raises(DomainError):
            concentration_level(AdamsParams(1, 2), 0.0)


class TestEtaExponent:
    def test_zero_weak_limit(self):
        assert eta_exponent(0.0, 2.0) == 1.0

    def test_half_energy(self):
        assert eta_exponent(2.0**-0.5, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_monotone_divergence_toward_pole(self):
        norms = 1.0 - np.geomspace(0.5, 1e-8, 24)
        vals = [eta_exponent(float(v), 2.0) for v in norms]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 1e7
        assert all(v >= 1.0 for v in vals)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            eta_exponent(1.0, 2.0)
        with pytest.raises(DomainError):
            eta_exponent(1.5, 2.0)
        with pytest.raises(DomainError):
            eta_exponent(0.5, 1.0)


class TestThreshold:
    def test_raw_value(self):
        assert t_zero().raw == pytest.approx(51.9233, abs=5e-4)

    def test_integer_and_dimension_threshold(self):
        result = t_zero()
        assert result.integer == 52
        assert 2 * result.integer == 104
        assert result.integer - 1 < result.raw <= result.integer

    def test_sigma_component(self):
        assert SIGMA == pytest.approx(1.0 + 2.0 / math.sqrt(3.0), rel=1e-15)
        assert SIGMA == pytest.approx(2.1547, abs=5e-5)
