"""Piece machinery: evaluation, continuity validation, strict mode, serialization."""

import math

import mpmath
import numpy as np
import pytest

from adamskit.errors import DomainError, NonSmoothError, QuadratureError
from adamskit.profiles import (
    ExpApproachPiece,
    LinearPiece,
    PiecewiseProfile,
    PowerPiece,
    constant_piece,
    piecewise_linear,
)
from adamskit.quadrature import QuadratureSpec, adaptive_gauss, power_integral


class TestPieces:
    def test_linear(self):
        piece = LinearPiece(intercept=1.0, slope=-2.0)
        assert piece.value(3.0) == -5.0
        assert piece.derivative(10.0) == -2.0
        assert piece.second_derivative(1.0) == 0.0

    def test_power(self):
        piece = PowerPiece(coeff=2.0, shift=1.0, exponent=0.5, offset=3.0)
        assert piece.value(5.0) == pytest.approx(2.0 * 2.0 + 3.0)
        assert piece.derivative(5.0) == pytest.approx(0.5)
        assert piece.second_derivative(5.0) == pytest.approx(-0.0625)

    def test_exp_approach(self):
        piece = ExpApproachPiece(amplitude=2.0, rate=0.5, anchor=1.0, offset=0.25)
        assert piece.value(1.0) == pytest.approx(0.25)
        assert piece.limit_value == 2.25
        h = 1e-6
        fd = (piece.value(3.0 + h) - piece.value(3.0 - h)) / (2 * h)
        assert piece.derivative(3.0) == pytest.approx(fd, rel=1e-8)

class TestPiecewiseProfile:
    def test_continuity_enforced(self):
        with pytest.raises(DomainError):
            PiecewiseProfile(
                knots=(0.0, 1.0, 2.0),
                pieces=(constant_piece(1.0), constant_piece(2.0)),
                tail=None,
            )

    def test_vector_evaluation_and_piece_routing(self):
        g = piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 1.0])
        ts = np.array([0.25, 1.0, 2.0, 5.0])
        np.testing.assert_allclose(g.value(ts), [0.5, 2.0, 1.5, 1.0], rtol=1e-14)
        assert g.derivative(0.5) == 2.0
        assert g.derivative(2.0) == -0.5
        assert g.derivative(10.0) == 0.0  # constant tail

    def test_domain_errors(self):
        g = piecewise_linear([0.0, 1.0], [0.0, 1.0], constant_tail=False)
        with pytest.raises(DomainError):
            g.value(1.5)
        with pytest.raises(DomainError):
            g.value(-0.1)

    def test_strict_interior_raises_at_knots(self):
        g = PiecewiseProfile(
            knots=(0.0, 1.0, 2.0),
            pieces=(constant_piece(1.0), constant_piece(1.0)),
            tail=None,
            strict_interior=True,
        )
        with pytest.raises(NonSmoothError):
            g.value(1.0)
        assert g.value(0.5) == 1.0

    def test_serialization_shape(self):
        g = piecewise_linear([0.0, 2.0], [0.0, 1.0])
        payload = g.to_json_obj()
        assert [entry["piece_kind"] for entry in payload] == ["linear", "linear"]
        assert payload[0]["knot"] == 0.0
        assert set(payload[0]["params"]) == {"intercept", "slope"}

    def test_monotone_knots_required(self):
        with pytest.raises(DomainError):
            piecewise_linear([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])


class TestAdaptiveGauss:
    def test_polynomial_exact(self):
        value = adaptive_gauss(lambda x: x**6 - 3 * x**2, 0.0, 2.0)
        assert value == pytest.approx(2.0**7 / 7 - 2.0**3, rel=1e-14)

    def test_oscillatory_against_closed_form(self):
        spec = QuadratureSpec(rel_tol=1e-12)
        value = adaptive_gauss(lambda x: np.sin(40.0 * x), 0.0, 1.0, spec)
        assert value == pytest.approx((1 - math.cos(40.0)) / 40.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureSpec(truncation_epsilon=1.0)

    def test_nan_integrand_raises(self):
        # NaN fails every comparison, so without a check the loop reads it
        # as converged and returns NaN.
        with pytest.raises(QuadratureError, match=r"NaN on the panel \[0.0, 1.0\]"):
            adaptive_gauss(lambda x: np.full_like(x, np.nan), 0.0, 1.0)


class TestPowerIntegral:
    @pytest.mark.parametrize(
        "c, w1, a, b",
        [
            (1.5, -0.5, 2.0, math.inf),  # b = inf
            (2.0, 0.75, 0.0, 3.0),  # a = 0
            (0.5, 0.0, 0.25, 4.0),  # w1 = 0: logarithm
            (3.0, -1.3, 0.2, 5.0),  # generic expm1 form
            # Rounding residue of w1 = 0: the naive (b^w1 - a^w1)/w1 gives
            # 3.33 here, against ln 14 = 2.64.
            (1.0, 1e-16, 0.5, 7.0),
        ],
    )
    def test_against_mpmath(self, c, w1, a, b):
        with mpmath.workdps(40):
            ref = c * mpmath.quad(lambda x: x ** (mpmath.mpf(w1) - 1), [a, b])
        assert power_integral(c, w1, a, b) == pytest.approx(float(ref), rel=1e-14)

    @pytest.mark.parametrize(
        "w1, a, b",
        [(-0.5, 0.0, 2.0), (0.0, 0.0, 2.0), (0.0, 1.0, math.inf), (0.5, 1.0, math.inf),
         (-0.5, 0.0, math.inf)],
    )
    def test_divergent_end_is_inf(self, w1, a, b):
        assert power_integral(2.0, w1, a, b) == math.inf
