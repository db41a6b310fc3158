"""Differential oracle for ``profiles.abs_pow_integral`` against mpmath.quad.

Every piece type and branch the energies and the Hardy norms use is compared
with a 30-digit reference: closed forms to 1e-13 relative, the quadrature
branches to their spec's rel_tol.
"""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adamskit.constants import unit_ball_volume
from adamskit.profiles import ExpApproachPiece, LinearPiece, PowerPiece, abs_pow_integral
from adamskit.quadrature import DEFAULT_SPEC
from adamskit.rearrange import SampledFunction, energy_change_of_variables, talenti_radial_solution

CLOSED = 1e-13
QUAD = DEFAULT_SPEC.rel_tol
oracle = settings(max_examples=12, deadline=None, derandomize=True)


def reference(f, points):
    """integral of f over [points[0], points[-1]] split at ``points``, 30 digits.

    The last point may be inf.  On a finite first segment [0, b] the
    integrand may be as singular as r^{-0.95}, where tanh-sinh alone loses
    digits, so it is integrated in u with r = b u^20, which leaves
    u^{20 w - 1} for r^{w - 1}.
    """
    with mpmath.workdps(30):
        pts = [mpmath.mpf(x) for x in points]
        total = mpmath.mpf(0)
        if pts[0] == 0 and mpmath.isfinite(pts[1]):
            b = pts[1]
            total += mpmath.quad(lambda u: f(b * u**20) * 20 * b * u**19, [0, 1])
            pts = pts[1:]
        if len(pts) > 1:
            total += mpmath.quad(f, pts)
        return float(total)


exponent = st.floats(1.1, 4.0)


class TestEnergies:
    @oracle
    @given(
        slope=st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 1e-3),
        p=exponent,
        lo=st.sampled_from([0.0, 0.1, 0.7, 2.5]),
        width=st.floats(1e-3, 50.0),
    )
    def test_linear(self, slope, p, lo, width):
        piece = LinearPiece(intercept=0.3, slope=slope)
        hi = lo + width
        got = abs_pow_integral(piece, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
        want = reference(lambda t: abs(mpmath.mpf(slope)) ** p, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)

    @pytest.mark.parametrize("slope, want", [(0.5, math.inf), (-2.0, math.inf), (0.0, 0.0)])
    def test_linear_to_infinity(self, slope, want):
        piece = LinearPiece(intercept=1.0, slope=slope)
        got = abs_pow_integral(piece, 2.0, 0.0, 3.0, math.inf, DEFAULT_SPEC, derivative=True)
        assert got == want

    @oracle
    @given(
        coeff=st.floats(0.1, 3.0),
        shift=st.floats(-2.0, 2.0),
        exp_=st.floats(0.2, 2.5),
        p=exponent,
        gap=st.floats(0.05, 3.0),
        width=st.floats(0.01, 20.0),
    )
    def test_shifted_power(self, coeff, shift, exp_, p, gap, width):
        piece = PowerPiece(coeff=coeff, shift=shift, exponent=exp_, offset=0.7)
        lo = shift + gap
        hi = lo + width
        got = abs_pow_integral(piece, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
        c, e, s = (mpmath.mpf(x) for x in (coeff, exp_, shift))
        want = reference(lambda t: abs(c * e * (t - s) ** (e - 1)) ** p, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)

    @oracle
    @given(
        amplitude=st.floats(-3.0, 3.0).filter(lambda a: abs(a) > 1e-3),
        rate=st.floats(0.05, 3.0),
        p=exponent,
        gap=st.floats(0.0, 5.0),
        width=st.one_of(st.floats(0.01, 30.0), st.just(math.inf)),
    )
    def test_saturating(self, amplitude, rate, p, gap, width):
        piece = ExpApproachPiece(amplitude=amplitude, rate=rate, anchor=1.0, offset=0.2)
        lo = 1.0 + gap
        hi = lo + width
        got = abs_pow_integral(piece, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
        a, k = mpmath.mpf(amplitude), mpmath.mpf(rate)
        want = reference(lambda t: abs(a * k * mpmath.exp(-k * (t - 1))) ** p, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)

    @settings(oracle, max_examples=6)
    @given(
        n=st.integers(2, 5),
        big_r=st.floats(0.5, 2.0),
        values=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3),
        shares=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
        fill=st.floats(0.3, 1.0),
    )
    def test_log_radial_against_t_space(self, n, big_r, values, shares, fill):
        values = sorted(values, reverse=True)
        shares = shares[: len(values)]
        ball = unit_ball_volume(n) * big_r**n
        cells = [(fill * ball * s / sum(shares), v) for s, v in zip(shares, values)]
        radial = talenti_radial_solution(SampledFunction(cells=tuple(cells)), n, big_r)
        m = n - 1
        p = n / m
        g = energy_change_of_variables(radial, m)
        for lo, hi, piece in g.segments():
            got = abs_pow_integral(piece, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
            src = piece.source
            omega, f, s_lo = (mpmath.mpf(x) for x in (src.omega, src.f_val, src.s_lo))
            a = mpmath.mpf(src.f_accum) - f * s_lo

            def integrand(t, omega=omega, f=f, a=a, scale=mpmath.mpf(piece.scale)):
                # g'(t) = -scale v'(r) r / n at r = R e^{-t/n}, with the comparison
                # piece's closed-form v'(r) = -(a r^{1-n} + f omega r) / (n omega).
                r = mpmath.mpf(big_r) * mpmath.exp(-t / n)
                dv = -(a * r ** (1 - n) + f * omega * r) / (n * omega)
                return abs(scale * dv * r / n) ** p

            want = reference(integrand, [lo, hi])
            assert got == pytest.approx(want, rel=QUAD), (lo, hi)


class TestHardyIntegrals:
    @pytest.mark.parametrize(
        "lo, thetas",
        [
            (0.0, st.floats(-0.95, -0.05)),  # the substitution r = hi s^{1/(theta+1)}
            (0.0, st.floats(0.05, 3.0)),
            (0.02, st.just(-1.0)),
            (0.02, st.floats(-0.95, 3.0)),
        ],
        ids=["substitution", "positive-theta", "theta=-1", "lo>0"],
    )
    @settings(oracle, max_examples=6)
    @given(
        root=st.floats(0.05, 0.95),
        slope=st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 1e-2),
        q=exponent,
        data=st.data(),
    )
    def test_linear_value_with_interior_root(self, lo, thetas, root, slope, q, data):
        theta = data.draw(thetas)
        piece = LinearPiece(intercept=-slope * root, slope=slope)
        got = abs_pow_integral(piece, q, theta, lo, 1.0, DEFAULT_SPEC)
        s, r0 = mpmath.mpf(slope), mpmath.mpf(root)
        want = reference(lambda r: abs(s * (r - r0)) ** q * r**theta, [lo, root, 1.0])
        assert got == pytest.approx(want, rel=QUAD)

    @oracle
    @given(
        coeff=st.floats(-3.0, 3.0).filter(lambda c: abs(c) > 1e-3),
        exp_=st.floats(0.3, 3.0),
        p=exponent,
        alpha=st.floats(-0.9, 2.0),
        lo=st.sampled_from([0.0, 0.25]),
        hi=st.floats(0.5, 4.0),
    )
    def test_derivative_of_pure_power(self, coeff, exp_, p, alpha, lo, hi):
        piece = PowerPiece(coeff=coeff, shift=0.0, exponent=exp_, offset=0.0)
        w1 = (exp_ - 1.0) * p + alpha + 1.0
        got = abs_pow_integral(piece, p, alpha, lo, hi, DEFAULT_SPEC, derivative=True)
        if lo == 0.0 and w1 <= 0.0:
            assert got == math.inf
            return
        assume(lo > 0.0 or w1 >= 0.05)  # keeps the reference's u^{20 w1 - 1} integrable
        c, e = mpmath.mpf(coeff), mpmath.mpf(exp_)
        want = reference(lambda r: abs(c * e * r ** (e - 1)) ** p * r**alpha, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)
