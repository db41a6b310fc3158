"""Differential oracle for ``profiles.abs_pow_integral`` against mpmath.quad.

Every piece type and branch the energies and the Hardy norms use is compared
with a 30-digit reference, on one-segment profiles: closed forms to 1e-13
relative, the quadrature branches to their spec's rel_tol.  The Hardy
probes' whole norms, one engine call each, are compared to 1e-10 relative,
and those whose first level is graded toward r = 0 to 1e-12.
"""

import bisect
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adamskit import hardy
from adamskit.constants import unit_ball_volume
from adamskit.hardy import HardySetup, Side
from adamskit.errors import DomainError
from adamskit.profiles import (
    ExpApproachPiece,
    LinearPiece,
    PiecewiseProfile,
    PowerPiece,
    abs_pow_integral,
    abs_pow_quadrature,
    kinks_at_roots,
    piecewise_linear,
)
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


def one_segment(piece, lo, hi):
    """The profile that is ``piece`` on [lo, hi], hi possibly inf."""
    if math.isinf(hi):
        return PiecewiseProfile(knots=(lo,), pieces=(), tail=piece)
    return PiecewiseProfile(knots=(lo, hi), pieces=(piece,))


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
        g = one_segment(piece, lo, hi)
        got = abs_pow_integral(g, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
        want = reference(lambda t: abs(mpmath.mpf(slope)) ** p, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)

    @pytest.mark.parametrize("slope, want", [(0.5, math.inf), (-2.0, math.inf), (0.0, 0.0)])
    def test_linear_to_infinity(self, slope, want):
        piece = LinearPiece(intercept=1.0, slope=slope)
        g = one_segment(piece, 3.0, math.inf)
        got = abs_pow_integral(g, 2.0, 0.0, 3.0, math.inf, DEFAULT_SPEC, derivative=True)
        assert got == want

    def test_no_closed_form_to_infinity_rejected(self):
        # The saturating exponential's value has no closed form at weight 0.
        tail = ExpApproachPiece(amplitude=1.0, rate=0.5, anchor=0.0)
        g = one_segment(tail, 0.0, math.inf)
        with pytest.raises(DomainError, match="exp piece over an unbounded interval"):
            abs_pow_integral(g, 2.0, 0.0, 0.0, math.inf, DEFAULT_SPEC)

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
        g = one_segment(piece, lo, hi)
        got = abs_pow_integral(g, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
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
        g = one_segment(piece, lo, hi)
        got = abs_pow_integral(g, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)
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
        run = g.tail
        # Per slab (f, a): the data value and a = F(s_lo) - f s_lo, F(s) the
        # integral of the data inside volume s; a zero-data slab pads the
        # data out to R.
        slabs, s_lo, big_f = [], mpmath.mpf(0), mpmath.mpf(0)
        for measure, value in cells:
            f = mpmath.mpf(value)
            slabs.append((f, big_f - f * s_lo))
            s_lo += mpmath.mpf(measure)
            big_f += f * mpmath.mpf(measure)
        slabs += [(mpmath.mpf(0), big_f)] * (len(radial.profile.pieces) - len(cells))
        omega = mpmath.pi ** (mpmath.mpf(n) / 2) / mpmath.gamma(mpmath.mpf(n) / 2 + 1)
        # The run's knots in t: t = n log(R/r) of its radii, R to 0.
        t_knots = (0.0, *(n * math.log(big_r / r) for r in run.radii[-2:0:-1]), math.inf)
        for lo, hi, (f, a) in zip(t_knots, t_knots[1:], reversed(slabs)):
            # The whole profile clipped to one piece: the others add 0.
            got = abs_pow_integral(g, p, 0.0, lo, hi, DEFAULT_SPEC, derivative=True)

            def integrand(t, f=f, a=a, scale=mpmath.mpf(run.scale)):
                # g'(t) = -scale v'(r) r / n at r = R e^{-t/n}, with the comparison
                # solution's closed-form v'(r) = -(a r^{1-n} + f omega r) / (n omega).
                r = mpmath.mpf(big_r) * mpmath.exp(-t / n)
                dv = -(a * r ** (1 - n) + f * omega * r) / (n * omega)
                return abs(scale * dv * r / n) ** p

            want = reference(integrand, [lo, hi])
            assert got == pytest.approx(want, rel=QUAD), (lo, hi)

    @pytest.mark.parametrize(
        "weight_pow, derivative", [(0.0, False), (1.0, True), (2.0, False)], ids=["value", "weighted", "norm"]
    )
    def test_log_radial_takes_only_its_energy(self, weight_pow, derivative):
        radial = talenti_radial_solution(SampledFunction(cells=((0.3, 2.0), (0.5, 1.0))), 4, 1.0)
        g = energy_change_of_variables(radial, 2)
        with pytest.raises(DomainError, match="only its energy"):
            abs_pow_integral(g, 2.0, weight_pow, 0.0, 3.0, DEFAULT_SPEC, derivative=derivative)


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
        g = one_segment(piece, lo, 1.0)
        got = abs_pow_integral(g, q, theta, lo, 1.0, DEFAULT_SPEC)
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
        g = one_segment(piece, lo, hi)
        got = abs_pow_integral(g, p, alpha, lo, hi, DEFAULT_SPEC, derivative=True)
        if lo == 0.0 and w1 <= 0.0:
            assert got == math.inf
            return
        assume(lo > 0.0 or w1 >= 0.05)  # keeps the reference's u^{20 w1 - 1} integrable
        c, e = mpmath.mpf(coeff), mpmath.mpf(exp_)
        want = reference(lambda r: abs(c * e * r ** (e - 1)) ** p * r**alpha, [lo, hi])
        assert got == pytest.approx(want, rel=CLOSED)


NORM = 1e-10
GRADED = 1e-12
LEFT = HardySetup(p=2.0, q=3.0, alpha=0.0, theta=0.4, R=1.5, side=Side.LEFT_VANISHING)
RIGHT = HardySetup(p=2.0, q=4.0, alpha=1.2, theta=-0.5, R=1.5, side=Side.RIGHT_VANISHING)
NEAR = HardySetup(p=2.0, q=2.5, alpha=1.2, theta=-0.3, R=1.2, side=Side.RIGHT_VANISHING)
NORM_CASES = {
    "left": (LEFT, hardy._random_trial(LEFT, np.random.default_rng(3))),
    # theta in (-1, 0): the knots go through r = R s^{1/(theta+1)} (at q = 4
    # the roots of u are no breaks).
    "right-substitution": (RIGHT, hardy._random_trial(RIGHT, np.random.default_rng(3))),
    # u(0.5) = -1e-9: roots 4.3e-10 below and 1e-9 above the knot 0.5.
    "root-near-knot": (
        NEAR,
        piecewise_linear(
            [0.0, 0.2, 0.5, 0.9, 1.2], [0.6, 0.7, -1e-9, 0.4, 0.0], constant_tail=False
        ),
    ),
}


def mp_linear_profile(u):
    """u's value in mpmath from its pieces' coefficients, c + s (r - a) on
    the piece anchored at a, and its knots and interior roots in increasing
    order."""
    knots = list(u.knots)
    lines = [tuple(map(mpmath.mpf, (pc.intercept, pc.slope, pc.anchor))) for pc in u.pieces]
    roots = [
        a - c / s for (c, s, a), lo, hi in zip(lines, knots, knots[1:]) if s and lo < a - c / s < hi
    ]

    def value(r):
        c, s, a = lines[min(bisect.bisect_right(knots, r), len(lines)) - 1]
        return c + s * (r - a)

    return value, sorted(knots + roots)


def mp_second_order(n, R, coeffs):
    """Coefficients, lowest first, of u = (R - r)^2 g(r) and r u'' + (n-1) u'."""
    base = (mpmath.mpf(R) ** 2, -2 * mpmath.mpf(R), 1)
    u = [mpmath.mpf(0)] * (len(coeffs) + 2)
    for i, c in enumerate(coeffs):
        for j, b in enumerate(base):
            u[i + j] += mpmath.mpf(c) * b
    du = [k * c for k, c in enumerate(u)][1:]
    lap = [(n - 1) * c for c in du]
    for k, c in enumerate([k * c for k, c in enumerate(du)][1:]):
        lap[k + 1] += c
    return u, lap


class TestWholeNorms:
    """``hardy``'s weighted norms, each one engine call with the knots and
    roots as first-level breaks; the references break at the same points."""

    @pytest.mark.parametrize("case", list(NORM_CASES))
    def test_trial_ratio_numerator(self, case):
        setup, u = NORM_CASES[case]
        got = abs_pow_integral(u, setup.q, setup.theta, 0.0, setup.R, DEFAULT_SPEC)
        with mpmath.workdps(30):
            value, points = mp_linear_profile(u)
            q, theta = mpmath.mpf(setup.q), mpmath.mpf(setup.theta)
            want = reference(lambda r: abs(value(r)) ** q * r**theta, points)
        assert got == pytest.approx(want, rel=NORM)

    @pytest.mark.parametrize(
        "n, p, q, R, seed, rel",
        [
            (8, 2.0, 3.5, 1.0, 5, NORM),
            (12, 3.0, 2.5, 2.0, 3, NORM),
            # Non-integer weights at lo = 0: the first level is graded toward 0.
            (8, 2.0, 2.6, 1.0, 4, GRADED),
            (6, 2.0, 2.6, 1.0, 4, GRADED),
        ],
        ids=["weight-in-(-1,0)", "p=3", "graded-weights-1.15-3.15", "graded-weights-(-0.38)-1.62"],
    )
    def test_second_order_integrals(self, n, p, q, R, seed, rel, monkeypatch):
        integrals = []
        integrate = hardy._abs_pow_poly_integral

        def recording(coef, *args):
            integrals.append(integrate(coef, *args))
            return integrals[-1]

        monkeypatch.setattr(hardy, "_abs_pow_poly_integral", recording)
        coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, size=4)
        hardy.second_order_trial_ratio(n, p, q, R, np.polynomial.Polynomial(coeffs))
        with mpmath.workdps(30):
            u, lap = mp_second_order(n, R, coeffs)
            p_, q_ = mpmath.mpf(p), mpmath.mpf(q)
            weights = (p_ * (n - 2 * q_) / q_ - 1, n * p_ / q_ - 1 - p_)
            # Interior roots of u are those of g; r u'' + (n-1) u' has no double root.
            polys = ((u, coeffs), (lap, lap))
            for got, (poly, rooted), weight in zip(integrals, polys, weights, strict=True):
                roots = mpmath.polyroots([mpmath.mpf(c) for c in rooted[::-1]], extraprec=60)
                real = [mpmath.re(x) for x in roots if abs(mpmath.im(x)) < 1e-20]
                inner = sorted(x for x in real if 0 < x < R)

                def f(r, poly=poly, weight=weight):
                    return abs(mpmath.polyval(poly[::-1], r)) ** p_ * r**weight

                want = reference(f, [0.0] + inner + [R])
                assert got == pytest.approx(want, rel=rel)

    @pytest.mark.parametrize("theta", [0.05, 0.094, 0.3, 0.42, 0.73, 1.4, -0.3, -0.8])
    def test_graded_trial_ratio_numerator(self, theta):
        # A non-integer theta grades the first level toward r = 0; theta in
        # (-1, 0) goes through r = R s^{1/(theta+1)} and is graded in s.
        # At theta = 0.05 and 0.3 the grading is deepest, K = 32 and 26.
        setup = HardySetup(p=2.0, q=2.5, alpha=1.05, theta=theta, R=1.5, side=Side.RIGHT_VANISHING)
        u = hardy._random_trial(setup, np.random.default_rng(11))
        got = abs_pow_integral(u, setup.q, setup.theta, 0.0, setup.R, DEFAULT_SPEC)
        with mpmath.workdps(30):
            value, points = mp_linear_profile(u)
            q, theta_ = mpmath.mpf(setup.q), mpmath.mpf(theta)
            want = reference(lambda r: abs(value(r)) ** q * r**theta_, points)
        assert got == pytest.approx(want, rel=GRADED)


def run_breaks(u, lo, hi, power):
    """The knots of ``u`` strictly inside (lo, hi), on which every piece is
    linear and not constant, and its roots there unless ``power`` is even."""
    breaks = []
    for a, b, piece in u.segments():
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if lo < a:
            breaks.append(a)
        root = piece.anchor - piece.intercept / piece.slope
        if kinks_at_roots(power) and a < root < b:
            breaks.append(root)
    return breaks


GATHER_SETUPS = {
    "left": LEFT,
    "left-q=1.7": HardySetup(p=1.5, q=1.7, alpha=-0.2, theta=0.73, R=2.0, side=Side.LEFT_VANISHING),
    "right-substitution": RIGHT,
    "right-theta=1.4": HardySetup(p=2.0, q=2.5, alpha=1.2, theta=1.4, R=0.7, side=Side.RIGHT_VANISHING),
}


def point_slope_value(u):
    """The polyline ``u``'s values in point-slope form, ys[i] + s_i (r - ts[i])
    with ts[i] the last knot at or below r and s_i = (ys[i+1] - ys[i]) /
    (ts[i+1] - ts[i]) (0 from the last knot on), from its given knots and
    values."""
    ts, ys = u.ts, u.ys
    slopes = np.append(np.diff(ys) / np.diff(ts), 0.0)

    def value(r):
        i = np.searchsorted(ts, r, side="right") - 1
        return ys[i] + slopes[i] * (r - ts[i])

    return value


class TestLinearGather:
    """A polyline's value run is integrated from one ``np.interp`` of its
    knots and values per level.  It must give the bits of one
    ``abs_pow_quadrature`` call of the point-slope values over the run."""

    @pytest.mark.parametrize("setup", list(GATHER_SETUPS.values()), ids=list(GATHER_SETUPS))
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_the_profile_value_route(self, setup, seed):
        u = hardy._random_trial(setup, np.random.default_rng(seed))
        knots, values = np.array(u.knots), u.value(np.array(u.knots))
        trials = [u, piecewise_linear(knots, values)]  # the second with a constant tail
        if setup.side is Side.LEFT_VANISHING:
            # Two more knots in the zero segment [0, x0].
            zeros = knots[1] * np.array([0.25, 0.5])
            trials.append(
                piecewise_linear(
                    np.insert(knots, 1, zeros), np.insert(values, 1, [0.0, 0.0]), constant_tail=False
                )
            )
        for trial in trials:
            start = next(a for a, _b, piece in trial.segments() if piece.slope != 0.0)
            want = abs_pow_quadrature(
                point_slope_value(trial), setup.q, setup.theta, start, setup.R, DEFAULT_SPEC,
                breaks=run_breaks(trial, start, setup.R, setup.q),
            )
            got = abs_pow_integral(trial, setup.q, setup.theta, 0.0, setup.R, DEFAULT_SPEC)
            assert got == want

    def test_no_per_node_dispatch(self, monkeypatch):
        u = hardy._random_trial(RIGHT, np.random.default_rng(0))
        want = abs_pow_integral(u, RIGHT.q, RIGHT.theta, 0.0, RIGHT.R, DEFAULT_SPEC)

        def refuse(self, t):
            raise AssertionError("PiecewiseProfile.value called")

        monkeypatch.setattr(PiecewiseProfile, "value", refuse)
        assert abs_pow_integral(u, RIGHT.q, RIGHT.theta, 0.0, RIGHT.R, DEFAULT_SPEC) == want
