"""Energy, the exponential functional, the tail certificate, and the maximizer."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from adamskit import extremal, moser1d
from adamskit.errors import DomainError, EnergyBoundError, QuadratureError
from adamskit.moser1d import (
    cc_functional,
    cc_integral,
    cc_lemma_bound,
    concentration_maximizer,
    energy,
    moser_family,
)
from adamskit.profiles import (
    ExpApproachPiece,
    LinearPiece,
    PiecewiseProfile,
    PowerPiece,
    constant_piece,
    piecewise_linear,
)
from adamskit.quadrature import QuadratureSpec
from adamskit.rearrange import SampledFunction, energy_change_of_variables, talenti_radial_solution
from adamskit.specfun import EULER_GAMMA, digamma


def ramp_profile(a: float, p: float) -> PiecewiseProfile:
    return moser_family(a, p)


class TestEnergy:
    def test_unit_ramp(self):
        # g(t) = t a^{-1/p} on [0, a] has |g'|^p = 1/a.
        g = ramp_profile(3.7, 2.0)
        assert energy(g, 2.0) == pytest.approx(1.0, rel=1e-13)

    def test_constant_profile(self):
        g = PiecewiseProfile(knots=(0.0, 1.0), pieces=(constant_piece(2.0),), tail=constant_piece(2.0))
        assert energy(g, 2.0) == 0.0

    def test_subinterval_is_proportional(self):
        g = ramp_profile(10.0, 3.0)
        for window in (2.5, 7.0, 10.0, 25.0):
            assert energy(g, 3.0, (0.0, window)) == pytest.approx(
                min(window, 10.0) / 10.0, rel=1e-12
            )

    def test_against_finite_difference_oracle_on_polyline(self):
        # Independent oracle: midpoint Riemann sum of |dg/dt|^p with the
        # derivative taken by central differences of g.value.
        rng = np.random.default_rng(7)
        ts = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 9.0, 6)), [10.0]))
        ys = rng.uniform(0.0, 2.0, ts.size)
        g = piecewise_linear(ts, ys)
        p = 2.5
        h = 1e-7
        brute = 0.0
        for lo, hi in zip(ts[:-1], ts[1:]):
            mids = np.linspace(lo, hi, 101)[:-1] + (hi - lo) / 200.0
            deriv = (g.value(mids + h) - g.value(mids - h)) / (2.0 * h)
            brute += float(np.mean(np.abs(deriv) ** p)) * (hi - lo)
        assert energy(g, p) == pytest.approx(brute, rel=1e-6)


class TestCcFunctional:
    def test_zero_profile(self):
        g = PiecewiseProfile(knots=(0.0, 1.0), pieces=(constant_piece(0.0),), tail=constant_piece(0.0))
        assert cc_functional(g, 2.0) == pytest.approx(1.0, rel=1e-11)

    def test_moser_element_against_fine_grid(self):
        # J(g_4) = int_0^4 exp(t^2/4 - t) dt + 1, via an independent
        # Riemann-sum oracle on a fine grid.
        a = 4.0
        g = ramp_profile(a, 2.0)
        t = np.linspace(0.0, a, 4_000_001)
        f = np.exp(t**2 / a - t)
        oracle = float(np.trapezoid(f, t)) + 1.0
        assert cc_functional(g, 2.0) == pytest.approx(oracle, abs=1e-8)

    def test_functional_at_least_one(self):
        for a in (0.5, 2.0, 40.0):
            for p in (2.0, 3.0):
                q = p / (p - 1.0)
                assert cc_functional(ramp_profile(a, p), q) >= 1.0

    def test_missed_mass_raises(self):
        # At t = 1e20 the exponent g^q - t rounds to a multiple of 2^14, so
        # no quadrature of this ramp can resolve its end strip; it is
        # refused before the engine runs.
        with pytest.raises(QuadratureError, match="relative rounding of .* can absorb"):
            cc_functional(moser_family(1e20, 3.0), 1.5)

    def test_j_below_one_raises(self, monkeypatch):
        # J >= 1 on every nonnegative profile; an engine that misses all the
        # mass (here: returns 0.0 on every piece) trips the floor.
        monkeypatch.setattr(moser1d, "adaptive_gauss", lambda *args, **kwargs: 0.0)
        w = extremal.test_function(extremal.make_params(16))
        with pytest.raises(QuadratureError, match="missed the integrand's mass"):
            cc_functional(w, 16.0 / 14.0)

    @pytest.mark.parametrize("a", [1e-9, 1e-300])
    def test_near_zero_ramp_stays_at_one(self, a):
        # J = 1 + O(a) for the ramp a^{-1/2} t on [0, a] with plateau a^{1/2}.
        assert cc_functional(moser_family(a, 2.0), 2.0) == pytest.approx(1.0, rel=1e-8)

    def test_energy_violation_raises_and_unchecked_works(self):
        g = piecewise_linear([0.0, 1.0], [0.0, 1.5])  # energy 2.25 at p = 2
        with pytest.raises(EnergyBoundError):
            cc_functional(g, 2.0)
        value = cc_integral(g, 2.0, 0.0, math.inf)
        oracle = quad(lambda t: math.exp(min(t * 1.5, 1.5) ** 2 - t), 0, 60, limit=400)[0]
        assert value == pytest.approx(oracle, rel=1e-9)

    def test_truncation_certificate(self):
        # Shrinking the truncation epsilon tenfold moves J by less than
        # ten times the original epsilon.
        g = ramp_profile(9.0, 2.0)
        coarse = cc_functional(g, 2.0, QuadratureSpec(truncation_epsilon=1e-8))
        fine = cc_functional(g, 2.0, QuadratureSpec(truncation_epsilon=1e-9))
        assert abs(coarse - fine) < 10.0 * 1e-8

    def test_requires_tail_and_origin(self):
        no_tail = PiecewiseProfile(knots=(0.0, 1.0), pieces=(constant_piece(0.5),), tail=None)
        with pytest.raises(DomainError):
            cc_functional(no_tail, 2.0)
        shifted = PiecewiseProfile(knots=(1.0, 2.0), pieces=(constant_piece(0.5),), tail=constant_piece(0.5))
        with pytest.raises(DomainError):
            cc_functional(shifted, 2.0)

    @pytest.mark.parametrize("q", [2.0, 1.5])
    @pytest.mark.parametrize(
        "tail",
        [
            ExpApproachPiece(amplitude=-1.0, rate=0.5, anchor=1.0, offset=0.5),  # g(10) = -0.489
            PowerPiece(coeff=-1.0, shift=0.0, exponent=0.3, offset=1.5),  # g(1e3) = -6.44
            LinearPiece(intercept=1.0, slope=-0.5),
        ],
        ids=["exp", "power", "linear"],
    )
    def test_tail_below_zero_rejected(self, tail, q):
        # Every knot value is nonnegative; only the tail's limit is not.
        g = PiecewiseProfile(knots=(0.0, 1.0), pieces=(LinearPiece(0.0, 0.5),), tail=tail)
        with pytest.raises(DomainError, match="profile must be nonnegative"):
            cc_functional(g, q)
        with pytest.raises(DomainError, match="profile must be nonnegative"):
            cc_lemma_bound(g, q / (q - 1.0), 0.5)


def t_space_reference(g: PiecewiseProfile, q: float, value) -> float:
    """J of ``g``, whose value in mpmath is ``value``, by mpmath.quad in t split
    at the knots, 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda t: mpmath.exp(value(t) ** q - t), [*g.knots, mpmath.inf]))


class TestTailBranches:
    """The tails that ``cc_functional`` integrates neither in closed form nor
    by truncating a saturating piece."""

    def test_log_radial_pullback(self):
        radial = talenti_radial_solution(SampledFunction(cells=((0.3, 2.0), (0.5, 1.0))), 4, 1.0)
        g = energy_change_of_variables(radial, 2)
        want = t_space_reference(g, 2.0, lambda t: mpmath.mpf(g.value(float(t))))
        assert want == pytest.approx(2.84157537857404, rel=1e-14)
        assert cc_functional(g, 2.0) == pytest.approx(want, rel=1e-12)

    def test_hoelder_envelope(self):
        # Energy 0.64 on the ramp and 0.09 / 0.4 on the power tail.
        tail = PowerPiece(coeff=1.0, shift=0.0, exponent=0.3, offset=-0.2)
        g = PiecewiseProfile(knots=(0.0, 1.0), pieces=(LinearPiece(0.0, 0.8),), tail=tail)
        assert energy(g, 2.0) == pytest.approx(0.865, rel=1e-13)

        def value(t):
            return 0.8 * t if t <= 1 else t ** mpmath.mpf(0.3) - mpmath.mpf(0.2)

        want = t_space_reference(g, 2.0, value)
        assert want == pytest.approx(1.87147623720836, rel=1e-14)
        assert cc_functional(g, 2.0) == pytest.approx(want, rel=1e-12)

    def test_hoelder_envelope_needs_tail_energy_below_one(self):
        # Tail energy (0.9)^2 / 0.4 = 2.025: no envelope bounds the tail.
        g = PiecewiseProfile(knots=(1.0,), pieces=(), tail=PowerPiece(3.0, 0.0, 0.3))
        with pytest.raises(DomainError, match="tail energy >= 1"):
            cc_integral(g, 2.0, 1.0, math.inf)


U = 2.0**-53
#: log10 a of the wide-ramp cases: the benchmark's end 1e6 up to 1e30, and 1e300.
WIDE_LOG10_A = [k / 2.0 for k in range(12, 61)] + [300.0]


def ramp_reference(g: PiecewiseProfile, q: float) -> mpmath.mpf:
    """J of the double-precision Moser ramp ``g`` (slope s on [0, a], plateau
    c beyond) to 30 digits.  The exponent (s t)^q - t is convex, about -t
    near 0 and -(q - 1)(a - t) near a, so outside [0, L] and [a - R, a]
    it is below -80 - log a and adds under 1e-25 (asserted); the plateau
    adds e^{c^q - a}."""
    a, s, c = g.knots[-1], g.pieces[0].slope, g.tail.intercept
    with mpmath.workdps(30 + int(math.log10(a))):
        a, s, c, q = (mpmath.mpf(x) for x in (a, s, c, q))

        def phi(t):
            return (s * t) ** q - t

        margin = 80 + mpmath.log(a)
        left, right = margin, a - margin / (q - 1)
        assert left < right and (right - left) * mpmath.exp(max(phi(left), phi(right))) < 1e-25

        def f(t):
            return mpmath.exp(phi(t))

        ramp = mpmath.quad(f, [0, 1, left]) + mpmath.quad(f, [right, a - 1, a])
        return ramp + mpmath.exp(c**q - a)


def dawson_reference(g: PiecewiseProfile) -> mpmath.mpf:
    """J of the p = 2 ramp in closed form: with alpha = s^2, the ramp gives
    e^{-1/(4 alpha)} sqrt(pi/alpha)/2 [erfi(sqrt(alpha) (a - 1/(2 alpha))) +
    erfi(1/(2 sqrt(alpha)))], which is 2 sqrt(a) D(sqrt(a)/2) at alpha = 1/a."""
    a, s, c = g.knots[-1], g.pieces[0].slope, g.tail.intercept
    with mpmath.workdps(30 + int(math.log10(a))):
        a, r, c = mpmath.mpf(a), mpmath.mpf(s), mpmath.mpf(c)
        alpha = r * r
        shift = 1 / (2 * alpha)
        ramp = (
            mpmath.exp(-1 / (4 * alpha)) * mpmath.sqrt(mpmath.pi / alpha) / 2
            * (mpmath.erfi(r * (a - shift)) + mpmath.erfi(r * shift))
        )
        return ramp + mpmath.exp(c**2 - a)


class TestWideRamps:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_raises_or_within_tolerance(self, p):
        # The benchmark's rule: 1e-9 relative plus the rounding 8 u a of the
        # exponent's cancellation.  Before the graded first level the p = 2
        # ramp returned J = 1.0 for most a from 10^6.5 to 10^14.5.
        q = p / (p - 1.0)
        returned = []
        for log_a in WIDE_LOG10_A:
            g = moser_family(10.0**log_a, p)
            try:
                j = cc_functional(g, q)
            except QuadratureError:
                continue
            want = ramp_reference(g, q)
            if p == 2.0:
                closed = dawson_reference(g)
                assert abs(want - closed) <= 1e-25 * closed, log_a
            a = g.knots[-1]
            assert abs(j - want) <= (1e-9 + 8.0 * U * a) * want, (log_a, j, float(want))
            returned.append(log_a)
        assert 6.0 in returned  # the benchmark's widest ramp converges


class TestSublinearity:
    def test_hoelder_envelope_on_grid(self):
        # Unit energy forces g(t)^q <= t.
        for p in (2.0, 3.0):
            q = p / (p - 1.0)
            g = ramp_profile(5.0, p)
            for t in np.linspace(0.01, 30.0, 50):
                assert g.value(float(t)) ** q <= t + 1e-12


class TestLemmaBound:
    def test_constant_profile_hand_value(self):
        # w = 1 beyond a = 1 with p = 2: delta = 0, lhs = 1, rhs = e.
        w = PiecewiseProfile(knots=(0.0, 1.0), pieces=(constant_piece(1.0),), tail=constant_piece(1.0))
        got = cc_lemma_bound(w, 2.0, 1.0)
        assert got.lhs == pytest.approx(1.0, rel=1e-11)
        assert got.rhs == pytest.approx(math.e, rel=1e-12)
        assert got.lhs <= got.rhs

    def test_random_admissible_suite(self):
        # 200 seeded piecewise-linear tails with delta in (0, 0.9): the
        # certificate must never be violated.
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(200):
            p = float(rng.choice([2.0, 2.5, 3.0]))
            a = float(rng.uniform(0.5, 3.0))
            delta_target = float(rng.uniform(0.05, 0.9))
            length = float(rng.uniform(0.5, 8.0))
            n_seg = int(rng.integers(2, 6))
            cuts = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, n_seg - 1)), [1.0]))
            ts = a + cuts * length
            raw_slopes = rng.uniform(-1.0, 1.0, n_seg)
            raw_energy = float(np.sum(np.abs(raw_slopes) ** p * np.diff(ts)))
            slopes = raw_slopes * (delta_target / raw_energy) ** (1.0 / p)
            w0 = float(rng.uniform(0.0, 1.5))
            ys = w0 + np.concatenate(([0.0], np.cumsum(slopes * np.diff(ts))))
            ys = np.maximum(ys, 0.0)  # keep w nonnegative
            full_ts = np.concatenate(([0.0], ts)) if ts[0] > 0 else ts
            full_ys = np.concatenate(([ys[0]], ys)) if ts[0] > 0 else ys
            w = piecewise_linear(full_ts, full_ys)
            got = cc_lemma_bound(w, p, a)
            assert got.lhs <= got.rhs * (1.0 + 1e-9), (p, a, delta_target)
            checked += 1
        assert checked == 200

    def test_divergence_as_delta_approaches_one(self):
        # rhs grows monotonically as the tail energy approaches 1.
        previous = -math.inf
        for delta in (0.5, 0.9, 0.99, 0.999):
            slope = delta**0.5  # p = 2 over unit length
            w = piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.0, slope])
            got = cc_lemma_bound(w, 2.0, 1.0)
            assert got.rhs > previous
            previous = got.rhs

    def test_delta_at_least_one_rejected(self):
        w = piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.0, 1.1])
        with pytest.raises(DomainError):
            cc_lemma_bound(w, 2.0, 1.0)

    def test_p_below_two_rejected(self):
        w = piecewise_linear([0.0, 1.0], [0.0, 0.1])
        with pytest.raises(DomainError):
            cc_lemma_bound(w, 1.5, 0.5)


class TestMoserFamily:
    def test_profile_shape(self):
        g = moser_family(1.0, 2.0)
        assert g.value(1.0) == pytest.approx(1.0, rel=1e-14)
        assert g.value(5.0) == pytest.approx(1.0, rel=1e-14)
        assert energy(g, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_j_decreases_to_p_plus_one(self):
        # The ramp's right endpoint sits on the diagonal, so the limit is
        # 1 (bulk) + 1/(q-1) (endpoint) + 1 (plateau) = p + 1.
        for p in (2.0, 3.0):
            q = p / (p - 1.0)
            values = [cc_functional(moser_family(a, p), q) for a in (1e2, 1e3, 1e4)]
            assert values[0] > values[1] > values[2] > p + 1.0
            assert values[-1] == pytest.approx(p + 1.0, abs=0.05)

    def test_respects_concentration_bound(self):
        for p in (2.0, 3.0, 4.0):
            q = p / (p - 1.0)
            bound = 1.0 + math.exp(digamma(p) + EULER_GAMMA)
            for a in (1e2, 1e3, 1e4):
                j = cc_functional(moser_family(a, p), q)
                assert 1.0 <= j <= bound


class TestMaximizer:
    def test_deterministic_given_seed(self):
        r1 = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3, n_starts=2, max_iter=60)
        r2 = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3, n_starts=2, max_iter=60)
        assert r1.functional_value == r2.functional_value
        assert r1.profile.knots == r2.profile.knots
        v1 = [float(np.asarray(p.value(k))) for k, _h, p in r1.profile.segments()]
        v2 = [float(np.asarray(p.value(k))) for k, _h, p in r2.profile.segments()]
        assert v1 == v2

    def test_feasibility_of_incumbent(self):
        res = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=5, n_starts=2, max_iter=80)
        assert energy(res.profile, 2.0) == pytest.approx(1.0, abs=1e-10)
        assert energy(res.profile, 2.0, (0.0, 5.0)) <= 0.01 + 1e-12
        assert res.profile.value(0.0) == 0.0

    def test_concentrated_search_respects_level(self):
        res = concentration_maximizer(2.0, 5.0, 0.01, 48, seed=0)
        assert res.functional_value <= 1.0 + math.e + 0.05
        # the search should at least clear the trivial value 1
        assert res.functional_value > 2.0

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            concentration_maximizer(2.0, 5.0, 0.6, 24, seed=0)
        with pytest.raises(DomainError):
            concentration_maximizer(2.0, 5.0, 0.01, 4, seed=0)
        with pytest.raises(DomainError):
            concentration_maximizer(1.5, 5.0, 0.01, 24, seed=0)

    def test_weak_constraint_recorded_not_asserted(self):
        # With a weak window constraint the incumbent may exceed 1 + e;
        # the level only binds concentrating sequences.  Recorded as data.
        res = concentration_maximizer(2.0, 5.0, 0.499, 24, seed=0, n_starts=3, max_iter=80)
        print(
            f"\nexploratory: weak-constraint incumbent J = {res.functional_value:.4f}"
            f" (1 + e = {1.0 + math.e:.4f})"
        )
        assert res.functional_value >= 1.0
