"""Energy, the exponential functional, the tail certificate, and the maximizer."""

import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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
        # mass (here: returns 0.0 on every piece) trips the floor.  The
        # finite pieces all go through the engine, and the constant tail,
        # in closed form, carries e^{0.8^1.5 - 2} < 1.
        monkeypatch.setattr(moser1d, "adaptive_gauss", lambda *args, **kwargs: 0.0)
        w = piecewise_linear([0.0, 1.0, 2.0], [0.0, 0.5, 0.8])
        with pytest.raises(QuadratureError, match="missed the integrand's mass"):
            cc_functional(w, 1.5)

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

    @pytest.mark.parametrize(
        "g",
        [
            piecewise_linear([0.0, 1.0, 2.0], [0.5, -0.5, 0.2]),
            PiecewiseProfile(
                knots=(0.0, 1.0),
                pieces=(LinearPiece(0.0, 0.5),),
                tail=ExpApproachPiece(amplitude=-1.0, rate=0.5, anchor=1.0, offset=0.5),
            ),
        ],
        ids=["linear", "exp-tail"],
    )
    def test_unchecked_negative_profile_raises_without_warning(self, g):
        # g^1.5 is NaN where g < 0: the engine names the panel, and numpy
        # prints no "invalid value" warning first (the suite makes one an error).
        with pytest.raises(QuadratureError, match="integrand is NaN"):
            cc_integral(g, 1.5, 0.0, math.inf)


def t_space_reference(knots, q: float, value) -> float:
    """J of a profile whose value in mpmath is ``value``, by mpmath.quad in t
    split at its ``knots``, 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.quad(lambda t: mpmath.exp(value(t) ** q - t), [*knots, mpmath.inf]))


class TestTailBranches:
    """The tails that ``cc_functional`` integrates neither in closed form nor
    by truncating a saturating piece."""

    def test_log_radial_pullback(self):
        radial = talenti_radial_solution(SampledFunction(cells=((0.3, 2.0), (0.5, 1.0))), 4, 1.0)
        g = energy_change_of_variables(radial, 2)
        t_knots = [0.0, *(4 * math.log(1.0 / r) for r in g.tail.radii[-2:0:-1])]  # t = n log(R/r)
        want = t_space_reference(t_knots, 2.0, lambda t: mpmath.mpf(g.value(float(t))))
        assert want == pytest.approx(2.84157537857404, rel=1e-14)
        assert cc_functional(g, 2.0) == pytest.approx(want, rel=1e-12)

    def test_log_radial_bits_pinned(self):
        # Pinned with ==: a refactor of the log-radial run must not move a bit.
        # Re-pinned once when the scale beta0^{1/2} took math.lgamma (J was
        # 4.6e-15 off, the energy 3.5e-15 and the value 2.2e-15): J is 3.3e-15
        # from the 30-digit 2.84157537857402625908 (mpmath.quad of the closed
        # form), the energy and value 2.7e-16 and 3.9e-16 from mpmath.
        radial = talenti_radial_solution(SampledFunction(cells=((0.3, 2.0), (0.5, 1.0))), 4, 1.0)
        g = energy_change_of_variables(radial, 2)
        assert cc_functional(g, 2.0) == 2.8415753785740168
        assert energy(g, 2.0, (0.5, 3.0)) == 0.6503695670719555
        assert g.value(1.0) == 0.32122988955722276

    def test_hoelder_envelope(self):
        # Energy 0.64 on the ramp and 0.09 / 0.4 on the power tail.
        tail = PowerPiece(coeff=1.0, shift=0.0, exponent=0.3, offset=-0.2)
        g = PiecewiseProfile(knots=(0.0, 1.0), pieces=(LinearPiece(0.0, 0.8),), tail=tail)
        assert energy(g, 2.0) == pytest.approx(0.865, rel=1e-13)

        def value(t):
            return 0.8 * t if t <= 1 else t ** mpmath.mpf(0.3) - mpmath.mpf(0.2)

        want = t_space_reference(g.knots, 2.0, value)
        assert want == pytest.approx(1.87147623720836, rel=1e-14)
        assert cc_functional(g, 2.0) == pytest.approx(want, rel=1e-12)

    def test_hoelder_envelope_needs_tail_energy_below_one(self):
        # Tail energy (0.9)^2 / 0.4 = 2.025: no envelope bounds the tail.
        g = PiecewiseProfile(knots=(1.0,), pieces=(), tail=PowerPiece(3.0, 0.0, 0.3))
        with pytest.raises(DomainError, match="tail energy >= 1"):
            cc_integral(g, 2.0, 1.0, math.inf)


class TestClosedForm:
    """``_cc_closed_form``: J on the pieces whose g^q is affine in t."""

    @staticmethod
    def reference(head, slope, lo, hi):
        """integral_lo^hi exp(head + slope t - t) dt by mpmath.quad, 30 digits."""
        with mpmath.workdps(30):
            head, slope = mpmath.mpf(head), mpmath.mpf(slope)
            return float(mpmath.quad(lambda t: mpmath.exp(head + (slope - 1) * t), [lo, hi]))

    @pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
    @pytest.mark.parametrize("c", [0.0, 0.7, 2.3])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (3.5, 40.0), (2.0, math.inf)])
    def test_constant_against_mpmath(self, c, q, lo, hi):
        got = moser1d._cc_closed_form(constant_piece(c), q, lo, hi)
        want = self.reference(mpmath.mpf(c) ** q, 0.0, lo, hi if hi < math.inf else mpmath.inf)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("q", [2.0, 1.5, 1.1])
    @pytest.mark.parametrize("coeff_q", [0.25, 1.0, 1.75], ids=["k<0", "k=0", "k>0"])
    @pytest.mark.parametrize("shift", [0.0, -0.5, 1.0])
    def test_affine_power_against_mpmath(self, coeff_q, q, shift):
        # coeff (t - shift)^{1/q}: g^q = coeff^q (t - shift), k = coeff^q - 1.
        piece = PowerPiece(coeff=coeff_q ** (1.0 / q), shift=shift, exponent=1.0 / q)
        lo, hi = shift + 0.25, shift + 30.0
        got = moser1d._cc_closed_form(piece, q, lo, hi)
        c = mpmath.mpf(piece.coeff) ** q
        assert got == pytest.approx(self.reference(-c * shift, c, lo, hi), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "piece, lo, hi",
        [
            (LinearPiece(0.0, 0.5), 0.0, 1.0),
            (PowerPiece(1.0, 0.0, 0.5 + 1e-10), 1.0, 2.0),  # e q - 1 = 2e-10
            (PowerPiece(1.0, 0.0, 0.5, offset=0.1), 1.0, 2.0),
            (PowerPiece(-1.0, 0.0, 0.5), 1.0, 2.0),
            (PowerPiece(1.0, 1.5, 0.5), 1.0, 2.0),  # lo below the shift
            (PowerPiece(1.0, 0.0, 0.5), 1.0, math.inf),
        ],
        ids=["slope", "exponent", "offset", "coeff<0", "lo<shift", "infinite"],
    )
    def test_no_closed_form(self, piece, lo, hi):
        assert moser1d._cc_closed_form(piece, 2.0, lo, hi) is None

    @pytest.mark.parametrize("n", [16, 104, 5000])
    def test_extremal_arc(self, n):
        # w^q = t - 1 on [n/2, lambda], so J there is (lambda - n/2)/e =
        # (n/2 - 1) expm1(b - s)/e.  The first is exact in the float lambda;
        # the second carries lambda's own rounding, up to 2 u at n = 16.
        params = extremal.make_params(n)
        arc = extremal.test_function(params).pieces[1]
        got = moser1d._cc_closed_form(arc, n / (n - 2.0), n / 2.0, params.lam)
        with mpmath.workdps(30):
            exact = float((mpmath.mpf(params.lam) - n // 2) / mpmath.e)
        assert abs(got - exact) <= 2.0 * U * exact
        want = (n / 2.0 - 1.0) * math.expm1(params.b - params.s) / math.e
        assert abs(got - want) <= 2.0 * math.ulp(want)

    #: J of the extremal test function at 30 digits (``bench/oracle.py``'s
    #: ``extremal_functional``), computed offline.
    LARGE_N = {
        50_000: "54371.7462546288949214744632045",
        100_000: "108721.077542233322284526944176",
    }

    @pytest.mark.parametrize("n", list(LARGE_N))
    def test_large_n_verdict(self, n):
        # With the arc in the engine, J was 1.1e-10 and 1.4e-10 off.
        want = float(mpmath.mpf(self.LARGE_N[n]))
        assert extremal.verdict(n).functional_quadrature == pytest.approx(want, rel=2e-11, abs=0.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: cc_integral(piecewise_linear([0, 1], [0, -0.5]), 1.5, 1.0, math.inf),
            # -5e-13 passes the -1e-12 allowance of the nonnegativity check.
            lambda: cc_lemma_bound(piecewise_linear([0, 1], [0, -5e-13]), 3.0, 1.0),
        ],
        ids=["cc_integral", "cc_lemma_bound"],
    )
    def test_negative_constant_raises(self, call):
        with pytest.raises(QuadratureError, match=r"integrand is NaN on \[1.0, inf\]: the constant g = -"):
            call()

    def test_negative_constant_at_integer_q(self):
        assert cc_integral(piecewise_linear([0, 1], [0, -0.5]), 2.0, 1.0, math.inf) == math.exp(
            0.25 - 1.0
        )

    @pytest.mark.parametrize(
        "piece, hi",
        [(constant_piece(30.0), math.inf), (constant_piece(1e200), 5.0),
         (PowerPiece(2.0, 0.0, 0.5), 800.0)],
        ids=["constant-tail", "constant-pow", "power"],
    )
    def test_overflow_raises(self, piece, hi):
        g = PiecewiseProfile(knots=(0.0,), pieces=(), tail=piece)
        with pytest.raises(QuadratureError, match="integrand is infinite"):
            cc_integral(g, 2.0, 0.0, hi)

    def test_checks_survive_optimize_flag(self):
        script = (
            "import math\n"
            "from adamskit.errors import QuadratureError\n"
            "from adamskit.moser1d import cc_integral, cc_lemma_bound\n"
            "from adamskit.profiles import piecewise_linear\n"
            "for call in (\n"
            "    lambda: cc_integral(piecewise_linear([0, 1], [0, -0.5]), 1.5, 1.0, math.inf),\n"
            "    lambda: cc_lemma_bound(piecewise_linear([0, 1], [0, -5e-13]), 3.0, 1.0),\n"
            "    lambda: cc_integral(piecewise_linear([0, 1], [0, 30.0]), 2.0, 1.0, math.inf),\n"
            "):\n"
            "    try:\n"
            "        call()\n"
            "    except QuadratureError as exc:\n"
            "        print('debug' if __debug__ else 'optimized', str(exc).split(':')[0])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(moser1d.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == [
            "optimized integrand is NaN on [1.0, inf]",
            "optimized integrand is NaN on [1.0, inf]",
            "optimized integrand is infinite on [1.0, inf]",
        ]


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


@st.composite
def piece_ends(draw):
    """(lo, hi) with 0 <= lo < hi < 2^48 and hi - lo from 1e-6 to 4.5e7; lo
    is drawn near 0 or in [2^47, 2^48), where the float spacing is 1/32."""
    width = draw(st.floats(1e-6, 4.5e7))
    lo = draw(st.one_of(st.floats(0.0, 1e6), st.floats(2.0**47, 2.0**48 - 2.0 * width)))
    hi = lo + width
    assume(lo < hi < 2.0**48)
    return lo, hi


def exact_grades(width: float) -> int:
    """ceil(log2(8 width)) in exact arithmetic (0 for width <= 1/8)."""
    grades = 0
    while Fraction(2) ** grades < 8 * Fraction(width):
        grades += 1
    return grades


class TestCcBreaks:
    """``_cc_breaks``: edges at width/2, width/4, ... from both ends of a piece."""

    #: The edges of every piece at most 16 wide, as laid by the layout that
    #: added a uniform run of 8-wide panels on wider pieces.
    PINNED = {
        (0.0, 0.1): [],
        (0.0, 0.2): [0.1],
        (0.0, 1.0): [0.125, 0.25, 0.5, 0.75, 0.875],
        (2.5, 7.5): [2.578125, 2.65625, 2.8125, 3.125, 3.75, 5.0, 6.25, 6.875, 7.1875,
                     7.34375, 7.421875],
        (0.0, 9.7): [0.07578125, 0.1515625, 0.303125, 0.60625, 1.2125, 2.425, 4.85,
                     7.2749999999999995, 8.487499999999999, 9.09375, 9.396875,
                     9.548437499999999, 9.624218749999999],
        (0.0, 12.0): [0.09375, 0.1875, 0.375, 0.75, 1.5, 3.0, 6.0, 9.0, 10.5, 11.25, 11.625,
                      11.8125, 11.90625],
        (1.3, 14.9): [1.40625, 1.5125, 1.725, 2.15, 3.0, 4.7, 8.1, 11.5, 13.200000000000001,
                      14.05, 14.475, 14.6875, 14.793750000000001],
        (3.0, 19.0): [3.125, 3.25, 3.5, 4.0, 5.0, 7.0, 11.0, 15.0, 17.0, 18.0, 18.5, 18.75,
                      18.875],
    }

    @pytest.mark.parametrize("ends", list(PINNED), ids=str)
    def test_narrow_pieces_pinned(self, ends):
        assert moser1d._cc_breaks(*ends).tolist() == self.PINNED[ends]

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(piece_ends())
    def test_layout(self, ends):
        lo, hi = ends
        breaks = moser1d._cc_breaks(lo, hi)
        edges = np.concatenate(([lo], breaks, [hi]))
        widths = np.diff(edges)
        assert (widths > 0.0).all()  # strictly increasing, strictly inside
        width = hi - lo
        grades = exact_grades(width)
        assert widths.size == (2 * grades if grades else 1)
        if not grades:
            return
        # Rounding of lo + width * offset, and of width itself.
        slack = 4.0 * np.spacing(hi)
        from_lo, from_hi = breaks - lo, hi - breaks
        np.testing.assert_allclose(from_lo, from_hi[::-1], rtol=0.0, atol=slack)
        for end_panel in (widths[0], widths[-1]):
            assert 1.0 / 16.0 - slack < end_panel <= 1.0 / 8.0 + slack
        inner = widths[1:-1]
        nearer = np.minimum(edges[1:-2] - lo, hi - edges[2:-1])
        assert (inner <= nearer + slack).all()

    def test_edges_stay_apart_at_the_float_range_end(self):
        # Just below 2^48 the spacing is 1/32, half the narrowest end panel.
        lo = 2.0**48 - 1.0
        breaks = moser1d._cc_breaks(lo, lo + 0.75)
        assert (breaks - lo).tolist() == [3 / 32, 6 / 32, 12 / 32, 18 / 32, 21 / 32]


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

    def test_w_a_inside_the_allowance_counts_as_zero(self):
        # w(1) = -5e-13 passes the -1e-12 nonnegativity allowance; at p = 3,
        # q = 1.5, w(a)^{q-1} was complex and the bound ended in a TypeError.
        w = piecewise_linear([0.0, 1.0, 2.0], [0.0, -5e-13, 0.5])
        got = cc_lemma_bound(w, 3.0, 1.0)
        # At w(a) = 0, c = 0 and the exponent is 0: rhs = e^{-a} e^{psi(p)+gamma} / shrink.
        shrink = 1.0 - math.sqrt(energy(w, 3.0, (1.0, math.inf)))
        want = math.exp(-1.0) * math.exp(digamma(3.0) + EULER_GAMMA) / shrink
        assert got.rhs == pytest.approx(want, rel=1e-15)
        assert 0.0 < got.lhs <= got.rhs

    def test_w_a_clamp_survives_optimize_flag(self):
        script = (
            "from adamskit.moser1d import cc_lemma_bound\n"
            "from adamskit.profiles import piecewise_linear\n"
            "w = piecewise_linear([0.0, 1.0, 2.0], [0.0, -5e-13, 0.5])\n"
            "print('debug' if __debug__ else 'optimized', *cc_lemma_bound(w, 3.0, 1.0))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(moser1d.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        want = cc_lemma_bound(piecewise_linear([0.0, 1.0, 2.0], [0.0, -5e-13, 0.5]), 3.0, 1.0)
        assert result.stdout.split() == ["optimized", *map(repr, want)]


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


class TestLargeP:
    def test_family_refuses_p_above_the_bound(self):
        assert moser_family(5.0, moser1d._P_MAX).knots == (0.0, 5.0)
        with pytest.raises(DomainError, match=r"p must lie in \(1, 1e\+06\], got 1000001.0"):
            moser_family(5.0, 1e6 + 1.0)

    def test_maximizer_refuses_p_above_the_bound(self):
        with pytest.raises(DomainError, match=r"requires 2 <= p <= 1e\+06, got 100000000.0"):
            concentration_maximizer(1e8, 5.0, 0.01, 8, seed=0)

    @pytest.mark.parametrize("p", [1e4, 1e6])
    def test_maximizer_at_large_p_without_warning(self, p):
        # A trial slope above e^{709/p} overflows s^p in the projection;
        # numpy's overflow warning is an error under this suite's settings.
        result = concentration_maximizer(p, 5.0, 0.01, 8, seed=0)
        assert math.isfinite(result.functional_value)
        assert energy(result.profile, p) <= 1.0 + 1e-9


class TestMaximizer:
    def test_deterministic_given_seed(self):
        r1 = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3)
        r2 = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3)
        assert r1.functional_value == r2.functional_value
        assert r1.profile.knots == r2.profile.knots
        v1 = [float(np.asarray(p.value(k))) for k, _h, p in r1.profile.segments()]
        v2 = [float(np.asarray(p.value(k))) for k, _h, p in r2.profile.segments()]
        assert v1 == v2

    def test_feasibility_of_incumbent(self):
        res = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=5)
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
        res = concentration_maximizer(2.0, 5.0, 0.499, 24, seed=0)
        print(
            f"\nexploratory: weak-constraint incumbent J = {res.functional_value:.4f}"
            f" (1 + e = {1.0 + math.e:.4f})"
        )
        assert res.functional_value >= 1.0
