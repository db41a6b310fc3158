"""Piece machinery: evaluation, continuity validation, serialization."""

import bisect
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamskit import moser1d
from adamskit import profiles as profiles_module
from adamskit import quadrature as quadrature_module
from adamskit.errors import DomainError, QuadratureError
from adamskit.extremal import verdict
from adamskit.profiles import (
    ExpApproachPiece,
    LinearPiece,
    PiecewiseProfile,
    PowerPiece,
    abs_pow_quadrature,
    constant_piece,
    kinks_at_roots,
    piecewise_linear,
)
from adamskit.quadrature import (
    DEFAULT_SPEC,
    MAX_SUBDIVISIONS,
    QuadratureSpec,
    adaptive_gauss,
    power_integral,
)


def counting(f, sizes):
    """``f`` that appends the size of each batch it is called on to ``sizes``."""

    def wrapped(x):
        assert x.ndim == 1 and x.size % 46 == 0  # 15 + 31 nodes per panel
        sizes.append(x.size)
        return f(x)

    return wrapped


def count_moser1d_batches(monkeypatch) -> list:
    """Sizes of the batches ``moser1d``'s engine calls evaluate, one per level."""
    sizes = []

    def counted_gauss(f, *args, **kwargs):
        return adaptive_gauss(counting(f, sizes), *args, **kwargs)

    monkeypatch.setattr(moser1d, "adaptive_gauss", counted_gauss)
    return sizes


class TestPieces:
    def test_linear(self):
        piece = LinearPiece(intercept=1.0, slope=-2.0)
        assert piece.value(3.0) == -5.0
        assert piece.derivative(10.0) == -2.0

    def test_power(self):
        piece = PowerPiece(coeff=2.0, shift=1.0, exponent=0.5, offset=3.0)
        assert piece.value(5.0) == pytest.approx(2.0 * 2.0 + 3.0)
        assert piece.derivative(5.0) == pytest.approx(0.5)

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

    @pytest.mark.parametrize("tail", [None, constant_piece(2.0)], ids=["piece", "tail"])
    def test_jump_names_its_knot_and_values(self, tail):
        pieces = (constant_piece(1.0),) if tail else (constant_piece(1.0), constant_piece(2.0))
        with pytest.raises(DomainError, match=r"discontinuous at knot 1\.0: 1\.0 vs 2\.0"):
            PiecewiseProfile(knots=(0.0, 1.0, 2.0)[: len(pieces) + 1], pieces=pieces, tail=tail)

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

    def test_serialization_shape(self):
        g = piecewise_linear([0.0, 2.0], [0.0, 1.0])
        payload = g.to_json_obj()
        assert [entry["piece_kind"] for entry in payload] == ["linear", "linear"]
        assert payload[0]["knot"] == 0.0
        assert set(payload[0]["params"]) == {"intercept", "slope"}

    def test_monotone_knots_required(self):
        with pytest.raises(DomainError):
            piecewise_linear([0.0, 0.0, 1.0], [0.0, 0.0, 1.0])

    def test_polyline_with_knots_1e9_apart_builds(self):
        # The steep piece's intercept + slope * t misses its left knot's value
        # by 3e-9, which a continuity check took for a jump (a Hardy trial
        # drew such knots).  A polyline is continuous by construction.
        ts = [0.0, 0.4, 1.0102580363557867, 1.0102580363557867 + 1e-9, 1.3]
        ys = [0.3, -0.5, 0.19245660002343357, -0.7, 0.0]
        g = piecewise_linear(ts, ys, constant_tail=False)
        assert g.knots == tuple(ts)
        np.testing.assert_allclose(g.value(np.array(ts)), ys, rtol=0.0, atol=1e-8)

    BAD_KNOTS = {
        "nan": (0.0, math.nan, 2.0),
        "nan-first": (math.nan, 1.0, 2.0),
        "inf": (0.0, 1.0, math.inf),
        "-inf": (-math.inf, 1.0, 2.0),
        "repeated": (0.0, 1.0, 1.0),
        "decreasing": (0.0, 2.0, 1.0),
    }

    @pytest.mark.parametrize("knots", list(BAD_KNOTS.values()), ids=list(BAD_KNOTS))
    def test_bad_knots_raise(self, knots):
        # np.diff(knots) <= 0 is False at a NaN, so such a check let it through.
        message = "knots must be finite and strictly increasing"
        pieces = (constant_piece(1.0), constant_piece(1.0))
        with pytest.raises(DomainError, match=message):
            PiecewiseProfile(knots=knots, pieces=pieces)
        with pytest.raises(DomainError, match=message):
            piecewise_linear(knots, [1.0, 1.0, 1.0])

    def test_single_knot_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            PiecewiseProfile(knots=(math.nan,), pieces=(), tail=constant_piece(1.0))


def per_piece(g, t, method):
    """``method`` of each point's own segment, the one whose knot is the
    last at or below the point (the last segment past the last knot)."""
    segments = [piece for _lo, _hi, piece in g.segments()]
    out = []
    for x in t:
        i = min(bisect.bisect_right(g.knots, x) - 1, len(segments) - 1)
        out.append(float(getattr(segments[i], method)(x)))
    return np.array(out)


def point_slope(ts, ys, t):
    """ys[i] + s_i (t - ts[i]), ts[i] the last knot at or below t and
    s_i = (ys[i+1] - ys[i]) / (ts[i+1] - ts[i]), 0 from the last knot on."""
    slopes = np.append(np.diff(ys) / np.diff(ts), 0.0)
    i = np.searchsorted(ts, t, side="right") - 1
    return ys[i] + slopes[i] * (t - ts[i])


class TestBatchEvaluator:
    """A batch of points goes through one evaluator per profile: a
    polyline's values are one ``np.interp`` of its knots and values, and
    otherwise one gather of the segments' coefficients where they share a
    type that has one (a polyline's derivative here), else a loop over the
    segments the points fall in."""

    @pytest.mark.parametrize("seed", range(20))
    def test_polyline_equals_its_pieces(self, seed):
        rng = np.random.default_rng(seed)
        ts = np.cumsum(rng.uniform(0.05, 2.0, size=2 + seed % 9)) - 1.0
        ys = rng.normal(size=ts.size)
        g = piecewise_linear(ts, ys, constant_tail=bool(seed % 2))
        end = ts[-1] + 3.0 if seed % 2 else ts[-1]
        t = np.concatenate((ts, rng.uniform(ts[0], end, size=200)))
        assert np.array_equal(g.value(t), point_slope(ts, ys, t))
        assert np.array_equal(g.derivative(t), per_piece(g, t, "derivative"))

    KNOTS_1E9_APART = (
        [0.0, 0.4, 1.0102580363557867, 1.0102580363557867 + 1e-9, 1.3],
        [0.3, -0.5, 0.19245660002343357, -0.7, 0.0],
    )

    @pytest.mark.parametrize("seed", [None, *range(10)])
    @pytest.mark.parametrize("tail", [False, True], ids=["no-tail", "tail"])
    def test_polyline_gives_its_values_at_its_knots(self, seed, tail):
        # Every route: the batch, a point, the pieces that start at the
        # knots (what ``to_json_obj`` prints and the nonnegativity check
        # reads) and the end.
        if seed is None:
            ts, ys = self.KNOTS_1E9_APART
        else:
            rng = np.random.default_rng(seed)
            ts = np.cumsum(rng.uniform(1e-9, 10.0, size=12)).tolist()
            ys = (rng.normal(size=12) * 10.0 ** rng.integers(-8, 8, size=12)).tolist()
        g = piecewise_linear(ts, ys, constant_tail=tail)
        assert g.value(np.array(ts)).tolist() == ys
        assert [g.value(t) for t in ts] == ys
        assert [entry["value"] for entry in g.to_json_obj()] == ys[: len(ys) - 1 + tail]
        assert [float(piece.value(t)) for t, _hi, piece in g.segments()] == ys[: len(ys) - 1 + tail]

    def test_polyline_takes_the_gather(self, monkeypatch):
        g = piecewise_linear([0.0, 1.0, 3.0], [0.0, 2.0, 1.0])
        t = np.linspace(0.0, 5.0, 11)
        want = g.value(t), g.derivative(t)

        def refuse(self, t):
            raise AssertionError("LinearPiece evaluated piece by piece")

        monkeypatch.setattr(LinearPiece, "value", refuse)
        monkeypatch.setattr(LinearPiece, "derivative", refuse)
        assert np.array_equal(g.value(t), want[0])
        assert np.array_equal(g.derivative(t), want[1])

    # 5 - t on [1, 2] after t on [0, 1]: a jump at the knot 1.  The power
    # piece makes the profile mixed, so it takes the per-segment loop.
    SECOND = {"gather": LinearPiece(5.0, -1.0), "loop": PowerPiece(-1.0, 0.0, 1.0, 5.0)}

    @pytest.mark.parametrize("second", list(SECOND.values()), ids=list(SECOND))
    @pytest.mark.parametrize("tail", [False, True], ids=["piece", "tail"])
    def test_knot_takes_the_right_hand_segment(self, second, tail):
        pieces = (LinearPiece(0.0, 1.0),) if tail else (LinearPiece(0.0, 1.0), second)
        knots = (0.0, 1.0) if tail else (0.0, 1.0, 2.0)
        g = PiecewiseProfile(knots, pieces, tail=second if tail else None, check_continuity=False)
        assert g.value(np.array([0.0, 1.0])).tolist() == [0.0, 4.0]
        assert g.derivative(np.array([0.0, 1.0])).tolist() == [1.0, -1.0]
        assert g.value(1.0) == 4.0 and g.derivative(1.0) == -1.0
        if not tail:  # the last knot takes the last segment
            assert g.value(2.0) == 3.0 and g.derivative(2.0) == -1.0


class TestAdaptiveGauss:
    def test_polynomial_exact(self):
        value = adaptive_gauss(lambda x: x**6 - 3 * x**2, 0.0, 2.0)
        assert value == pytest.approx(2.0**7 / 7 - 2.0**3, rel=1e-14)

    def test_returns_a_float(self):
        # One or many first-level panels, and a call that refines: a float.
        rows = (lambda x: x**3 - 2.0 * x, np.sqrt, lambda x: np.sin(40.0 * x))
        for f in rows:
            assert type(adaptive_gauss(f, 0.0, 1.0)) is float
            assert type(adaptive_gauss(f, 0.0, 1.0, breaks=[0.5])) is float

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

    def test_overflowing_integrand_raises(self):
        # G15 = G31 = inf: the rule values agree, and their difference is
        # NaN, so without a check the panel reads as converged and gives inf.
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError, match=r"infinite on the panel \[0.0, 1.0\]"):
                adaptive_gauss(lambda x: 1e300 * np.exp(1000.0 * x), 0.0, 1.0)

    def test_one_call_per_level(self):
        sizes = []
        f = counting(lambda x: np.sin(40.0 * x), sizes)
        value = adaptive_gauss(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-12))
        assert value == pytest.approx((1 - math.cos(40.0)) / 40.0, abs=1e-12)
        assert len(sizes) <= 4

    def test_verdict_integrand_calls(self, monkeypatch):
        sizes = count_moser1d_batches(monkeypatch)
        for n in (104, 512, 5000):
            sizes.clear()
            assert verdict(n).gap_numeric
            # One level on each of the ramp and the saturating tail; the
            # arc, where w^q = t - 1, has a closed form.
            assert len(sizes) == 2, n

    @pytest.mark.parametrize("n, panels", [(104, 36), (512, 44), (5000, 58)])
    def test_verdict_panel_count(self, n, panels, monkeypatch):
        # 2 ceil(log2(8 width)) graded panels on the ramp and the tail, each
        # converged on its first level; with the arc in the engine too it
        # took 58, 72 and 92, and with uniform 8-wide panels 77, 161 and 248.
        sizes = count_moser1d_batches(monkeypatch)
        verdict(n)
        assert len(sizes) == 2 and sum(sizes) == 46 * panels

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_moser_ramp_levels(self, p, monkeypatch):
        # The graded first level already resolves the strips at both ends of
        # the ramp; halving toward them from uniform panels took up to 15
        # levels (p = 3, a = 1e6).
        sizes = count_moser1d_batches(monkeypatch)
        for a in (1.0, 1e3, 1e6):
            sizes.clear()
            moser1d.cc_functional(moser1d.moser_family(a, p), p / (p - 1.0))
            assert 0 < len(sizes) <= 3, a

    BAD_BREAKS = {
        "unsorted": [0.6, 0.3],
        "repeated": [0.3, 0.3],
        "at-lo": [0.0, 0.5],
        "above-hi": [0.5, 1.5],
        "nan": [0.5, math.nan],
        "inf": [math.inf],
        "2-D": [[0.5]],
    }

    @pytest.mark.parametrize("breaks", list(BAD_BREAKS.values()), ids=list(BAD_BREAKS))
    def test_bad_breaks_raise(self, breaks):
        with pytest.raises(DomainError, match="breaks must"):
            adaptive_gauss(np.exp, 0.0, 1.0, breaks=breaks)

    def test_bad_breaks_raise_under_optimize_flag(self):
        script = (
            "from adamskit.errors import DomainError\n"
            "from adamskit.quadrature import adaptive_gauss\n"
            "import numpy as np\n"
            "nan, inf = float('nan'), float('inf')\n"
            f"for breaks in {list(self.BAD_BREAKS.values())!r}:\n"
            "    try:\n"
            "        adaptive_gauss(np.exp, 0.0, 1.0, breaks=breaks)\n"
            "    except DomainError:\n"
            "        print('raised')\n"
            "print('debug' if __debug__ else 'optimized')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(moser1d.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["raised"] * len(self.BAD_BREAKS) + ["optimized"]

    def test_nan_panel_named_from_one_batch(self):
        sizes = []
        f = counting(lambda x: np.where(x > 0.6, np.nan, x), sizes)
        with pytest.raises(QuadratureError, match=r"NaN on the panel \[0.5, 0.75\]") as exc:
            adaptive_gauss(f, 0.0, 1.0, breaks=np.linspace(0.0, 1.0, 5)[1:-1])
        assert sizes == [4 * 46]
        assert exc.value.interval == (0.0, 1.0)
        assert exc.value.panels == 4

    def test_budget_exhausted(self):
        # cos(1e12 x) is noise at the node spacing: no panel ever converges.
        message = rf"budget of {MAX_SUBDIVISIONS} splits.*panel count \d+.*rounding error"
        with pytest.raises(QuadratureError, match=message) as exc:
            adaptive_gauss(lambda x: np.cos(1e12 * x), 0.0, 1.0)
        assert exc.value.achieved > 1e-13
        assert exc.value.interval == (0.0, 1.0)
        # Twelve levels of halving reach 2^12 panels; the next would pass the budget.
        assert exc.value.panels == 2**12
        assert f"panel count {exc.value.panels}," in str(exc.value)

    def test_machine_resolution_panel_raises(self):
        # Panels one ulp wide cannot be halved; the noise never converges.
        with pytest.raises(QuadratureError, match="no panel can be split") as exc:
            adaptive_gauss(lambda x: 1e6 * np.cos(1e20 * x), 1.0, 1.0 + 4 * 2.0**-52)
        assert exc.value.achieved > 1e-13

    @pytest.mark.parametrize("jump", [1.0 / 3.0, 0.1, math.pi / 4.0, 2.0 / 7.0])
    @pytest.mark.parametrize("panels", [1, 3, 7])
    def test_jump_converges_or_raises(self, jump, panels):
        sizes = []
        f = counting(lambda x: np.where(x < jump, 2.0, 1.0), sizes)
        try:
            value = adaptive_gauss(f, 0.0, 1.0, breaks=np.linspace(0.0, 1.0, panels + 1)[1:-1])
        except QuadratureError as exc:
            assert exc.achieved is not None
            return
        assert value == pytest.approx(1.0 + jump, rel=1e-10)
        assert len(sizes) <= 64

    @pytest.mark.xfail(strict=True, reason="a jump between a panel edge and its outermost node is invisible")
    def test_jump_next_to_panel_edge(self):
        # The jump sits 3.5e-4 right of the knot 1/3, inside the gap before
        # the first Gauss node of [1/3, 2/3]; both rules agree on 1, so the
        # panel converges on a value off by the missed 3.5e-4.
        jump = 0.3336839521095907
        breaks = np.linspace(0.0, 1.0, 4)[1:-1]
        value = adaptive_gauss(lambda x: np.where(x < jump, 2.0, 1.0), 0.0, 1.0, breaks=breaks)
        assert value == pytest.approx(1.0 + jump, rel=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=9),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 10.0),
        panels=st.integers(1, 16),
    )
    def test_polynomial_closed_form(self, coeffs, lo, width, panels):
        poly = np.polynomial.Polynomial(coeffs)
        hi = lo + width
        a, b = Fraction(lo), Fraction(hi)
        exact = float(sum(Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
                          for k, c in enumerate(coeffs)))
        # Rounding of sum |c_k| x^k over the interval bounds the achievable error.
        scale = width * sum(abs(c) * max(1.0, abs(lo), abs(hi)) ** k for k, c in enumerate(coeffs))
        value = adaptive_gauss(counting(poly, []), lo, hi, breaks=np.linspace(lo, hi, panels + 1)[1:-1])
        assert abs(value - exact) <= 1e-10 * abs(exact) + 1e-13 + 1e-14 * scale

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(-5.0, 5.0).filter(lambda c: abs(c) > 1e-3),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 10.0),
        panels=st.integers(1, 16),
    )
    def test_exponential_closed_form(self, c, lo, width, panels):
        hi = lo + width
        with mpmath.workdps(30):
            exact = float((mpmath.exp(c * mpmath.mpf(hi)) - mpmath.exp(c * mpmath.mpf(lo))) / c)
        spec = QuadratureSpec(rel_tol=1e-12)
        f = counting(lambda x: np.exp(c * x), [])
        value = adaptive_gauss(f, lo, hi, spec, breaks=np.linspace(lo, hi, panels + 1)[1:-1])
        assert value == pytest.approx(exact, rel=1e-11)


class TestAbsPowQuadrature:
    def test_breaks_through_the_substitution(self):
        # At lo = 0 and weight -0.9 the break b moves to s = (b/hi)^0.1:
        # 1e-300 lands on 0, the two breaks at hi/2 on one s, and the last
        # double below hi on 1.  They merge and raise no DomainError.
        hi, weight = 1e30, -0.9
        half = 0.5 * hi
        breaks = [1e-300, 0.2 * hi, half, np.nextafter(half, hi), np.nextafter(hi, 0.0)]
        images = (np.array(breaks) / hi) ** (weight + 1.0)
        assert images[0] == 0.0 and images[2] == images[3] and images[4] == 1.0

        def fn(r):
            return np.cos(3.0 * r / hi) + 2.0

        single = abs_pow_quadrature(fn, 1.5, weight, 0.0, hi, DEFAULT_SPEC)
        got = abs_pow_quadrature(fn, 1.5, weight, 0.0, hi, DEFAULT_SPEC, breaks=breaks)
        assert got == pytest.approx(single, rel=1e-12)

    def test_grading_below_the_normal_range_dropped(self):
        # At lo = 0 and weight 0.3 the first level is graded toward 0 from
        # the smallest break, K = 26: from 1e-300 the last of the 13 quarter
        # steps, 1e-300 4^-13, falls below the normal range and is dropped,
        # without a DomainError.  The panel [1e-300, 0.5] then refines toward
        # its left end.
        def fn(r):
            return np.cos(3.0 * r) + 2.0

        got = abs_pow_quadrature(fn, 1.5, 0.3, 0.0, 1.0, DEFAULT_SPEC, breaks=[1e-300, 0.5])
        want = abs_pow_quadrature(fn, 1.5, 0.3, 0.0, 1.0, DEFAULT_SPEC)
        assert got == pytest.approx(want, rel=DEFAULT_SPEC.rel_tol)

    def test_graded_breaks_are_the_halvings(self):
        # The table slice is 0.5 ** np.arange(k, 0, -1) to the bit, for
        # every k that a rel_tol in (0, 1) can ask for.
        for k in range(1, 1075):
            want = 0.5 ** np.arange(k, 0, -1)
            assert profiles_module._HALVINGS[-k:].tobytes() == want.tobytes(), k

    def test_graded_breaks_are_powers_of_four(self, monkeypatch):
        # rel_tol = 2^-K at a weight just above 0 asks for K halvings, for
        # every K = 1..1074: the breaks are top 4^-j, j = ceil(K/2), ..., 1,
        # to the bit, and the smallest is at most top 2^-K.
        seen = []

        def engine(f, lo, hi, spec, *, breaks=None):
            seen.append(breaks)
            return 0.0

        monkeypatch.setattr(profiles_module, "adaptive_gauss", engine)
        top = 2.0**1000  # keeps top 2^-1074 in the normal range
        for k in range(1, 1075):
            abs_pow_quadrature(np.cos, 1.5, 1e-9, 0.0, top, QuadratureSpec(rel_tol=2.0**-k))
            want = top * 4.0 ** -np.arange((k + 1) // 2, 0, -1)
            assert seen[-1].tobytes() == want.tobytes(), k
            assert seen[-1][0] <= top * 2.0**-k, k

    def test_g15_resolves_a_power_on_a_quarter_step(self):
        # Each graded panel is [d/4, d], where x^k is d^{k+1} times its
        # integral on [1/4, 1]: G15 has that to 1e-14 relative for every
        # k up to 13, so the graded end converges at the first level.
        for k in np.linspace(0.01, 13.0, 1300):
            got = 0.375 * ((0.375 * quadrature_module._X15 + 0.625) ** k @ quadrature_module._W15)
            want = (1.0 - 0.25 ** (k + 1.0)) / (k + 1.0)
            assert abs(got - want) <= 1e-14 * want, k

    @pytest.mark.parametrize(
        "power, kinks", [(2.0, False), (4.0, False), (-2.0, False), (1.0, True), (3.0, True),
                         (2.5, True), (1.9999999999999998, True), (math.inf, True)]
    )
    def test_kinks_at_roots(self, power, kinks):
        assert kinks_at_roots(power) is kinks


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
        "w1, a, b, naive",
        [
            # a^w1 and b^w1 far below 1: (expm1(w1 ln b) - expm1(w1 ln a))/w1
            # cancels, to 0.0, 4.4e-4 relative and 1.3e-11 relative.
            (50.0, 0.1, 0.4, 0.0),
            (10.0, 0.01, 0.05, 9.769962616701378e-15),
            (-3.0, 100.0, 200.0, 2.916666666704278e-07),
        ],
    )
    def test_no_cancellation_below_one(self, w1, a, b, naive):
        with mpmath.workdps(40):
            ref = (mpmath.mpf(b) ** w1 - mpmath.mpf(a) ** w1) / w1
        assert abs(naive - ref) > 1e-12 * ref
        assert abs(power_integral(1.0, w1, a, b) - ref) <= 1e-16 * ref

    def test_mpmath_grid(self):
        # Exponents far from 0 and rounding residues of it, on intervals far
        # below 1, far above it, wide and narrow: within 1e-15 relative of 40
        # digits (the worst of 15 000 random draws was 4.2e-16) wherever the
        # value stays in the normal float range.  The reference is
        # a^w1 expm1(w1 ln(b/a))/w1, which keeps its digits at w1 near 0.
        exponents = (-200.0, -3.0, -0.7, -1e-17, 1e-17, 0.3, 2.2, 10.0, 50.0)
        intervals = [
            (0.1, 0.4), (0.01, 0.05), (100.0, 200.0), (1e5, 1e5 * (1.0 + 1e-10)),
            (1.0, 1.0 + 2.0**-40), (1e-300, 1e300), (0.5, 7.0), (2e-3, 3e4), (1e-200, 1e-199),
        ]
        checked = 0
        for w1 in exponents:
            for a, b in intervals:
                with mpmath.workdps(40):
                    a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
                    ref = a_**w1 * mpmath.expm1(w1 * mpmath.log(b_ / a_)) / w1
                if not sys.float_info.min <= ref <= sys.float_info.max / 3.0:
                    continue
                got = power_integral(3.0, w1, a, b)
                assert abs(got - 3 * ref) <= 1e-15 * 3 * ref, (w1, a, b)
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize(
        "w1, a, b",
        [(-0.5, 0.0, 2.0), (0.0, 0.0, 2.0), (0.0, 1.0, math.inf), (0.5, 1.0, math.inf),
         (-0.5, 0.0, math.inf)],
    )
    def test_divergent_end_is_inf(self, w1, a, b):
        assert power_integral(2.0, w1, a, b) == math.inf

    @pytest.mark.parametrize("c, a, b", [(1.0, 0.1, 0.3), (2.5, 0.0, 7.0), (0.3, 1e-3, 1e5)])
    def test_unit_exponent_is_exact(self, c, a, b):
        # The expm1 form gives 0.19999999999999996 for (1, 0.1, 0.3).
        assert power_integral(c, 1.0, a, b) == c * (b - a)
