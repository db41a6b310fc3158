"""Rearrangement, symmetrization, the radial comparison solution, and the
log-radial energy identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, solve_ivp

from adamskit.constants import AdamsParams, beta0, unit_ball_volume, unit_sphere_area
from adamskit.errors import DomainError, MonotonicityError
from adamskit.moser1d import energy
from adamskit.profiles import Piece, PiecewiseProfile
from adamskit.rearrange import (
    RadialProfile,
    SampledFunction,
    decreasing_rearrangement,
    energy_change_of_variables,
    symmetrize,
    talenti_radial_solution,
)

cells_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=5.0),
        st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    ),
    min_size=1,
    max_size=12,
)


class TestDecreasingRearrangement:
    def test_equal_measure_sorting(self):
        f = SampledFunction(cells=((1, 1), (1, 3), (1, 2)))
        assert decreasing_rearrangement(f).cells == ((1.0, 3.0), (1.0, 2.0), (1.0, 1.0))

    def test_absolute_values_and_inf_definition(self):
        f = SampledFunction(cells=((2, -1), (1, 5)))
        sharp = decreasing_rearrangement(f)
        assert sharp.cells == ((1.0, 5.0), (2.0, 1.0))
        # Brute-force the inf-based definition pointwise: u^#(s) is the
        # smallest t with |{|u| > t}| < s.
        candidates = sorted({abs(v) for _m, v in f.cells} | {0.0})

        def u_sharp(s):
            for t in candidates:
                if f.measure_above(t) < s:
                    return t
            return candidates[-1]

        cum = 0.0
        for m, v in sharp.cells:
            mid = cum + m / 2.0
            assert u_sharp(mid) == v
            cum += m

    def test_idempotent(self):
        f = SampledFunction(cells=((0.5, 2.0), (1.5, -3.0), (0.2, 2.0)))
        once = decreasing_rearrangement(f)
        assert decreasing_rearrangement(once).cells == once.cells

    def test_sorted_nonnegative_unchanged(self):
        f = SampledFunction(cells=((1.0, 4.0), (2.0, 2.5), (0.5, 1.0)))
        assert decreasing_rearrangement(f).cells == f.cells

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            SampledFunction(cells=())

    @pytest.mark.parametrize("cell", [(1.0, math.nan), (1.0, math.inf), (math.inf, 1.0)])
    def test_non_finite_rejected(self, cell):
        with pytest.raises(DomainError, match="finite"):
            SampledFunction(cells=((0.5, 2.0), cell))

    @settings(max_examples=150, deadline=None)
    @given(cells_strategy)
    def test_norm_preservation_exact(self, cells):
        f = SampledFunction(cells=tuple(cells))
        sharp = decreasing_rearrangement(f)
        for p in (1.0, 2.0, 3.0):
            assert sharp.p_norm_pth_power(p) == pytest.approx(
                f.p_norm_pth_power(p), rel=1e-15, abs=1e-300
            )

    @settings(max_examples=150, deadline=None)
    @given(cells_strategy)
    def test_equimeasurable(self, cells):
        f = SampledFunction(cells=tuple(cells))
        sharp = decreasing_rearrangement(f)
        for t in (0.0, 0.3, 1.7, 4.0, 9.5):
            assert sharp.measure_above(t) == pytest.approx(
                f.measure_above(t), rel=1e-13, abs=1e-300
            )


class TestSymmetrize:
    def test_constant_input(self):
        f = SampledFunction(cells=((2.5, 3.0),))
        sym = symmetrize(f, 3)
        assert unit_ball_volume(3) * sym.radius**3 == pytest.approx(2.5, rel=1e-13)
        for r in (0.01, 0.3, sym.radius * 0.999):
            assert sym.value(r) == 3.0

    def test_two_cell_plateau_radius(self):
        omega = unit_ball_volume(4)
        f = SampledFunction(cells=((0.9, 1.0), (0.4, 7.0)))
        sym = symmetrize(f, 4)
        r1 = (0.4 / omega) ** 0.25
        assert sym.value(r1 * 0.99) == 7.0
        assert sym.value(r1 * 1.01) == 1.0

    def test_equimeasurability_on_levels(self):
        f = SampledFunction(cells=((0.7, -2.0), (1.1, 0.5), (0.4, 3.0)))
        n = 3
        sym = symmetrize(f, n)
        omega = unit_ball_volume(n)
        knots = np.asarray(sym.profile.knots)
        for t in (0.1, 0.6, 1.9, 2.5, 3.5):
            above = [
                knots[i + 1]
                for i, piece in enumerate(sym.profile.pieces)
                if float(np.asarray(piece.value(knots[i + 1]))) > t
            ]
            measure = omega * max(above, default=0.0) ** n
            assert measure == pytest.approx(f.measure_above(t), rel=1e-12, abs=1e-13)


class TestTalentiSolution:
    def test_constant_data_closed_form(self):
        n, big_r, c = 4, 1.3, 2.5
        data = SampledFunction(cells=((unit_ball_volume(n) * big_r**n, c),))
        v = talenti_radial_solution(data, n, big_r)
        for r in np.linspace(0.0, big_r, 40):
            expected = c * (big_r**2 - r**2) / (2 * n)
            assert v.value(float(r)) == pytest.approx(expected, abs=1e-10)

    def test_zero_data(self):
        n, big_r = 3, 1.0
        data = SampledFunction(cells=((0.5, 0.0),))
        v = talenti_radial_solution(data, n, big_r)
        for r in (0.0, 0.4, 0.99):
            assert v.value(r) == 0.0

    def test_two_step_against_ode_oracle(self):
        # Independent oracle: integrate -(r^{n-1} v')' = r^{n-1} f(omega r^n)
        # with v'(0) = 0, then shift so v(R) = 0.
        n, big_r = 5, 1.2
        omega = unit_ball_volume(n)
        s1 = omega * 0.4**n
        data = SampledFunction(
            cells=((s1, 3.0), (omega * big_r**n - s1, 1.0))
        )
        v = talenti_radial_solution(data, n, big_r)

        def f_of_r(r):
            return 3.0 if omega * r**n <= s1 else 1.0

        def rhs(r, y):
            # y = [v, w] with w = r^{n-1} v'
            vp = y[1] / r ** (n - 1) if r > 0 else 0.0
            return [vp, -(r ** (n - 1)) * f_of_r(r)]

        sol = solve_ivp(
            rhs, (1e-12, big_r), [0.0, 0.0], rtol=1e-11, atol=1e-13, dense_output=True
        )
        shift = sol.y[0, -1]
        for r in np.linspace(0.05, big_r * 0.999, 60):
            oracle = sol.sol(r)[0] - shift
            assert v.value(float(r)) == pytest.approx(oracle, abs=1e-8)

    def test_monotone_and_vanishing_at_boundary(self):
        n, big_r = 4, 2.0
        data = SampledFunction(cells=((1.0, 5.0), (3.0, 2.0), (6.0, 0.5)))
        v = talenti_radial_solution(decreasing_rearrangement(data), n, big_r)
        rs = np.linspace(0.0, big_r, 200)
        vals = [v.value(float(r)) for r in rs]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        assert v.value(big_r) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("n, big_r", [(2, 0.637), (3, 3.103), (6, 3.103)])
    def test_spans_exactly_to_the_radius(self, n, big_r):
        # (omega R^n / omega)^{1/n} rounds below R at these radii; the last
        # knot is R itself, so w evaluates at R.
        v = talenti_radial_solution(SampledFunction(cells=((0.1, 2.0),)), n, big_r)
        assert v.profile.knots[-1] == big_r
        assert v.value(big_r) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_increasing_data(self):
        data = SampledFunction(cells=((1.0, 1.0), (1.0, 2.0)))
        with pytest.raises(MonotonicityError):
            talenti_radial_solution(data, 3, 10.0)

    def test_rejects_oversized_data(self):
        data = SampledFunction(cells=((10.0, 1.0),))
        with pytest.raises(DomainError):
            talenti_radial_solution(data, 3, 0.5)


class PolyPiece(Piece):
    """A polynomial as a smooth piece: a profile evaluates only these two."""

    def __init__(self, poly):
        self.value, self.derivative = poly, poly.deriv()


def radial_laplacian_fd(v, rs, h=0.02, levels=5):
    """v'' + (n-1) v'/r at the radii ``rs`` from the values of v alone:
    central differences at h, h/2, ..., h/16, Richardson-extrapolated in h^2.
    Each stencil must lie inside one slab."""
    rs, n = np.asarray(rs), v.dimension
    table = []
    for hk in h / 2.0 ** np.arange(levels):
        lo, mid, hi = v.value(rs - hk), v.value(rs), v.value(rs + hk)
        table.append((hi - 2.0 * mid + lo) / hk**2 + (n - 1.0) * (hi - lo) / (2.0 * hk * rs))
    for j in range(1, levels):
        table = [b + (b - a) / (4**j - 1) for a, b in zip(table, table[1:])]
    return table[0]


class TestRadialLaplacian:
    def test_inverse_consistency_with_comparison_solution(self):
        # From the values of v only: v' is built from c = f^#/(2n), so a check
        # through it would be circular.
        n, big_r = 4, 1.5
        omega = unit_ball_volume(n)
        data = SampledFunction(
            cells=((omega * 0.5**n, 4.0), (omega * (1.0**n - 0.5**n), 1.5))
        )
        v = talenti_radial_solution(data, n, big_r)
        assert v.profile.knots == pytest.approx((0.0, 0.5, 1.0, big_r), rel=1e-15)
        radii = (0.2, 0.45, 0.7, 0.95, 1.2)
        for r, lap in zip(radii, radial_laplacian_fd(v, radii)):
            expected = -4.0 if omega * r**n <= omega * 0.5**n else (
                -1.5 if omega * r**n <= omega * 1.0**n else 0.0
            )
            assert lap == pytest.approx(expected, abs=1e-8)

    def test_talenti_dominates_unrearranged_solution(self):
        # Radial instance of the comparison principle: solve with the
        # unrearranged (non-monotone) radial data, symmetrize the solution,
        # and check the rearranged-data solution dominates pointwise.
        n, big_r = 3, 1.0
        omega = unit_ball_volume(n)
        s_edges = omega * np.array([0.4, 0.7, 1.0]) ** n
        heights = [1.0, 5.0, 2.0]  # deliberately non-monotone in volume

        def f_of_r(r):
            s = omega * r**n
            for edge, h in zip(s_edges, heights):
                if s <= edge:
                    return h
            return heights[-1]

        def rhs(r, y):
            vp = y[1] / r ** (n - 1) if r > 0 else 0.0
            return [vp, -(r ** (n - 1)) * f_of_r(r)]

        sol = solve_ivp(
            rhs, (1e-12, big_r), [0.0, 0.0], rtol=1e-11, atol=1e-13, dense_output=True
        )
        shift = sol.y[0, -1]

        cells = [(float(s_edges[0]), heights[0])]
        for prev, edge, h in zip(s_edges[:-1], s_edges[1:], heights[1:]):
            cells.append((float(edge - prev), h))
        f = SampledFunction(cells=tuple(cells))
        v = talenti_radial_solution(decreasing_rearrangement(f), n, big_r)

        # u is radial and nonincreasing here? Not necessarily; compare the
        # symmetrized u against v on a grid of radii via measure transport:
        # u* at radius r equals the k-th largest value of u over the grid.
        rs = np.linspace(1e-6, big_r * (1 - 1e-9), 4001)
        u_vals = np.array([sol.sol(r)[0] - shift for r in rs])
        volumes = omega * rs**n
        order = np.argsort(-u_vals)
        cum = np.concatenate(([0.0], np.cumsum(np.diff(volumes, prepend=0.0)[order])))
        for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
            s_query = frac * omega * big_r**n
            k = np.searchsorted(cum, s_query) - 1
            k = min(max(k, 0), len(order) - 1)
            u_star = u_vals[order[k]]
            r_query = (s_query / omega) ** (1.0 / n)
            assert v.value(float(r_query)) >= u_star - 1e-6


class TestEnergyChangeOfVariables:
    def _smooth_radial(self, n, big_r, coeffs):
        poly = np.polynomial.Polynomial(coeffs)
        prof = PiecewiseProfile(knots=(0.0, big_r), pieces=(PolyPiece(poly),), tail=None)
        return RadialProfile(radius=big_r, dimension=n, profile=prof), poly

    def test_identity_on_random_smooth_profiles(self):
        # Two independent quadratures of the same energy: the transformed
        # side integrates |g'|^{n/2} dt, the radial side uses scipy on
        # (n-2)^{n/2} omega_{n-1} |w'|^{n/2} r^{n/2-1}.
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.choice([4, 6]))
            big_r = float(rng.uniform(0.5, 2.0))
            coeffs = rng.uniform(-1.0, 1.0, size=4)
            rp, poly = self._smooth_radial(n, big_r, coeffs)
            g = energy_change_of_variables(rp, 2)
            lhs = energy(g, n / 2.0, (0.0, math.inf))
            dp = poly.deriv()
            rhs = (
                (n - 2.0) ** (n / 2.0)
                * unit_sphere_area(n)
                * quad(
                    lambda r: abs(dp(r)) ** (n / 2.0) * r ** (n / 2.0 - 1.0),
                    0.0,
                    big_r,
                    limit=300,
                )[0]
            )
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_constant_profile_maps_to_constant(self):
        n, big_r = 4, 1.0
        rp, _ = self._smooth_radial(n, big_r, [2.0])
        g = energy_change_of_variables(rp, 2)
        scale = beta0(AdamsParams(2, n)) ** ((n - 2) / n)
        for t in (0.0, 1.0, 10.0):
            assert g.value(t) == pytest.approx(2.0 * scale, rel=1e-13)
        assert g.derivative(5.0) == pytest.approx(0.0, abs=1e-13)

    def test_unit_energy_maps_below_one(self):
        # If the radial side of the identity is normalized to 1, the
        # transformed profile is admissible for the exponential functional.
        n, big_r = 6, 1.0
        rp, poly = self._smooth_radial(n, big_r, [0.5, -0.3, 0.1])
        dp = poly.deriv()
        radial = (
            (n - 2.0) ** (n / 2.0)
            * unit_sphere_area(n)
            * quad(
                lambda r: abs(dp(r)) ** (n / 2.0) * r ** (n / 2.0 - 1.0),
                0.0,
                big_r,
                limit=300,
            )[0]
        )
        scale_fix = radial ** (-2.0 / n)  # rescale w so the radial energy is 1
        rp2, _ = self._smooth_radial(n, big_r, np.array([0.5, -0.3, 0.1]) * scale_fix)
        g = energy_change_of_variables(rp2, 2)
        assert energy(g, n / 2.0, (0.0, math.inf)) == pytest.approx(1.0, rel=1e-9)

    def test_unchecked_source_is_checked_on_radii(self):
        # symmetrize's steps skip the continuity check; the map checks them on
        # its radii and names the jump in the caller's terms: a radius in (0, R)
        # and the unscaled step values.
        rp = symmetrize(SampledFunction(((0.3, 2.0), (0.5, 1.0))), 4)
        with pytest.raises(DomainError, match=r"discontinuous at knot (\S+): 2\.0 vs 1\.0") as info:
            energy_change_of_variables(rp, 2)
        radius = float(info.value.args[0].split("knot ")[1].split(":")[0])
        assert radius == pytest.approx(rp.profile.knots[1], rel=1e-15)
        assert 0.0 < radius < rp.radius

    def test_rejects_bad_order(self):
        rp, _ = self._smooth_radial(4, 1.0, [1.0, 0.5])
        with pytest.raises(DomainError):
            energy_change_of_variables(rp, 4)
