"""Acceptance gate: every criterion at its stated tolerance, one per test.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion with its runtime.

Criterion 7 is split: 7a (range membership), 7b (limit of the ramp family)
and 7c (maximizer level).  7b pins the ramp part of J, that is J - 1, for
the p = 2 family at a = 1e4 to 2 +/- 0.05.  For p = 2 the ramp is
g(t) = t / sqrt(a) on [0, a] and sqrt(a) beyond, so the ramp contributes
2 sqrt(a) D(sqrt(a)/2), with D Dawson's integral, which tends to p = 2, and
the plateau contributes exactly 1: J(a) = 1 + 2 sqrt(a) D(sqrt(a)/2), whose
limit is p + 1 = 3.  The test also checks J against that closed form.
"""

import math
import time

import numpy as np

from adamskit.constants import (
    AdamsParams,
    beta0,
    beta0_product_form,
    concentration_level,
    t_zero,
    unit_ball_volume,
    unit_sphere_area,
)
from adamskit.extremal import eta_function, sweep
from adamskit.hardy import (
    HardySetup,
    Side,
    b_constant,
    k_factor,
    near_extremal_power_trial,
    rayleigh_probe,
    second_order_constant,
    second_order_probe,
    trial_ratio,
)
from adamskit.moser1d import (
    cc_functional,
    cc_lemma_bound,
    concentration_maximizer,
    energy,
    moser_family,
)
from adamskit.profiles import Piece, PiecewiseProfile, piecewise_linear
from adamskit.rearrange import (
    RadialProfile,
    SampledFunction,
    decreasing_rearrangement,
    energy_change_of_variables,
    talenti_radial_solution,
)
from adamskit.specfun import EULER_GAMMA, digamma


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


def report(criterion: str, ok: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {criterion}  [{elapsed:.2f}s]  {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_sharp_constants():
    start = time.perf_counter()
    worst_named = max(
        abs(beta0(AdamsParams(1, 2)) / (4 * math.pi) - 1.0),
        abs(beta0(AdamsParams(2, 4)) / (32 * math.pi**2) - 1.0),
    )
    worst_identity = 0.0
    for n in range(3, 65):
        omega = unit_sphere_area(n)
        ident = (omega ** (2 / n) * n ** ((n - 2) / n) * (n - 2)) ** (n / (n - 2))
        worst_identity = max(
            worst_identity, abs(beta0(AdamsParams(2, n)) / ident - 1.0)
        )
    worst_product = 0.0
    for m in range(1, 7):
        for n in range(m + 1, 65):
            params = AdamsParams(m, n)
            worst_product = max(
                worst_product,
                abs(beta0_product_form(params) / beta0(params) - 1.0),
            )
    elapsed = time.perf_counter() - start
    ok = (
        worst_named <= 1e-12
        and worst_identity <= 1e-12
        and worst_product <= 1e-10
        and elapsed < 1.0
    )
    report(
        "criterion 1: sharp constants",
        ok,
        elapsed,
        f"named {worst_named:.2e}, second-order identity {worst_identity:.2e},"
        f" product forms {worst_product:.2e}",
    )


def test_criterion_2_concentration_level():
    start = time.perf_counter()
    worst = max(
        abs(concentration_level(AdamsParams(m, 2 * m), 1.0) - (1.0 + math.e))
        for m in (1, 2, 3, 7)
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 2: concentration level",
        worst <= 1e-12,
        elapsed,
        f"max |level - (1+e)| = {worst:.2e} over n/m = 2",
    )


def test_criterion_3_dimension_threshold():
    start = time.perf_counter()
    result = t_zero()
    ok = (
        abs(result.raw - 51.9233) <= 5e-4
        and result.integer == 52
        and 2 * result.integer == 104
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 3: threshold",
        ok,
        elapsed,
        f"raw = {result.raw:.6f}, T0 = {result.integer}, 2 T0 = {2 * result.integer}",
    )


def test_criterion_4_eta_suite():
    start = time.perf_counter()
    grid = np.arange(2.0, 200.0 + 0.25, 0.25)
    values = [eta_function(float(t)) for t in grid]
    strictly_decreasing = all(b - a < 0.0 for a, b in zip(values, values[1:]))
    eta_52 = eta_function(52.0)
    first_negative = next(t for t in range(3, 60) if eta_function(float(t)) < 0.0)
    elapsed = time.perf_counter() - start
    ok = strictly_decreasing and eta_52 < 0.0 and first_negative <= 52 and elapsed < 1.0
    report(
        "criterion 4: eta suite",
        ok,
        elapsed,
        f"decreasing on [2,200]: {strictly_decreasing}, eta(52) = {eta_52:.5f},"
        f" first negative integer = {first_negative}",
    )


def test_criterion_5_extremal_pipeline():
    start = time.perf_counter()
    rows = sweep(104, 512, 2)
    violations = []
    for row in rows:
        if not (
            row.norm_chain_bound <= 1.0
            and row.norm_quadrature <= row.norm_chain_bound + 1e-9
            and row.functional_lower > row.level
            and row.functional_quadrature >= row.functional_lower - 1e-8
        ):
            violations.append(row.n)
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    report(
        "criterion 5: extremal pipeline",
        ok,
        elapsed,
        f"{len(rows)} even dimensions in [104, 512], violations: {violations or 'none'}",
    )


def _random_tail_profile(rng: np.random.Generator):
    p = float(rng.choice([2.0, 2.5, 3.0]))
    a = float(rng.uniform(0.5, 3.0))
    delta_target = float(rng.uniform(0.02, 0.9))
    n_seg = int(rng.integers(2, 6))
    cuts = np.concatenate(([0.0], np.sort(rng.uniform(0, 1, n_seg - 1)), [1.0]))
    ts = a + cuts * float(rng.uniform(0.5, 8.0))
    raw_slopes = rng.uniform(-1.0, 1.0, n_seg)
    raw_energy = float(np.sum(np.abs(raw_slopes) ** p * np.diff(ts)))
    slopes = raw_slopes * (delta_target / raw_energy) ** (1.0 / p)
    ys = float(rng.uniform(0.0, 1.5)) + np.concatenate(
        ([0.0], np.cumsum(slopes * np.diff(ts)))
    )
    ys = np.maximum(ys, 0.0)
    w = piecewise_linear(np.concatenate(([0.0], ts)), np.concatenate(([ys[0]], ys)))
    return w, p, a


def test_criterion_6_tail_certificate():
    start = time.perf_counter()
    rng = np.random.default_rng(61)
    violations = 0
    for _ in range(200):
        w, p, a = _random_tail_profile(rng)
        got = cc_lemma_bound(w, p, a)
        if not got.lhs <= got.rhs * (1.0 + 1e-9):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(
        "criterion 6: tail certificate",
        ok,
        elapsed,
        f"200 seeded admissible profiles, violations: {violations}",
    )


def test_criterion_7a_family_within_level():
    start = time.perf_counter()
    records = []
    ok = True
    for p in (2.0, 3.0, 4.0):
        q = p / (p - 1.0)
        bound = 1.0 + math.exp(digamma(p) + EULER_GAMMA)
        for a in (1e2, 1e3, 1e4):
            j = cc_functional(moser_family(a, p), q)
            records.append((p, a, j))
            ok = ok and 1.0 <= j <= bound
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    worst = max(j for _p, _a, j in records)
    report(
        "criterion 7a: family within level",
        ok,
        elapsed,
        f"9 J-values in range, largest {worst:.4f}",
    )


def test_criterion_7b_family_approaches_two():
    # The ramp part J - 1 of the p = 2 family approaches 2 within 0.05 at
    # a = 1e4.  The ramp contributes 1 (bulk) + 1/(q-1) (right endpoint on
    # the diagonal) = p in the limit and the plateau exactly 1, so
    # equivalently |J - (p + 1)| <= 0.05.  For p = 2 the closed form is
    # J(a) = 1 + 2 sqrt(a) D(sqrt(a)/2), D Dawson's integral (scipy oracle).
    from scipy.special import dawsn

    a, p = 1e4, 2.0
    q = p / (p - 1.0)
    start = time.perf_counter()
    j = cc_functional(moser_family(a, p), q)
    elapsed = time.perf_counter() - start
    ramp = j - 1.0
    exact = 1.0 + 2.0 * math.sqrt(a) * float(dawsn(math.sqrt(a) / 2.0))
    oracle_rel = abs(j / exact - 1.0)
    report(
        "criterion 7b: ramp part of J approaches p = 2",
        abs(ramp - p) <= 0.05 and oracle_rel <= 1e-9,
        elapsed,
        f"J(a=1e4, p=2) = {j:.5f}; |(J - 1) - p| = {abs(ramp - p):.5f} (bound 0.05);"
        f" vs 1 + 2 sqrt(a) D(sqrt(a)/2): rel {oracle_rel:.1e} (bound 1e-9)",
    )


def test_criterion_7c_maximizer_respects_level():
    start = time.perf_counter()
    result = concentration_maximizer(2.0, 5.0, 0.01, 48, seed=0)
    bound = 1.0 + math.e + 0.05
    elapsed = time.perf_counter() - start
    ok = result.functional_value <= bound and elapsed < 60.0
    report(
        "criterion 7c: constrained maximizer",
        ok,
        elapsed,
        f"incumbent J = {result.functional_value:.5f} <= {bound:.5f}",
    )


def _random_feasible_setup(rng: np.random.Generator) -> HardySetup:
    side = Side.LEFT_VANISHING if rng.random() < 0.5 else Side.RIGHT_VANISHING
    p = float(rng.uniform(1.2, 3.0))
    q = float(rng.uniform(p, p + 2.0))
    if side is Side.LEFT_VANISHING:
        alpha = float(rng.uniform(-3.0, p - 1.2))
    else:
        alpha = float(rng.uniform(p - 0.8, p + 2.0))
    theta_min = q * (alpha - p + 1.0) / p - 1.0
    theta = float(rng.uniform(theta_min, theta_min + 3.0))
    return HardySetup(
        p=p, q=q, alpha=alpha, theta=theta, R=float(rng.uniform(0.5, 3.0)), side=side
    )


def test_criterion_8_hardy_sandwiches():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    violations = 0
    for i in range(100):
        setup = _random_feasible_setup(rng)
        sw_upper = k_factor(setup.q, setup.p) * b_constant(setup)
        result = rayleigh_probe(setup, trial_count=5, seed=1000 + i)
        if not result.max_ratio <= sw_upper + 1e-9:
            violations += 1
    balanced = HardySetup(p=2.0, q=2.0, alpha=-1.0, theta=-3.0, R=1.0, side=Side.LEFT_VANISHING)
    power_ratio = trial_ratio(balanced, near_extremal_power_trial(balanced, 0.02))
    reaches = power_ratio >= 0.9 * b_constant(balanced)
    second_order_ok = True
    for n, q in ((8, 2.0), (12, 3.0), (16, 2.0)):
        best = second_order_probe(n, 2.0, q, 1.0, trial_count=50, seed=8)
        second_order_ok = second_order_ok and best <= second_order_constant(n, q) * (
            1.0 + 1e-6
        )
    elapsed = time.perf_counter() - start
    ok = violations == 0 and reaches and second_order_ok and elapsed < 20.0
    report(
        "criterion 8: hardy sandwiches",
        ok,
        elapsed,
        f"probe violations: {violations}/100, power family ratio/B ="
        f" {power_ratio / b_constant(balanced):.4f}, second-order ok: {second_order_ok}",
    )


def test_criterion_9_rearrangement():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    exact_failures = 0
    for _ in range(500):
        n_cells = int(rng.integers(1, 10))
        cells = tuple(
            (float(rng.uniform(0.01, 4.0)), float(rng.uniform(-9.0, 9.0)))
            for _ in range(n_cells)
        )
        f = SampledFunction(cells=cells)
        sharp = decreasing_rearrangement(f)
        for p in (1.0, 2.0, 3.0):
            if sharp.p_norm_pth_power(p) != f.p_norm_pth_power(p):
                exact_failures += 1
        for t in (0.0, 0.5, 2.0, 8.0):
            if sharp.measure_above(t) != f.measure_above(t):
                exact_failures += 1

    n, big_r, c = 4, 1.3, 2.5
    data = SampledFunction(cells=((unit_ball_volume(n) * big_r**n, c),))
    v = talenti_radial_solution(data, n, big_r)
    worst_closed_form = max(
        abs(v.value(float(r)) - c * (big_r**2 - r**2) / (2 * n))
        for r in np.linspace(0.0, big_r, 64)
    )

    omega = unit_ball_volume(n)
    two_step = SampledFunction(
        cells=((omega * 0.5**n, 4.0), (omega * (1.0 - 0.5**n), 1.5))
    )
    v2 = talenti_radial_solution(two_step, n, big_r)
    radii = (0.2, 0.45, 0.7, 0.95, 1.2)  # each stencil inside one slab
    worst_inverse = 0.0
    for r, lap in zip(radii, radial_laplacian_fd(v2, radii)):
        s = omega * r**n
        expected = -4.0 if s <= omega * 0.5**n else (-1.5 if s <= omega else 0.0)
        worst_inverse = max(worst_inverse, abs(lap - expected))
    elapsed = time.perf_counter() - start
    ok = (
        exact_failures == 0
        and worst_closed_form <= 1e-10
        and worst_inverse <= 1e-8
        and elapsed < 5.0
    )
    report(
        "criterion 9: rearrangement",
        ok,
        elapsed,
        f"exact failures: {exact_failures}/500, closed form {worst_closed_form:.2e},"
        f" inverse consistency {worst_inverse:.2e}",
    )


def test_criterion_10_energy_identity():
    start = time.perf_counter()
    from scipy.integrate import quad

    rng = np.random.default_rng(10)
    worst = 0.0
    for _ in range(20):
        n = int(rng.choice([4, 6]))
        big_r = float(rng.uniform(0.5, 2.0))
        poly = np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, size=4))
        prof = PiecewiseProfile(knots=(0.0, big_r), pieces=(PolyPiece(poly),), tail=None)
        rp = RadialProfile(radius=big_r, dimension=n, profile=prof)
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
        worst = max(worst, abs(lhs / rhs - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(
        "criterion 10: change-of-variables energy identity",
        ok,
        elapsed,
        f"20 profiles, worst relative disagreement {worst:.2e}",
    )
