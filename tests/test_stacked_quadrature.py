"""Stacked integrands: ``adaptive_gauss`` on k integrals that share one
first level, and the second-order Hardy probe, which integrates all its
trials that way at an even p."""

import math

import numpy as np
import pytest

import adamskit.hardy as hardy_module
import adamskit.profiles as profiles_module
from adamskit.errors import DomainError, QuadratureError
from adamskit.hardy import second_order_probe, second_order_trial_ratio
from adamskit.quadrature import DEFAULT_SPEC, QuadratureSpec, adaptive_gauss

KINK = 0.3141592653589793

ROWS = {
    "cubic": lambda x: x**3 - 2.0 * x,  # exact on level 1
    "sqrt": np.sqrt,  # x^(1/2) at 0: halves toward 0 for many levels
    "kink": lambda x: np.abs(x - KINK) ** 1.5,
    "damped": lambda x: np.exp(-x) * np.cos(7.0 * x),
    "oscillating": lambda x: np.sin(40.0 * x),
}


def stacked(rows):
    return lambda x: np.array([row(x) for row in rows])


def counting(f, calls):
    def counted(x):
        calls.append(x.size)
        return f(x)

    return counted


def raised(f, *args, **kwargs):
    with pytest.raises(QuadratureError) as info:
        adaptive_gauss(f, *args, **kwargs)
    exc = info.value
    return str(exc), exc.interval, exc.panels, exc.achieved


class TestStackedEngine:
    @pytest.mark.parametrize(
        "breaks", [None, [0.25, 0.5], [1e-6, 1e-3, 0.2, KINK]], ids=["one-panel", "two-breaks", "graded"]
    )
    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-13])
    def test_rows_equal_their_own_calls(self, breaks, rel_tol):
        spec = QuadratureSpec(rel_tol=rel_tol)
        own, alone = [], []
        for row in ROWS.values():
            calls = []
            alone.append(adaptive_gauss(counting(row, calls), 0.0, 1.0, spec, breaks=breaks))
            own.append(calls)
        levels = [len(calls) for calls in own]
        calls = []
        got = adaptive_gauss(counting(stacked(ROWS.values()), calls), 0.0, 1.0, spec, breaks=breaks)
        assert isinstance(got, np.ndarray) and got.shape == (len(ROWS),)
        assert got.tolist() == alone
        # The cubic finishes on level 1 while sqrt refines on: the shared
        # first level, then each refining row's own later calls in row order.
        assert levels[0] == 1 and levels[1] > 3
        assert calls == own[0][:1] + [size for row_calls in own for size in row_calls[1:]]

    def test_later_levels_evaluate_only_split_panels(self):
        # The cubic and the damped row finish on level 1; after that the
        # stack evaluates sqrt's panels alone, as sqrt's own call does.
        rows = [ROWS["cubic"], ROWS["sqrt"], ROWS["damped"]]
        own, calls = [], []
        adaptive_gauss(counting(ROWS["sqrt"], own), 0.0, 1.0)
        adaptive_gauss(counting(stacked(rows), calls), 0.0, 1.0)
        assert calls == own

    def test_one_row_stack(self):
        value = adaptive_gauss(lambda x: np.sqrt(x)[None, :], 0.0, 1.0)
        assert value.tolist() == [adaptive_gauss(np.sqrt, 0.0, 1.0)]

    def test_one_dimensional_integrand_returns_a_float(self):
        for row in ROWS.values():
            assert type(adaptive_gauss(row, 0.0, 1.0)) is float
            assert type(adaptive_gauss(row, 0.0, 1.0, breaks=[0.5])) is float

    def test_nan_row_raises_its_own_error(self):
        nan_row = lambda x: np.where(x > 0.6, np.nan, x)  # noqa: E731
        rows = [ROWS["cubic"], ROWS["sqrt"], nan_row, ROWS["kink"]]
        for breaks in (None, [0.5, 0.75]):
            want = raised(nan_row, 0.0, 1.0, breaks=breaks)
            assert want[0].startswith("integrand is NaN on the panel [")
            assert raised(stacked(rows), 0.0, 1.0, breaks=breaks) == want

    def test_infinite_row_raises_its_own_error(self):
        infinite = lambda x: 1e300 * np.exp(1000.0 * x)  # noqa: E731
        with np.errstate(over="ignore", invalid="ignore"):
            want = raised(infinite, 0.0, 1.0, breaks=[0.5])
            assert want[0].startswith("integrand is infinite on the panel [")
            assert raised(stacked([ROWS["cubic"], infinite]), 0.0, 1.0, breaks=[0.5]) == want

    def test_nan_on_a_later_level_names_the_rows_own_panel(self):
        # NaN within 1e-5 of the kink: no first-level node sees it, and the
        # row halves toward the kink until one does (on level 11), while
        # sqrt halves toward 0 beside it.
        def hidden(x):
            return np.where(np.abs(x - KINK) < 1e-5, np.nan, np.abs(x - KINK) ** 0.5)

        calls = []
        want = raised(counting(hidden, calls), 0.0, 1.0)
        assert len(calls) > 5 and want[0].startswith("integrand is NaN on the panel [0.313")
        assert raised(stacked([ROWS["cubic"], ROWS["sqrt"], hidden]), 0.0, 1.0) == want

    def test_stalled_row_raises_its_own_error(self):
        # 1/x spends its own budget of splits; the shared panels of the
        # other rows do not count against it.
        rows = [ROWS["cubic"], ROWS["kink"], lambda x: 1.0 / x]
        want = raised(rows[-1], 0.0, 1.0)
        assert "the budget of 4096 splits is spent" in want[0]
        assert raised(stacked(rows), 0.0, 1.0) == want


def draws(trial_count, seed):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, size=4) for _ in range(trial_count)]


class TestStackedSecondOrder:
    @pytest.fixture
    def engine_calls(self, monkeypatch):
        calls = []
        engine = profiles_module.adaptive_gauss

        def recording(f, lo, hi, spec, *, breaks=None):
            calls.append((lo, hi))
            return engine(f, lo, hi, spec, breaks=breaks)

        monkeypatch.setattr(profiles_module, "adaptive_gauss", recording)
        return calls

    @pytest.mark.parametrize("trial_count", [1, 3, 50])
    @pytest.mark.parametrize("p, calls_per_trial", [(2.0, 0), (4.0, 0), (3.0, 2)])
    def test_engine_calls(self, p, calls_per_trial, trial_count, engine_calls):
        # An even p shares one first level among all trials: one stacked call
        # per side.  At p = 3 each trial breaks at its own roots.
        assert 0.0 < second_order_probe(8, p, 2.0, 1.0, trial_count, 0) < math.inf
        assert len(engine_calls) == (calls_per_trial * trial_count or 2)

    @pytest.mark.parametrize("trial_count", [3, 50])
    def test_probe_is_the_max_of_its_trial_ratios(self, trial_count):
        for n in (6, 8, 12, 20):
            for q in (1.0 + 0.2 * (n / 2.0 - 1.0), 1.0 + 0.8 * (n / 2.0 - 1.0)):
                for p in (2.0, 4.0):
                    for R, seed in ((0.5, 0), (2.0, 1)):
                        ratios = [
                            second_order_trial_ratio(n, p, q, R, np.polynomial.Polynomial(c))
                            for c in draws(trial_count, seed)
                        ]
                        want = max(r for r in ratios if not math.isnan(r))
                        assert second_order_probe(n, p, q, R, trial_count, seed) == want

    @pytest.mark.parametrize(
        "n, p, q", [(8, 2.0, 2.6), (6, 2.0, 2.6), (4, 300.0, 1.78), (4, 1000.0, 1.78)]
    )
    def test_integral_rows_equal_their_own_calls(self, n, p, q):
        # A weight graded toward 0, one in (-1, 0) (through r = R s^{1/(w+1)}),
        # and weights large enough that the nodes are checked for 0 * inf.
        q_star = n * q / (n - 2.0 * q)
        weight = n * p / q_star - 1.0
        rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=(12, 6))
        alone = []
        for c in rows:
            try:
                alone.append(hardy_module._abs_pow_poly_integral(c, p, weight, 1.0, DEFAULT_SPEC))
            except (DomainError, QuadratureError):
                alone.append(None)
        assert all(type(v) is float for v in alone if v is not None)
        finite = [c for c, v in zip(rows, alone) if v is not None]
        got = hardy_module._abs_pow_poly_integral(np.array(finite), p, weight, 1.0, DEFAULT_SPEC)
        assert got.tolist() == [v for v in alone if v is not None]

    def test_refusal_is_the_first_refusing_trials_own(self):
        # At p = 1000 some trials' |poly|^p overflow where the weight
        # underflows: the probe names the first of them, as trial by trial.
        n, p, q, R, seed = 4, 1000.0, 1.78, 1.0, 1
        for c in draws(40, seed):
            try:
                second_order_trial_ratio(n, p, q, R, np.polynomial.Polynomial(c))
            except DomainError as exc:
                want = str(exc)
                break
        with pytest.raises(DomainError) as info:
            second_order_probe(n, p, q, R, 40, seed)
        assert str(info.value) == want

    def test_failed_stacked_pass_reruns_trial_by_trial(self, monkeypatch):
        # A stacked pass that raises leaves the result to the trials' own
        # calls, so the probe's value is theirs.
        want = second_order_probe(8, 2.0, 2.0, 1.0, 5, 0)
        ratios = hardy_module._second_order_ratios

        def stack_fails(n, p, q, R, coef, spec):
            if coef.ndim == 2:
                raise QuadratureError("stacked pass failed")
            return ratios(n, p, q, R, coef, spec)

        monkeypatch.setattr(hardy_module, "_second_order_ratios", stack_fails)
        assert second_order_probe(8, 2.0, 2.0, 1.0, 5, 0) == want
