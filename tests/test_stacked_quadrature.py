"""The second-order Hardy probe's engine calls: none at an even p up to
``hardy._CLOSED_FORM_MAX_P``, whose norms are closed form, and one per
norm of each trial at every other p."""

import math

import pytest

import adamskit.profiles as profiles_module
from adamskit.hardy import _CLOSED_FORM_MAX_P, second_order_probe


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
    @pytest.mark.parametrize(
        "p, calls_per_trial",
        [(2.0, 0), (4.0, 0), (3.0, 2), (_CLOSED_FORM_MAX_P + 2.0, 2)],
    )
    def test_engine_calls(self, p, calls_per_trial, trial_count, engine_calls):
        # An even p up to the cap takes the closed form; p = 3 breaks each
        # trial at its own roots, and an even p above the cap takes the
        # same two calls per trial without roots.
        assert 0.0 < second_order_probe(8, p, 2.0, 1.0, trial_count, 0) < math.inf
        assert len(engine_calls) == calls_per_trial * trial_count
