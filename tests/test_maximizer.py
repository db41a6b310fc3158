"""The concentration maximizer: exact output pin, gradient, call counts, work budget.

``tests/data/maximizer_golden.json`` holds the maximizer's profile and J for
a spread of p, A, epsilon, knot counts and seeds.  The search's arithmetic
and accept/reject sequence are part of its contract, so the comparison is
``==``.  A change that moves nodes or reorders sums must re-pin the file
(``PYTHONPATH=src python tests/test_maximizer.py``) after checking the new
J values against an independent reference, and say so.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from adamskit import moser1d
from adamskit.cli import main
from adamskit.errors import DomainError
from adamskit.moser1d import _SlopeObjective, concentration_maximizer

GOLDEN_PATH = Path(__file__).parent / "data" / "maximizer_golden.json"

#: (p, A, epsilon, knots, seed) of every pinned case: p in {2, 2.5, 3, 4};
#: knots in {8, 24, 48, 200}; the weak window epsilon = 0.499; an empty
#: window (A below the 1e-12 window guard); three seeds at the benchmark's
#: (2, 5, 0.01, 48).
CASES = [
    (2.0, 5.0, 0.01, 48, 0),
    (2.0, 5.0, 0.01, 48, 1),
    (2.0, 5.0, 0.01, 48, 7),
    (2.5, 5.0, 0.01, 24, 0),
    (3.0, 2.0, 0.01, 24, 3),
    (4.0, 5.0, 0.01, 8, 0),
    (2.0, 5.0, 0.499, 24, 0),
    (2.0, 1e-13, 0.01, 24, 0),
    (2.0, 10.0, 0.01, 200, 2),
    (3.0, 0.3, 0.2, 48, 5),
    (4.0, 1.0, 0.499, 8, 11),
    (2.5, 3.0, 0.05, 200, 4),
]


def case_id(case) -> str:
    return "p={}-A={!r}-eps={}-knots={}-seed={}".format(*case)


def maximizer_record(case) -> dict:
    """The maximizer's knots, values at the knots and J, as plain floats."""
    result = concentration_maximizer(*case)
    return {
        "knots": list(result.profile.knots),
        "values": [entry["value"] for entry in result.profile.to_json_obj()],
        "J": result.functional_value,
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_output_is_pinned_exactly(case):
    want = _golden()[case_id(case)]
    got = maximizer_record(case)
    assert got["knots"] == want["knots"]
    assert got["values"] == want["values"]
    assert got["J"] == want["J"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_objective_agrees_with_certified_j(case):
    # The search's fixed panels against cc_functional's adaptive J at the
    # returned polyline.  For q < 2, g^q has a branch point at g = 0 that
    # the fixed rule resolves only to about 1e-8.
    want = _golden()[case_id(case)]
    knots, values = np.array(want["knots"]), np.array(want["values"])
    q = case[0] / (case[0] - 1.0)
    j_search = _SlopeObjective(knots, q).value(np.diff(values) / np.diff(knots))
    bound = 1e-12 if q == 2.0 else 1e-7
    assert abs(j_search - want["J"]) <= bound * want["J"]


def _interior_objective(q: float):
    # A window of 4 segments and 4 geometric ones out to t = 20, the
    # maximizer's layout in miniature, and random slopes with g^q - t of
    # order one on the whole range, so every slope moves J visibly.
    knots = np.concatenate((np.linspace(0.0, 5.0, 5), 5.0 * np.geomspace(1.0, 4.0, 5)[1:]))
    s = np.random.default_rng(20).uniform(0.15, 0.3, knots.size - 1)
    return _SlopeObjective(knots, q), s


@pytest.mark.parametrize("q", [2.0, 1.5])
def test_gradient_matches_central_differences(q):
    objective, s = _interior_objective(q)
    objective.value(s)
    grad = objective.grad()
    for j in range(s.size):
        h = 1e-5 * s[j]
        up, down = s.copy(), s.copy()
        up[j] += h
        down[j] -= h
        numeric = (objective.value(up) - objective.value(down)) / (2.0 * h)
        assert grad[j] == pytest.approx(numeric, rel=1e-6), j


def test_grad_uses_the_last_value_call():
    objective, s = _interior_objective(2.0)
    objective.value(s)
    grad_s = objective.grad()
    objective.value(0.5 * s)
    assert not np.array_equal(objective.grad(), grad_s)
    objective.value(s)
    assert np.array_equal(objective.grad(), grad_s)


def test_gradient_only_on_accepted_steps(monkeypatch):
    events = []

    def logged(name, f):
        def wrapper(*args, **kwargs):
            out = f(*args, **kwargs)
            events.append((name, out))
            return out

        return wrapper

    monkeypatch.setattr(_SlopeObjective, "value", logged("value", _SlopeObjective.value))
    monkeypatch.setattr(_SlopeObjective, "grad", logged("grad", _SlopeObjective.grad))
    monkeypatch.setattr(moser1d, "_project", logged("project", moser1d._project))
    # Each start seeds its own generator: that call marks where a start begins.
    monkeypatch.setattr(np.random, "default_rng", logged("start", np.random.default_rng))
    n_starts = 3
    concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3, n_starts=n_starts, max_iter=60)

    names = [name for name, _ in events]
    assert names.count("start") == n_starts
    # Replay the search: a trial is accepted when its J beats the incumbent,
    # and exactly the start's value and the accepted values are followed by
    # a gradient.
    accepted, incumbent = 0, None
    for (name, out), (next_name, _) in zip(events, events[1:] + [("end", None)]):
        if name == "start":
            incumbent = None
        elif name == "value":
            keep = incumbent is None or out > incumbent
            assert (next_name == "grad") == keep
            if keep:
                accepted += incumbent is not None
                incumbent = out
    assert accepted > 0
    assert names.count("grad") == accepted + n_starts
    # One value per start and one per trial: each is one projection.
    assert names.count("value") == names.count("project")
    assert names.count("value") > 2 * names.count("grad")


@pytest.mark.parametrize("big_a, knots", [(1e6, 8), (5.0, 3_000_000)], ids=["A=1e6", "knots=3e6"])
def test_panel_budget_refuses_before_building(big_a, knots, monkeypatch):
    def no_objective(*_args):
        raise AssertionError("the objective was built")

    monkeypatch.setattr(moser1d, "_SlopeObjective", no_objective)
    message = (
        rf"up to \d+ Gauss panels over \[0, t_max = .*\] with knot_count \(--knots\) {knots},"
        rf" above its budget of {moser1d._PANEL_BUDGET}"
    )
    with pytest.raises(DomainError, match=message):
        concentration_maximizer(2.0, big_a, 0.01, knots, seed=0)


def test_panel_budget_exits_2(capsys):
    status = main(["cc", "--p", "2", "--maximize", "--knots", "8", "--A", "1e6"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "up to 15000007 Gauss panels over [0, t_max = 6e+07]" in captured.err


if __name__ == "__main__":
    records = {case_id(case): maximizer_record(case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}", file=sys.stderr)
