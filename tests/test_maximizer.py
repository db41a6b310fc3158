"""The concentration maximizer: exact output pin, gradient, call counts,
work budget, and the Moser ramp as a witness it must reach.

``tests/data/maximizer_golden.json`` holds the maximizer's profile and J for
a spread of p, A, epsilon, knot counts and seeds.  The search's arithmetic
and accept/reject sequence are part of its contract, so the comparison is
``==``.  A change that moves nodes or reorders sums must re-pin the file
with ``PYTHONPATH=src python tests/test_maximizer.py``, and say so.  That
script prints each case's J-evaluation count and J change against the old
pin.  It writes nothing when a J falls by more than ``REPIN_REL_TOL``
relative, or is off an mpmath J of the returned polyline
(``bench/oracle.py::linear_profile_functional``) by more.  Then it re-pins
``cli_golden.json``'s ``cc --p 2 --maximize`` entry, whose J is that of the
first case.
"""

import contextlib
import importlib.util
import io
import json
import math
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from adamskit import moser1d
from adamskit.cli import main
from adamskit.constants import unit_concentration_level
from adamskit.errors import DomainError
from adamskit.moser1d import _SlopeObjective, cc_functional, concentration_maximizer, moser_family
from adamskit.profiles import piecewise_linear
from adamskit.quadrature import _W15, _X15, adaptive_gauss

DATA = Path(__file__).parent / "data"
GOLDEN_PATH = DATA / "maximizer_golden.json"
CLI_GOLDEN_PATH = DATA / "cli_golden.json"
#: The ``cli_golden.json`` entry that prints the first case's J.
CLI_MAXIMIZE = "cc --p 2 --maximize"
#: Largest relative error against mpmath that a pinned J may carry, and the
#: largest relative fall of a re-pinned J against its old pin.
REPIN_REL_TOL = 1e-12

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


def maximizer_record(result) -> dict:
    """A maximizer result's knots, values at the knots and J, as plain floats."""
    return {
        "knots": list(result.profile.knots),
        "values": [entry["value"] for entry in result.profile.to_json_obj()],
        "J": result.functional_value,
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def _mpmath_j(record: dict, p: float) -> float:
    """``bench/oracle.py``'s 30-digit J of a record's polyline, loaded from
    its file (read-only) with mpmath's precision restored afterwards."""
    import mpmath

    saved = mpmath.mp.dps
    try:
        path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
        spec = importlib.util.spec_from_file_location("_bench_oracle", path)
        oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracle)
        return float(oracle.linear_profile_functional(record["knots"], record["values"], p / (p - 1.0)))
    finally:
        mpmath.mp.dps = saved


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_output_is_pinned_exactly(case):
    want = _golden()[case_id(case)]
    got = maximizer_record(concentration_maximizer(*case))
    assert got["knots"] == want["knots"]
    assert got["values"] == want["values"]
    assert got["J"] == want["J"]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_pin_agrees_with_mpmath(case):
    want = _golden()[case_id(case)]
    assert abs(want["J"] - _mpmath_j(want, case[0])) <= REPIN_REL_TOL * want["J"]


#: Cases whose polylines start at g = 0 with q = 4/3 or 3/2, where J's run
#: is graded toward t = 0: ungraded, the first was 3.4e-12 off.
GRADED_RUNS = [(4.0, 1.0, 0.499, 8, 11), (4.0, 5.0, 0.01, 8, 0), (3.0, 0.3, 0.2, 48, 5)]


def _pinned_polyline(case):
    record = _golden()[case_id(case)]
    return record, piecewise_linear(record["knots"], record["values"])


@pytest.mark.parametrize("case", GRADED_RUNS, ids=case_id)
def test_polyline_run_against_mpmath(case):
    record, g = _pinned_polyline(case)
    j = cc_functional(g, case[0] / (case[0] - 1.0))
    assert abs(j - _mpmath_j(record, case[0])) <= 1e-13 * j


def test_polyline_j_is_one_engine_call(monkeypatch):
    # The (2, 5, 0.01, 48) polyline rises on [0, a_M] and is constant after:
    # one run of 46 segments, a constant segment and the tail in closed form.
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return adaptive_gauss(*args, **kwargs)

    _record, g = _pinned_polyline(CASES[0])
    monkeypatch.setattr(moser1d, "adaptive_gauss", counted)
    cc_functional(g, 2.0)
    assert calls == [(0.0, g.knots[-3])]


def test_cli_pin_carries_the_maximizer_pin():
    printed = json.loads(json.loads(CLI_GOLDEN_PATH.read_text())[CLI_MAXIMIZE]["stdout"])
    assert printed["J"] == _golden()[case_id(CASES[0])]["J"]


@pytest.mark.parametrize("knots", [16, 48])
@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("epsilon", [0.01, 0.1])
@pytest.mark.parametrize("big_a", [5.0, 10.0, 50.0, 200.0])
def test_reaches_the_moser_ramp_below_the_level(big_a, epsilon, p, knots):
    # moser_family(a_M, p), a_M = 1.001 A/epsilon, is in the class.  Both
    # profiles are floats: one ulp in g moves the exponent g^q - t at the
    # ramp's end by q a_M u, so the allowance is that for each profile where
    # it exceeds 1e-12 (8.9e-12 at a_M = 20 020, q = 2).
    q = p / (p - 1.0)
    a_moser = 1.001 * big_a / epsilon
    j_family = cc_functional(moser_family(a_moser, p), q)
    j_max = concentration_maximizer(p, big_a, epsilon, knots, seed=0).functional_value
    assert j_max >= j_family * (1.0 - max(1e-12, 2.0 * q * a_moser * 2.0**-53))
    assert j_max <= unit_concentration_level(p)


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


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_step_floor_drops_only_rounding_gains(case, monkeypatch):
    # Searching each start on down to steps of 1e-14 finds the same J to
    # well inside the 1e-10 to which cc_functional certifies it.
    monkeypatch.setattr(moser1d, "_STEP_FLOOR", 1e-14)
    want = _golden()[case_id(case)]["J"]
    assert abs(concentration_maximizer(*case).functional_value - want) <= 1e-12 * want


def _counted_evaluations(case, monkeypatch) -> int:
    """The maximizer's own J-evaluation count, checked against a count of
    ``_SlopeObjective.value`` calls."""
    calls = []
    value = _SlopeObjective.value

    def counted(self, s):
        calls.append(None)
        return value(self, s)

    monkeypatch.setattr(_SlopeObjective, "value", counted)
    evaluations = concentration_maximizer(*case).evaluations
    assert evaluations == len(calls)
    return evaluations


def test_search_evaluation_count(monkeypatch):
    # The benchmark's parameters: 53 J evaluations with a 1e-14 floor.
    assert _counted_evaluations((2.0, 5.0, 0.01, 48, 0), monkeypatch) == 38


def test_search_evaluation_count_weak_window(monkeypatch):
    # epsilon = 0.499: the first start searched takes most of the
    # evaluations, 211 with a 1e-14 floor.
    assert _counted_evaluations((4.0, 1.0, 0.499, 8, 11), monkeypatch) == 136


def _linspace_layout(knots: np.ndarray):
    """Nodes, weights, panel_seg and offsets as a per-segment np.linspace
    loop lays them: the reference for ``_SlopeObjective``'s layout."""
    nodes, weights, panel_seg = [], [], []
    for i, (lo, hi) in enumerate(zip(knots[:-1], knots[1:])):
        n_panels = max(1, int(math.ceil((hi - lo) / moser1d._PANEL_WIDTH)))
        edges = np.linspace(lo, hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * np.diff(edges)[:, None]
        nodes.append(mid + half * _X15[None, :])
        weights.append(half * np.broadcast_to(_W15, (n_panels, _W15.size)))
        panel_seg.extend([i] * n_panels)
    nodes = np.concatenate(nodes, axis=0)
    panel_seg = np.asarray(panel_seg)
    return nodes, np.concatenate(weights, axis=0), panel_seg, nodes - knots[panel_seg][:, None]


def _maximizer_knots(case, monkeypatch) -> np.ndarray:
    """The knots the maximizer lays for ``case``, caught before any search."""

    class Caught(Exception):
        pass

    def catch(knots, _q):
        raise Caught(knots)

    monkeypatch.setattr(moser1d, "_SlopeObjective", catch)
    with pytest.raises(Caught) as caught:
        concentration_maximizer(*case)
    return caught.value.args[0]


@pytest.mark.parametrize(
    "case", [*CASES, (2.0, 1307.0, 0.01, 48, 0), (2.0, 2181.0, 0.01, 48, 0)], ids=case_id
)
def test_layout_matches_linspace_panels(case, monkeypatch):
    # The last two cases lay 32 752 and 32 740 panels, at the budget of
    # 32 768: the first reaches a_M = 1.001 A/epsilon, the second only 60 A.
    knots = _maximizer_knots(case, monkeypatch)
    objective = _SlopeObjective(knots, 2.0)
    want = _linspace_layout(knots)
    got = (objective.nodes, objective.weights, objective.panel_seg, objective.offsets)
    for name, a, b in zip(("nodes", "weights", "panel_seg", "offsets"), got, want):
        assert np.array_equal(a, b), name


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
            events.append((name, args, out))
            return out

        return wrapper

    monkeypatch.setattr(_SlopeObjective, "value", logged("value", _SlopeObjective.value))
    monkeypatch.setattr(_SlopeObjective, "grad", logged("grad", _SlopeObjective.grad))
    monkeypatch.setattr(moser1d, "_project", logged("project", moser1d._project))
    result = concentration_maximizer(2.0, 5.0, 0.01, 24, seed=3)

    names = [name for name, _, _ in events]
    # Every start (the warm ones and the Moser ramp) is projected, then
    # evaluated with its gradient, before the first trial.
    n = moser1d._N_STARTS + 1
    assert names[: 3 * n] == ["project"] * n + ["value", "grad"] * n
    starts = [out for _, _, out in events[:n]]
    start_values = [out for _, _, out in events[n : 3 * n : 2]]
    start_grads = [out for _, _, out in events[n + 1 : 3 * n : 2]]
    # The starts are searched in descending order of J, and a start's first
    # trial is its own step of 0.1 along its scored gradient: the trial
    # input that marks where the start begins.
    order = list(np.argsort(start_values, kind="stable")[::-1])
    first_trials = [
        starts[i] + 0.1 / max(float(np.max(np.abs(start_grads[i]))), 1e-12) * start_grads[i]
        for i in order
    ]
    # Replay the search.  Every later event is a trial, a projection and a
    # value, accepted when its J beats the incumbent.  An accepted trial is
    # followed by a gradient unless its start (not the first searched)
    # stalls there: it gains under _GAIN_FLOOR of J - 1 and trails the best
    # J of the starts before it.  Then the next start's first trial or the
    # end of the log follows.  A rejected trial is never followed by a
    # gradient.
    searched, accepted, stalled, incumbent, best = 0, 0, 0, None, -math.inf
    search = events[3 * n :]
    following = [name for name, _, _ in search[1:]] + ["end"]
    for k, ((name, args, out), after) in enumerate(zip(search, following)):
        if name == "project":
            if searched < n and np.array_equal(args[0], first_trials[searched]):
                if incumbent is not None:
                    best = max(best, incumbent)
                searched, incumbent = searched + 1, start_values[order[searched]]
            assert after == "value"
            continue
        if name == "grad":
            continue
        assert search[k - 1][0] == "project" and args[1] is search[k - 1][2]
        if out > incumbent:
            gain = out - incumbent
            stall = searched > 1 and gain < moser1d._GAIN_FLOOR * (incumbent - 1.0) and out < best
            assert (after != "grad") == stall
            if stall:
                assert after == "end" or np.array_equal(search[k + 1][1][0], first_trials[searched])
                stalled += 1
            accepted, incumbent = accepted + 1, out
        else:
            assert after != "grad"
    assert searched == n
    assert accepted > stalled > 0
    assert names.count("grad") == n + accepted - stalled
    assert names.count("project") == names.count("value")
    assert names.count("value") > 2 * names.count("grad")
    assert names.count("value") == result.evaluations


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


def test_moser_start_past_the_budget_is_left_out():
    # a_M = 1.001 A/epsilon = 500 500 would take 125 172 panels.  The search
    # keeps t_max = max(600, 60 A) and its warm starts, and loses nothing to
    # its stopping rules: the J is the one every start searched to the step
    # floor reaches.
    result = concentration_maximizer(2.0, 5.0, 1e-5, 48, seed=0)
    knots = np.array(result.profile.knots)
    values = np.array([result.profile.value(t) for t in knots])
    slopes = np.diff(values) / np.diff(knots)
    parts = slopes**2 * np.diff(knots)
    assert knots[-1] == 600.0
    assert math.fsum(parts) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(parts[knots[:-1] < 5.0 - 1e-12]) <= 1e-5 * (1.0 + 1e-12)
    assert result.functional_value == 1.0198254715426802


def test_panel_budget_exits_2(capsys):
    status = main(["cc", "--p", "2", "--maximize", "--knots", "8", "--A", "1e6"])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert "up to 15000007 Gauss panels over [0, t_max = 6e+07]" in captured.err


def _cli_stdout(invocation: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(shlex.split(invocation))
    if status != 0:
        sys.exit(f"not written: {invocation!r} exited {status}")
    return buffer.getvalue()


if __name__ == "__main__":
    os.environ.pop("ADAMS_QUAD_RTOL", None)
    old = _golden() if GOLDEN_PATH.exists() else {}
    records, off = {}, []
    for case in CASES:
        result = concentration_maximizer(*case)
        record = maximizer_record(result)
        error = abs(record["J"] - _mpmath_j(record, case[0])) / record["J"]
        was = old.get(case_id(case), {}).get("J")
        change = math.nan if was is None else (record["J"] - was) / was
        print(
            f"{case_id(case)}: J = {record['J']!r}, {result.evaluations} J evaluations,"
            f" change {change:+.2e} against the old pin, mpmath error {error:.1e}",
            file=sys.stderr,
        )
        if not error <= REPIN_REL_TOL or change < -REPIN_REL_TOL:
            off.append(case_id(case))
        records[case_id(case)] = record
    if off:
        sys.exit(
            f"not written: {', '.join(off)} off mpmath, or below the old pin,"
            f" by more than {REPIN_REL_TOL:g}"
        )
    GOLDEN_PATH.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} cases to {GOLDEN_PATH}", file=sys.stderr)
    cli = json.loads(CLI_GOLDEN_PATH.read_text())
    stdout = _cli_stdout(CLI_MAXIMIZE)
    if json.loads(stdout)["J"] != records[case_id(CASES[0])]["J"]:
        sys.exit(f"not written: {CLI_MAXIMIZE!r} prints another J than {case_id(CASES[0])}")
    cli[CLI_MAXIMIZE] = {"stdout": stdout, "stderr": "", "exit": 0}
    CLI_GOLDEN_PATH.write_text(json.dumps(cli, indent=1) + "\n")
    print(f"re-pinned {CLI_MAXIMIZE!r} in {CLI_GOLDEN_PATH}", file=sys.stderr)
