"""Contract fuzz of every ``adamskit`` subcommand: every input ends in a
documented exit code, with no traceback, no numpy warning and only finite
numbers.

The cases are derandomized, so the suite sees the same ones on every run.
"""

import contextlib
import io
import math
import os
import re
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from adamskit.cli import main

#: The documented exit codes: success, domain error, quadrature failure,
#: probe failure, malformed arguments.
EXIT_CODES = {0, 2, 3, 4, 64}
#: A number token in the output, including the non-finite spellings.
TOKEN = re.compile(
    r"(?<![\w.])-?(?:inf|nan|\d+(?:\.\d+)?(?:[eE][-+]?\d+)?)(?![\w.])", re.IGNORECASE
)

#: The float range's ends, the exponents' boundaries and plain values.
EXTREMES = [1e-300, 1e300, -1e300, -1.0, 0.0, 1.0, 1.0 + 1e-10, 0.5]
#: Integer extremes for the sweep's dimensions and step: none is large,
#: since a large --n-to would make a long but valid sweep.
INT_EXTREMES = [-2, 0, 1, 3, 14, 15, 17]
#: Integer extremes for the constants' m and n: the domain's edges
#: (0 < m < n, n >= 2), where the sphere area underflows (n = 439), and
#: integers far beyond a float's exact range.
DIM_EXTREMES = [-1, 0, 1, 2, 3, 438, 439, 10**6, 2**63, 10**400]
TRIALS = st.sampled_from(["0", "1", "3"])
#: Python's own ``OverflowError`` messages from float and int arithmetic.
#: ``cli.run`` prints such an error after "domain error: " as it is, so an
#: exit 2 with one of them is a refusal in Python's terms, not the library's.
BARE_OVERFLOW = re.compile(
    r"math range error|\(34, 'Numerical result out of range'\)"
    r"|cannot convert float infinity to integer|integer division result too large for a float"
    r"|(Python )?int too large to convert to \w+( \w+)?|cannot fit 'int' into an index-sized integer"
)
FORMATS = st.sampled_from([[], ["--format", "csv"]])


@st.composite
def _perturbed(draw, feasible, extremes=EXTREMES):
    """Options {name: value}: ``feasible`` values, of which up to two are
    replaced by an extreme or left out."""
    values = dict(feasible)
    for name in draw(st.lists(st.sampled_from(tuple(feasible)), max_size=2, unique=True)):
        values[name] = draw(st.one_of(st.sampled_from(extremes), st.none()))
    # "--p=-1" keeps argparse from reading a negative value as an option.
    return [f"{name}={value!r}" for name, value in values.items() if value is not None]


@st.composite
def hardy_first_order(draw):
    """A feasible setup (the sign of alpha - p + 1 fits the side, and
    q (alpha - p + 1) < p (theta + 1)), then perturbed."""
    side = draw(st.sampled_from(["left", "right"]))
    p = draw(st.floats(1.01, 4.0))
    q = p * draw(st.floats(1.0, 2.0))
    shifted = draw(st.floats(0.05, 2.0)) * (-1.0 if side == "left" else 1.0)
    theta = q * shifted / p - 1.0 + draw(st.floats(0.01, 2.0))
    feasible = {"--p": p, "--q": q, "--alpha": shifted + p - 1.0, "--theta": theta,
                "--R": draw(st.floats(0.1, 10.0))}
    options = draw(_perturbed(feasible))
    return draw(FORMATS) + ["hardy", *options, "--side", side, "--trials", draw(TRIALS)]


@st.composite
def hardy_second_order(draw):
    """A feasible probe (n - 2q > 0), then perturbed; n is drawn apart."""
    n = draw(st.sampled_from([3, 4, 5, 6, 8, 12, 100]))
    feasible = {"--q": draw(st.floats(1.01, n / 2.0 - 0.01)), "--p": draw(st.floats(1.0, 5.0)),
                "--R": draw(st.floats(0.1, 10.0))}
    options = draw(_perturbed(feasible))
    argv = draw(FORMATS) + ["hardy", "--second-order", "--n-dim", str(n)]
    return argv + options + ["--trials", draw(TRIALS)]


@st.composite
def cc_moser(draw):
    """A Moser ramp of unit p-energy, then perturbed; --q is the conjugate
    unless drawn."""
    feasible = {"--p": draw(st.floats(1.1, 6.0)), "--a": draw(st.floats(0.5, 1e5))}
    if draw(st.booleans()):
        feasible["--q"] = draw(st.floats(1.1, 6.0))
    options = draw(_perturbed(feasible))
    return draw(FORMATS) + ["cc", "--family", "moser", *options]


@st.composite
def cc_maximize(draw):
    """A small concentration search (8-16 knots), then perturbed."""
    feasible = {"--p": draw(st.floats(2.0, 5.0)), "--A": draw(st.floats(0.5, 10.0)),
                "--epsilon": draw(st.floats(0.01, 0.45))}
    options = draw(_perturbed(feasible))
    knots = draw(st.sampled_from(["8", "12", "16"]))
    return ["--seed", draw(TRIALS), "cc", "--maximize", *options, "--knots", knots]


@st.composite
def extremal_sweep(draw):
    """A short sweep (at most six verdicts) from n = 16 up to where the
    rounding guard refuses (n = 2e7), then perturbed."""
    n_from = draw(st.sampled_from([16, 20, 104, 512, 5000, 10**6, 2 * 10**7, 2**31]))
    feasible = {"--n-from": n_from, "--n-to": n_from + draw(st.sampled_from([0, 2, 10])),
                "--step": draw(st.sampled_from([2, 4]))}
    options = draw(_perturbed(feasible, INT_EXTREMES))
    return draw(FORMATS) + ["extremal-sweep", *options]


@st.composite
def constants(draw):
    """A feasible (m, n), 0 < m < n, then perturbed."""
    n = draw(st.integers(2, 64))
    options = draw(_perturbed({"--m": draw(st.integers(1, n - 1)), "--n": n}, DIM_EXTREMES))
    return draw(FORMATS) + ["constants", *options]


@st.composite
def level(draw):
    """A feasible (m, n) and domain measure, then perturbed."""
    n = draw(st.integers(2, 64))
    feasible = {"--m": draw(st.integers(1, n - 1)), "--n": n,
                "--measure": draw(st.floats(1e-3, 1e3))}
    options = draw(_perturbed(feasible, EXTREMES + DIM_EXTREMES))
    return draw(FORMATS) + ["level", *options]


@st.composite
def t0(draw):
    """``t0`` takes no options of its own: the global ones, perturbed."""
    feasible = {"--rtol": 1e-10, "--truncation-eps": 1e-12, "--seed": 0}
    options = draw(_perturbed(feasible, EXTREMES + INT_EXTREMES))
    return options + draw(FORMATS) + ["t0"]


#: A cell's measure or value that is an extreme or no number.
BAD_CELL = st.sampled_from([repr(x) for x in EXTREMES] + ["nan", "inf", "-inf", "x", ""])


@st.composite
def rearrange(draw):
    """(the --input CSV text, the argv without --input): up to six feasible
    cells, of which one may be replaced, a mode, and a feasible dimension
    and radius, then perturbed."""
    cell = st.tuples(st.floats(1e-3, 10.0).map(repr), st.floats(-10.0, 10.0).map(repr))
    rows = draw(st.lists(cell, max_size=6))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = draw(st.one_of(st.tuples(BAD_CELL, cell.map(lambda c: c[1])),
                                 st.tuples(cell.map(lambda c: c[0]), BAD_CELL)))
    text = "measure,value\n" if draw(st.booleans()) else ""
    text += "".join(f"{m},{v}\n" for m, v in rows)
    mode = draw(st.sampled_from(["rearrange", "symmetrize", "talenti"]))
    feasible = {"--n": draw(st.integers(2, 8)), "--radius": draw(st.floats(0.5, 10.0))}
    options = draw(_perturbed(feasible, EXTREMES + INT_EXTREMES))
    return text, ["rearrange", "--mode", mode, *options]


def run_in_process(argv):
    """(exit code, stdout, stderr, warnings) of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(argv)
            except SystemExit as exc:  # argparse's exit 64 and --help
                status = exc.code
    return status, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def check_contract(argv):
    status, out, err, caught = run_in_process(argv)
    assert status in EXIT_CODES, (argv, status, err)
    assert "Traceback" not in err, (argv, err)
    assert "Warning" not in err and not caught, (argv, err, caught)
    if status == 2:
        assert not BARE_OVERFLOW.fullmatch(err.partition("domain error: ")[2].strip()), (argv, err)
    if status == 0:
        numbers = [float(t) for t in TOKEN.findall(out)]
        assert numbers and all(math.isfinite(x) for x in numbers), (argv, out)


_FUZZ = settings(
    derandomize=True,
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_FUZZ
@given(hardy_first_order())
def test_hardy_contract(argv):
    check_contract(argv)


@_FUZZ
@given(hardy_second_order())
# |u|^p and the weight leave the float range together: exit 2, not a NaN panel.
@example(["hardy", "--second-order", "--n-dim", "4", "--q", "1.7797377807599197",
          "--p", "1e+300", "--trials", "1"])
# n p / q* - 1 overflows to an infinite weight: exit 2 naming p.
@example(["hardy", "--second-order", "--n-dim", "4", "--q", "1.5", "--p", "1e+308",
          "--trials", "1"])
def test_hardy_second_order_contract(argv):
    check_contract(argv)


@_FUZZ
@given(cc_moser())
def test_cc_moser_contract(argv):
    check_contract(argv)


@settings(_FUZZ, max_examples=60)
@given(cc_maximize())
def test_cc_maximize_contract(argv):
    check_contract(argv)


@_FUZZ
@given(extremal_sweep())
def test_extremal_sweep_contract(argv):
    check_contract(argv)


@_FUZZ
@given(constants())
def test_constants_contract(argv):
    check_contract(argv)


@_FUZZ
@given(level())
def test_level_contract(argv):
    check_contract(argv)


@_FUZZ
@given(t0())
def test_t0_contract(argv):
    check_contract(argv)


@_FUZZ
@given(rearrange())
def test_rearrange_contract(case):
    text, argv = case
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "cells.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        check_contract(argv + ["--input", path])
