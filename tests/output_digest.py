"""Digest of what the CLI prints, to compare two source trees byte for byte.

Runs each invocation below through ``adamskit.cli.main`` in this process,
from ``tests/data`` and with ``ADAMS_QUAD_RTOL`` unset, and prints one line
per invocation: the exit code, the sha256 of stdout, the sha256 of stderr
and the invocation; then a total over those lines.  The list covers every
``cli_golden.json`` entry (whose drifted entries the suite compares only
to 1e-14), both sweep files, the maximizer goldens, Talenti profiles and a
grid of second-order Hardy probes (closed-form norms at p = 2, 4 and 6,
engine calls at p = 3, some of which refine past their first level, and
p = 2 and 3 at radii where p = 3 refuses) and a grid of Rayleigh probes
over both sides, q = 2, 2.5, 4 (roots of u as breaks only at 2.5),
theta = -0.5 (the substitution route), 0.3 and 1.7 (graded toward
r = 0), at 3 and 40 trials.  Usage, from the repository root::

    PYTHONPATH=<tree>/src python tests/output_digest.py > digest.txt

once per tree, then ``diff`` the two files.  Not a test module: pytest
does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
from pathlib import Path

from adamskit.cli import main as cli_main

DATA = Path(__file__).resolve().parent / "data"

MAXIMIZER_KEY = re.compile(r"p=(.+)-A=(.+)-eps=(.+)-knots=(\d+)-seed=(\d+)")


def _maximizer_invocations() -> list[str]:
    keys = json.loads((DATA / "maximizer_golden.json").read_text())
    out = []
    for key in keys:
        p, A, eps, knots, seed = MAXIMIZER_KEY.fullmatch(key).groups()
        out.append(f"--seed {seed} cc --p {p} --maximize --A {A} --epsilon {eps} --knots {knots}")
    return out


def _second_order_invocations() -> list[str]:
    shapes = [(8, 2.0, 1.0), (12, 2.5, 2.0), (40, 3.0, 2.0)]  # (n, q, R); n = 40 refines
    grid = [
        f"--seed {seed} hardy --second-order --n-dim {n} --q {q} --p {p} --R {R} --trials {trials}"
        for p in (2, 3, 4, 6)
        for trials in (3, 20, 50)
        for n, q, R in shapes
        for seed in (0, 1)
    ]
    return grid + [
        f"hardy --second-order --n-dim 8 --q 2 --p {p} --R {R} --trials 5"
        for p in (2, 3)
        for R in ("1e-41", "1e200")
    ]


def _rayleigh_invocations() -> list[str]:
    # p = 2 with alpha = 0 on the left and 1.2 on the right is feasible for
    # every (q, theta) below.
    sides = (("left", 0.0), ("right", 1.2))
    return [
        f"hardy --p 2 --q {q} --alpha {alpha} --theta {theta} --side {side} --trials {trials}"
        for side, alpha in sides
        for q in (2, 2.5, 4)
        for theta in (-0.5, 0.3, 1.7)
        for trials in (3, 40)
    ]


#: Each once: the golden list has Talenti at n = 3.
INVOCATIONS = list(dict.fromkeys([
    *json.loads((DATA / "cli_golden.json").read_text()),
    "extremal-sweep --n-from 16 --n-to 512",
    "--format json extremal-sweep --n-from 16 --n-to 120",
    *_maximizer_invocations(),
    *(f"rearrange --input cells.csv --mode talenti --n {n} --radius 1" for n in (2, 3, 4)),
    *_second_order_invocations(),
    *_rayleigh_invocations(),
]))


def run(invocation: str) -> str:
    """'exit sha256(stdout) sha256(stderr) invocation' of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli_main(shlex.split(invocation))
    digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
    return " ".join((str(status), *digests, invocation))


def main() -> int:
    os.environ.pop("ADAMS_QUAD_RTOL", None)
    os.chdir(DATA)
    lines = [run(invocation) for invocation in INVOCATIONS]
    for line in lines:
        print(line)
    total = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    print(f"total {len(lines)} invocations {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
