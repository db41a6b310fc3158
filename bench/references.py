"""The mpmath references of one workload's operations, in a process of
their own.

    python3 bench/references.py --workload W --seed N

prints one JSON list with an entry per operation of
``workloads.inputs(W, N)``.  ``run.py`` starts this as a child process, so
the process it measures never imports mpmath or holds the references'
working memory, and reads the floats back exactly (JSON keeps every digit
of a double).  The Moser and maximizer references are for the profiles
the library builds, so adamskit is imported here too.
"""

from __future__ import annotations

import argparse
import json
import math

import oracle
import run
import workloads
from workloads import CONSTANT_RTOL, FUNCTIONAL_RTOL, rounding_allowance


def _functional(ref, size, base: float = FUNCTIONAL_RTOL) -> dict:
    return {"ref": float(ref), "rtol": base + rounding_allowance(size)}


def _ramp(profile) -> tuple[float, float, float] | None:
    """(slope, knot, plateau) of a ramp from the origin continued by a
    constant, or None for any other shape."""
    try:
        (ramp,) = profile.pieces
        plateau = profile.tail
        if profile.knots[0] == 0.0 and ramp.intercept == 0.0 and plateau.slope == 0.0:
            return ramp.slope, profile.knots[1], plateau.intercept
    except (AttributeError, TypeError, ValueError):
        pass
    return None


def _moser(a: float, p: float, lib) -> dict:
    # The reference is for the double-precision profile the library builds:
    # rounding a^{-1/p} moves g^q at t = a by about (ln a / p) ulps of a,
    # more than any tolerance allows once a > 1e8.  The profile must match
    # the ideal family's parameters first.  A build that raises here raises
    # again in the timed call, where it is counted.
    try:
        params = _ramp(lib.moser1d.moser_family(a, p))
    except Exception:
        params = None
    if params is None:
        return {"ref": None}
    slope, knot, plateau = params
    ideal = oracle.moser_parameters(a, p)
    drift = max(abs(slope / ideal["slope"] - 1), abs(plateau / ideal["plateau"] - 1), abs(knot / a - 1))
    if drift > 1e-13 * max(1.0, math.log(a)):
        return {"ref": None}
    return _functional(*oracle.moser_functional(slope, knot, plateau, p / (p - 1.0)))


def _maximizer(seed: int, lib) -> dict:
    p, big_a, epsilon, knots = workloads.MAXIMIZER_ARGS
    # The maximizer's output is what gets checked, so one run here fixes
    # the profile the reference is computed for.
    try:
        first = lib.moser1d.concentration_maximizer(p, big_a, epsilon, knots, seed)
        ts = [float(t) for t in first.profile.knots]
        ys = [float(first.profile.value(t)) for t in ts]
    except Exception:  # raises again in the timed call, where it is counted
        return {"ts": None}
    ref = oracle.linear_profile_functional(ts, ys, p / (p - 1.0))
    return {"ts": ts, "ys": ys, **_functional(ref, max(ys) ** 2)}


def reference(item: tuple, lib) -> dict:
    kind = item[0]
    if kind == "verdict":
        _k, n, sampled = item
        return _functional(*oracle.extremal_functional(n)) if sampled else {}
    if kind == "moser":
        _k, a, p = item
        return _moser(a, p, lib)
    if kind == "logradial":
        _k, n, m, big_r, raw_cells, target = item
        # Scale the data so the profile's energy is ``target`` < 1 (energy is
        # p-homogeneous in the data), as cc_functional's hypothesis requires.
        factor = float((target / oracle.log_radial_energy(raw_cells, n, m, big_r)) ** (m / n))
        cells = workloads.scaled(raw_cells, factor)
        return {"factor": factor, **_functional(*oracle.log_radial_functional(cells, n, m, big_r))}
    if kind == "maximizer":
        return _maximizer(item[1], lib)
    if kind in ("rayleigh", "sandwich"):
        p, q, alpha, theta, big_r, left = item[1]
        b = oracle.hardy_b(p, q, alpha, theta, big_r, left)
        return {"lower": float(b), "upper": float(b * oracle.hardy_k(q, p))}
    if kind == "second_order":
        _k, n, q, _seed = item
        return {"constant": float(oracle.second_order_constant(n, q))}
    if kind == "beta0":
        _k, m, n = item
        return _functional(*oracle.beta0(m, n), base=CONSTANT_RTOL)
    if kind == "level":
        _k, m, n, measure = item
        return {"ref": float(oracle.concentration_level(m, n, measure))}
    if kind == "t_zero":
        return {"ref": float(oracle.t_zero_raw())}
    return {}  # symmetrize: checked against invariants of the input


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    lib = run.import_library()
    print(json.dumps([reference(item, lib) for item in workloads.inputs(args.workload, args.seed)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
