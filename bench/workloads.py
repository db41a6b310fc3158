"""The three workloads: seeded inputs, the library call per operation, and
the check of each result against an independent reference.

``inputs(workload, seed)`` is cheap and deterministic.  Their mpmath
references are the slow part of set-up; ``references.py`` computes them
in a child process, outside every timed region, and ``jobs(...)`` pairs
each input with its reference.  Every operation calls the library through
module attributes at call time, so the traced run sees the calls it
rebinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKLOADS = ("sweep", "concentrate", "probes")

#: Relative tolerance of every functional check, before the rounding allowance.
FUNCTIONAL_RTOL = 1e-9
#: Relative tolerance of the closed-form constants.
CONSTANT_RTOL = 1e-12
#: Unit roundoff of IEEE double precision.
UNIT_ROUNDOFF = 2.0**-53
#: Moser ramps take a log-uniform in [1, 10**MOSER_LOG10_A_MAX].  Above
#: a of about 1.2e6, ``cc_functional`` misses the O(1)-wide strip near
#: t = a and returns a silent wrong value (ROADMAP item 2); every
#: operation of a workload must pass its check, so those ramps wait until
#: that is fixed.  ``selftest.py`` shows the failure at a = 1e7.
MOSER_LOG10_A_MAX = 6.0


def rounding_allowance(size: float) -> float:
    """First-order relative error that double precision cannot avoid when a
    result is the exponential (or product) of terms of magnitude ``size``:
    rounding the profile parameters and evaluating g^q each perturb the
    exponent by a few units of roundoff times its size."""
    return 8.0 * UNIT_ROUNDOFF * float(size)


def ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


def scaled(cells, factor: float) -> tuple:
    """(measure, value) cells with every value multiplied by ``factor``."""
    return tuple((measure, value * factor) for measure, value in cells)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    rel_err: float | None = None  # against the mpmath reference, where one exists
    detail: str = ""


@dataclass(frozen=True)
class Job:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdict]
    record: Callable[[Any], dict]  # the fields the CLI would print


def _rel(value: float, ref) -> float:
    return abs(float(value) / float(ref) - 1.0)


def _within(value: float, ref, rtol: float) -> Verdict:
    err = _rel(value, ref)
    return Verdict(err <= rtol, err, f"{value!r} vs reference {float(ref)!r} (rtol {rtol:.2e})")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One uniform draw in each of ``count`` equal strata of [lo, hi], so
    every seed covers the range the same way."""
    edges = np.linspace(lo, hi, count + 1)
    return edges[:-1] + (edges[1:] - edges[:-1]) * rng.random(count)


def inputs(workload: str, seed: int) -> list[tuple]:
    """(kind, *arguments) per operation; the count never depends on the seed."""
    rng = _rng(workload, seed)
    if workload == "sweep":
        fixed = list(range(104, 513, 2))
        halves = np.linspace(257, 5001, 17).astype(int)  # n = 2k, k in disjoint strata
        large = [2 * int(rng.integers(lo, hi)) for lo, hi in zip(halves[:-1], halves[1:])]
        sampled = set(rng.choice(fixed, 6, replace=False).tolist())
        sampled |= set(rng.choice(large, 6, replace=False).tolist())
        return [("verdict", n, n in sampled) for n in fixed + large]
    if workload == "concentrate":
        out = []
        for log_a in _stratified(rng, 0.0, MOSER_LOG10_A_MAX, 160):
            out.append(("moser", float(10.0**log_a), float(rng.uniform(2.0, 4.0))))
        for i in range(36):
            n = (4, 6)[i % 2]
            cells = 3 + i % 6
            big_r = float(rng.uniform(0.5, 2.0))
            volume = ball_volume(n) * big_r**n
            measures = rng.dirichlet(np.ones(cells)) * volume * rng.uniform(0.5, 1.0)
            values = rng.uniform(-3.0, 3.0, size=cells)
            target = float(rng.uniform(0.5, 0.95))
            out.append(("logradial", n, 2, big_r, tuple(zip(measures.tolist(), values.tolist())), target))
        for _ in range(4):
            out.append(("maximizer", int(rng.integers(0, 2**31))))
        return out
    if workload == "probes":
        out = []
        for setup in _hardy_setups(rng, 48):
            out.append(("rayleigh", setup, int(rng.integers(0, 2**31))))
        for n in (6, 8, 12):
            for q in _stratified(rng, 1.2, min(3.0, n / 2.0 - 0.4), 8):
                out.append(("second_order", n, float(q), int(rng.integers(0, 2**31))))
        out.extend(("sandwich", setup) for setup in _hardy_setups(rng, 32))
        for log_n in _stratified(rng, math.log(3.0), math.log(10000.0), 32):
            n = int(round(math.exp(log_n)))
            out.append(("beta0", int(rng.integers(1, min(10, n - 1) + 1)), n))
        for _ in range(16):
            n = int(rng.integers(2, 200))
            out.append(("level", int(rng.integers(1, n)), n, float(rng.uniform(0.1, 10.0))))
        out.extend(("t_zero",) for _ in range(8))
        for i in range(64):
            cells = 3 + i % 10
            measures = rng.uniform(0.1, 2.0, size=cells)
            values = rng.uniform(-3.0, 3.0, size=cells)
            out.append(("symmetrize", 2 + i % 7, tuple(zip(measures.tolist(), values.tolist()))))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _hardy_setups(rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` feasible (p, q, alpha, theta, R, left), alternating sides,
    left first.  Per side, p and q/p form a Latin hypercube over
    [1.5, 3] x [1, 2]: a Rayleigh probe costs more quadrature the smaller
    p and q/p are, so every seed gets the same spread of costs."""
    sides = []
    for left in (True, False):
        ps = _stratified(rng, 1.5, 3.0, count // 2)
        ratios = rng.permutation(_stratified(rng, 1.0, 2.0, count // 2))
        sides.append([_hardy_setup(rng, float(p), float(p * r), left) for p, r in zip(ps, ratios)])
    return [setup for pair in zip(*sides) for setup in pair]


def _hardy_setup(rng: np.random.Generator, p: float, q: float, left: bool) -> tuple:
    """alpha - p + 1 has the side's sign and q (alpha - p + 1) < p (theta + 1)
    with a margin."""
    shifted = float(rng.uniform(0.2, 1.5)) * (-1.0 if left else 1.0)
    theta = q * shifted / p - 1.0 + float(rng.uniform(0.05, 1.5))
    return (p, q, shifted + p - 1.0, theta, float(rng.uniform(0.5, 3.0)), left)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


def jobs(workload: str, seed: int, lib, refs: list[dict]) -> list[Job]:
    """Operations paired with their references (``references.py``'s
    output for the same workload and seed); ``lib`` is the imported
    adamskit."""
    build = {"sweep": _sweep_job, "concentrate": _concentrate_job, "probes": _probe_job}[workload]
    items = inputs(workload, seed)
    if len(refs) != len(items):
        raise ValueError(f"{len(refs)} references for {len(items)} operations")
    return [build(item, ref, lib) for item, ref in zip(items, refs)]


def _sweep_job(item, ref, lib) -> Job:
    _kind, n, _sampled = item

    def check(row) -> Verdict:
        fails = []
        if row.n != n:
            fails.append(f"row for n = {row.n}")
        if not (row.gap_analytic and row.gap_numeric):
            fails.append("gap verdict false")
        if not (row.norm_chain_bound <= 1.0 and row.norm_quadrature <= 1.0):
            fails.append(f"norms {row.norm_chain_bound!r}, {row.norm_quadrature!r} exceed 1")
        if not ref:
            return Verdict(not fails, None, "; ".join(fails))
        verdict = _within(row.functional_quadrature, ref["ref"], ref["rtol"])
        if not verdict.ok:
            fails.append(verdict.detail)
        return Verdict(not fails, verdict.rel_err, "; ".join(fails))

    def record(row) -> dict:
        return {
            "n": row.n,
            "norm_chain": row.norm_chain_bound,
            "norm_quad": row.norm_quadrature,
            "J_lower": row.functional_lower,
            "J_quad": row.functional_quadrature,
            "level": row.level,
            "gap_analytic": row.gap_analytic,
            "gap_numeric": row.gap_numeric,
        }

    return Job(f"verdict n={n}", lambda: lib.extremal.verdict(n), check, record)


def _concentrate_job(item, ref, lib) -> Job:
    kind = item[0]
    if kind == "moser":
        _k, a, p = item
        return _moser_job(a, p, ref, lib)
    if kind == "logradial":
        _k, n, m, big_r, raw_cells, _target = item
        cells = scaled(raw_cells, ref["factor"])
        q = n / (n - m)

        def run():
            f = lib.rearrange.SampledFunction(cells)
            sharp = lib.rearrange.decreasing_rearrangement(f)
            v = lib.rearrange.talenti_radial_solution(sharp, n, big_r)
            g = lib.rearrange.energy_change_of_variables(v, m)
            return lib.moser1d.cc_functional(g, q)

        return Job(
            f"logradial n={n} cells={len(cells)}",
            run,
            lambda j: _within(j, ref["ref"], ref["rtol"]),
            lambda j: {"family": "logradial", "n": n, "R": big_r, "J": j},
        )
    _k, seed = item
    return _maximizer_job(seed, ref, lib)


def _moser_job(a: float, p: float, ref, lib) -> Job:
    q = p / (p - 1.0)
    # The reference is for the profile the library built in the reference
    # process; every timed call must build an identical one.
    try:
        profile = lib.moser1d.moser_family(a, p)
    except Exception:  # raises again in the timed call, where it is counted
        profile = None

    def run():
        g = lib.moser1d.moser_family(a, p)
        return g, lib.moser1d.cc_functional(g, q)

    def check(result) -> Verdict:
        g, j = result
        if ref["ref"] is None or g != profile:
            return Verdict(False, None, f"moser_family({a!r}, {p!r}) is not the expected ramp")
        return _within(j, ref["ref"], ref["rtol"])

    return Job(
        f"moser a={a:.3e} p={p:.3f}",
        run,
        check,
        lambda result: {"family": "moser", "a": a, "p": p, "J": result[1]},
    )


#: p, A, epsilon, knots of every ``concentration_maximizer`` operation.
MAXIMIZER_ARGS = (2.0, 5.0, 0.01, 48)


def _maximizer_job(seed: int, ref, lib) -> Job:
    p, big_a, epsilon, knots = MAXIMIZER_ARGS
    ts, ys = ref["ts"], ref.get("ys")
    level = 1.0 + math.e  # 1 + e^{psi(2) + gamma}

    def check(result) -> Verdict:
        got_ts = list(result.profile.knots)
        got_ys = [float(result.profile.value(t)) for t in got_ts]
        if ts is None or got_ts != ts or got_ys != ys:
            return Verdict(False, None, "profile differs from the reference run with the same seed")
        slopes = [(y1 - y0) / (t1 - t0) for t0, t1, y0, y1 in zip(ts, ts[1:], ys, ys[1:])]
        parts = [s**p * (t1 - t0) for s, t0, t1 in zip(slopes, ts, ts[1:])]
        total = math.fsum(parts)
        window = math.fsum(e for e, t0 in zip(parts, ts) if t0 < big_a - 1e-12)
        verdict = _within(result.functional_value, ref["ref"], ref["rtol"])
        fails = [] if verdict.ok else [verdict.detail]
        if abs(total - 1.0) > 1e-9 or window > epsilon * (1.0 + 1e-9):
            fails.append(f"energy {total!r}, window energy {window!r}")
        if not result.functional_value <= level:
            fails.append(f"J {result.functional_value!r} above the level {level!r}")
        return Verdict(not fails, verdict.rel_err, "; ".join(fails))

    return Job(
        f"maximizer seed={seed}",
        lambda: lib.moser1d.concentration_maximizer(p, big_a, epsilon, knots, seed),
        check,
        lambda r: {"family": "maximizer", "seed": seed, "J": r.functional_value},
    )


def _probe_job(item, ref, lib) -> Job:
    kind = item[0]
    if kind in ("rayleigh", "sandwich"):
        p, q, alpha, theta, big_r, left = item[1]

        def setup():
            side = lib.hardy.Side.LEFT_VANISHING if left else lib.hardy.Side.RIGHT_VANISHING
            return lib.hardy.HardySetup(p=p, q=q, alpha=alpha, theta=theta, R=big_r, side=side)

        if kind == "rayleigh":
            seed = item[2]

            def check(result) -> Verdict:
                ok = result.max_ratio <= ref["upper"] + 1e-9
                return Verdict(ok, None, f"ratio {result.max_ratio!r} vs upper {ref['upper']!r}")

            return Job(
                "rayleigh",
                lambda: lib.hardy.rayleigh_probe(setup(), 3, seed),
                check,
                lambda r: {"probe": "rayleigh", "max_ratio": r.max_ratio},
            )

        def check_sandwich(sw) -> Verdict:
            lower = _within(sw.lower, ref["lower"], CONSTANT_RTOL)
            upper = _within(sw.upper, ref["upper"], CONSTANT_RTOL)
            return Verdict(lower.ok and upper.ok, None, f"{lower.detail}; {upper.detail}")

        return Job(
            "sandwich",
            lambda: lib.hardy.sandwich(setup()),
            check_sandwich,
            lambda sw: {"probe": "sandwich", "lower": sw.lower, "upper": sw.upper},
        )
    if kind == "second_order":
        _k, n, q, seed = item
        bound = ref["constant"] * (1.0 + 1e-6)
        return Job(
            "second_order",
            lambda: lib.hardy.second_order_probe(n, 2.0, q, 1.0, 3, seed),
            lambda ratio: Verdict(ratio <= bound, None, f"ratio {ratio!r} vs {bound!r}"),
            lambda ratio: {"probe": "second_order", "n": n, "max_ratio": ratio},
        )
    if kind == "beta0":
        _k, m, n = item

        def run():
            params = lib.constants.AdamsParams(m, n)
            return lib.constants.beta0(params), lib.constants.beta0_product_form(params)

        def check(pair) -> Verdict:
            first, second = (_within(v, ref["ref"], ref["rtol"]) for v in pair)
            return Verdict(first.ok and second.ok, None, f"{first.detail}; {second.detail}")

        return Job(
            f"beta0 m={m} n={n}",
            run,
            check,
            lambda pair: {"m": m, "n": n, "beta0": pair[0], "beta0_product_form": pair[1]},
        )
    if kind == "level":
        _k, m, n, measure = item
        return Job(
            "level",
            lambda: lib.constants.concentration_level(lib.constants.AdamsParams(m, n), measure),
            lambda level: _within(level, ref["ref"], CONSTANT_RTOL),
            lambda level: {"m": m, "n": n, "level": level},
        )
    if kind == "t_zero":

        def check(result) -> Verdict:
            verdict = _within(result.raw, ref["ref"], CONSTANT_RTOL)
            ok = verdict.ok and result.integer == math.ceil(ref["ref"])
            return Verdict(ok, None, f"{verdict.detail}; T0 {result.integer}")

        return Job(
            "t_zero",
            lambda: lib.constants.t_zero(),
            check,
            lambda r: {"raw": r.raw, "T0": r.integer},
        )
    _k, n, cells = item
    return _symmetrize_job(n, cells, lib)


def _symmetrize_job(n: int, cells, lib) -> Job:
    omega = ball_volume(n)
    ordered = sorted((abs(v) for _m, v in cells), reverse=True)
    total = math.fsum(m for m, _v in cells)
    norms = {p: math.fsum(m * abs(v) ** p for m, v in cells) for p in (1, 2, 3)}

    def check(radial) -> Verdict:
        knots = radial.profile.knots
        values = [float(piece.value(k)) for piece, k in zip(radial.profile.pieces, knots[1:])]
        shells = [omega * (r1**n - r0**n) for r0, r1 in zip(knots, knots[1:])]
        fails = []
        if values != ordered:
            fails.append("plateau values are not |f| sorted decreasingly")
        if _rel(omega * radial.radius**n, total) > CONSTANT_RTOL * 10:
            fails.append(f"ball measure {omega * radial.radius**n!r} vs {total!r}")
        for p, ref in norms.items():
            got = math.fsum(s * abs(v) ** p for s, v in zip(shells, values))
            if _rel(got, ref) > CONSTANT_RTOL * 10:
                fails.append(f"L{p} norm^p {got!r} vs {ref!r}")
        return Verdict(not fails, None, "; ".join(fails))

    return Job(
        f"symmetrize n={n}",
        lambda: lib.rearrange.symmetrize(lib.rearrange.SampledFunction(cells), n),
        check,
        lambda radial: {"n": n, "radius": radial.radius},
    )
