"""adamskit benchmark: one closed-loop client, single-threaded.

    python3 bench/run.py --workload {sweep,concentrate,probes,all}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` runs one traced pass for the per-layer metrics and
then untraced passes to price the tracing.  ``--workload all`` does both
for every workload.  Human-readable lines go first; the last line of
standard output is the JSON result.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

def _timed_layers():
    """Span names with a time metric: every traced function but the
    quadrature layer (which has its own metrics), with ``cc_functional``
    also split by tail piece type."""
    for module, function in spans.TRACED:
        name = spans.span_name(module, function)
        if name == "quadrature":
            continue
        yield name
        if name == "moser1d.cc_functional":
            yield from (f"{name}.{key}" for key in spans.TAIL_KEYS.values())


_TIMED_LAYERS = tuple(_timed_layers())


def _layer_name(span: str) -> str:
    # moser1d.cc_functional.exp -> moser1d.cc_functional_s.exp
    head, _, key = span.partition(".cc_functional.")
    return f"{head}.cc_functional_s.{key}" if key else f"{span}_s"


PER_LAYER = (
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("quadrature.calls", "count"),
    ("quadrature.integrand_calls", "count"),
    ("quadrature.nodes", "count"),
    ("quadrature.errors", "count"),
    ("quadrature.s", "s"),
    ("quadrature.integrand_s", "s"),
    ("quadrature.self_s", "s"),
    ("profiles.value_calls", "count"),
    ("profiles.value_s", "s"),
    *((_layer_name(span), "s") for span in _TIMED_LAYERS),
    ("hardy.trial_ratio_calls", "count"),
    ("constants.s", "s"),
    ("moser1d.max_rel_err", "rel"),
    ("extremal.max_rel_err", "rel"),
    ("setup.numpy_import_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("check.wrong", "count"),
    ("check.raised", "count"),
)

SETUP_SAMPLES = 25
#: Seconds the calibration loop takes at the reference interpreter speed.
#: Every reported time is scaled to that speed (see ``calibration_sample``
#: and ``timed_passes``).
CALIBRATION_S = 0.025

_CHILD = """\
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import adamskit, adamskit.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t0)
"""


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_sample() -> tuple[float, float]:
    """(numpy import, numpy + adamskit + adamskit.cli import) seconds in
    one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _CHILD.format(src=str(SRC))],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise BenchError(f"fresh-interpreter import failed:\n{done.stderr.strip()}")
    first, second = (float(x) for x in done.stdout.split())
    return first, second


def calibration_sample() -> float:
    """Seconds for a fixed pure-Python loop.  On a shared machine the
    interpreter's speed drifts by tens of percent within seconds; adamskit's
    hot paths and its import are interpreter-bound and drift with this
    loop, so times divided by the loop's time around them are steady where
    raw times are not."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - start


def import_library():
    if not (SRC / "adamskit" / "__init__.py").is_file():
        raise BenchError(f"no adamskit sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import adamskit
    import adamskit.cli  # noqa: F401  (imports every submodule)

    if Path(adamskit.__file__).resolve().parent != SRC / "adamskit":
        raise BenchError(f"imported adamskit from {adamskit.__file__}, not from {SRC}")
    return adamskit


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

def run_pass(jobs, lib) -> dict:
    """Every job once, closed loop; then the checks and the CLI-style
    serialization of the results, outside the operation timings."""
    results = []
    start = time.perf_counter()
    for job in jobs:
        began = time.perf_counter()
        try:
            value, error = job.run(), None
        except Exception as exc:  # the operation failed; count it and go on
            value, error = None, exc
        results.append((value, error, time.perf_counter() - began))
    ops_wall = time.perf_counter() - start
    emit(jobs, results, lib)
    pass_wall = time.perf_counter() - start

    verdicts = []
    for job, (value, error, _latency) in zip(jobs, results):
        if error is not None:
            verdicts.append(("raised", None, f"{type(error).__name__}: {error}"))
            continue
        try:
            verdict = job.check(value)
        except Exception as exc:  # a result of the wrong shape is a wrong result
            verdicts.append(("wrong", None, f"check raised {type(exc).__name__}: {exc}"))
            continue
        verdicts.append(("ok" if verdict.ok else "wrong", verdict.rel_err, verdict.detail))
    return {
        "latencies": [latency for _v, _e, latency in results],
        "ops_wall": ops_wall,
        "pass_wall": pass_wall,
        "verdicts": verdicts,
    }


def emit(jobs, results, lib) -> None:
    """Serialize the results as the CLI does: JSON, and one CSV table per
    record shape."""
    records = [job.record(value) for job, (value, error, _l) in zip(jobs, results) if error is None]
    lib.cli.to_json(records)
    tables: dict[tuple, list] = {}
    for record in records:
        tables.setdefault(tuple(record), []).append(list(record.values()))
    for header, rows in tables.items():
        lib.cli.to_csv(header, rows)


def _tally(passes) -> tuple[int, int, int]:
    verdicts = [v for p in passes for v in p["verdicts"]]
    wrong = sum(1 for status, _e, _d in verdicts if status == "wrong")
    raised = sum(1 for status, _e, _d in verdicts if status == "raised")
    return len(verdicts), wrong, raised


def _report_failures(jobs, one_pass, limit: int = 5) -> None:
    shown = 0
    for job, (status, _err, detail) in zip(jobs, one_pass["verdicts"]):
        if status != "ok" and shown < limit:
            print(f"  {status}: {job.kind}: {detail}", file=sys.stderr)
            shown += 1


def _max_rel_err(jobs, one_pass, kinds: tuple[str, ...]) -> float:
    errs = [err for job, (_s, err, _d) in zip(jobs, one_pass["verdicts"])
            if err is not None and job.kind.split()[0] in kinds]
    return max(errs) if errs else 0.0


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def references(workload: str, seed: int) -> list[dict]:
    """The operations' mpmath references, computed by references.py in a
    child process so that this process never holds mpmath."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "references.py"), "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if done.returncode != 0:
        raise BenchError(f"computing the references failed:\n{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int):
    lib = import_library()
    # One discarded import warms the file cache and writes bytecode, which a
    # returning CLI user does not pay again.
    import_sample()
    jobs = workloads.jobs(workload, seed, lib, references(workload, seed))
    tracer = spans.Tracer(lib)
    tracer.assert_pristine()
    return lib, jobs, tracer


class Calibrated:
    """Runs timed items with a calibration sample between every two, and
    gives each item the factor that scales its times to reference speed:
    ``CALIBRATION_S`` over the mean of the samples just before and just
    after it.  Scaling each item by its own neighbours tracks the
    machine's speed through phases of a few seconds."""

    def __init__(self):
        self.last = calibration_sample()

    def run(self, fn, *args):
        value = fn(*args)
        after = calibration_sample()
        scale = CALIBRATION_S / ((self.last + after) / 2.0)
        self.last = after
        return value, scale


def timed_passes(jobs, lib, seconds: float, clock: Calibrated):
    """Whole passes until ``seconds`` have elapsed (at least one), with the
    fresh-interpreter import samples spread evenly between passes, so that
    both see the same phases of the machine's speed.  Each pass gets its
    scale under "scale"; each import sample is (numpy s, total s, scale)."""
    passes, imports = [], []
    due = [seconds * (i + 0.5) / SETUP_SAMPLES for i in range(SETUP_SAMPLES)]
    start = time.perf_counter()

    def sample_import():
        (numpy_s, total_s), scale = clock.run(import_sample)
        imports.append((numpy_s, total_s, scale))

    while not passes or time.perf_counter() - start < seconds:
        one, scale = clock.run(run_pass, jobs, lib)
        passes.append({**one, "scale": scale})
        while len(imports) < SETUP_SAMPLES and time.perf_counter() - start >= due[len(imports)]:
            sample_import()
    while len(imports) < SETUP_SAMPLES:
        sample_import()
    return passes, imports


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    lib, jobs, _tracer = prepare(workload, seed)
    run_pass(jobs, lib)  # warm-up: first-call costs a long-running user pays once
    passes, imports = timed_passes(jobs, lib, seconds, Calibrated())
    attempted, wrong, raised = _tally(passes)
    raw_ops_per_s = attempted / sum(p["ops_wall"] for p in passes)
    raw_setup = statistics.median(total for _numpy, total, _scale in imports)
    metrics = {
        "setup_s": statistics.median(total * scale for _numpy, total, scale in imports),
        "ops_per_s": attempted / sum(p["ops_wall"] * p["scale"] for p in passes),
        "ok_frac": (attempted - wrong - raised) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _report_failures(jobs, passes[0])
    notes = {
        "setup_s": f"median of {SETUP_SAMPLES} fresh-interpreter imports, each scaled to reference speed;"
                   f" raw {raw_setup:.6g} s",
        "ops_per_s": f"{attempted} ops in {len(passes)} passes of {len(jobs)}, each scaled to reference speed;"
                     f" raw {raw_ops_per_s:.6g}/s; {_percentiles(passes)[2]}",
        "ok_frac": f"fail_frac {(wrong + raised) / attempted:.4f} ({wrong + raised}/{attempted}),"
                   f" wrong_frac {wrong / attempted:.4f} ({wrong} silent wrong, {raised} raised)",
        "peak_rss_mb": "ru_maxrss of the measured process: adamskit, numpy and the job list;"
                       " the references come from a child process",
    }
    return _result(workload, seed, attempted, wrong + raised, metrics, END_TO_END, notes)


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    lib, jobs, tracer = prepare(workload, seed)
    run_pass(jobs, lib)
    clock = Calibrated()
    tracer.install()
    try:
        traced, scale = clock.run(run_pass, jobs, lib)
    finally:
        tracer.restore()
    checked = tracer.assert_pristine()
    untraced, imports = timed_passes(jobs, lib, seconds, clock)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{workload}-seed{seed}.csv"
    tracer.write(span_file)

    summary = tracer.summary()

    def span(name: str, field: str = "s") -> float:
        value = summary.get(name, {}).get(field, 0)
        return value if field == "calls" else value * scale

    attempted, wrong, raised = _tally([traced] + untraced)
    _n, traced_wrong, traced_raised = _tally([traced])
    p50, p95, latency_note = _percentiles(untraced)
    untraced_wall = statistics.median(p["pass_wall"] * p["scale"] for p in untraced)
    metrics = {
        "op_p50_ms": p50,
        "op_p95_ms": p95,
        "quadrature.calls": span("quadrature", "calls"),
        "quadrature.integrand_calls": span("quadrature.integrand", "calls"),
        "quadrature.nodes": tracer.counts["quadrature.nodes"],
        "quadrature.errors": tracer.counts["quadrature.errors"],
        "quadrature.s": span("quadrature"),
        "quadrature.integrand_s": span("quadrature.integrand"),
        "quadrature.self_s": span("quadrature", "self_s"),
        "profiles.value_calls": span("profiles.value", "calls"),
        "profiles.value_s": span("profiles.value"),
        **{_layer_name(name): span(name) for name in _TIMED_LAYERS},
        "hardy.trial_ratio_calls": span("hardy.trial_ratio", "calls"),
        "constants.s": span("constants"),
        "moser1d.max_rel_err": _max_rel_err(jobs, traced, ("moser", "logradial", "maximizer")),
        "extremal.max_rel_err": _max_rel_err(jobs, traced, ("verdict",)),
        "setup.numpy_import_s": statistics.median(numpy * s for numpy, _total, s in imports),
        "trace.overhead_s": traced["pass_wall"] * scale - untraced_wall,
        "trace.spans": len(tracer.spans),
        "check.wrong": traced_wrong,
        "check.raised": traced_raised,
    }
    notes = {
        "op_p95_ms": f"untraced passes: {latency_note}",
        "quadrature.s": f"traced pass times scaled by {scale:.4f} to reference speed",
        "trace.overhead_s": f"traced pass minus median of {len(untraced)} untraced passes",
        "trace.spans": f"written to {span_file.relative_to(ROOT)}; {checked} bindings restored",
    }
    return _result(workload, seed, attempted, wrong + raised, metrics, PER_LAYER, notes)


def _percentiles(passes) -> tuple[float, float, str]:
    """Median and 95th-percentile operation latency in ms, each latency
    scaled by its pass's factor, and a note with the sample counts and the
    raw values."""
    raw_ms = np.array([x for p in passes for x in p["latencies"]]) * 1e3
    scales = np.array([p["scale"] for p in passes for _x in p["latencies"]])
    p50, p95 = (float(x) for x in np.percentile(raw_ms * scales, [50, 95]))
    raw50, raw95 = (float(x) for x in np.percentile(raw_ms, [50, 95]))
    beyond = int(np.sum(raw_ms * scales > p95))
    note = (f"latency p50 {p50:.6g} ms, p95 {p95:.6g} ms (n = {raw_ms.size},"
            f" {beyond} beyond p95; raw {raw50:.6g} and {raw95:.6g} ms)")
    return p50, p95, note


def _result(workload, seed, attempted, failed, metrics, schema, notes) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in schema},
        "notes": notes,
    }


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def print_result(result: dict, trace: bool) -> None:
    kind = "per-layer (traced pass)" if trace else "end-to-end (untraced)"
    print(f"== {result['workload']} seed {result['seed']}: {kind};"
          f" {result['attempted']} ops checked, {result['failed']} failed")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        text = f"{value}" if isinstance(value, int) else f"{value:.6g}"
        note = result["notes"].get(name)
        print(f"  {name:42s} {text:>14s} {metric['unit']:6s}" + (f"  ({note})" if note else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        if args.workload != "all":
            run = per_layer if args.trace else end_to_end
            result = run(args.workload, args.seed, args.seconds)
            print_result(result, bool(args.trace))
            final = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        else:
            merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in workloads.WORKLOADS:
                for run, trace in ((end_to_end, False), (per_layer, True)):
                    result = run(workload, args.seed, args.seconds)
                    print_result(result, trace)
                    merged["correct"] &= result["correct"]
                    merged["attempted"] += result["attempted"]
                    merged["failed"] += result["failed"]
                    for name, metric in result["metrics"].items():
                        merged["metrics"][f"{workload}.{name}"] = metric
            final = merged
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    raise SystemExit(main())
