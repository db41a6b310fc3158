"""Record a point of the perf trajectory: run every workload on several
seeds, report each end-to-end metric's median and quartile spread, add
one traced run per workload, and write the lot with machine info.

    python3 bench/baseline.py --seeds 1-10 [--out bench/baseline.json]

The spread is (Q3 - Q1) / median over the seeds, as
``statistics.quantiles(values, n=4)`` gives the quartiles; BENCHMARK.json's
bound for a metric should be at least three times it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            names = [line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")]
        cpu = names[0] if names else cpu
    except OSError:
        pass
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", default=None, help="write the JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"machine": machine(), "run_seconds": seconds, "seeds": _seeds(args.seeds), "workloads": {}}
    for workload in names:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in report["seeds"]:
            result = _run(workload, seed, seconds, 0)
            runs.append({k: result[k] for k in ("correct", "attempted", "failed")})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 6) for k, v in values.items()}, flush=True)
        summary = {}
        for name, series in values.items():
            q1, _, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": series}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:12s} {name:12s} median {median:.6g}  spread {spread:.4f}"
                  f"  (bound {bounds[name]}){flag}", flush=True)
        traced = _run(workload, report["seeds"][0], seconds, 1)
        report["workloads"][workload] = {
            "runs": runs,
            "end_to_end": summary,
            "per_layer_seed": report["seeds"][0],
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
