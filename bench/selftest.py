"""Self-tests of the benchmark itself (not of adamskit).

    python3 bench/selftest.py

Checks that the inputs are a pure function of the seed with a
seed-independent operation count; that two traced runs with one seed
count the same quadrature work; that the printed metric names and units
are BENCHMARK.json's; that the tracer restores every binding; that the
oracle agrees with mpmath's own tanh-sinh quadrature; that the Moser
check rejects a wrong value; that the measured process never imports
mpmath; and that the benchmark refuses to run without the sources.
It also notes whether ``cc_functional`` is still wrong above the
``concentrate`` range.  Exits 1 on any failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message, flush=True)
    if not condition:
        FAILURES.append(message)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=900
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise SystemExit(f"benchmark exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_schema() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads are the benchmark's")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
           "BENCHMARK.json end_to_end names and units are the benchmark's")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER),
           "BENCHMARK.json per_layer names and units are the benchmark's")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s has the largest bound")


def test_inputs() -> None:
    for workload in workloads.WORKLOADS:
        first, again, other = (workloads.inputs(workload, s) for s in (7, 7, 8))
        expect(first == again, f"{workload}: the same seed gives the same inputs")
        expect(first != other, f"{workload}: another seed gives other inputs")
        expect([i[0] for i in first] == [i[0] for i in other],
               f"{workload}: another seed keeps the operation count and mix ({len(first)} ops)")
        expect(len(first) >= 200, f"{workload}: at least 200 operations per pass")


def test_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    counted = ("quadrature.calls", "quadrature.integrand_calls", "quadrature.nodes")
    for workload in workloads.WORKLOADS:
        plain = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0"))
        expect(list(plain["metrics"]) == e2e_names, f"{workload}: --trace 0 prints the end_to_end names")
        expect(set(plain) == {"correct", "attempted", "failed", "metrics"}, f"{workload}: result keys")
        traced = [
            result_of(bench("--workload", workload, "--seed", seed, "--seconds", "1", "--trace", "1"))
            for seed in ("3", "3")
        ]
        expect(list(traced[0]["metrics"]) == layer_names, f"{workload}: --trace 1 prints the per_layer names")
        same = all(traced[0]["metrics"][k]["value"] == traced[1]["metrics"][k]["value"] for k in counted)
        expect(same, f"{workload}: one seed twice gives identical {', '.join(counted)}")


def test_tracer_restores() -> None:
    import spans

    lib = run.import_library()
    tracer = spans.Tracer(lib)
    before = tracer.assert_pristine()
    tracer.install()
    wrapped = getattr(lib.moser1d.adaptive_gauss, "__traced__", False) and getattr(
        lib.profiles.LinearPiece.value, "__traced__", False)
    tracer.restore()
    expect(wrapped, "install wraps module bindings and Piece.value")
    expect(tracer.assert_pristine() == before > 0, f"restore puts back all {before} bindings")


def test_measured_process_is_lean() -> None:
    code = ("import sys; sys.path.insert(0, 'bench'); import run; run.prepare('probes', 1);"
            " print('mpmath' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(done.returncode == 0 and done.stdout.split()[-1:] == ["False"],
           "the measured process gets its references without importing mpmath")


def test_oracle() -> None:
    mp = oracle.mp
    for a, p in ((3.0, 2.0), (250.0, 3.5), (1e6, 4.0), (1e15, 3.0)):
        q = p / (p - 1.0)
        slope, plateau = a ** (-1.0 / p), a ** (1.0 / q)
        got, _size = oracle.moser_functional(slope, a, plateau, q)
        s, big_a, c, qq = (mp.mpf(x) for x in (slope, a, plateau, q))
        ramp = lambda t: mp.exp((s * t) ** qq - t)  # noqa: E731
        cuts = sorted({mp.mpf(0), mp.mpf(1), min(big_a, mp.mpf(80)), max(mp.mpf(1), big_a - 300), big_a})
        want = mp.quad(ramp, cuts) + mp.exp(c**qq - big_a)
        expect(abs(got / want - 1) < 1e-13, f"Moser reference a={a:g} p={p} matches tanh-sinh")
    got, _size = oracle.extremal_functional(104)
    params = oracle.extremal_params(104)
    n = mp.mpf(104)
    qq = n / (n - 2)
    lam = params["lam"]
    amp = (n - 2) / 3 * (lam - 1) ** (-2 / n)
    off = (lam - 1) ** ((n - 2) / n)

    def w(t):
        if t <= n / 2:
            return params["slope"] * t
        if t <= lam:
            return (t - 1) ** ((n - 2) / n)
        return amp * -mp.expm1(-3 * (t - lam) / n) + off

    cuts = [mp.mpf(0), mp.mpf(1), n / 2, lam] + [lam + 50 * k for k in range(1, 8)]
    want = mp.quad(lambda t: mp.exp(w(t) ** qq - t), cuts)
    expect(abs(got / want - 1) < 1e-12, "sweep reference n=104 matches tanh-sinh")


def test_moser_check_catches_wrong_values() -> None:
    """The Moser check passes the library's value at the top of the
    ``concentrate`` range and rejects it 1e-6 off.  Above the range it
    only reports: at a = 1e7, p = 2, ``cc_functional`` returned about 1.0
    where J is about 3 when the range was capped."""
    import references

    lib = run.import_library()

    def moser(a: float, p: float):
        job = workloads._moser_job(a, p, references._moser(a, p, lib), lib)
        return job, job.run()

    top = 10.0**workloads.MOSER_LOG10_A_MAX
    job, (profile, value) = moser(top, 2.0)
    expect(job.check((profile, value)).ok, f"Moser a={top:g} p=2 passes its check")
    expect(not job.check((profile, value * (1 + 1e-6))).ok, f"Moser a={top:g} p=2 check rejects 1e-6 off")
    job, result = moser(1e7, 2.0)
    verdict = job.check(result)
    print(f"note  Moser a=1e7 p=2, above the concentrate range: {'passes' if verdict.ok else 'FAILS'}"
          f" its check ({verdict.detail})", flush=True)


def test_refuses_without_sources() -> None:
    bare = BENCH / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        done = bench("--workload", "probes", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        last = done.stdout.strip().splitlines()[-1:] or [""]
        expect(done.returncode != 0 and not last[0].startswith("{"),
               f"exits {done.returncode} without a result where only the benchmark exists")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    test_schema()
    test_inputs()
    test_tracer_restores()
    test_oracle()
    test_moser_check_catches_wrong_values()
    test_measured_process_is_lean()
    test_refuses_without_sources()
    test_runs()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
