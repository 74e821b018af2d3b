"""Offline benchmark of the diagnose -> prescribe -> treat loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The run generates its inputs from the seed
(in a child process, so its memory stays out of `peak_rss_mb`), makes one
warm-up pass, then measures closed-loop passes until they add up to S seconds,
setting the program up afresh and timed before each one (at least five
set-ups), and checks every pass against the generator's expected outcomes.
Reported times are medians over passes and set-ups. With `--trace 0` it
reports the end-to-end metrics of BENCHMARK.json; with `--trace 1` it spends
half the time untraced and half traced and reports the per-layer metrics, the
difference between the halves being the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` (checks made and failed) and `metrics`. The line before
it records the machine and the run. Exit code 2 means the checkout has no
program source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from _source import ROOT, MissingSource, import_ecpt
from gen import SPECS, nproc

BENCH_DIR = Path(__file__).resolve().parent
GENERATOR_TIMEOUT_S = 120


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "cpu": cpu_model(),
    }


def reference_loop_ms(repeats: int = 7) -> float:
    """Median time of a fixed pure-Python loop. Recorded before and after the
    measurement, it tells a slower machine apart from a slower program."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) name -> unit, as BENCHMARK.json declares them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in config["end_to_end"]},
        {m["name"]: m["unit"] for m in config["per_layer"]},
    )


def measure(args) -> tuple[dict, dict, object]:
    """Generate the inputs, run the workload; (metric values, run record, checks)."""
    ecpt = import_ecpt()
    from workloads import Run, run_workload

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        command = [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", args.workload,
                   "--seed", str(args.seed), "--out", str(work)]
        if args.tiny:
            command.append("--tiny")
        subprocess.run(command, check=True, timeout=GENERATOR_TIMEOUT_S)
        run = Run(ecpt=ecpt, root=work, seconds=args.seconds, trace=bool(args.trace))
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        reference = [reference_loop_ms()]
        values = run_workload(run, spans_path=spans if args.trace else None)
        reference.append(reference_loop_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "machine": machine_record(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "spec": run.spec,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "reference_loop_ms": reference,
        "missing_spans": run.missing,
        "samples": run.log,
        "failures": run.checks.failures[:20],
    }
    return values, record, run.checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    try:
        end_to_end, per_layer = declared_metrics()
        values, record, checks = measure(args)
    except MissingSource as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2
    units = per_layer if args.trace else end_to_end
    unknown = sorted(set(values) - set(units))
    if unknown:
        raise AssertionError(f"metrics not declared in BENCHMARK.json: {unknown}")
    absent = sorted(set(units) - set(values))
    if absent:
        print(f"bench: metrics missing (traced target gone): {absent}", file=sys.stderr)
    for message in record["failures"]:
        print(f"bench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
    }))
    return 0


# One BLAS thread: idle BLAS workers spin on the sandbox's few cores and made
# CPU time and throughput swing with unrelated load. Item parallelism is the
# pipeline's own and is unaffected.
SINGLE_THREAD_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in SINGLE_THREAD_BLAS.items()):
        # numpy fixes its thread count at import, so start afresh with the setting
        os.execve(sys.executable, [sys.executable, __file__, *sys.argv[1:]],
                  {**os.environ, **SINGLE_THREAD_BLAS})
    sys.exit(main())
