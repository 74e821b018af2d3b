"""Smoke test of the benchmark at tiny sizes.

Checks the output schema and the run's own correctness checks only; it sets no
timing bounds, so it holds on any machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONFIG["workloads"]])
def test_tiny_run_reports_every_declared_metric_and_passes_its_checks(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v == v for v in values)
    if not trace:
        assert all(v > 0 for v in values)


def test_refuses_a_checkout_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, CONFIG["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_a_vanished_trace_target_drops_its_metrics_instead_of_failing():
    from tracing import Tracer
    from workloads import without_missing

    tracer = Tracer()
    tracer.wrap(SimpleNamespace(), "search", "kb.search")
    assert tracer.missing == ["kb.search"]
    metrics = {"kb.search.calls": 3, "kb.search.busy_ms": 1.5, "kb.load_ms": 2.0}
    assert without_missing(metrics, tracer.missing) == {"kb.load_ms": 2.0}
