from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def side(items_per_s: float, failed_checks: int) -> dict:
    return {"failed_checks": failed_checks,
            "items_per_s": {"median": items_per_s, "q1": items_per_s - 1, "q3": items_per_s + 1}}


def summary(parent_failed: int, change_failed: int) -> dict:
    return {"parent": side(50.0, parent_failed), "change": side(60.0, change_failed),
            "change_wins": {"items_per_s": {"wins": 12, "pairs": 12}}}


@pytest.mark.parametrize("parent_failed, change_failed, expected", [
    (0, 0, "claim_met"),
    (1, 0, "checks_failed"),
    (0, 3, "checks_failed"),
])
def test_a_failed_check_on_either_side_overrides_every_verdict(
    bench_pairs, parent_failed, change_failed, expected
):
    verdict = bench_pairs.verdicts(summary(parent_failed, change_failed),
                                   {"items_per_s": "higher"}, {"items_per_s": 0.25})
    assert verdict == {"items_per_s": expected}


def bench_run(side_name: str, seed: int, items_per_s: float, reference: list[float]) -> dict:
    return {"workload": "w", "seed": seed, "trace": 0, "side": side_name, "wall_s": 60.0,
            "record": {"record": {"reference_loop_ms": reference}},
            "result": {"failed": 0, "attempted": 5,
                       "metrics": {"items_per_s": {"value": items_per_s}}}}


def test_summary_gives_each_side_the_quartiles_of_its_reference_loop(bench_pairs):
    runs = [bench_run("parent", 1, 50.0, [14.0, 15.0]), bench_run("change", 1, 51.0, [20.0, 26.0]),
            bench_run("parent", 2, 52.0, [16.0, 17.0]), bench_run("change", 2, 53.0, [22.0, 24.0])]
    summary = bench_pairs.summarize(runs, {"items_per_s": "higher"}, {"items_per_s": 0.25})
    workload = summary["summary_trace_0"]["w"]
    assert workload["parent"]["reference_loop_ms"]["median"] == 15.5
    assert workload["change"]["reference_loop_ms"]["median"] == 23.0
    change = workload["change"]["reference_loop_ms"]
    assert change["q1"] < change["median"] < change["q3"]
    assert workload["change_wins"] == {"items_per_s": {"wins": 2, "pairs": 2}}


def rss_run(side_name: str, seed: int, peak_rss_mb: float) -> dict:
    return {"seed": seed, "side": side_name,
            "result": {"metrics": {"peak_rss_mb": {"value": peak_rss_mb}}}}


@pytest.mark.parametrize("change_mb, wins, expected", [
    ([165.0 + 0.2 * seed for seed in range(10)], 10, "claim_met"),
    ([210.0 + 0.2 * seed for seed in range(10)], 0, "regressed"),
])
def test_a_lower_is_better_metric_wins_by_going_down(bench_pairs, change_mb, wins, expected):
    parent_mb = [188.0 + 0.5 * seed for seed in range(10)]
    by_side = {"parent": [rss_run("parent", seed, mb) for seed, mb in enumerate(parent_mb)],
               "change": [rss_run("change", seed, mb) for seed, mb in enumerate(change_mb)]}
    better = {"peak_rss_mb": "lower"}
    summary = {name: {"failed_checks": 0, "peak_rss_mb": bench_pairs.quartiles(values)}
               for name, values in (("parent", parent_mb), ("change", change_mb))}
    summary["change_wins"] = bench_pairs.pair_wins(by_side, better)
    assert summary["change_wins"] == {"peak_rss_mb": {"wins": wins, "pairs": 10}}
    assert bench_pairs.verdicts(summary, better, {"peak_rss_mb": 0.1}) == {"peak_rss_mb": expected}
