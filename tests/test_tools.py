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
