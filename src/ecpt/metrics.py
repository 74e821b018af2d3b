"""Run metrics and report assembly.

Percentages and costs are computed exactly (Decimal) and rounded half-up to
two places only at the edge, so reported numbers are stable across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Sequence

from . import records
from .cases import OutcomeKind
from .kb import KbEntry, KbStore
from .pipeline import CaseResult

_CENT = Decimal("0.01")


def _round2(value: Decimal) -> float:
    return float(value.quantize(_CENT, rounding=ROUND_HALF_UP))


def _percentage(numerator: int, denominator: int) -> float:
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return _round2(Decimal(100 * numerator) / Decimal(denominator))


def execution_accuracy(
    zero_shot_successes: int, fixed_cases: int, total_cases: int
) -> float:
    """100 * (zero-shot successes + fixed cases) / total, to 2 decimals."""
    return _percentage(zero_shot_successes + fixed_cases, total_cases)


def correction_accuracy(fixed_cases: int, error_cases: int) -> float:
    """100 * fixed / error cases, to 2 decimals."""
    return _percentage(fixed_cases, error_cases)


def hit_rate(successful_trials: int, total_trials: int) -> float:
    """100 * successful fixing trials / total trials, to 2 decimals."""
    return _percentage(successful_trials, total_trials)


@dataclass(frozen=True)
class ModelPricing:
    prompt_price_per_1k: float
    completion_price_per_1k: float

    def __post_init__(self) -> None:
        if self.prompt_price_per_1k < 0 or self.completion_price_per_1k < 0:
            raise ValueError("prices must be >= 0")


def total_cost(
    prompt_tokens: int, completion_tokens: int, pricing: ModelPricing
) -> float:
    """Token cost in currency units, rounded to cents."""
    cost = (
        Decimal(prompt_tokens) * Decimal(str(pricing.prompt_price_per_1k))
        + Decimal(completion_tokens) * Decimal(str(pricing.completion_price_per_1k))
    ) / Decimal(1000)
    return _round2(cost)


@dataclass(frozen=True)
class RunReport(records.Record):
    total_cases: int
    zero_shot_successes: int
    error_cases: int
    fixed_cases: int
    total_trials: int
    successful_trials: int
    prompt_tokens: int
    completion_tokens: int
    total_cost: float
    execution_accuracy: float | None
    correction_accuracy: float | None
    hit_rate: float | None


def build_report(results: Sequence[CaseResult], pricing: ModelPricing) -> RunReport:
    """Aggregate CaseResults from one run into the headline metrics."""
    total_cases = len(results)
    zero_shot_successes = sum(
        1 for r in results if r.zero_shot_outcome.kind is OutcomeKind.SUCCESS
    )
    error_cases = total_cases - zero_shot_successes
    fixed_cases = sum(1 for r in results if r.fixed)
    total_trials = sum(len(r.trials) for r in results)
    successful_trials = sum(
        1
        for r in results
        for t in r.trials
        if t.outcome.kind is OutcomeKind.SUCCESS
    )
    prompt_tokens = sum(
        r.zero_shot_prompt_tokens + sum(t.prompt_tokens for t in r.trials)
        for r in results
    )
    completion_tokens = sum(
        r.zero_shot_completion_tokens + sum(t.completion_tokens for t in r.trials)
        for r in results
    )
    return RunReport(
        total_cases=total_cases,
        zero_shot_successes=zero_shot_successes,
        error_cases=error_cases,
        fixed_cases=fixed_cases,
        total_trials=total_trials,
        successful_trials=successful_trials,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        total_cost=total_cost(prompt_tokens, completion_tokens, pricing),
        execution_accuracy=(
            execution_accuracy(zero_shot_successes, fixed_cases, total_cases)
            if total_cases
            else None
        ),
        correction_accuracy=(
            correction_accuracy(fixed_cases, error_cases) if error_cases else None
        ),
        hit_rate=hit_rate(successful_trials, total_trials) if total_trials else None,
    )


def render_report_text(report: RunReport) -> str:
    """Aligned two-block text table: accuracy counts, then trial/cost usage."""

    def pct(value: float | None) -> str:
        return f"{value:.2f}%" if value is not None else "n/a"

    accuracy_rows = [
        ("cases", str(report.total_cases)),
        ("zero-shot successes", str(report.zero_shot_successes)),
        ("error cases", str(report.error_cases)),
        ("fixed cases", str(report.fixed_cases)),
        ("correction accuracy", pct(report.correction_accuracy)),
        ("execution accuracy", pct(report.execution_accuracy)),
    ]
    usage_rows = [
        ("trials", str(report.total_trials)),
        ("successful trials", str(report.successful_trials)),
        ("hit rate", pct(report.hit_rate)),
        ("prompt tokens", f"{report.prompt_tokens:,}"),
        ("completion tokens", f"{report.completion_tokens:,}"),
        ("total cost", f"${report.total_cost:.2f}"),
    ]
    width = max(len(label) for label, _ in accuracy_rows + usage_rows)
    lines = [f"{label:<{width}}  {value}" for label, value in accuracy_rows]
    lines.append("")
    lines.extend(f"{label:<{width}}  {value}" for label, value in usage_rows)
    return "\n".join(lines) + "\n"


def write_report(path: str | Path, report: RunReport) -> None:
    Path(path).write_text(json.dumps(report.to_record(), indent=2) + "\n", encoding="utf-8")


def read_report(path: str | Path) -> RunReport:
    return records.read_json(path, "report file", RunReport)


def export_embeddings(kb: KbStore, path: str | Path) -> int:
    """Write one record per KB entry (primary label + full vector); returns count."""

    def record(entry: KbEntry) -> dict:
        return {"label": entry.correction_case.primary_label, "vector": entry.vector.tolist()}

    records.write(path, kb.entries, record)
    return len(kb)
