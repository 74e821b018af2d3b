from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpt import records
from ecpt.cases import ExecutionOutcome, OutcomeKind
from ecpt.embedding import HashingEmbedder, ProjectionModel
from ecpt.errors import DataError
from ecpt.kb import KbStore
from ecpt.metrics import (
    ModelPricing,
    build_report,
    correction_accuracy,
    execution_accuracy,
    export_embeddings,
    hit_rate,
    read_report,
    render_report_text,
    total_cost,
    write_report,
)
from ecpt.pipeline import CaseResult, TrialRecord

from fixtures import make_correction_cases

GPT35_PRICING = ModelPricing(prompt_price_per_1k=0.003, completion_price_per_1k=0.004)
GPT4T_PRICING = ModelPricing(prompt_price_per_1k=0.010, completion_price_per_1k=0.030)

SUCCESS = ExecutionOutcome(OutcomeKind.SUCCESS)
FAILURE = ExecutionOutcome(OutcomeKind.UNDESIRED_RESULT, "mismatch")


# --- metric arithmetic -----------------------------------------------------------

def test_execution_accuracy_reference_values():
    assert execution_accuracy(785, 124, 1032) == 88.08
    assert execution_accuracy(785, 0, 1032) == 76.07
    assert execution_accuracy(0, 0, 50) == 0.00


def test_execution_accuracy_rejects_zero_total():
    with pytest.raises(ValueError):
        execution_accuracy(1, 1, 0)


def test_correction_accuracy_reference_values():
    assert correction_accuracy(91, 247) == 36.84
    assert correction_accuracy(124, 247) == 50.20
    assert correction_accuracy(0, 247) == 0.00


def test_hit_rate_reference_values():
    assert hit_rate(35, 687) == 5.09
    assert hit_rate(124, 539) == 23.01
    assert hit_rate(125, 525) == 23.81


REFERENCE_ROWS = [
    # fixed cases -> (correction accuracy, execution accuracy) with 247/1032 denominators
    (0, 0.00, 76.07),
    (28, 11.34, 78.78),
    (35, 14.17, 79.46),
    (36, 14.57, 79.55),
    (91, 36.84, 84.88),
    (124, 50.20, 88.08),
    (109, 44.13, 86.63),
    (119, 48.18, 87.60),
    (125, 50.61, 88.18),
]


@pytest.mark.parametrize("fixed, corr, exe", REFERENCE_ROWS)
def test_reference_accuracy_rows(fixed, corr, exe):
    assert correction_accuracy(fixed, 247) == corr
    assert execution_accuracy(1032 - 247, fixed, 1032) == exe


@given(z=st.integers(0, 500), f=st.integers(0, 500), n=st.integers(1, 2000))
def test_execution_accuracy_depends_only_on_sum(z, f, n):
    assert execution_accuracy(z, f, n) == execution_accuracy(z + f, 0, n)


# --- cost accounting ---------------------------------------------------------------

def test_total_cost_reference_values():
    assert total_cost(2_020_555, 129_455, GPT35_PRICING) == 6.58
    assert total_cost(1_665_553, 119_112, GPT4T_PRICING) == 20.23
    assert total_cost(2_808_228, 120_913, GPT4T_PRICING) == 31.71
    assert total_cost(0, 0, GPT4T_PRICING) == 0.00


def test_pricing_validation_and_config_parsing():
    with pytest.raises(ValueError):
        ModelPricing(prompt_price_per_1k=-1, completion_price_per_1k=0)
    table = records.decode(
        dict[str, ModelPricing],
        {
            "_comment": {"prompt_price_per_1k": 0, "completion_price_per_1k": 0},
            "gpt-x": {"prompt_price_per_1k": 0.01, "completion_price_per_1k": 0.03},
        },
    )
    assert set(table) == {"gpt-x"}
    assert table["gpt-x"].completion_price_per_1k == 0.03


# --- report assembly ------------------------------------------------------------------

def synthetic_results(
    total=1032,
    zero_shot_successes=785,
    fixed=124,
    failed_trial_cases=46,
    unfixed_trials=3,
    prompt_total=1_665_553,
    completion_total=119_112,
):
    """CaseResults shaped to hit exact aggregate counts and token totals."""
    error_cases = total - zero_shot_successes
    unfixed = error_cases - fixed
    results = []
    trials_count = fixed + failed_trial_cases + unfixed * unfixed_trials

    zero_p, zero_c = 1000, 50
    trial_p = (prompt_total - total * zero_p) // trials_count
    trial_c = (completion_total - total * zero_c) // trials_count
    rem_p = prompt_total - total * zero_p - trial_p * trials_count
    rem_c = completion_total - total * zero_c - trial_c * trials_count

    def trial(ref, index, outcome, extra_p=0, extra_c=0):
        return TrialRecord(
            item_ref=ref,
            trial_index=index,
            diagnosis=("e3",),
            retrieved_ids=(0,),
            candidate_sql="SELECT 1",
            outcome=outcome,
            prompt_tokens=trial_p + extra_p,
            completion_tokens=trial_c + extra_c,
        )

    for i in range(zero_shot_successes):
        results.append(
            CaseResult(
                item_ref=f"ok:{i}",
                zero_shot_sql="SELECT 1",
                zero_shot_outcome=SUCCESS,
                final_outcome=SUCCESS,
                trials=(),
                zero_shot_prompt_tokens=zero_p,
                zero_shot_completion_tokens=zero_c,
            )
        )
    for i in range(fixed):
        ref = f"fixed:{i}"
        trials = []
        if i < failed_trial_cases:
            trials.append(trial(ref, 1, FAILURE))
            trials.append(trial(ref, 2, SUCCESS))
        else:
            trials.append(trial(ref, 1, SUCCESS))
        results.append(
            CaseResult(
                item_ref=ref,
                zero_shot_sql="SELECT 0",
                zero_shot_outcome=FAILURE,
                final_outcome=SUCCESS,
                trials=tuple(trials),
                zero_shot_prompt_tokens=zero_p,
                zero_shot_completion_tokens=zero_c,
            )
        )
    for i in range(unfixed):
        ref = f"unfixed:{i}"
        extra_p = rem_p if i == 0 else 0
        extra_c = rem_c if i == 0 else 0
        trials = tuple(
            trial(ref, t + 1, FAILURE, extra_p if t == 0 else 0, extra_c if t == 0 else 0)
            for t in range(unfixed_trials)
        )
        results.append(
            CaseResult(
                item_ref=ref,
                zero_shot_sql="SELECT 0",
                zero_shot_outcome=FAILURE,
                final_outcome=FAILURE,
                trials=trials,
                zero_shot_prompt_tokens=zero_p,
                zero_shot_completion_tokens=zero_c,
            )
        )
    return results


def test_build_report_reproduces_reference_row():
    results = synthetic_results()
    report = build_report(results, GPT4T_PRICING)
    assert report.total_cases == 1032
    assert report.zero_shot_successes == 785
    assert report.error_cases == 247
    assert report.fixed_cases == 124
    assert report.total_trials == 539
    assert report.successful_trials == 124
    assert report.prompt_tokens == 1_665_553
    assert report.completion_tokens == 119_112
    assert report.execution_accuracy == 88.08
    assert report.correction_accuracy == 50.20
    assert report.hit_rate == 23.01
    assert report.total_cost == 20.23


def test_build_report_invariants_hold():
    report = build_report(synthetic_results(), GPT4T_PRICING)
    assert report.error_cases == report.total_cases - report.zero_shot_successes
    assert report.fixed_cases <= report.error_cases
    assert report.successful_trials == report.fixed_cases


def test_build_report_empty_results_flags_undefined_metrics():
    report = build_report([], GPT4T_PRICING)
    assert report.total_cases == 0
    assert report.execution_accuracy is None
    assert report.correction_accuracy is None
    assert report.hit_rate is None
    assert report.total_cost == 0.00


def test_build_report_token_totals_include_zero_shot_usage():
    results = synthetic_results(
        total=4, zero_shot_successes=2, fixed=1, failed_trial_cases=0,
        prompt_total=4 * 1000 + 4 * 10, completion_total=4 * 50 + 4 * 2,
    )
    report = build_report(results, GPT4T_PRICING)
    expected_prompt = sum(
        r.zero_shot_prompt_tokens + sum(t.prompt_tokens for t in r.trials)
        for r in results
    )
    assert report.prompt_tokens == expected_prompt


def test_render_report_text_is_aligned_and_complete():
    text = render_report_text(build_report(synthetic_results(), GPT4T_PRICING))
    assert "88.08%" in text
    assert "50.20%" in text
    assert "23.01%" in text
    assert "$20.23" in text
    assert "1,665,553" in text


def test_report_file_round_trip(tmp_path):
    report = build_report(synthetic_results(), GPT4T_PRICING)
    path = tmp_path / "report.json"
    write_report(path, report)
    assert read_report(path) == report


def test_read_report_missing_file(tmp_path):
    with pytest.raises(DataError):
        read_report(tmp_path / "none.json")


# --- embedding export --------------------------------------------------------------------

def build_kb(schemas, entries=50, dim=32):
    model = ProjectionModel.identity(dim)
    embedder = HashingEmbedder(dim=dim)
    store = KbStore.for_model(model)
    base = make_correction_cases(schemas)
    i = 0
    while len(store) < entries:
        cc = base[i % len(base)]
        text_vector = np.zeros(dim)
        text_vector[i % dim] = 1.0
        store.insert_vector(cc, text_vector)
        i += 1
    return store


def test_export_embeddings_one_record_per_entry(tmp_path, schemas):
    store = build_kb(schemas, entries=50)
    path = tmp_path / "vectors.jsonl"
    count = export_embeddings(store, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert count == 50
    assert len(lines) == 50


def test_export_labels_come_from_catalog(tmp_path, schemas):
    import json

    from ecpt.cases import ERROR_IDS

    store = build_kb(schemas, entries=20)
    path = tmp_path / "vectors.jsonl"
    export_embeddings(store, path)
    for line in path.read_text(encoding="utf-8").splitlines():
        assert json.loads(line)["label"] in ERROR_IDS


def test_export_identical_after_persist_load_round_trip(tmp_path, schemas):
    store = build_kb(schemas, entries=30)
    first = tmp_path / "a.jsonl"
    export_embeddings(store, first)
    kb_path = tmp_path / "kb.jsonl"
    store.persist(kb_path)
    reloaded = KbStore.load(kb_path, schemas)
    second = tmp_path / "b.jsonl"
    export_embeddings(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
