from __future__ import annotations

import dataclasses
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ecpt.cases import OutcomeKind
from ecpt.embedding import HashingEmbedder, ProjectionModel
from ecpt.errors import BackendError, DataError
from ecpt.kb import KbStore, ModelMismatch
from ecpt.llm import LlmSettings, MockBackend, MockRule, Usage
from ecpt.metrics import ModelPricing, build_report
from ecpt.pipeline import (
    CaseResult,
    GroundTruthError,
    Pipeline,
    PipelineOptions,
    TrialRecord,
    read_results,
    write_results,
)
from ecpt.runner import SqlRunner

from fixtures import (
    CONCERT_DB,
    EXPECTED_ERROR_CASES,
    EXPECTED_FIXED_CASES,
    EXPECTED_TOTAL_TRIALS,
    EXPECTED_ZERO_SHOT_SUCCESSES,
    SCRIPTED_ITEMS,
    make_correction_cases,
    mock_script_rules,
)

DIM = 64
SETTINGS = LlmSettings(model_name="mock-model")


@pytest.fixture(scope="module")
def embedder():
    return HashingEmbedder(dim=DIM)


@pytest.fixture(scope="module")
def identity_model():
    return ProjectionModel.identity(DIM)


@pytest.fixture(scope="module")
def kb(schemas, identity_model, embedder):
    store = KbStore.for_model(identity_model)
    for cc in make_correction_cases(schemas):
        store.insert(cc, identity_model, embedder)
    return store


def scripted_backend() -> MockBackend:
    return MockBackend([MockRule(**rule) for rule in _dict_rules()])


def _dict_rules():
    for rule in mock_script_rules():
        yield {
            "response": rule["response"],
            "contains": tuple(rule.get("contains", ())),
            "max_uses": rule.get("max_uses"),
        }


def make_pipeline(schemas, runner, kb, identity_model, embedder, backend=None, **option_overrides):
    mode = option_overrides.pop("mode", "ecpt")
    options = PipelineOptions(**option_overrides)
    return Pipeline(
        schemas=schemas,
        runner=runner,
        backend=backend or scripted_backend(),
        settings=SETTINGS,
        options=options,
        kb=kb,
        model=identity_model,
        embedder=embedder,
        mode=mode,
    )


def item_by_question(items, fragment):
    return next(i for i in items if fragment in i.question)


# --- construction preconditions ----------------------------------------------------

def test_pipeline_rejects_kb_model_mismatch(schemas, runner, kb, embedder):
    other = ProjectionModel(weight=np.eye(DIM) * 0.5, trained=True)
    with pytest.raises(ModelMismatch):
        Pipeline(
            schemas=schemas,
            runner=runner,
            backend=scripted_backend(),
            settings=SETTINGS,
            options=PipelineOptions(option_a_finetuned_embeddings=True),
            kb=kb,
            model=other,
            embedder=embedder,
        )


def test_pipeline_rejects_option_a_with_identity_model(
    schemas, runner, kb, identity_model, embedder
):
    with pytest.raises(ValueError, match="option A"):
        make_pipeline(
            schemas, runner, kb, identity_model, embedder,
            option_a_finetuned_embeddings=True,
        )


def test_options_validation():
    with pytest.raises(ValueError):
        PipelineOptions(max_trials=0)
    with pytest.raises(ValueError):
        PipelineOptions(retrieval_k=-1)


# --- zero-shot ------------------------------------------------------------------------

def test_zero_shot_ground_truth_is_success(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    item = item_by_question(items, "How many singers do we have?")
    result = pipeline.run_zero_shot(item)
    assert result.outcome.kind is OutcomeKind.SUCCESS
    assert result.sql == item.ground_truth_sql
    assert result.usage.prompt_tokens > 0


def test_zero_shot_shuffled_row_order_still_success(
    schemas, runner, kb, identity_model, embedder, items
):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    item = item_by_question(items, "Show name and age for every singer.")
    result = pipeline.run_zero_shot(item)
    assert result.sql != item.ground_truth_sql  # mock answers a reordered query
    assert result.outcome.kind is OutcomeKind.SUCCESS


def test_zero_shot_incomplete_sql_is_execution_error(
    schemas, runner, kb, identity_model, embedder, items
):
    backend = MockBackend([MockRule(response="SELECT")])
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, backend=backend)
    result = pipeline.run_zero_shot(items[0])
    assert result.outcome.kind is OutcomeKind.EXECUTION_ERROR


def test_zero_shot_without_sql_in_completion(
    schemas, runner, kb, identity_model, embedder, items
):
    backend = MockBackend([MockRule(response="I refuse to answer.")])
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, backend=backend)
    result = pipeline.run_zero_shot(items[0])
    assert result.outcome.kind is OutcomeKind.EXECUTION_ERROR
    assert result.outcome.detail == "no SQL in completion"
    assert result.sql is None


# --- correction loop --------------------------------------------------------------------

def test_fix_on_first_trial(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    item = item_by_question(items, "different food allergies")
    result = pipeline.run_item(item)
    assert result.zero_shot_outcome.kind is OutcomeKind.EMPTY_TABLE
    assert result.final_outcome.kind is OutcomeKind.SUCCESS
    assert len(result.trials) == 1
    assert result.trials[0].diagnosis == ("e3", "e5")
    assert result.fixed


def test_exhausts_trials_without_fix(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    item = item_by_question(items, "total attendance")
    result = pipeline.run_item(item)
    assert len(result.trials) == 3
    assert result.final_outcome.kind is OutcomeKind.UNDESIRED_RESULT
    assert result.final_outcome == result.trials[-1].outcome
    assert not result.fixed


def test_fix_on_second_trial_refreshes_case(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    item = item_by_question(items, "held in each stadium")
    result = pipeline.run_item(item)
    assert [t.trial_index for t in result.trials] == [1, 2]
    assert result.trials[0].outcome.kind is OutcomeKind.UNDESIRED_RESULT
    assert result.trials[1].outcome.kind is OutcomeKind.SUCCESS
    # the second trial's candidate differs from the first: the loop saw fresh state
    assert result.trials[0].candidate_sql != result.trials[1].candidate_sql


def test_trials_never_exceed_max_and_stop_after_success(
    schemas, runner, kb, identity_model, embedder, items
):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, max_trials=2)
    for item in items:
        result = pipeline.run_item(item)
        assert len(result.trials) <= 2
        for trial in result.trials[:-1]:
            assert trial.outcome.kind is not OutcomeKind.SUCCESS


def test_trial_token_counts_sum_llm_calls(schemas, runner, kb, identity_model, embedder, items):
    backend = scripted_backend()
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, backend=backend)
    item = item_by_question(items, "different food allergies")
    result = pipeline.run_item(item)
    trial = result.trials[0]
    # diagnosis + prescription + treatment all consumed tokens
    assert trial.prompt_tokens > result.zero_shot_prompt_tokens
    assert trial.completion_tokens > 0


def test_unparseable_diagnosis_counts_trial_as_failed(
    schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "different food allergies")
    rules = [
        MockRule(
            response='SELECT allergy FROM allergy_type WHERE allergytype = "Food"',
            contains=("Write one SQLite query", item.question),
        ),
        MockRule(response="no idea", contains=("classify the mistake",), max_uses=1),
        MockRule(response="e3", contains=("classify the mistake",)),
        MockRule(
            response="REASON: wrong value\nINSTRUCTION: use lowercase 'food'",
            contains=("explain why the query failed",),
        ),
        MockRule(
            response="SELECT allergy FROM allergy_type WHERE allergytype = 'food'",
            contains=("Fix the SQL query below",),
        ),
    ]
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=MockBackend(rules)
    )
    result = pipeline.run_item(item)
    assert len(result.trials) == 2
    assert result.trials[0].diagnosis is None
    assert result.trials[0].outcome.detail == "unparseable diagnosis"
    assert result.trials[1].outcome.kind is OutcomeKind.SUCCESS


def test_option_c_false_filters_by_top_error_only(
    schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "total attendance")
    rules = list(_dict_rules())
    backend = MockBackend(
        [MockRule(**r) for r in rules if "classify the mistake" not in r["contains"]]
        + [MockRule(response="e8, e5", contains=("classify the mistake", item.question))]
    )
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=backend,
        option_c_resolve_all_at_once=False, retrieval_k=10,
    )
    result = pipeline.run_item(item)
    retrieved_ids = result.trials[0].retrieved_ids
    assert retrieved_ids
    for entry in (e for e in kb.entries if e.id in retrieved_ids):
        assert "e8" in entry.correction_case.error_types


def test_option_c_true_filters_by_all_diagnosed_errors(
    schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "total attendance")
    rules = list(_dict_rules())
    backend = MockBackend(
        [MockRule(**r) for r in rules if "classify the mistake" not in r["contains"]]
        + [MockRule(response="e8, e5", contains=("classify the mistake", item.question))]
    )
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=backend,
        option_c_resolve_all_at_once=True, retrieval_k=10,
    )
    result = pipeline.run_item(item)
    retrieved = [e for e in kb.entries if e.id in result.trials[0].retrieved_ids]
    labels = set().union(*(e.correction_case.error_types for e in retrieved))
    assert "e5" in labels  # candidates beyond the top-ranked type are admitted
    assert all({"e8", "e5"} & set(e.correction_case.error_types) for e in retrieved)


def test_option_b_requests_examples_per_error_type(
    schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "different food allergies")
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder,
        option_b_examples_in_diagnosis=True,
    )
    result = pipeline.run_item(item)
    assert result.final_outcome.kind is OutcomeKind.SUCCESS


def test_retrieval_k_zero_skips_retrieval(schemas, runner, kb, identity_model, embedder, items):
    item = item_by_question(items, "different food allergies")
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, retrieval_k=0)
    result = pipeline.run_item(item)
    assert result.trials[0].retrieved_ids == ()
    assert result.final_outcome.kind is OutcomeKind.SUCCESS


def test_generic_mode_runs_single_prompt_trials(schemas, runner, items):
    item = item_by_question(items, "different food allergies")
    backend = MockBackend(
        [
            MockRule(
                response='SELECT allergy FROM allergy_type WHERE allergytype = "Food"',
                contains=("Write one SQLite query", item.question),
            ),
            MockRule(response="SELECT 0", contains=("did not produce the expected result",)),
        ]
    )
    pipeline = Pipeline(
        schemas=schemas,
        runner=runner,
        backend=backend,
        settings=SETTINGS,
        mode="generic",
    )
    result = pipeline.run_item(item)
    assert len(result.trials) == 3
    assert all(t.diagnosis is None for t in result.trials)
    assert all(t.retrieved_ids == () for t in result.trials)
    assert not result.fixed


class RecordingRunner(SqlRunner):
    """Records every SQL text it executes, try_execute included."""

    def __init__(self, databases):
        super().__init__(databases)
        self.executed: list[str] = []

    def execute(self, db_id, sql):
        self.executed.append(sql)
        return super().execute(db_id, sql)


@pytest.mark.parametrize("mode", ["ecpt", "generic"])
def test_run_item_executes_the_ground_truth_once(
    mode, schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "total attendance")
    recording = RecordingRunner(runner.databases)
    backend = scripted_backend()
    if mode == "generic":
        backend = MockBackend([
            MockRule(response="SELECT attendanc FROM concert",
                     contains=("Write one SQLite query", item.question)),
            MockRule(response="SELECT attendance FROM concert", contains=(item.question,)),
        ])
    pipeline = make_pipeline(
        schemas, recording, kb, identity_model, embedder, backend=backend, mode=mode
    )
    result = pipeline.run_item(item)
    assert len(result.trials) == 3 and not result.fixed
    assert recording.executed.count(item.ground_truth_sql) == 1
    assert len(recording.executed) == 1 + 1 + 3  # truth, zero-shot, three trials


def test_a_failing_ground_truth_costs_no_llm_call(
    schemas, runner, kb, identity_model, embedder, items
):
    backend = scripted_backend()
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder, backend=backend)
    broken = dataclasses.replace(items[0], ground_truth_sql="SELECT no_such_col FROM singer")
    with pytest.raises(GroundTruthError, match="no such column"):
        pipeline.run_zero_shot(broken)
    with pytest.raises(GroundTruthError, match="unknown db_id"):
        pipeline.run_item(dataclasses.replace(items[0], db_id="ghost"))
    assert backend.call_count == 0


class TokenCountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.usage = Usage()

    def complete(self, request):
        response = self.inner.complete(request)
        self.usage += Usage.from_response(response)
        return response


@pytest.mark.parametrize("option_b", [False, True])
def test_a_crash_in_a_correction_trial_keeps_the_zero_shot_attempt(
    option_b, monkeypatch, schemas, runner, kb, identity_model, embedder, items
):
    item = item_by_question(items, "total attendance")  # three failing trials
    options = {"option_b_examples_in_diagnosis": option_b}
    clean = make_pipeline(schemas, runner, kb, identity_model, embedder, **options)
    [expected] = clean.run_dataset([item])
    accesses_per_trial = 1 + option_b  # option B's lookup, then the search
    calls, inside = [], []

    def kb_access(method):
        def access(*args, **kwargs):
            if inside:  # a search that `nearest_per_label` makes is part of its access
                return method(kb, *args, **kwargs)
            calls.append(method.__name__)
            if len(calls) > accesses_per_trial:  # the first KB access of trial 2
                raise RuntimeError("index corrupted")
            inside.append(method)
            try:
                return method(kb, *args, **kwargs)
            finally:
                inside.pop()
        return access

    monkeypatch.setattr(kb, "search", kb_access(KbStore.search))
    monkeypatch.setattr(kb, "nearest_per_label", kb_access(KbStore.nearest_per_label))
    backend = TokenCountingBackend(scripted_backend())
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=backend, **options
    )
    [result] = pipeline.run_dataset([item])
    assert result.error == "index corrupted"
    assert calls[-1] == ("nearest_per_label" if option_b else "search")
    assert result.zero_shot_sql == expected.zero_shot_sql is not None
    assert result.zero_shot_outcome == expected.zero_shot_outcome
    assert result.zero_shot_prompt_tokens == expected.zero_shot_prompt_tokens > 0
    assert result.trials[0] == expected.trials[0]
    assert len(result.trials) == 2
    crashed = result.trials[1]
    assert crashed.outcome.kind is OutcomeKind.EXECUTION_ERROR
    assert crashed.outcome.detail == "trial failed: index corrupted"
    assert crashed.candidate_sql is None
    # without option B, trial 2 diagnosed before its search crashed
    assert (crashed.prompt_tokens > 0) is not option_b
    assert result.final_outcome == crashed.outcome and not result.fixed
    report = build_report([result], ModelPricing(0.01, 0.03))
    assert report.error_cases == 1 and report.fixed_cases == 0
    assert report.prompt_tokens == backend.usage.prompt_tokens
    assert report.completion_tokens == backend.usage.completion_tokens


# --- run_dataset -----------------------------------------------------------------------

def expected_outcome_counts(results):
    fixed = sum(1 for r in results if r.fixed)
    zero_shot = sum(
        1 for r in results if r.zero_shot_outcome.kind is OutcomeKind.SUCCESS
    )
    trials = sum(len(r.trials) for r in results)
    return zero_shot, fixed, trials


def test_run_dataset_matches_schedule(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    results = pipeline.run_dataset(items, parallelism=1)
    assert [r.item_ref for r in results] == [i.ref for i in items]
    zero_shot, fixed, trials = expected_outcome_counts(results)
    assert zero_shot == EXPECTED_ZERO_SHOT_SUCCESSES
    assert len(items) - zero_shot == EXPECTED_ERROR_CASES
    assert fixed == EXPECTED_FIXED_CASES
    assert trials == EXPECTED_TOTAL_TRIALS


def test_run_dataset_parallelism_equivalence(schemas, runner, kb, identity_model, embedder, items):
    serial = make_pipeline(schemas, runner, kb, identity_model, embedder).run_dataset(
        items, parallelism=1
    )
    threaded = make_pipeline(schemas, runner, kb, identity_model, embedder).run_dataset(
        items, parallelism=4
    )
    assert [r.to_record() for r in serial] == [r.to_record() for r in threaded]


def test_run_dataset_resume_after_interrupt(
    tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    full_backend = scripted_backend()
    full = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=full_backend
    ).run_dataset(items, parallelism=1, checkpoint_path=checkpoint)
    # simulate a crash after the first five items
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    checkpoint.write_text("\n".join(lines[:5]) + "\n", encoding="utf-8")
    resumed_backend = scripted_backend()
    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=resumed_backend
    )
    resumed = pipeline.run_dataset(items, parallelism=1, checkpoint_path=checkpoint)
    assert [r.to_record() for r in resumed] == [r.to_record() for r in full]
    # items already in the checkpoint were not re-run
    assert resumed_backend.call_count < full_backend.call_count


def test_run_dataset_records_per_item_errors(schemas, runner, kb, identity_model, embedder, items):
    class ExplodingBackend:
        def complete(self, request):
            raise RuntimeError("backend unreachable")

    pipeline = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=ExplodingBackend()
    )
    results = pipeline.run_dataset(items[:3], parallelism=2)
    assert len(results) == 3
    assert all(r.error is not None for r in results)
    assert all("backend unreachable" in r.error for r in results)


def test_run_dataset_skips_items_whose_ground_truth_fails(
    tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    broken = dataclasses.replace(items[0], ground_truth_sql="SELECT no_such_col FROM singer")
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    results = pipeline.run_dataset(
        [broken, *items[1:4]], parallelism=2, checkpoint_path=checkpoint
    )
    assert [r.item_ref for r in results] == [i.ref for i in items[1:4]]
    assert len(checkpoint.read_text(encoding="utf-8").splitlines()) == 3


def test_resume_drops_a_torn_final_checkpoint_line(
    tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    full = make_pipeline(schemas, runner, kb, identity_model, embedder).run_dataset(
        items, parallelism=1, checkpoint_path=checkpoint
    )
    # a crash in the middle of the last append leaves a line without its newline
    checkpoint.write_bytes(checkpoint.read_bytes()[:-40])
    resumed_backend = scripted_backend()
    resumed = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=resumed_backend
    ).run_dataset(items, parallelism=1, checkpoint_path=checkpoint)
    assert [r.to_record() for r in resumed] == [r.to_record() for r in full]
    assert resumed_backend.call_count > 0  # the torn item ran again
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["item_ref"] for line in lines] == [i.ref for i in items]


def test_resume_rejects_a_corrupt_checkpoint_line(
    tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    pipeline.run_dataset(items[:4], parallelism=1, checkpoint_path=checkpoint)
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][:-40]
    checkpoint.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"checkpoint\.jsonl:3: "):
        pipeline.run_dataset(items[:4], parallelism=1, checkpoint_path=checkpoint)


def _golden_results_with_a_bad_trial(field: str, value) -> tuple[str, int]:
    """The golden ECPT results with `field` of the first trial set to `value`,
    and the number of the line that holds it."""
    lines = (Path(__file__).parent / "goldens" / "run_ecpt.jsonl").read_text(encoding="utf-8")
    results = [json.loads(line) for line in lines.splitlines()]
    index = next(i for i, result in enumerate(results) if result["trials"])
    results[index]["trials"][0][field] = value
    return "".join(json.dumps(result) + "\n" for result in results), index + 1


def test_a_wrong_json_type_in_a_checkpoint_or_results_line_names_its_line(
    tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    text, number = _golden_results_with_a_bad_trial("prompt_tokens", "12")
    checkpoint.write_text(text, encoding="utf-8")
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    with pytest.raises(DataError, match=rf"checkpoint\.jsonl:{number}: trials: prompt_tokens"):
        pipeline.run_dataset(items, parallelism=1, checkpoint_path=checkpoint)

    results = tmp_path / "results.jsonl"
    text, number = _golden_results_with_a_bad_trial("diagnosis", "e1")
    results.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=rf"results\.jsonl:{number}: trials: diagnosis"):
        read_results(results)


class OutageBackend:
    def __init__(self, delay_s=0.0):
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay_s)
        raise BackendError("service unavailable")


@pytest.mark.parametrize("parallelism", [1, 3])
def test_backend_outage_leaves_run_dataset_unrecorded(
    parallelism, tmp_path, schemas, runner, kb, identity_model, embedder, items
):
    checkpoint = tmp_path / "checkpoint.jsonl"
    backend = OutageBackend(delay_s=0.01)
    outage = make_pipeline(schemas, runner, kb, identity_model, embedder, backend=backend)
    with pytest.raises(BackendError):
        outage.run_dataset(items, parallelism=parallelism, checkpoint_path=checkpoint)
    assert backend.calls < len(items)  # pending items were cancelled
    assert checkpoint.read_text(encoding="utf-8") == ""

    full_backend = scripted_backend()
    full = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=full_backend
    ).run_dataset(items, parallelism=1)
    resumed_backend = scripted_backend()
    resumed = make_pipeline(
        schemas, runner, kb, identity_model, embedder, backend=resumed_backend
    ).run_dataset(items, parallelism=1, checkpoint_path=checkpoint)
    assert [r.to_record() for r in resumed] == [r.to_record() for r in full]
    assert resumed_backend.call_count == full_backend.call_count


# --- record round trips --------------------------------------------------------------------

def test_case_result_record_round_trip(schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    result = pipeline.run_item(item_by_question(items, "held in each stadium"))
    rebuilt = CaseResult.from_record(json.loads(json.dumps(result.to_record())))
    assert rebuilt == result


def test_results_file_round_trip(tmp_path, schemas, runner, kb, identity_model, embedder, items):
    pipeline = make_pipeline(schemas, runner, kb, identity_model, embedder)
    results = pipeline.run_dataset(items[:6], parallelism=1)
    path = tmp_path / "results.jsonl"
    write_results(path, results)
    assert read_results(path) == results
