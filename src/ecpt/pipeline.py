"""End-to-end orchestration per dataset item: zero-shot generation, outcome
classification, and up to three diagnose/prescribe/treat correction trials.

Items run concurrently up to a parallelism limit; each item's trials are
strictly sequential. Completed items are appended to a checkpoint file so an
interrupted run can resume without repeating work.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from . import records
from .cases import (
    DIAGNOSABLE_IDS,
    Case,
    CorrectionCase,
    ExecutionOutcome,
    OutcomeKind,
    SchemaDescription,
    build_preview,
    serialize_case,
)
from .embedding import Embedder, ProjectionModel, embed
from .errors import BackendError, DataError
from .kb import KbStore, ModelMismatch
from .llm import (
    ChatBackend,
    Diagnosis,
    DiagnosisParseError,
    LlmRequest,
    LlmSettings,
    MockScriptError,
    PrescriptionParseError,
    SqlParseError,
    Usage,
    parse_diagnosis,
    parse_prescription,
    parse_sql,
    render_diagnosis,
    render_generic_fix,
    render_prescription,
    render_treatment,
    render_zero_shot,
)
from .runner import (
    ComparisonPolicy,
    ExecutionResult,
    ResultTable,
    SqlExecutionError,
    SqlRunner,
    UnknownDatabase,
    classify_outcome,
    detect_order_by,
)
from .spider import DatasetItem

MODE_ECPT = "ecpt"
MODE_GENERIC = "generic"

# the outcome detail of a trial whose completion did not parse
_PARSE_FAILURES = {
    DiagnosisParseError: "unparseable diagnosis",
    PrescriptionParseError: "unparseable prescription",
    SqlParseError: "no SQL in completion",
}


class GroundTruthError(DataError):
    """An item's ground-truth SQL does not execute, so nothing can be judged."""


def execute_ground_truth(runner: SqlRunner, item: DatasetItem) -> ResultTable:
    """The item's ground-truth result, or GroundTruthError, whose cause is the
    runner's error, when it does not execute."""
    try:
        return runner.execute(item.db_id, item.ground_truth_sql)
    except (SqlExecutionError, UnknownDatabase) as exc:
        raise GroundTruthError(f"{item.ref}: ground truth failed: {exc}") from exc


@dataclass(frozen=True)
class PipelineOptions:
    option_a_finetuned_embeddings: bool = False
    option_b_examples_in_diagnosis: bool = False
    option_c_resolve_all_at_once: bool = False
    max_trials: int = 3
    retrieval_k: int = 3

    def __post_init__(self) -> None:
        if self.max_trials < 1:
            raise ValueError("max_trials must be >= 1")
        if self.retrieval_k < 0:
            raise ValueError("retrieval_k must be >= 0")


@dataclass(frozen=True)
class TrialRecord(records.Record):
    item_ref: str
    trial_index: int
    diagnosis: tuple[str, ...] | None
    retrieved_ids: tuple[int, ...]
    candidate_sql: str | None
    outcome: ExecutionOutcome
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class CaseResult(records.Record):
    item_ref: str
    zero_shot_sql: str | None
    zero_shot_outcome: ExecutionOutcome
    final_outcome: ExecutionOutcome
    trials: tuple[TrialRecord, ...]
    zero_shot_prompt_tokens: int = 0
    zero_shot_completion_tokens: int = 0
    error: str | None = None

    @property
    def fixed(self) -> bool:
        return (
            self.zero_shot_outcome.kind is not OutcomeKind.SUCCESS
            and self.final_outcome.kind is OutcomeKind.SUCCESS
        )


@dataclass(frozen=True)
class ZeroShotResult:
    sql: str | None
    outcome: ExecutionOutcome
    usage: Usage
    execution: ExecutionResult | None
    # the item's ground truth, executed once and reused by every trial
    truth: ResultTable
    policy: ComparisonPolicy

    def case_result(
        self, item_ref: str, trials: tuple[TrialRecord, ...] = (), error: str | None = None
    ) -> CaseResult:
        return CaseResult(
            item_ref=item_ref,
            zero_shot_sql=self.sql,
            zero_shot_outcome=self.outcome,
            final_outcome=trials[-1].outcome if trials else self.outcome,
            trials=trials,
            zero_shot_prompt_tokens=self.usage.prompt_tokens,
            zero_shot_completion_tokens=self.usage.completion_tokens,
            error=error,
        )


class Pipeline:
    """Binds schemas, the SQL runner, a chat backend, and the retrieval stack."""

    def __init__(
        self,
        *,
        schemas: Mapping[str, SchemaDescription],
        runner: SqlRunner,
        backend: ChatBackend,
        settings: LlmSettings,
        options: PipelineOptions = PipelineOptions(),
        kb: KbStore | None = None,
        model: ProjectionModel | None = None,
        embedder: Embedder | None = None,
        mode: str = MODE_ECPT,
    ):
        if mode not in (MODE_ECPT, MODE_GENERIC):
            raise ValueError(f"unknown pipeline mode {mode!r}")
        if mode == MODE_ECPT:
            if kb is None or model is None or embedder is None:
                raise ValueError("ecpt mode requires kb, model, and embedder")
            if kb.model_hash != model.identity_hash():
                raise ModelMismatch(
                    "knowledge base was embedded with a different projection model"
                )
            if options.option_a_finetuned_embeddings != model.trained:
                raise ValueError(
                    "option A expects a fine-tuned projection; without it the "
                    "identity projection must be used"
                )
        self._schemas = schemas
        self._runner = runner
        self._backend = backend
        self._settings = settings
        self._options = options
        self._kb = kb
        self._model = model
        self._embedder = embedder
        self._mode = mode

    # --- single steps ---------------------------------------------------------

    def run_zero_shot(self, item: DatasetItem) -> ZeroShotResult:
        """Execute the item's ground truth, then generate SQL for the item,
        execute it, and classify the outcome. A ground truth that does not
        execute raises GroundTruthError before any LLM call."""
        truth = execute_ground_truth(self._runner, item)
        policy = ComparisonPolicy(order_sensitive=detect_order_by(item.ground_truth_sql))
        prompt = render_zero_shot(self._schemas[item.db_id], item.question)
        response = self._complete(prompt, self._settings.zero_shot_max_tokens)
        usage = Usage.from_response(response)
        try:
            sql = parse_sql(response.text)
        except SqlParseError:
            outcome = ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, "no SQL in completion")
            return ZeroShotResult(None, outcome, usage, None, truth, policy)
        execution = self._runner.try_execute(item.db_id, sql)
        outcome = classify_outcome(execution, truth, policy)
        return ZeroShotResult(sql, outcome, usage, execution, truth, policy)

    def correct(
        self, item: DatasetItem, case: Case, zero_shot: ZeroShotResult
    ) -> CaseResult:
        """Run up to max_trials correction trials, stopping at the first success
        or at a trial that crashed, whose error the result keeps."""
        truth, policy = zero_shot.truth, zero_shot.policy
        trials: list[TrialRecord] = []
        current = case
        error = None
        for trial_index in range(1, self._options.max_trials + 1):
            trial, current, error = self._trial(item, current, trial_index, truth, policy)
            trials.append(trial)
            if error is not None or trial.outcome.kind is OutcomeKind.SUCCESS:
                break
        return zero_shot.case_result(item.ref, tuple(trials), error)

    def run_item(self, item: DatasetItem) -> CaseResult:
        zero_shot = self.run_zero_shot(item)
        if zero_shot.outcome.kind is OutcomeKind.SUCCESS:
            return zero_shot.case_result(item.ref)
        case = self._build_case(item, zero_shot.sql, zero_shot.outcome, zero_shot.execution)
        return self.correct(item, case, zero_shot)

    def run_dataset(
        self,
        items: list[DatasetItem],
        parallelism: int = 1,
        checkpoint_path: str | Path | None = None,
    ) -> list[CaseResult]:
        """Run all items, resuming from the checkpoint; results follow input
        order. An item whose ground truth does not execute gets no result and
        no checkpoint line."""
        completed: dict[str, CaseResult] = {}
        if checkpoint_path is not None and Path(checkpoint_path).exists():
            _, done = records.read(checkpoint_path, "checkpoint", _result, torn_tail=True)
            completed.update((result.item_ref, result) for result in done)
        pending = [item for item in items if item.ref not in completed]
        lock = threading.Lock()
        handle = None
        if checkpoint_path is not None:
            handle = open(checkpoint_path, "a", encoding="utf-8")
        try:

            def work(item: DatasetItem) -> None:
                try:
                    result = self.run_item(item)
                except GroundTruthError:
                    return
                except (BackendError, MockScriptError):
                    raise  # an outage or a broken script is no result of the item
                except Exception as exc:  # other per-item failures never abort the run
                    failure = ExecutionOutcome(
                        OutcomeKind.EXECUTION_ERROR, f"run failed: {exc}"
                    )
                    result = CaseResult(
                        item_ref=item.ref,
                        zero_shot_sql=None,
                        zero_shot_outcome=failure,
                        final_outcome=failure,
                        trials=(),
                        error=str(exc),
                    )
                with lock:
                    completed[item.ref] = result
                    if handle is not None:
                        handle.write(json.dumps(result.to_record()) + "\n")
                        handle.flush()

            if parallelism <= 1:
                for item in pending:
                    work(item)
            else:
                pool = ThreadPoolExecutor(max_workers=parallelism)
                try:
                    list(pool.map(work, pending))
                finally:
                    # after a failure, items not yet started are not run
                    pool.shutdown(cancel_futures=True)
        finally:
            if handle is not None:
                handle.close()
        return [completed[item.ref] for item in items if item.ref in completed]

    # --- internals --------------------------------------------------------------

    def _complete(self, prompt: str, max_tokens: int):
        return self._backend.complete(
            LlmRequest(
                model_name=self._settings.model_name,
                temperature=self._settings.temperature,
                max_tokens=max_tokens,
                prompt=prompt,
            )
        )

    def _build_case(
        self,
        item: DatasetItem,
        sql: str | None,
        outcome: ExecutionOutcome,
        execution: ExecutionResult | None,
    ) -> Case:
        preview = None
        if execution is not None and execution.table is not None:
            preview = build_preview(execution.table.columns, execution.table.rows)
        return Case(
            schema=self._schemas[item.db_id],
            question=item.question,
            generated_sql=sql if sql is not None else "",
            outcome=outcome,
            result_preview=preview,
        )

    def _trial(
        self,
        item: DatasetItem,
        case: Case,
        trial_index: int,
        truth: ResultTable,
        policy: ComparisonPolicy,
    ) -> tuple[TrialRecord, Case, str | None]:
        """One correction trial. ECPT mode diagnoses, retrieves and prescribes
        before the treatment prompt; generic mode asks for the fix directly.
        A crash before the candidate SQL is executed ends the trial as an
        execution error that keeps the tokens spent, and is returned as text."""
        usage = Usage()
        error = None
        diagnosis: Diagnosis | None = None
        retrieved_ids: tuple[int, ...] = ()
        candidate_sql = None
        next_case = case

        def ask(prompt: str, max_tokens: int) -> str:
            nonlocal usage
            response = self._complete(prompt, max_tokens)
            usage += Usage.from_response(response)
            return response.text

        try:
            if self._mode == MODE_GENERIC:
                prompt = render_generic_fix(case)
            else:
                case_text = serialize_case(case, include_result=True)
                query_vector = embed(case_text, self._model, self._embedder)
                option_b = None
                if self._options.option_b_examples_in_diagnosis:
                    option_b = self._nearest_per_error_type(query_vector)
                diagnosis = parse_diagnosis(
                    ask(render_diagnosis(case, option_b), self._settings.diagnosis_max_tokens)
                )
                error_filter = {diagnosis.top}
                if self._options.option_c_resolve_all_at_once:
                    error_filter = set(diagnosis.ranked_error_ids)
                retrieved = []
                if self._options.retrieval_k >= 1:
                    retrieved = self._kb.search(
                        query_vector, self._options.retrieval_k, error_filter
                    )
                retrieved_ids = tuple(entry.id for entry, _ in retrieved)
                examples = [entry.correction_case for entry, _ in retrieved]
                prescription = parse_prescription(
                    ask(
                        render_prescription(case, diagnosis, examples),
                        self._settings.prescription_max_tokens,
                    )
                )
                prompt = render_treatment(case, prescription)
            candidate_sql = parse_sql(ask(prompt, self._settings.treatment_max_tokens))
        except (DiagnosisParseError, PrescriptionParseError, SqlParseError) as exc:
            outcome = ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, _PARSE_FAILURES[type(exc)])
        except (BackendError, MockScriptError):
            raise  # an outage or a broken script is no result of the item
        except Exception as exc:  # keeps the zero-shot attempt and the trials before it
            error = str(exc)
            outcome = ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, f"trial failed: {exc}")
        else:
            execution = self._runner.try_execute(item.db_id, candidate_sql)
            outcome = classify_outcome(execution, truth, policy)
            # later trials correct the newest failing SQL and result
            next_case = self._build_case(item, candidate_sql, outcome, execution)
        record = TrialRecord(
            item_ref=item.ref,
            trial_index=trial_index,
            diagnosis=diagnosis.ranked_error_ids if diagnosis is not None else None,
            retrieved_ids=retrieved_ids,
            candidate_sql=candidate_sql,
            outcome=outcome,
            prompt_tokens=usage.prompt_tokens,
            completion_tokens=usage.completion_tokens,
        )
        return record, next_case, error

    def _nearest_per_error_type(self, query_vector) -> dict[str, CorrectionCase]:
        nearest = self._kb.nearest_per_label(query_vector, DIAGNOSABLE_IDS)
        return {error_id: entry.correction_case for error_id, entry in nearest.items()}


def write_results(path: str | Path, results: list[CaseResult]) -> None:
    """Write CaseResults as line-delimited records, in the given order."""
    records.write(path, results, CaseResult.to_record)


def read_results(path: str | Path) -> list[CaseResult]:
    return records.read(path, "results", _result)[1]


def _result(record: dict, header: dict) -> CaseResult:
    return CaseResult.from_record(record)
