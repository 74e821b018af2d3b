"""Prompt templates, chat-completion backends, and response parsers.

Four templates drive the pipeline: zero-shot generation, then the three
correction steps (diagnose error types, prescribe a fix with retrieved
examples, treat by rewriting the SQL). Backends share one wire shape:
a chat-completions endpoint returning text plus token usage. A scripted
mock backend stands in for the real service in tests and offline runs.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from . import records
from .cases import (
    DIAGNOSABLE_IDS,
    ERROR_CATALOG,
    ERROR_TYPES_BY_ID,
    SUCCESS_LABEL,
    Case,
    CorrectionCase,
    SchemaDescription,
    error_type_table_text,
    schema_text,
    serialize_case,
)
from .errors import BackendError, DataError
from .transport import post_json_with_retries

DEFAULT_TEMPERATURE = 0.01
ZERO_SHOT_MAX_TOKENS = 350
DIAGNOSIS_MAX_TOKENS = 100
PRESCRIPTION_MAX_TOKENS = 1024
TREATMENT_MAX_TOKENS = 600
CHAT_TIMEOUT_S = 120.0


class DiagnosisParseError(ValueError):
    pass


class PrescriptionParseError(ValueError):
    pass


class SqlParseError(ValueError):
    pass


class MockScriptError(DataError):
    pass


@dataclass(frozen=True)
class LlmRequest:
    model_name: str
    temperature: float
    max_tokens: int
    prompt: str

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be > 0")


@dataclass(frozen=True)
class LlmResponse:
    text: str
    prompt_tokens: int
    completion_tokens: int

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be >= 0")


@dataclass(frozen=True)
class Usage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )

    @classmethod
    def from_response(cls, response: LlmResponse) -> "Usage":
        return cls(response.prompt_tokens, response.completion_tokens)


@dataclass(frozen=True)
class Diagnosis:
    """Error-type ids ranked most severe first."""

    ranked_error_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ranked_error_ids", tuple(self.ranked_error_ids))
        if not self.ranked_error_ids:
            raise ValueError("diagnosis must contain at least one error id")
        if len(set(self.ranked_error_ids)) != len(self.ranked_error_ids):
            raise ValueError("diagnosis ids must be duplicate-free")
        bad = [i for i in self.ranked_error_ids if i not in DIAGNOSABLE_IDS]
        if bad:
            raise ValueError(f"invalid diagnosis ids: {bad}")

    @property
    def top(self) -> str:
        return self.ranked_error_ids[0]


@dataclass(frozen=True)
class Prescription:
    reason: str
    instruction: str

    def __post_init__(self) -> None:
        if not self.instruction.strip():
            raise ValueError("prescription instruction must be non-empty")


@dataclass(frozen=True)
class LlmSettings:
    """Per-run chat parameters; max-token budgets differ per step."""

    model_name: str
    temperature: float = DEFAULT_TEMPERATURE
    zero_shot_max_tokens: int = ZERO_SHOT_MAX_TOKENS
    diagnosis_max_tokens: int = DIAGNOSIS_MAX_TOKENS
    prescription_max_tokens: int = PRESCRIPTION_MAX_TOKENS
    treatment_max_tokens: int = TREATMENT_MAX_TOKENS


def approx_token_count(text: str) -> int:
    """Cheap 4-chars-per-token approximation for budget checks."""
    return max(1, (len(text) + 3) // 4)


# --- prompt templates ---------------------------------------------------------

def render_zero_shot(schema: SchemaDescription, question: str) -> str:
    return (
        "You are given a database schema and a question. "
        "Write one SQLite query that answers the question.\n"
        "\n"
        "Schema:\n"
        f"{schema_text(schema)}\n"
        "\n"
        f"Question: {question}\n"
        "\n"
        "Respond with a single SQL statement and nothing else.\n"
    )


def render_diagnosis(
    case: Case, option_b_examples: Mapping[str, CorrectionCase] | None = None
) -> str:
    if option_b_examples:
        table = _error_table_with_examples(option_b_examples)
    else:
        table = error_type_table_text()
    return (
        "A generated SQL query did not produce the expected result. "
        "Review the failing case and classify the mistake.\n"
        "\n"
        "Failing case:\n"
        f"{serialize_case(case, include_result=True)}"
        "\n"
        "Known error types:\n"
        f"{table}"
        "\n"
        "Which error types apply? Respond with error ids only (for example: e3, e8), "
        "separated by commas, in descending order of severity with the most critical "
        "error first.\n"
    )


def _error_table_with_examples(examples: Mapping[str, CorrectionCase]) -> str:
    base_rows = error_type_table_text().splitlines()
    lines = [base_rows[0]]
    for row, error_type in zip(base_rows[1:], (e for e in ERROR_CATALOG if e.id != SUCCESS_LABEL)):
        lines.append(row)
        example = examples.get(error_type.id)
        if example is not None:
            lines.append(f"    example ({error_type.id}):")
            lines.append(f"      question: {example.case.question}")
            lines.append(f"      wrong SQL: {example.case.generated_sql}")
            if example.reason:
                lines.append(f"      reason: {example.reason}")
    return "\n".join(lines) + "\n"


def render_prescription(
    case: Case, diagnosis: Diagnosis, retrieved: Sequence[CorrectionCase]
) -> str:
    diagnosed = "\n".join(
        f"{i} ({ERROR_TYPES_BY_ID[i].name}): {ERROR_TYPES_BY_ID[i].short_explanation}"
        for i in diagnosis.ranked_error_ids
    )
    if retrieved:
        blocks = []
        for rank, cc in enumerate(retrieved, start=1):
            blocks.append(
                f"--- example {rank} ---\n"
                f"question: {cc.case.question}\n"
                f"wrong SQL: {cc.case.generated_sql}\n"
                f"correct SQL: {cc.ground_truth_sql}\n"
                f"error types: {', '.join(cc.error_types)}\n"
                f"reason: {cc.reason}\n"
                f"instruction: {cc.instruction}"
            )
        examples_text = "\n".join(blocks)
    else:
        examples_text = "(no solved examples available)"
    return (
        "A generated SQL query did not produce the expected result. Using the "
        "diagnosed error types and the solved examples below, explain why the "
        "query failed and write an instruction for fixing it.\n"
        "\n"
        "New case:\n"
        f"{serialize_case(case, include_result=True)}"
        "\n"
        "Diagnosed error types:\n"
        f"{diagnosed}\n"
        "\n"
        "Solved examples:\n"
        f"{examples_text}\n"
        "\n"
        "Respond in exactly this format:\n"
        "REASON: <why the query failed>\n"
        "INSTRUCTION: <how to change the SQL>\n"
    )


def render_treatment(case: Case, prescription: Prescription) -> str:
    return (
        "Fix the SQL query below.\n"
        "\n"
        "Schema:\n"
        f"{schema_text(case.schema)}\n"
        "\n"
        f"Question: {case.question}\n"
        "\n"
        "Failing SQL:\n"
        f"{case.generated_sql}\n"
        "\n"
        "Fixing instruction:\n"
        f"{prescription.instruction}\n"
        "\n"
        "Respond with exactly one corrected SQL statement and nothing else.\n"
    )


def render_generic_fix(case: Case) -> str:
    """Baseline self-correction prompt: no diagnosis, no retrieved examples."""
    return (
        "The SQL query below did not produce the expected result. Fix it.\n"
        "\n"
        "Case:\n"
        f"{serialize_case(case, include_result=True)}"
        "\n"
        "Respond with exactly one corrected SQL statement and nothing else.\n"
    )


# --- backends -----------------------------------------------------------------

class ChatBackend(Protocol):
    def complete(self, request: LlmRequest) -> LlmResponse: ...


class HttpChatBackend:
    """Client for a chat-completions endpoint; retries transient failures."""

    def __init__(
        self,
        base_url: str,
        api_key_env: str = "ECPT_API_KEY",
        backoff_s: float = 1.0,
        max_concurrency: int = 4,
    ):
        self.base_url = base_url.rstrip("/")
        self._api_key_env = api_key_env
        self._backoff_s = backoff_s
        self._semaphore = threading.Semaphore(max_concurrency)

    def complete(self, request: LlmRequest) -> LlmResponse:
        payload = {
            "model": request.model_name,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        with self._semaphore:
            reply = post_json_with_retries(
                f"{self.base_url}/chat/completions",
                payload,
                self._api_key_env,
                timeout=CHAT_TIMEOUT_S,
                backoff_s=self._backoff_s,
            )
        try:
            text = reply["choices"][0]["message"]["content"]
            usage = reply.get("usage", {})
            return LlmResponse(
                text=text,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
            )
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat reply: {exc}") from exc


@dataclass
class MockRule:
    """One scripted reply: fires when all `contains` substrings appear in the prompt."""

    response: str
    contains: tuple[str, ...] = ()
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    max_uses: int | None = None
    uses: int = field(default=0, init=False, compare=False)

    def matches(self, prompt: str) -> bool:
        if self.max_uses is not None and self.uses >= self.max_uses:
            return False
        return all(s in prompt for s in self.contains)


@dataclass(frozen=True)
class _MockScript:
    rules: tuple[MockRule, ...] = ()
    default_response: str | None = None


def _listed_contains(obj: dict) -> dict:
    """A rule's documented bare-string `contains` as the one-item list it means."""
    if isinstance(obj.get("contains"), str):
        obj["contains"] = [obj["contains"]]
    return obj


class MockBackend:
    """Deterministic scripted backend: first matching rule wins, in script order.

    Rules with item-specific `contains` keys stay deterministic under
    concurrent use; consumption is guarded by a lock.
    """

    def __init__(self, rules: Sequence[MockRule], default_response: str | None = None):
        self._rules = list(rules)
        self._default_response = default_response
        self._lock = threading.Lock()
        self.call_count = 0

    @classmethod
    def from_script(cls, path: str | Path) -> "MockBackend":
        try:
            script = records.read_json(path, "mock script", _MockScript, _listed_contains)
        except DataError as exc:
            raise MockScriptError(str(exc)) from exc
        return cls(script.rules, default_response=script.default_response)

    def complete(self, request: LlmRequest) -> LlmResponse:
        with self._lock:
            self.call_count += 1
            for rule in self._rules:
                if rule.matches(request.prompt):
                    rule.uses += 1
                    return LlmResponse(
                        text=rule.response,
                        prompt_tokens=(
                            rule.prompt_tokens
                            if rule.prompt_tokens is not None
                            else approx_token_count(request.prompt)
                        ),
                        completion_tokens=(
                            rule.completion_tokens
                            if rule.completion_tokens is not None
                            else approx_token_count(rule.response)
                        ),
                    )
            if self._default_response is not None:
                return LlmResponse(
                    text=self._default_response,
                    prompt_tokens=approx_token_count(request.prompt),
                    completion_tokens=approx_token_count(self._default_response),
                )
        raise MockScriptError("no mock rule matched and no default_response configured")


# --- response parsers ---------------------------------------------------------

_DIAGNOSIS_ID = re.compile(r"\be(\d{1,2})\b")


def parse_diagnosis(text: str) -> Diagnosis:
    """Extract eN ids (N <= 13) in order of first appearance, deduplicated."""
    ids: list[str] = []
    for match in _DIAGNOSIS_ID.finditer(text):
        number = int(match.group(1))
        candidate = f"e{number}"
        if 1 <= number <= 13 and candidate not in ids:
            ids.append(candidate)
    if not ids:
        raise DiagnosisParseError(f"no error ids found in: {text[:120]!r}")
    return Diagnosis(ranked_error_ids=tuple(ids))


_REASON_MARK = re.compile(r"REASON\s*:\s*", re.IGNORECASE)
_INSTRUCTION_MARK = re.compile(r"INSTRUCTION\s*:\s*", re.IGNORECASE)


def parse_prescription(text: str) -> Prescription:
    """Split on REASON/INSTRUCTION markers; fall back to paragraph splitting."""
    instruction_match = _INSTRUCTION_MARK.search(text)
    if instruction_match:
        instruction = text[instruction_match.end() :].strip()
        reason_match = _REASON_MARK.search(text, 0, instruction_match.start())
        reason = (
            text[reason_match.end() : instruction_match.start()].strip()
            if reason_match
            else text[: instruction_match.start()].strip()
        )
        if instruction:
            return Prescription(reason=reason, instruction=instruction)
    paragraphs = [p.strip() for p in re.split(r"\n\s*\n", text) if p.strip()]
    if len(paragraphs) >= 2:
        return Prescription(reason=paragraphs[0], instruction="\n\n".join(paragraphs[1:]))
    if paragraphs:
        return Prescription(reason="", instruction=paragraphs[0])
    raise PrescriptionParseError("empty prescription text")


_SQL_KEYWORD = re.compile(r"\b(SELECT|WITH|INSERT|UPDATE|DELETE)\b", re.IGNORECASE)
_CODE_FENCE = re.compile(r"```(?:sql)?\s*\n?(.*?)```", re.DOTALL | re.IGNORECASE)


def parse_sql(text: str) -> str:
    """Return the first SQL statement, stripping code fences and surrounding prose."""
    for fence in _CODE_FENCE.finditer(text):
        block = fence.group(1)
        match = _SQL_KEYWORD.search(block)
        if match:
            return block[match.start() :].strip()
    match = _SQL_KEYWORD.search(text)
    if not match:
        raise SqlParseError(f"no SQL statement found in: {text[:120]!r}")
    rest = text[match.start() :]
    semicolon = rest.find(";")
    if semicolon != -1:
        rest = rest[: semicolon + 1]
    return rest.strip()
