"""Domain model for SQL generation cases.

Holds database schema descriptions, execution outcomes, the error-type
catalog, labeled correction cases, and the deterministic structured-text
rendering used both in prompts and as embedding input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import records
from .errors import DataError

MAX_PREVIEW_ROWS = 10
MAX_PREVIEW_VALUE_CHARS = 64
KB_FILE_VERSION = "ecpt-kb/1"

SUCCESS_LABEL = "success"


class OutcomeKind(str, Enum):
    SUCCESS = "success"
    EXECUTION_ERROR = "execution_error"
    EMPTY_TABLE = "empty_table"
    UNDESIRED_RESULT = "undesired_result"


@dataclass(frozen=True)
class ExecutionOutcome:
    """How a generated query fared against the ground truth."""

    kind: OutcomeKind
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind is OutcomeKind.EXECUTION_ERROR and not self.detail:
            raise ValueError("execution_error outcome requires a detail message")


@dataclass(frozen=True)
class SchemaDescription:
    """Tables, columns, and key relationships of one database.

    Column references (primary_keys, foreign_keys endpoints) use the
    "table.column" form.
    """

    db_id: str
    tables: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    primary_keys: tuple[str, ...] = ()
    foreign_keys: tuple[tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        tables = tuple(
            (name, tuple((c, t) for c, t in columns)) for name, columns in self.tables
        )
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "primary_keys", tuple(self.primary_keys))
        object.__setattr__(
            self, "foreign_keys", tuple((a, b) for a, b in self.foreign_keys)
        )
        names = [name for name, _ in tables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in {self.db_id}")
        known = set()
        for name, columns in tables:
            cols = [c for c, _ in columns]
            if len(set(cols)) != len(cols):
                raise ValueError(f"duplicate column names in {self.db_id}.{name}")
            known.update(f"{name}.{c}" for c in cols)
        for ref in self.primary_keys:
            if ref not in known:
                raise ValueError(f"primary key {ref!r} not in schema {self.db_id}")
        for src, dst in self.foreign_keys:
            for ref in (src, dst):
                if ref not in known:
                    raise ValueError(
                        f"foreign key endpoint {ref!r} not in schema {self.db_id}"
                    )


@dataclass(frozen=True)
class ResultPreview:
    """Bounded, stringified slice of an execution result for prompt display."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, ...], ...]
    total_rows: int


def build_preview(
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
    max_rows: int = MAX_PREVIEW_ROWS,
    max_value_chars: int = MAX_PREVIEW_VALUE_CHARS,
) -> ResultPreview:
    """Truncate a result set to a displayable preview."""
    shown = tuple(
        tuple(_format_value(v, max_value_chars) for v in row) for row in rows[:max_rows]
    )
    return ResultPreview(tuple(columns), shown, total_rows=len(rows))


def _format_value(value: object, max_chars: int) -> str:
    if value is None:
        text = "NULL"
    elif isinstance(value, bytes):
        text = "0x" + value.hex()
    elif isinstance(value, float):
        text = repr(value)
    else:
        text = str(value)
    text = " ".join(text.splitlines())
    if len(text) > max_chars:
        text = text[: max_chars - 3] + "..."
    return text


@dataclass(frozen=True)
class Case:
    """One generation attempt: schema, question, generated SQL, and its outcome."""

    schema: SchemaDescription
    question: str
    generated_sql: str
    outcome: ExecutionOutcome
    result_preview: ResultPreview | None = None

    def __post_init__(self) -> None:
        if not self.question.strip():
            raise ValueError("case question must be non-empty")


@dataclass(frozen=True)
class ErrorType:
    id: str
    name: str
    short_explanation: str


ERROR_CATALOG: tuple[ErrorType, ...] = (
    ErrorType("e1", "Other:DISTINCT", "Didn’t use or use keyword DISTINCT properly."),
    ErrorType("e2", "Other:DESC", "Didn’t use or use keyword DESC properly."),
    ErrorType(
        "e3",
        "Other:Not Enough Value Information",
        "Wrong value in the WHERE clause.",
    ),
    ErrorType(
        "e4",
        "Schema-Linking:Wrong Cols",
        "Unnecessary or wrong columns in SELECT clause refer to question.",
    ),
    ErrorType(
        "e5",
        "Schema-Linking:Cond",
        "Missing or used wrong logic in the conditions.",
    ),
    ErrorType("e6", "Nested:Wrong Sub Query", "Unnecessary or wrong sub query."),
    ErrorType("e7", "Nested:Set Operation", "Didn’t used set operation."),
    ErrorType(
        "e8",
        "Join:Wrong Tables/Cols",
        "Joined unnecessary or wrong tables or columns.",
    ),
    ErrorType(
        "e9",
        "Join:Wrong Keyword",
        "Didn’t use JOIN keyword where it should be used or misuse LEFT/RIGHT JOIN.",
    ),
    ErrorType("e10", "Invalid:Wrong Cols", "Use columns that do not exist in the table."),
    ErrorType(
        "e11",
        "Invalid:Alias",
        "Used same column name in a single statement without any alias.",
    ),
    ErrorType(
        "e12",
        "Group-by:Not Detected",
        "Didn’t use GROUP BY keyword where it should be used.",
    ),
    ErrorType(
        "e13",
        "Group-by:Wrong Cols",
        "Group by wrong columns or unnecessary group by.",
    ),
    ErrorType(SUCCESS_LABEL, "Success", "Generated SQL matched the ground-truth result."),
)

ERROR_TYPES_BY_ID: Mapping[str, ErrorType] = {e.id: e for e in ERROR_CATALOG}
ERROR_IDS: frozenset[str] = frozenset(ERROR_TYPES_BY_ID)
DIAGNOSABLE_IDS: tuple[str, ...] = tuple(f"e{i}" for i in range(1, 14))


def error_type_table_text() -> str:
    """Aligned plain-text table of the 13 failure categories (success excluded)."""
    rows = [e for e in ERROR_CATALOG if e.id != SUCCESS_LABEL]
    id_width = max(len("id"), max(len(e.id) for e in rows))
    name_width = max(len("name"), max(len(e.name) for e in rows))
    lines = [f"{'id':<{id_width}}  {'name':<{name_width}}  explanation"]
    for e in rows:
        lines.append(f"{e.id:<{id_width}}  {e.name:<{name_width}}  {e.short_explanation}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CorrectionCase:
    """A labeled case: error types, correct SQL, failure reason, fixing instruction."""

    case: Case
    error_types: tuple[str, ...]
    ground_truth_sql: str
    reason: str
    instruction: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "error_types", tuple(self.error_types))
        if not self.error_types:
            raise ValueError("correction case needs at least one error type")
        if len(set(self.error_types)) != len(self.error_types):
            raise ValueError("duplicate error types in correction case")
        unknown = [t for t in self.error_types if t not in ERROR_IDS]
        if unknown:
            raise ValueError(f"unknown error types: {unknown}")
        if SUCCESS_LABEL in self.error_types and len(self.error_types) > 1:
            raise ValueError("'success' label must stand alone")
        if not self.ground_truth_sql.strip():
            raise ValueError("ground truth SQL must be non-empty")

    @property
    def primary_label(self) -> str:
        return self.error_types[0]


# --- structured-text serialization ------------------------------------------

def schema_text(schema: SchemaDescription) -> str:
    """Render a schema as `table(col:type, …)` lines plus FOREIGN KEY lines."""
    lines = [f"database: {schema.db_id}"]
    for name, columns in schema.tables:
        cols = ", ".join(f"{col}:{ctype}" for col, ctype in columns)
        lines.append(f"{name}({cols})")
    for src, dst in schema.foreign_keys:
        lines.append(f"FOREIGN KEY {src} -> {dst}")
    return "\n".join(lines)


def serialize_case(case: Case, include_result: bool = True) -> str:
    """Render a case as labeled sections in fixed order; byte-identical for equal inputs."""
    lines = ["SCHEMA", schema_text(case.schema), "QUESTION", case.question, "SQL",
             case.generated_sql]
    if include_result:
        lines.append("RESULT")
        lines.append(f"status: {case.outcome.kind.value}")
        if case.outcome.kind is OutcomeKind.EXECUTION_ERROR:
            lines.append(f"error: {_one_line(case.outcome.detail)}")
        else:
            if case.outcome.detail:
                lines.append(f"detail: {_one_line(case.outcome.detail)}")
            preview = case.result_preview
            if preview is not None:
                lines.append("columns: " + " | ".join(preview.columns))
                for row in preview.rows:
                    lines.append("row: " + " | ".join(row))
                if preview.total_rows > len(preview.rows):
                    lines.append(
                        f"(showing {len(preview.rows)} of {preview.total_rows} rows)"
                    )
                elif not preview.rows:
                    lines.append("(no rows)")
    return "\n".join(lines) + "\n"


def _one_line(text: str) -> str:
    return " ".join(text.splitlines())


# --- correction-case knowledge-base file -------------------------------------

@dataclass(slots=True)  # no per-line __dict__: every KB line is decoded into one
class CaseRecord:
    """A correction case as a file line holds it: its schema by `db_id`."""

    db_id: str
    question: str
    generated_sql: str
    outcome: ExecutionOutcome
    error_types: tuple[str, ...]
    ground_truth_sql: str
    reason: str
    instruction: str


def correction_case_record(cc: CorrectionCase) -> dict:
    case = cc.case
    return records.to_record(CaseRecord(
        case.schema.db_id, case.question, case.generated_sql, case.outcome, cc.error_types,
        cc.ground_truth_sql, cc.reason, cc.instruction))


def correction_case_from_record(
    record: Mapping, schemas: Mapping[str, SchemaDescription]
) -> CorrectionCase:
    line = records.from_record(CaseRecord, record)
    if line.db_id not in schemas:
        raise DataError(f"correction-case record references unknown db_id {line.db_id!r}")
    case = Case(schemas[line.db_id], line.question, line.generated_sql, line.outcome)
    return CorrectionCase(case, line.error_types, line.ground_truth_sql, line.reason,
                          line.instruction)


def write_correction_cases(path: str | Path, cases: Iterable[CorrectionCase]) -> None:
    """Write a line-delimited correction-case file with a version header record."""
    records.write(path, cases, correction_case_record, header={"version": KB_FILE_VERSION})


def read_correction_cases(
    path: str | Path, schemas: Mapping[str, SchemaDescription]
) -> list[CorrectionCase]:
    _, cases = records.read(
        path,
        "correction-case",
        lambda record, _: correction_case_from_record(record, schemas),
        version=KB_FILE_VERSION,
    )
    return cases
