"""Read-only SQL execution against SQLite databases, result-set comparison,
and classification of generated queries against ground truth."""

from __future__ import annotations

import math
import sqlite3
import time
from collections import Counter
from dataclasses import dataclass
from itertools import groupby, islice
from operator import eq, itemgetter
from pathlib import Path
from typing import Mapping, Sequence

from .cases import ExecutionOutcome, OutcomeKind
from .errors import DataError

DEFAULT_TIMEOUT_MS = 30_000
DEFAULT_ROW_CAP = 50_000

# progress-handler callback granularity, in VM instructions
_PROGRESS_STEP = 10_000


class SqlExecutionError(Exception):
    """Execution failed; message is the database error text, verbatim."""


class SqlTimeout(SqlExecutionError):
    pass


class UnknownDatabase(DataError):
    pass


@dataclass(frozen=True)
class ResultTable:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]  # row tuples, as sqlite3 returns them
    truncated: bool = False  # cut off at the runner's row cap

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(self.rows))  # no copy of a tuple
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def _sorted_rows(self) -> list[tuple]:
        # kept on the table, so a ground truth is sorted once per item
        if "_sorted" not in self.__dict__:
            object.__setattr__(self, "_sorted", _sort_rows(self.rows, len(self.columns)))
        return self.__dict__["_sorted"]

    def _row_counts(self) -> Counter:
        # kept on the table, so a ground truth is counted once per item
        if "_counts" not in self.__dict__:
            object.__setattr__(self, "_counts", Counter(self.rows))
        return self.__dict__["_counts"]


@dataclass(frozen=True)
class ExecutionResult:
    table: ResultTable | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ComparisonPolicy:
    order_sensitive: bool = False
    float_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.float_tolerance <= 0:
            raise ValueError("float_tolerance must be positive")


class SqlRunner:
    """Executes SQL read-only against registered SQLite files.

    Connections are opened per call, so concurrent execution across cases is
    safe without sharing.
    """

    def __init__(
        self,
        databases: Mapping[str, str | Path],
        timeout_ms: int = DEFAULT_TIMEOUT_MS,
        row_cap: int = DEFAULT_ROW_CAP,
    ):
        self._databases = {db_id: Path(p) for db_id, p in databases.items()}
        self._timeout_ms = timeout_ms
        self._row_cap = row_cap

    @property
    def databases(self) -> Mapping[str, Path]:
        return dict(self._databases)

    def execute(self, db_id: str, sql: str) -> ResultTable:
        """Run SQL read-only; raises SqlExecutionError / SqlTimeout / UnknownDatabase."""
        if db_id not in self._databases:
            raise UnknownDatabase(f"unknown db_id {db_id!r}")
        path = self._databases[db_id]
        if not path.exists():
            raise UnknownDatabase(f"database file missing for {db_id!r}: {path}")
        deadline = time.monotonic() + self._timeout_ms / 1000.0
        connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            connection.set_progress_handler(
                lambda: 1 if time.monotonic() > deadline else 0, _PROGRESS_STEP
            )
            try:
                cursor = connection.execute(sql)
                rows = cursor.fetchmany(self._row_cap + 1)
                columns = (
                    tuple(d[0] for d in cursor.description) if cursor.description else ()
                )
            except sqlite3.Error as exc:
                if time.monotonic() > deadline:
                    raise SqlTimeout(f"query timed out after {self._timeout_ms} ms") from exc
                raise SqlExecutionError(str(exc)) from exc
        finally:
            connection.close()
        truncated = len(rows) > self._row_cap
        del rows[self._row_cap :]
        return ResultTable(columns=columns, rows=tuple(rows), truncated=truncated)

    def try_execute(self, db_id: str, sql: str) -> ExecutionResult:
        try:
            return ExecutionResult(table=self.execute(db_id, sql))
        except SqlExecutionError as exc:
            return ExecutionResult(error=str(exc))


def detect_order_by(sql: str) -> bool:
    """True iff ORDER BY appears at the top level of the statement, ignoring
    string literals, quoted identifiers, comments, and parenthesized subqueries."""
    tokens = _top_level_words(sql)
    return any(a == "order" and b == "by" for a, b in zip(tokens, tokens[1:]))


def _top_level_words(sql: str) -> list[str]:
    words: list[str] = []
    depth = 0
    i = 0
    n = len(sql)
    while i < n:
        c = sql[i]
        if c == "'" or c == '"' or c == "`":
            i = _skip_quoted(sql, i, c)
        elif c == "[":
            end = sql.find("]", i + 1)
            i = n if end == -1 else end + 1
        elif sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
        elif sql.startswith("/*", i):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
        elif c == "(":
            depth += 1
            i += 1
        elif c == ")":
            depth = max(0, depth - 1)
            i += 1
        elif depth == 0 and (c.isalpha() or c == "_"):
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            words.append(sql[start:i].lower())
        else:
            i += 1
    return words


def _skip_quoted(sql: str, start: int, quote: str) -> int:
    # doubled quote chars escape themselves inside SQL literals/identifiers
    i = start + 1
    n = len(sql)
    while i < n:
        if sql[i] == quote:
            if i + 1 < n and sql[i + 1] == quote:
                i += 2
                continue
            return i + 1
        i += 1
    return n


def compare(generated: ResultTable, truth: ResultTable, policy: ComparisonPolicy) -> bool:
    """Execution match of two results, as in Spider's execution accuracy.

    Column names are ignored and column counts must match. Unordered, the row
    multisets must be equal: equal counts of `==` rows match with no sort;
    otherwise both sides are sorted column by column on a key that orders
    numbers numerically to about 9 significant digits (so near-equal numbers
    tie and later columns decide), taking a later column's keys only for rows
    tied on every earlier one, and every row pairs up in that order.
    Order-sensitive, rows pair up as returned. Paired numbers compare with
    relative tolerance `policy.float_tolerance` (int and float alike); NULL
    equals only NULL; text and blobs compare exactly. A table truncated at the
    row cap never compares equal: the rows past the cap are unknown.
    """
    if generated.truncated or truth.truncated:
        return False
    if len(generated.columns) != len(truth.columns):
        return False
    if len(generated.rows) != len(truth.rows):
        return False
    if policy.order_sensitive:
        lhs, rhs = generated.rows, truth.rows
    # dict.__eq__ runs in C, where Counter.__eq__ loops in Python
    elif dict.__eq__(Counter(generated.rows), truth._row_counts()):
        return True
    else:
        lhs, rhs = generated._sorted_rows(), truth._sorted_rows()
    tolerance = policy.float_tolerance
    # rows share one width; exact equality implies equality within tolerance
    return all(
        a == b or all(_values_equal(x, y, tolerance) for x, y in zip(a, b))
        for a, b in zip(lhs, rhs)
    )


_SPLIT = 2.0**23 + 1.0  # keeps 53 - 23 significant bits
_SPLIT_LIMIT = 2.0**996  # x * _SPLIT stays finite below it; larger x sort as they are


def _sort_rows(rows: Sequence[tuple], width: int, column: int = 0) -> list[tuple]:
    """The rows in the order of their whole-row `_value_sort_key` tuples.

    A stable sort on one column's keys, then each run of rows tied on them
    re-sorted by the next column: the same order, but a value's key is computed
    only when every earlier value of its row ties with another row's.
    """
    if column == width:
        return list(rows)
    keys = list(map(_value_sort_key, map(itemgetter(column), rows)))
    order = sorted(range(len(rows)), key=keys.__getitem__)
    rows = list(map(rows.__getitem__, order))
    keys = list(map(keys.__getitem__, order))
    if any(map(eq, keys, islice(keys, 1, None))):
        start = 0
        for _, run in groupby(keys):
            end = start + len(list(run))
            if end - start > 1:
                rows[start:end] = _sort_rows(rows[start:end], width, column + 1)
            start = end
    return rows


def _value_sort_key(value: object) -> tuple:
    # a type tag first, so values of different types never compare directly
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)):
        x = float(value)
        if -_SPLIT_LIMIT < x < _SPLIT_LIMIT:
            # round to 30 significant bits (Veltkamp's split): monotone, and values
            # that differ in their last bits tie, so later columns decide their order
            scaled = x * _SPLIT
            x = scaled - (scaled - x)
        return (1, x)
    if isinstance(value, bytes):
        return (3, value)
    return (2, str(value))


def _values_equal(a: object, b: object, tolerance: float) -> bool:
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=tolerance, abs_tol=1e-9)
    return a == b


def classify_outcome(
    generated: ExecutionResult, truth: ResultTable, policy: ComparisonPolicy
) -> ExecutionOutcome:
    """Map a generated query's execution against ground truth onto an outcome
    kind; a result truncated at the row cap is never a success."""
    if generated.error is not None:
        return ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, generated.error)
    table = generated.table
    assert table is not None
    if compare(table, truth, policy):
        return ExecutionOutcome(OutcomeKind.SUCCESS)
    if not table.rows and truth.rows:
        return ExecutionOutcome(
            OutcomeKind.EMPTY_TABLE,
            f"query returned no rows; expected {len(truth.rows)}",
        )
    detail = "result mismatch: got {}x{}, expected {}x{}".format(
        len(table.rows), len(table.columns), len(truth.rows), len(truth.columns)
    )
    if table.truncated or truth.truncated:
        detail += " (truncated at the row cap)"
    return ExecutionOutcome(OutcomeKind.UNDESIRED_RESULT, detail)
