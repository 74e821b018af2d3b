"""Loaders for Spider-format datasets: schema catalog, question files, and
SQLite database locations, with subset selection and exclusion lists."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from . import records
from .cases import SchemaDescription
from .errors import DataError

T = TypeVar("T")


def normalize_question(text: str) -> str:
    return " ".join(text.split())


def question_hash(text: str) -> str:
    """64-bit stable hash of the normalized question, as 16 hex digits."""
    digest = hashlib.blake2b(normalize_question(text).encode("utf-8"), digest_size=8)
    return digest.hexdigest()


@dataclass(frozen=True)
class DatasetItem:
    db_id: str
    question: str
    ground_truth_sql: str

    @property
    def ref(self) -> str:
        return f"{self.db_id}:{question_hash(self.question)}"


@dataclass(frozen=True)
class ExclusionList:
    """Items excluded from evaluation, keyed by (db_id, question hash)."""

    entries: frozenset[tuple[str, str]] = frozenset()

    def excludes(self, db_id: str, question: str) -> bool:
        return (db_id, question_hash(question)) in self.entries

    @classmethod
    def from_file(cls, path: str | Path) -> "ExclusionList":
        """One `db_id<TAB>hash` line per entry; blank lines are skipped."""
        _, entries = records.read(path, "exclusion list", _exclusion, parse=str)
        return cls(entries=frozenset(entries))

    def to_file(self, path: str | Path) -> None:
        lines = sorted(f"{db_id}\t{qhash}" for db_id, qhash in self.entries)
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def _exclusion(line: str, header: dict) -> tuple[str, str]:
    parts = line.rstrip("\r\n").split("\t")
    if len(parts) != 2:
        raise DataError("expected 'db_id<TAB>hash'")
    return parts[0], parts[1]


def _decode_entries(path: str | Path, what: str, fields: Mapping,
                    decode: Callable[..., T]) -> list[T]:
    """`decode(entry, *values)` of each object in the JSON list in file `path`,
    `values` being its `fields`, each decoded as its type; other keys are left
    to `decode`. A bad entry is a DataError naming the file and its index."""
    raw = records.read_json(path, what)
    if type(raw) is not list:
        raise DataError(f"{what} {path} is not a JSON list")
    decoded = []
    for index, entry in enumerate(raw):
        try:
            if type(entry) is not dict:
                raise DataError(f"expected an object, got {entry!r}")
            values = [records.decode(kind, entry[name], name) for name, kind in fields.items()]
            decoded.append(decode(entry, *values))
        except KeyError as exc:
            raise DataError(f"{path}: entry {index}: missing field {exc}") from exc
        except (DataError, TypeError, ValueError) as exc:
            raise DataError(f"{path}: entry {index}: {exc}") from exc
    return decoded


_TABLES_FIELDS = {"db_id": str, "table_names_original": tuple[str, ...],
                  "column_types": tuple[str, ...]}
_DEV_FIELDS = {"db_id": str, "question": str, "query": str}


def load_schemas(path: str | Path) -> dict[str, SchemaDescription]:
    """Load a Spider tables catalog into SchemaDescriptions keyed by db_id.

    Foreign keys arrive as column-index pairs and are resolved to named
    "table.column" references; a dangling index is a DataError.
    """

    def schema(entry: dict, db_id, table_names, column_types) -> SchemaDescription:
        column_names = entry["column_names_original"]
        if len(column_types) < len(column_names):
            raise DataError(f"{len(column_types)} column_types for {len(column_names)} columns")

        def resolve(index: int, what: str) -> str:
            if index <= 0 or index >= len(column_names):
                raise DataError(f"{db_id}: dangling column index {index} in {what}")
            table_index, column = column_names[index]
            return f"{table_names[table_index]}.{column}"

        columns_by_table: dict[int, list[tuple[str, str]]] = {
            i: [] for i in range(len(table_names))
        }
        for column_index, (table_index, column) in enumerate(column_names):
            if type(table_index) is not int or type(column) is not str:
                raise DataError(f"column {column_index} is not a [table index, name] pair")
            if table_index < 0:
                continue  # the synthetic "*" column
            if table_index >= len(table_names):
                raise DataError(f"column {column!r} names table {table_index} of {len(table_names)}")
            ctype = column_types[column_index].strip().lower()
            columns_by_table[table_index].append((column, ctype))
        tables = tuple(
            (name, tuple(columns_by_table[i])) for i, name in enumerate(table_names)
        )
        primary_keys = tuple(resolve(i, "primary_keys") for i in entry.get("primary_keys", ()))
        foreign_keys = tuple((resolve(src, "foreign_keys"), resolve(dst, "foreign_keys"))
                             for src, dst in entry.get("foreign_keys", ()))
        return SchemaDescription(db_id, tables, primary_keys, foreign_keys)

    schemas = _decode_entries(path, "schema catalog", _TABLES_FIELDS, schema)
    return {schema.db_id: schema for schema in schemas}


def load_items(
    path: str | Path,
    schemas: Mapping[str, SchemaDescription],
    exclusions: ExclusionList | None = None,
    subset: Sequence[str] | None = None,
) -> list[DatasetItem]:
    """Load question/query pairs in stable file order, filtered by subset and exclusions."""
    exclusions = exclusions or ExclusionList()
    wanted = set(subset) if subset is not None else None

    def item(entry: dict, db_id: str, question: str, query: str) -> DatasetItem | None:
        if db_id not in schemas:
            raise DataError(f"question references unknown db_id {db_id!r}")
        if (wanted is not None and db_id not in wanted) or exclusions.excludes(db_id, question):
            return None
        return DatasetItem(db_id=db_id, question=question, ground_truth_sql=query)

    items = _decode_entries(path, "question file", _DEV_FIELDS, item)
    return [item for item in items if item is not None]


def database_path(root: str | Path, db_id: str) -> Path:
    return Path(root) / "database" / db_id / f"{db_id}.sqlite"


def database_paths(root: str | Path, db_ids: Iterable[str]) -> dict[str, Path]:
    return {db_id: database_path(root, db_id) for db_id in db_ids}
