"""The record layer: dataclasses to JSON-ready dicts and back, and the
line-delimited JSON files that hold them (correction cases, the knowledge
base, checkpoints, results and exported embeddings)."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

from .errors import DataError

T = TypeVar("T")


def to_record(obj) -> dict:
    """Dataclass fields in declaration order; nested dataclasses become dicts,
    enums their values and tuples lists."""
    return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def _plain(value):
    if dataclasses.is_dataclass(value):
        return to_record(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


def from_record(cls: type[T], record: Mapping) -> T:
    """Inverse of `to_record`, led by the field types of `cls`; an absent field
    takes its default."""
    fields = _field_builders(cls)
    return cls(**{name: build(record[name]) for name, build in fields.items() if name in record})


@functools.cache
def _field_builders(cls) -> dict[str, Callable]:
    hints = typing.get_type_hints(cls)
    return {f.name: _builder(hints[f.name]) for f in dataclasses.fields(cls)}


def _builder(kind) -> Callable:
    """The function that turns the JSON form of a `kind` value back into one."""
    origin = typing.get_origin(kind)
    if origin in (typing.Union, types.UnionType):  # `X | None`
        (inner,) = [arg for arg in typing.get_args(kind) if arg is not type(None)]
        build = _builder(inner)
        return lambda value: None if value is None else build(value)
    if origin is tuple:  # `tuple[X, ...]`
        build = _builder(typing.get_args(kind)[0])
        return lambda value: tuple(map(build, value))
    if dataclasses.is_dataclass(kind):
        return functools.partial(from_record, kind)
    if issubclass(kind, Enum):
        return kind
    return lambda value: value


class Record:
    """Gives a dataclass `to_record` and `from_record`."""

    def to_record(self) -> dict:
        return to_record(self)

    @classmethod
    def from_record(cls, record: Mapping):
        return from_record(cls, record)


def write(
    path: str | Path, items: Iterable[T], encode: Callable[[T], Mapping], header=None
) -> None:
    """Write `header`, if given, then `encode(item)` for each item, one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        if header is not None:
            handle.write(json.dumps(header) + "\n")
        for item in items:
            handle.write(json.dumps(encode(item)) + "\n")


def read(
    path: str | Path,
    what: str,
    decode: Callable[[dict, dict], T],
    version: str | None = None,
    header_fields: tuple[str, ...] = (),
    torn_tail: bool = False,
    parse: Callable[[str], object] = json.loads,
) -> tuple[dict, list[T]]:
    """Return the header ({} without `version`) and `decode(parse(line), header)`
    of every record line; blank lines are skipped and every bad line raises
    DataError naming `path:line`.

    With `version`, the first line is a header whose "version" must equal it
    and which must hold `header_fields`. With `torn_tail`, a final line without
    its newline, a write cut short, is dropped and cut from the file, so the
    next append starts a line of its own.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    header, items, number, torn = {}, [], 0, 0
    with open(path, encoding="utf-8") as handle:
        if version is not None:
            number = 1
            try:
                header = json.loads(handle.readline())
            except json.JSONDecodeError as exc:
                raise DataError(f"bad {what} header in {path}: {exc}") from exc
            found = header.get("version") if isinstance(header, dict) else None
            if found != version:
                raise DataError(f"unsupported {what} version {found!r} (expected {version!r})")
            missing = [name for name in header_fields if name not in header]
            if missing:
                raise DataError(f"{what} header in {path} lacks {'/'.join(missing)}")
        for number, line in enumerate(handle, start=number + 1):
            if torn_tail and not line.endswith("\n"):
                torn = len(line.encode("utf-8"))
                break
            if not line.strip():
                continue
            # `record` stays bound until the next line is parsed: freeing it
            # before that raised the peak RSS of loading a 10k-entry KB by 17 MB
            try:
                record = parse(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{number}: corrupted record: {exc}") from exc
            try:
                items.append(decode(record, header))
            except KeyError as exc:
                raise DataError(f"{path}:{number}: missing field {exc}") from exc
            except (DataError, TypeError, ValueError, AttributeError) as exc:
                raise DataError(f"{path}:{number}: {exc}") from exc
    if torn:
        os.truncate(path, path.stat().st_size - torn)
    return header, items
