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
    """Inverse of `to_record`, led by the field types of `cls`: each value must
    have its field's JSON type, an absent field takes its default, and a key
    that is not a field is a DataError unless it starts with `_` (an
    annotation)."""
    if type(record) is not dict:
        raise DataError(f"expected an object, got {record!r}")
    values = {}
    for name, plain, build in _fields(cls):  # hot: every line of a KB or case file
        value = record.get(name, dataclasses.MISSING)
        if value is not dataclasses.MISSING:  # a plain scalar of the field's type is kept
            values[name] = value if type(value) is plain else _named(name, build, value)
    if len(values) != len(record):  # a key that is no field, or an annotation
        for name in record:
            if name not in values and not name.startswith("_"):
                raise DataError(f"unknown field {name!r}")
    return cls(**values)


def decode(kind, value, name: str = ""):
    """`value`, the JSON form of a `kind` value, as one; a value that does not
    fit is a DataError that starts with `name`, when given."""
    return _named(name, _builder(kind), value)


def _named(name: str, build: Callable, value):
    try:
        return build(value)
    except (DataError, TypeError, ValueError) as exc:
        raise DataError(f"{name}: {exc}" if name else str(exc)) from exc


@functools.cache
def _fields(cls) -> tuple[tuple[str, type | None, Callable], ...]:
    """Each init field's name, its type if that is a JSON scalar's, and its builder."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name] if hints[f.name] in (bool, int, float, str) else None,
                  _builder(hints[f.name])) for f in dataclasses.fields(cls) if f.init)


def _checked(json_types: tuple[type, ...], what: str, convert: Callable | None = None):
    """A builder that takes only values of `json_types`, passed through `convert`."""
    def build(value):
        if type(value) not in json_types:
            raise DataError(f"expected {what}, got {value!r}")
        return value if convert is None else convert(value)
    return build


# a bool is no int, and an int is a float
_SCALARS = {bool: _checked((bool,), "a bool"), int: _checked((int,), "an int"),
            float: _checked((int, float), "a number", float), str: _checked((str,), "a string"),
            Path: _checked((str,), "a path string", Path)}


@functools.cache
def _builder(kind) -> Callable:
    """The function that turns the JSON form of a `kind` value back into one,
    checking its JSON type: a list is a tuple, and an object a dataclass or a
    dict, whose `_`-prefixed keys are skipped."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # `X | None`
        (inner,) = [arg for arg in args if arg is not type(None)]
        build = _builder(inner)
        return lambda value: None if value is None else build(value)
    if origin is tuple:  # `tuple[X, ...]`
        build = _builder(args[0])
        return _checked((list,), "a list", lambda value: tuple(map(build, value)))
    if origin is dict:  # `dict[str, X]`
        build = _builder(args[1])
        return _checked((dict,), "an object", lambda value: {
            key: _named(key, build, item) for key, item in value.items() if key[:1] != "_"})
    if dataclasses.is_dataclass(kind):
        return functools.partial(from_record, kind)
    if issubclass(kind, Enum):  # a member by its value, faster than calling `kind`
        members = {member.value: member for member in kind}
        return lambda value: members[value] if value in members else kind(value)
    return _SCALARS[kind]


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


def read_json(path: str | Path, what: str, kind=None, object_hook=None):
    """The JSON value in file `path`, decoded as a `kind` value when given; a
    missing file, bad UTF-8, bad JSON or a value that does not fit `kind` is
    one DataError naming `what` and the file."""
    try:
        value = json.loads(Path(path).read_bytes().decode("utf-8"), object_hook=object_hook)
    except FileNotFoundError:
        raise DataError(f"{what} not found: {path}") from None
    except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
        raise DataError(f"{what} {path} is not valid JSON: {exc}") from exc
    return value if kind is None else decode(kind, value, f"bad {what} {path}")


def read(
    path: str | Path,
    what: str,
    decode: Callable[[dict, dict], T],
    version: str | None = None,
    header_fields: Mapping[str, type] = {},
    torn_tail: bool = False,
    parse: Callable[[str], object] = json.loads,
) -> tuple[dict, list[T]]:
    """Return the header ({} without `version`) and `decode(parse(line), header)`
    of every record line, each line decoded from UTF-8; blank lines are skipped
    and every bad line, bad bytes included, raises DataError naming `path:line`.

    With `version`, the first line is a header whose "version" must equal it
    and which must hold `header_fields`, each of its type. With `torn_tail`, a final line without
    its newline, a write cut short, is dropped and cut from the file, so the
    next append starts a line of its own.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    header, items, number, torn = {}, [], 0, 0
    with open(path, "rb") as handle:
        if version is not None:
            number = 1
            try:
                header = json.loads(handle.readline().decode("utf-8"))
            except ValueError as exc:
                raise DataError(f"{path}:1: bad {what} header: {exc}") from exc
            found = header.get("version") if isinstance(header, dict) else None
            if found != version:
                raise DataError(
                    f"{path}:1: unsupported {what} version {found!r} (expected {version!r})")
            for name, kind in header_fields.items():
                if name not in header:
                    raise DataError(f"{path}:1: {what} header lacks {name}")
                header[name] = _named(f"{path}:1: {name}", _builder(kind), header[name])
        for number, line in enumerate(handle, start=number + 1):
            if torn_tail and not line.endswith(b"\n"):
                torn = len(line)
                break
            if line.isspace():  # blank
                continue
            # `record` stays bound until the next line is parsed: freeing it
            # before that raised the peak RSS of loading a 10k-entry KB by 17 MB
            try:
                record = parse(line.decode("utf-8"))
            except ValueError as exc:  # a UnicodeDecodeError or a JSONDecodeError
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
