"""Run configuration: one JSON file holding paths, backend settings, pipeline
options, training hyperparameters, and the pricing table.

Relative paths are resolved against the config file's directory. API keys are
never stored here; backends read them from the environment variable named in
`backend.api_key_env`.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path

from . import records
from .embedding import DEFAULT_DIM, TripletConfig
from .errors import DataError
from .llm import LlmSettings
from .metrics import ModelPricing
from .pipeline import PipelineOptions


@dataclass(frozen=True)
class DatasetConfig:
    root: Path
    schemas: Path
    questions: Path
    exclusions: Path | None = None
    subset: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PathsConfig:
    correction_cases: Path = Path("correction_cases.jsonl")
    kb: Path = Path("kb.jsonl")
    projection: Path = Path("projection.bin")
    checkpoint: Path = Path("checkpoint.jsonl")
    results: Path = Path("results.jsonl")
    report: Path = Path("report.json")
    embedding_export: Path = Path("embedding_export.jsonl")


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = ""
    api_key_env: str = "ECPT_API_KEY"
    chat_model: str = "gpt-4-turbo"
    embedding_backend: str = "hash"  # "hash" or "http"
    embedding_model: str = ""
    embedding_dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        if self.embedding_dim < 1:
            raise ValueError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if self.embedding_backend not in ("hash", "http"):
            raise DataError(
                f"embedding_backend must be 'hash' or 'http', got {self.embedding_backend!r}"
            )


@dataclass(frozen=True)
class AppConfig:
    dataset: DatasetConfig
    paths: PathsConfig
    backend: BackendConfig
    options: PipelineOptions
    llm: LlmSettings
    training: TripletConfig
    pricing: dict[str, ModelPricing]
    seed: int = 0


def load_config(path: str | Path) -> AppConfig:
    """Decode every section with `records.decode`: a value of the wrong JSON
    type, an unknown key or an unknown section is a DataError, and keys that
    start with `_` are annotations. `llm.model_name` is `backend.chat_model`."""
    path = Path(path)
    raw = records.read_json(path, "config file")
    if type(raw) is not dict:
        raise DataError(f"config {path} is not a JSON object")
    sections = typing.get_type_hints(AppConfig)
    unknown = [key for key in raw if key not in sections and not key.startswith("_")]
    if unknown:
        raise DataError(f"unknown config section {unknown[0]!r}")
    values = {}
    for name, kind in sections.items():
        section = raw.get(name, 0 if kind is int else {})
        try:
            if name == "llm" and type(section) is dict:
                if "model_name" in section:
                    raise DataError("model_name is backend.chat_model, not an llm key")
                section = {**section, "model_name": values["backend"].chat_model}
            values[name] = records.decode(kind, section)
        except DataError as exc:
            raise DataError(f"bad {'seed' if name == 'seed' else name + ' section'}: {exc}") \
                from exc
    for name in ("dataset", "paths"):  # relative paths resolve against the config's directory
        section = values[name]
        values[name] = dataclasses.replace(section, **{
            f.name: path.parent / value for f in dataclasses.fields(section)
            if isinstance(value := getattr(section, f.name), Path)})
    return AppConfig(**values)
