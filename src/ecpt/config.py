"""Run configuration: one JSON file holding paths, backend settings, pipeline
options, training hyperparameters, and the pricing table.

Relative paths are resolved against the config file's directory. API keys are
never stored here; backends read them from the environment variable named in
`backend.api_key_env`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .embedding import DEFAULT_DIM, TripletConfig
from .errors import DataError
from .llm import LlmSettings
from .metrics import ModelPricing, pricing_from_config
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
    correction_cases: Path
    kb: Path
    projection: Path
    checkpoint: Path
    results: Path
    report: Path
    embedding_export: Path


@dataclass(frozen=True)
class BackendConfig:
    base_url: str = ""
    api_key_env: str = "ECPT_API_KEY"
    chat_model: str = "gpt-4-turbo"
    embedding_backend: str = "hash"  # "hash" or "http"
    embedding_model: str = ""
    embedding_dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        if type(self.embedding_dim) is not int or self.embedding_dim < 1:
            raise TypeError(f"embedding_dim must be a positive int: {self.embedding_dim!r}")
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


def _resolve(base: Path, value: str | None) -> Path | None:
    if value is None:
        return None
    path = Path(value)
    return path if path.is_absolute() else base / path


def load_config(path: str | Path) -> AppConfig:
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"config {path} is not valid JSON: {exc}") from exc
    base = path.parent

    dataset_raw = raw.get("dataset", {})
    for key in ("root", "schemas", "questions"):
        if key not in dataset_raw:
            raise DataError(f"config dataset section missing {key!r}")
    subset = dataset_raw.get("subset")
    dataset = DatasetConfig(
        root=_resolve(base, dataset_raw["root"]),
        schemas=_resolve(base, dataset_raw["schemas"]),
        questions=_resolve(base, dataset_raw["questions"]),
        exclusions=_resolve(base, dataset_raw.get("exclusions")),
        subset=tuple(subset) if subset else None,
    )

    paths_raw = raw.get("paths", {})

    def out_path(key: str, default: str) -> Path:
        return _resolve(base, paths_raw.get(key, default))

    paths = PathsConfig(
        correction_cases=out_path("correction_cases", "correction_cases.jsonl"),
        kb=out_path("kb", "kb.jsonl"),
        projection=out_path("projection", "projection.bin"),
        checkpoint=out_path("checkpoint", "checkpoint.jsonl"),
        results=out_path("results", "results.jsonl"),
        report=out_path("report", "report.json"),
        embedding_export=out_path("embedding_export", "embedding_export.jsonl"),
    )

    try:
        backend = BackendConfig(**raw.get("backend", {}))
    except TypeError as exc:
        raise DataError(f"bad backend section: {exc}") from exc

    try:
        options = PipelineOptions(**raw.get("options", {}))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad options section: {exc}") from exc

    try:
        llm = LlmSettings(model_name=backend.chat_model, **raw.get("llm", {}))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad llm section: {exc}") from exc

    try:
        training = TripletConfig(**raw.get("training", {}))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad training section: {exc}") from exc

    try:
        seed = int(raw.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad seed: {exc}") from exc

    pricing = pricing_from_config(raw.get("pricing", {}))
    return AppConfig(
        dataset=dataset,
        paths=paths,
        backend=backend,
        options=options,
        llm=llm,
        training=training,
        pricing=pricing,
        seed=seed,
    )
