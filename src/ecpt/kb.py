"""Vector store of labeled correction cases with exact top-k cosine retrieval.

Entries are small (hundreds of cases), so search is an exact linear scan over
unit vectors; similarity is the dot product.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import records
from .cases import (
    KB_FILE_VERSION,
    CorrectionCase,
    SchemaDescription,
    correction_case_from_record,
    correction_case_record,
    serialize_case,
)
from .embedding import DimensionMismatch, Embedder, ProjectionModel, embed
from .errors import DataError


class ModelMismatch(ValueError):
    """The store was built with a different projection model."""


@dataclass(frozen=True)
class KbEntry:
    id: int
    vector: np.ndarray
    correction_case: CorrectionCase


class KbStore:
    def __init__(self, dimension: int, model_hash: str):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._dimension = dimension
        self._model_hash = model_hash
        self._entries: list[KbEntry] = []
        self._next_id = 0
        self._matrix: np.ndarray | None = None
        self._lock = threading.Lock()

    @classmethod
    def for_model(cls, model: ProjectionModel) -> "KbStore":
        return cls(dimension=model.dim, model_hash=model.identity_hash())

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def model_hash(self) -> str:
        return self._model_hash

    @property
    def entries(self) -> tuple[KbEntry, ...]:
        return tuple(self._entries)

    def insert(
        self, correction_case: CorrectionCase, model: ProjectionModel, embedder: Embedder
    ) -> int:
        """Embed the case's structured text (result included) and append it."""
        if model.identity_hash() != self._model_hash:
            raise ModelMismatch(
                "projection model does not match the one this store was built with"
            )
        text = serialize_case(correction_case.case, include_result=True)
        vector = embed(text, model, embedder)
        return self.insert_vector(correction_case, vector)

    def insert_vector(self, correction_case: CorrectionCase, vector: np.ndarray) -> int:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self._dimension,):
            raise DimensionMismatch(
                f"vector shape {vector.shape} != ({self._dimension},)"
            )
        with self._lock:
            entry_id = self._next_id
            self._next_id += 1
            self._entries.append(
                KbEntry(id=entry_id, vector=vector, correction_case=correction_case)
            )
            self._matrix = None
        return entry_id

    def search(
        self,
        query_vector: np.ndarray,
        k: int,
        error_filter: Iterable[str] | None = None,
    ) -> list[tuple[KbEntry, float]]:
        """Top-k entries by cosine similarity, descending; ties break on ascending id.

        An error filter restricts candidates to entries whose error types
        intersect the given set. Returns fewer than k when candidates are scarce.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        query_vector = np.asarray(query_vector, dtype=np.float64)
        if query_vector.shape != (self._dimension,):
            raise DimensionMismatch(
                f"query shape {query_vector.shape} != ({self._dimension},)"
            )
        if error_filter is None:
            entries = self._entries
            matrix = self._full_matrix()
        else:
            wanted = set(error_filter)
            entries = [
                e
                for e in self._entries
                if wanted.intersection(e.correction_case.error_types)
            ]
            if not entries:
                return []
            matrix = np.stack([e.vector for e in entries])
        if not entries:
            return []
        similarities = matrix @ query_vector
        order = sorted(range(len(entries)), key=lambda i: (-similarities[i], entries[i].id))
        return [(entries[i], float(similarities[i])) for i in order[:k]]

    def _full_matrix(self) -> np.ndarray:
        with self._lock:
            if self._matrix is None and self._entries:
                self._matrix = np.stack([e.vector for e in self._entries])
            return self._matrix if self._matrix is not None else np.zeros((0, self._dimension))

    def persist(self, path: str | Path) -> None:
        header = {
            "version": KB_FILE_VERSION,
            "dimension": self._dimension,
            "model_hash": self._model_hash,
        }
        records.write(path, self._entries, _entry_record, header=header)

    @classmethod
    def load(
        cls, path: str | Path, schemas: Mapping[str, SchemaDescription]
    ) -> "KbStore":
        def entry(record: dict, header: dict) -> KbEntry:
            vector = np.asarray(record["vector"], dtype=np.float64)
            if vector.shape != (int(header["dimension"]),):
                raise DataError(f"vector dimension {vector.shape} != {header['dimension']}")
            return KbEntry(int(record["id"]), vector, correction_case_from_record(record, schemas))

        header, entries = records.read(
            path,
            "knowledge-base",
            entry,
            version=KB_FILE_VERSION,
            header_fields=("dimension", "model_hash"),
        )
        store = cls(dimension=int(header["dimension"]), model_hash=header["model_hash"])
        store._entries = entries
        store._next_id = 1 + max((e.id for e in entries), default=-1)
        return store


def _entry_record(entry: KbEntry) -> dict:
    return {
        "id": entry.id,
        **correction_case_record(entry.correction_case),
        "vector": entry.vector.tolist(),
    }
