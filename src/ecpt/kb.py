"""Vector store of labeled correction cases with exact top-k cosine retrieval.

An exact flat inner-product index, in the manner of FAISS `IndexFlatIP`: one
float64 matrix of unit vectors, one row per entry, beside a bool label mask
with one column per `ERROR_CATALOG` id and an array of entry ids, all grown by
doubling. Each `KbEntry.vector` is a view of its matrix row. A search scores
the rows whose labels meet the filter by matrix-vector products (similarity is
the dot product) and keeps the k best exactly.

`nearest_per_label` answers option B's one-label, k=1 searches together: one
product over the whole store picks each label's best row, and a label takes it
only when its runner-up scores below it by more than a proven rounding margin
(the error bound of a dot product, scaled by the largest row norm). Any other
label runs `search` itself, so no returned entry or tie order differs.

Build a store on one thread, then search it from many: `insert`,
`insert_vector` and `load` change it without a lock, and `search` only reads.
`nearest_per_label` also caches the largest row norm, a value that concurrent
first calls compute alike. A filtered search gathers and scores its candidates
256 rows at a time, the last block taking the remainder, in a buffer of at most
512 rows (3 MB at dim 768) that each searching thread keeps on the store
(`threading.local`), freed with its thread or the store. At one BLAS thread the
blocks score bit-equal to one product over the candidates' whole stack (shown
with OpenBLAS on x86-64; see `_BLOCK_ROWS`); at more, that one product's own
bits move with the thread count.

The `ecpt-kb/1` JSONL file is the store's one source of truth. Beside it, a
`<file>.vectors` sidecar holds the same vectors as raw little-endian float64
under the file's SHA-256, so loading an unchanged file copies them instead of
decoding JSON floats; a stale or broken sidecar is ignored and written again.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import records
from .cases import (
    ERROR_CATALOG,
    KB_FILE_VERSION,
    CorrectionCase,
    SchemaDescription,
    correction_case_from_record,
    correction_case_record,
    serialize_case,
)
from .embedding import DimensionMismatch, Embedder, ProjectionModel, embed

_LABEL_COLUMNS = {error.id: column for column, error in enumerate(ERROR_CATALOG)}
VECTORS_SUFFIX = ".vectors"
VECTORS_VERSION = "ecpt-kb-vectors/1"
_VECTOR_MEMBER = ', "vector": ['  # how `persist` writes the last member of a line
# Candidates gathered and scored at a time; a multiple of 64. That blocks score
# bit-equal to one product over the whole stack rests on the BLAS kernel tiling
# rows by 64, and was shown only with OpenBLAS 0.3.31 (SkylakeX kernel, one
# thread) on an x86-64 Xeon: a parity failure on another BLAS or CPU points there.
_BLOCK_ROWS = 256


class ModelMismatch(ValueError):
    """The store was built with a different projection model."""


@dataclass(frozen=True)
class KbEntry:
    id: int
    vector: np.ndarray  # a view of the entry's row in its store's matrix
    correction_case: CorrectionCase


class KbStore:
    def __init__(self, dimension: int, model_hash: str):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._dimension = dimension
        self._model_hash = model_hash
        self._cases: list[CorrectionCase] = []
        self._vectors = np.zeros((0, dimension), dtype="<f8")  # the sidecar's byte order
        self._labels = np.zeros((0, len(ERROR_CATALOG)), dtype=bool)
        self._ids = np.zeros(0, dtype=np.int64)
        self._next_id = 0
        self._largest_norm: float | None = None  # of any row; `_append` clears it
        self._local = threading.local()  # each searching thread's gather buffer

    @classmethod
    def for_model(cls, model: ProjectionModel) -> "KbStore":
        return cls(dimension=model.dim, model_hash=model.identity_hash())

    def __len__(self) -> int:
        return len(self._cases)

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def model_hash(self) -> str:
        return self._model_hash

    @property
    def entries(self) -> tuple[KbEntry, ...]:
        return tuple(map(self._entry, range(len(self._cases))))

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
        return self._append(self._next_id, correction_case, vector)

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
        n = len(self._cases)
        if error_filter is None:
            rows, scores = np.arange(n), self._vectors[:n] @ query_vector
        else:
            columns = [_LABEL_COLUMNS[t] for t in set(error_filter) if t in _LABEL_COLUMNS]
            rows = np.flatnonzero(self._labels[:n, columns].any(axis=1))
            # Score gathered copies of the candidates, never the whole matrix:
            # BLAS rounds a row's dot product by the row's position in its
            # matrix, and only the gathered rows score bit-equal to the
            # candidates stacked alone, so exact ties between twins stay ties.
            # At one BLAS thread that holds block by block too, when every
            # block edge is a multiple of 64 rows and the last block takes the
            # remainder (256 to 511 rows). "clip" (rows are below n) gathers
            # straight into the thread's buffer, "raise" via a copy.
            size = min(n, 2 * _BLOCK_ROWS)
            buffer = getattr(self._local, "buffer", None)
            if buffer is None or len(buffer) < size:  # the store grew past it
                buffer = self._local.buffer = np.empty((size, self._dimension))
            scores = np.empty(len(rows))
            starts = range(0, max(len(rows) - _BLOCK_ROWS + 1, 1), _BLOCK_ROWS)
            for start, stop in zip(starts, [*starts[1:], len(rows)]):
                block = np.take(self._vectors, rows[start:stop], axis=0,
                                out=buffer[: stop - start], mode="clip")
                np.matmul(block, query_vector, out=scores[start:stop])
        if k < len(rows):
            kth = np.partition(scores, len(rows) - k)[len(rows) - k]
            keep = np.flatnonzero(scores >= kth)  # the k best and every tie with the k-th
            rows, scores = rows[keep], scores[keep]
        order = np.lexsort((self._ids[rows], -scores))[:k]
        return [
            (self._entry(row), score)
            for row, score in zip(rows[order].tolist(), scores[order].tolist())
        ]

    def nearest_per_label(
        self, query_vector: np.ndarray, labels: Iterable[str]
    ) -> dict[str, KbEntry]:
        """For each label, the entry `search(query_vector, 1, {label})` returns;
        labels without entries are left out.

        One product `M[:n] @ q` scores the whole store and finds each label's
        best row. That row is the answer only when every other row of the label
        scores more than `_winning_margin` below it. Any other label (twins and
        near-ties), and every label when a score is not finite, runs `search`.
        """
        query_vector = np.asarray(query_vector, dtype=np.float64)
        if query_vector.shape != (self._dimension,):
            raise DimensionMismatch(
                f"query shape {query_vector.shape} != ({self._dimension},)"
            )
        n, labels = len(self._cases), list(labels)
        known = [label for label in labels if label in _LABEL_COLUMNS]
        if n == 0 or not known:
            return {}
        scores = self._vectors[:n] @ query_vector
        nearest: dict[str, KbEntry] = {}
        unclear = known
        if np.isfinite(scores).all():
            columns = [_LABEL_COLUMNS[label] for label in known]
            masked = np.where(self._labels[:n, columns].T, scores, -np.inf)
            best, picked = masked.argmax(axis=1), np.arange(len(known))
            top = masked[picked, best]
            masked[picked, best] = -np.inf  # leaves each label's runner-up on top
            clear = masked.max(axis=1) < top - self._winning_margin(query_vector)
            unclear = []
            for label, row, wins, score in zip(known, best.tolist(), clear, top):
                if wins:
                    nearest[label] = self._entry(row)
                elif score > -np.inf:  # the label has rows
                    unclear.append(label)
        for label in unclear:
            hits = self.search(query_vector, 1, {label})
            if hits:
                nearest[label] = hits[0][0]
        return {label: nearest[label] for label in labels if label in nearest}

    def _winning_margin(self, query_vector: np.ndarray) -> float:
        """A gap on the shared scores that makes a label's best row the strict
        winner of the gathered product `search` scores, too.

        For any summation order, FMA included, a computed dot product of length
        d lies within gamma_d * sum|m_i q_i| <= gamma_d * ||m|| * ||q|| of the
        exact one, gamma_d = d*u / (1 - d*u), u = 2**-53 (Higham, Accuracy and
        Stability of Numerical Algorithms, 2002, section 3.1), plus d * 2**-1074
        for products that underflow. So with N the largest row norm, each score
        is within e = gamma_d * N * ||q|| + d * 2**-1074 of exact, a row's shared
        and gathered scores differ by at most 2e, and a shared gap above 4e
        leaves the gathered gap positive. The margin is 8e: the factor 2 covers
        the rounding of the norms, of the margin and of `top - margin`. A sum of
        squares loses at most d * 2**-1074 to squares that underflow, which is
        added back before its square root.
        """
        d = self._dimension
        if self._largest_norm is None:
            rows = self._vectors[: len(self._cases)]
            squares = np.einsum("ij,ij->i", rows, rows).max()
            self._largest_norm = math.sqrt(squares + d * 2.0**-1074)
        query_norm = math.sqrt(float(query_vector @ query_vector) + d * 2.0**-1074)
        gamma = d * 2.0**-53 / (1 - d * 2.0**-53)
        return 8 * (gamma * self._largest_norm * query_norm + d * 2.0**-1074)

    def _append(self, entry_id: int, correction_case: CorrectionCase, vector) -> int:
        """Write a checked vector into the next row; None leaves the row for
        `load` to fill."""
        row = len(self._cases)
        self._reserve(row + 1)
        if vector is not None:
            self._vectors[row] = vector
        for label in correction_case.error_types:
            self._labels[row, _LABEL_COLUMNS[label]] = True
        self._ids[row] = entry_id
        self._largest_norm = None
        self._cases.append(correction_case)
        self._next_id = max(self._next_id, entry_id + 1)
        return entry_id

    def _reserve(self, rows: int) -> None:
        """Make room for `rows` entries; a capacity that grows at least doubles."""
        if rows <= len(self._ids):
            return
        capacity, n, grown = max(rows, 2 * len(self._ids)), len(self._cases), []
        for array in (self._vectors, self._labels, self._ids):
            grown.append(np.zeros((capacity, *array.shape[1:]), dtype=array.dtype))
            grown[-1][:n] = array[:n]
        self._vectors, self._labels, self._ids = grown

    def _entry(self, row: int) -> KbEntry:
        return KbEntry(int(self._ids[row]), self._vectors[row], self._cases[row])

    def persist(self, path: str | Path) -> None:
        header = {
            "version": KB_FILE_VERSION,
            "dimension": self._dimension,
            "model_hash": self._model_hash,
        }
        records.write(path, self.entries, _entry_record, header=header)
        _write_vectors(path, _sha256(path), self._vectors[: len(self)])

    @classmethod
    def load(
        cls, path: str | Path, schemas: Mapping[str, SchemaDescription]
    ) -> "KbStore":
        """Read a KB file; its vectors come from the `.vectors` sidecar when that
        holds this file's SHA-256, dimension and row count, else from a second
        pass over the JSON, which then rewrites the sidecar."""

        ids: list[int] = []

        def entry(record: dict, header: dict) -> CorrectionCase:
            record.pop("vector", None)  # `_without_vector` leaves it when it is not last
            ids.append(records.decode(int, record.pop("id"), "id"))
            return correction_case_from_record(record, schemas)

        header, cases = records.read(path, "knowledge-base", entry, version=KB_FILE_VERSION,
                                     header_fields={"dimension": int, "model_hash": str},
                                     parse=_without_vector)
        digest = _sha256(path)  # before the rows: hashed after, a 300-entry load took 13% longer
        store = cls(dimension=header["dimension"], model_hash=header["model_hash"])
        store._reserve(len(cases))
        for entry_id, correction_case in zip(ids, cases):
            store._append(entry_id, correction_case, None)
        vectors = store._vectors[: len(store)]
        if not _read_vectors(path, digest, vectors):
            rows = iter(vectors)

            def fill(record: dict, header: dict) -> None:
                vector = record["vector"]
                if len(vector) != store.dimension:
                    raise DimensionMismatch(f"vector dimension {len(vector)} != {store.dimension}")
                next(rows)[:] = vector

            records.read(path, "knowledge-base", fill, version=KB_FILE_VERSION)
            _write_vectors(path, digest, vectors)
        return store


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _without_vector(line: str) -> dict:
    """A KB line's record without its `vector` when that is the line's last
    member, read apart from the rest; else the whole record."""
    body = line.rstrip()
    cut = body.rfind(_VECTOR_MEMBER)
    # the list opened at `cut` closes only at the line's end: `vector` is last
    if cut > 0 and body.find("]", cut) == len(body) - 2 and body.endswith("}"):
        try:
            return json.loads(body[:cut] + "}")
        except json.JSONDecodeError:
            pass  # the whole line's error is the one to report
    return json.loads(line)


def _read_vectors(path: str | Path, digest: str, rows: np.ndarray) -> bool:
    """Fill `rows` from the sidecar of the file with this digest when it holds
    exactly as many rows of their dimension; False when it is missing, stale
    or malformed."""
    try:
        with open(f"{path}{VECTORS_SUFFIX}", "rb") as handle:
            header = json.loads(handle.readline(4096))
            block = rows.reshape(-1).view(np.uint8)
            return (header["version"] == VECTORS_VERSION and header["sha256"] == digest
                    and (int(header["rows"]), int(header["dimension"])) == rows.shape
                    and os.fstat(handle.fileno()).st_size - handle.tell() == block.size
                    and handle.readinto(block) == block.size)
    except (OSError, ValueError, KeyError, TypeError):
        return False


def _write_vectors(path: str | Path, digest: str, vectors: np.ndarray) -> None:
    """Write the sidecar of the file with this digest through a temp file and
    `os.replace`; a directory that refuses the write only leaves it unwritten."""
    sidecar = f"{path}{VECTORS_SUFFIX}"
    temp = f"{sidecar}.{os.getpid()}.tmp"
    header = {"version": VECTORS_VERSION, "sha256": digest, "rows": len(vectors),
              "dimension": vectors.shape[1]}
    try:
        with open(temp, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("ascii"))
            handle.write(np.ascontiguousarray(vectors).data)
        os.replace(temp, sidecar)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)


def _entry_record(entry: KbEntry) -> dict:
    return {
        "id": entry.id,
        **correction_case_record(entry.correction_case),
        "vector": entry.vector.tolist(),
    }
