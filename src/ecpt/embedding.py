"""Case embeddings and their trainable linear projection.

Base vectors come from a pluggable embedder (a deterministic hashing embedder
for offline use, or an HTTP service). On top of frozen base vectors sits a
square projection matrix trained with triplet loss so that cases sharing an
error label land closer together than cases with different labels.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Protocol, Sequence

import numpy as np

from . import records
from .errors import BackendError, DataError
from .transport import post_json_with_retries

DEFAULT_DIM = 768
PROJECTION_FILE_VERSION = "ecpt-proj/1"
# Texts per `embed_texts` request of `embed_all`. Not taken from any endpoint's
# documented input limit: whether a live endpoint accepts 256 inputs is unverified.
EMBED_CHUNK = 256


class DimensionMismatch(ValueError):
    pass


class GradientCheckInconclusive(ValueError):
    """Raised when the hinge sits too close to its kink to trust finite differences."""


class Embedder(Protocol):
    dim: int

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray: ...


_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


class HashingEmbedder:
    """Deterministic bag-of-tokens embedder.

    Each token is hashed into one of `dim` buckets and counted, then the
    vector is L2-normalized. No model weights, no network: reproducible and
    overlap-sensitive, which is all the offline pipeline and tests need.
    """

    def __init__(self, dim: int = DEFAULT_DIM):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for i, text in enumerate(texts):
            for token in _TOKEN_RE.findall(text.lower()):
                out[i, _token_bucket(token, self.dim)] += 1.0
        return _l2_normalize_rows(out)


@functools.lru_cache(maxsize=1 << 16)
def _token_bucket(token: str, dim: int) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % dim


class HttpEmbedder:
    """Client for an embeddings endpoint accepting {"model", "input": [texts]}
    and returning {"data": [{"index", "embedding"}]}."""

    def __init__(
        self,
        base_url: str,
        model: str,
        dim: int = DEFAULT_DIM,
        api_key_env: str = "ECPT_API_KEY",
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.dim = dim
        self._api_key_env = api_key_env

    def embed_texts(self, texts: Sequence[str]) -> np.ndarray:
        reply = post_json_with_retries(
            f"{self.base_url}/embeddings",
            {"model": self.model, "input": list(texts)},
            self._api_key_env,
        )
        try:
            data = sorted(reply["data"], key=lambda item: item["index"])
            vectors = np.asarray([item["embedding"] for item in data], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise BackendError(f"malformed embeddings reply: {exc}") from exc
        if vectors.shape != (len(texts), self.dim):
            raise DimensionMismatch(
                f"embedding backend returned shape {vectors.shape}, "
                f"expected ({len(texts)}, {self.dim})"
            )
        return _l2_normalize_rows(vectors)


def _l2_normalize_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    if np.all((norms > 0.0) & (norms < np.inf)):
        return matrix / norms
    return np.array([row / norm if 0.0 < norm < np.inf else _l2_normalize_scaled(row)
                     for row, norm in zip(matrix, norms[:, 0])])


def l2_normalize(vector: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vector))
    if 0.0 < norm < np.inf:
        return vector / norm
    return _l2_normalize_scaled(vector)


def _l2_normalize_scaled(vector: np.ndarray) -> np.ndarray:
    # x·x overflowed or underflowed: divide by the largest magnitude first
    with np.errstate(all="ignore"):
        scaled = vector / np.max(np.abs(vector), initial=0.0)
        unit = scaled / np.linalg.norm(scaled)
    if not (np.all(np.isfinite(unit)) and np.any(unit)):
        raise ValueError("cannot L2-normalize a zero or non-finite vector")
    return unit


@dataclass(frozen=True)
class _ProjectionHeader:
    """The first line of a projection file, as `ProjectionModel.save` writes it."""

    version: str
    dim: int
    seed: int = 0
    epochs: int = 0
    trained: bool = False

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")


class ProjectionModel:
    """Square linear map applied to base embeddings; identity until trained.

    `identity(dim)` holds no matrix: `weight` builds `np.eye(dim)` when read,
    and `embed`, `identity_hash` and `save` give what that matrix would give.
    A model is never changed after construction, so its hash is computed once.
    """

    def __init__(
        self, weight: np.ndarray, trained: bool = False, seed: int = 0, epoch_count: int = 0
    ):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2 or weight.shape[0] != weight.shape[1]:
            raise ValueError(f"projection weight must be square, got {weight.shape}")
        if not np.isfinite(weight).all():
            raise ValueError("projection weight contains non-finite entries")
        weight = weight.copy()
        weight.setflags(write=False)
        self._weight: np.ndarray | None = weight  # None for the identity
        self._dim = weight.shape[0]
        self.trained = trained
        self.seed = seed
        self.epoch_count = epoch_count
        self._hash: str | None = None

    @classmethod
    def identity(cls, dim: int = DEFAULT_DIM) -> "ProjectionModel":
        model = cls(weight=np.zeros((0, 0)))
        model._weight, model._dim = None, dim
        return model

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def weight(self) -> np.ndarray:
        if self._weight is not None:
            return self._weight
        weight = np.eye(self._dim)
        weight.setflags(write=False)
        return weight

    def _weight_bytes(self, dtype: str) -> Iterator[bytes]:
        """The weight's bytes in row-major order; the identity's one row at a time."""
        if self._weight is not None:
            yield np.ascontiguousarray(self._weight, dtype=dtype).tobytes()
            return
        row = np.zeros(self._dim, dtype=dtype)
        for i in range(self._dim):
            row[i] = 1.0
            yield row.tobytes()
            row[i] = 0.0

    def identity_hash(self) -> str:
        if self._hash is None:
            header = f"{PROJECTION_FILE_VERSION}|{self.dim}|{self.seed}|{self.epoch_count}|{self.trained}"
            digest = hashlib.sha256(header.encode("ascii"))
            for chunk in self._weight_bytes("=f8"):
                digest.update(chunk)
            self._hash = digest.hexdigest()
        return self._hash

    def save(self, path: str | Path) -> None:
        header = {
            "version": PROJECTION_FILE_VERSION,
            "dim": self.dim,
            "seed": self.seed,
            "epochs": self.epoch_count,
            "trained": self.trained,
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("ascii"))
            handle.writelines(self._weight_bytes("<f8"))

    @classmethod
    def load(cls, path: str | Path) -> "ProjectionModel":
        path = Path(path)
        if not path.exists():
            raise DataError(f"projection file not found: {path}")
        with open(path, "rb") as handle:
            try:
                header = records.decode(
                    _ProjectionHeader, json.loads(handle.readline().decode("utf-8")))
            except (DataError, ValueError) as exc:
                raise DataError(f"bad projection header in {path}: {exc}") from exc
            if header.version != PROJECTION_FILE_VERSION:
                raise DataError(f"unsupported projection file version {header.version!r} in "
                                f"{path} (expected {PROJECTION_FILE_VERSION!r})")
            blob = handle.read()
        expected = header.dim * header.dim * 8
        if len(blob) != expected:
            raise DataError(
                f"projection file {path} truncated: {len(blob)} bytes, expected {expected}"
            )
        weight = np.frombuffer(blob, dtype="<f8").reshape(header.dim, header.dim)
        return cls(weight, trained=header.trained, seed=header.seed, epoch_count=header.epochs)


def _chunks(texts: Sequence[str]) -> Iterator[Sequence[str]]:
    """The texts in requests of at most EMBED_CHUNK."""
    return (texts[start:start + EMBED_CHUNK] for start in range(0, len(texts), EMBED_CHUNK))


def _unit_bases(texts: Sequence[str], embedder: Embedder) -> Iterator[np.ndarray]:
    """Unit-norm base vector of each text, one `embed_texts` request per chunk."""
    for chunk in _chunks(texts):
        if not all(text.strip() for text in chunk):
            raise ValueError("cannot embed empty text")
        for vector in embedder.embed_texts(chunk):
            if not np.isfinite(vector).all():
                raise ValueError("embedder returned non-finite values")
            yield l2_normalize(vector)


def embed_base(text: str, embedder: Embedder) -> np.ndarray:
    """Unit-norm base vector for one text."""
    return next(_unit_bases([text], embedder))


def embed(text: str, model: ProjectionModel, embedder: Embedder) -> np.ndarray:
    """Unit-norm projected vector: normalize(weight @ base)."""
    return _project(embed_base(text, embedder), model)


def embed_all(
    texts: Sequence[str], model: ProjectionModel, embedder: Embedder
) -> Iterator[np.ndarray]:
    """`embed` of each text, from one `embed_texts` request per chunk of
    EMBED_CHUNK texts. Each row is projected on its own, because one product
    over the chunk's rows rounds them otherwise."""
    return (_project(base, model) for base in _unit_bases(texts, embedder))


def _project(base: np.ndarray, model: ProjectionModel) -> np.ndarray:
    if base.shape[0] != model.dim:
        raise DimensionMismatch(
            f"base vector dimension {base.shape[0]} != projection dimension {model.dim}"
        )
    if model._weight is None:
        # Bit-equal to np.eye(dim) @ base: the product turns -0.0 into +0.0 and
        # returns every other finite entry as it is, and so does `+ 0.0`
        return l2_normalize(base + 0.0)
    return l2_normalize(model.weight @ base)


@dataclass(frozen=True)
class TripletConfig:
    margin: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 20
    batch_size: int = 16

    def __post_init__(self) -> None:
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def squared_distance(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = a - b
    return float(diff @ diff)


def triplet_loss(
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 1.0,
) -> float:
    """Hinge loss max(0, d(a,p) - d(a,n) + margin) with squared Euclidean d."""
    return max(
        0.0,
        squared_distance(anchor, positive) - squared_distance(anchor, negative) + margin,
    )


def _batch_loss_and_gradient(
    weight: np.ndarray, a: np.ndarray, p: np.ndarray, n: np.ndarray, margin: float,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Hinge arguments d(Wa,Wp) - d(Wa,Wn) + margin of a batch of triplet rows,
    and the gradient with respect to W of the batch-mean triplet_loss, written
    into the first of `out`, two arrays shaped like W (the second is scratch)."""
    ap = a - p
    an = a - n
    wap = ap @ weight.T
    wan = an @ weight.T
    dp = np.einsum("ij,ij->i", wap, wap)
    dn = np.einsum("ij,ij->i", wan, wan)
    hinge = dp - dn + margin
    if not np.isfinite(hinge).all():
        raise ValueError("training diverged: non-finite triplet distances")
    active = hinge > 0.0  # with no active row, the gradient is all zeros
    grad, negative = out if out is not None else (np.empty_like(weight), np.empty_like(weight))
    # 2.0 * (wap' ap - wan' an) / len(a), the same operations in place
    np.matmul(wap[active].T, ap[active], out=grad)
    grad -= np.matmul(wan[active].T, an[active], out=negative)
    grad *= 2.0
    grad /= len(a)
    return hinge, grad


@dataclass(frozen=True)
class TrainResult:
    model: ProjectionModel
    epoch_losses: tuple[float, ...]


def train_projection(
    vectors: np.ndarray,
    labels: Sequence[str],
    config: TripletConfig = TripletConfig(),
    seed: int = 0,
) -> TrainResult:
    """Fit the projection on labeled base vectors by mini-batch SGD over triplets.

    Per epoch every anchor whose label has at least one other member gets one
    uniformly sampled same-label positive and different-label negative.
    Deterministic given (vector order, seed, config). Aborts on non-finite
    weights.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValueError("vectors must be a 2-D array")
    n, dim = vectors.shape
    if len(labels) != n:
        raise ValueError("labels must match vectors")
    by_label: dict[str, np.ndarray] = {}
    label_list = list(labels)
    for label in set(label_list):
        by_label[label] = np.flatnonzero(np.asarray([l == label for l in label_list]))
    if len(by_label) < 2:
        raise ValueError("training needs at least 2 distinct labels")
    usable = np.asarray(
        [i for i in range(n) if len(by_label[label_list[i]]) >= 2], dtype=np.int64
    )
    if usable.size == 0:
        raise ValueError("no label has at least one positive pair")

    rng = np.random.default_rng(seed)
    weight = np.eye(dim)
    buffers = (np.empty_like(weight), np.empty_like(weight))  # reused by every step
    epoch_losses: list[float] = []
    for _ in range(config.epochs):
        anchors = rng.permutation(usable)
        positives = np.empty_like(anchors)
        negatives = np.empty_like(anchors)
        for j, a in enumerate(anchors):
            group = by_label[label_list[a]]
            pos = a
            while pos == a:
                pos = int(group[rng.integers(len(group))])
            positives[j] = pos
            neg = a
            while label_list[neg] == label_list[a]:
                neg = int(rng.integers(n))
            negatives[j] = neg
        losses: list[float] = []
        for start in range(0, len(anchors), config.batch_size):
            batch = slice(start, start + config.batch_size)
            a = vectors[anchors[batch]]
            p = vectors[positives[batch]]
            q = vectors[negatives[batch]]
            hinge, grad = _batch_loss_and_gradient(weight, a, p, q, config.margin, buffers)
            losses.extend(np.maximum(hinge, 0.0).tolist())
            if (hinge > 0.0).any():
                grad *= config.learning_rate
                weight -= grad
            if not np.isfinite(weight).all():
                raise ValueError("training diverged: non-finite projection weights")
        epoch_losses.append(float(np.mean(losses)))
    model = ProjectionModel(
        weight=weight, trained=True, seed=seed, epoch_count=config.epochs
    )
    return TrainResult(model=model, epoch_losses=tuple(epoch_losses))


def train(
    cases: Sequence[tuple[str, str]],
    embedder: Embedder,
    config: TripletConfig = TripletConfig(),
    seed: int = 0,
) -> TrainResult:
    """Text-level wrapper: embed (text, label) pairs, then train the projection."""
    if not cases:
        raise ValueError("no training cases")
    texts = [text for text, _ in cases]
    labels = [label for _, label in cases]
    vectors = _l2_normalize_rows(embedder.embed_texts(texts))
    return train_projection(vectors, labels, config=config, seed=seed)


def gradient_check(
    weight: np.ndarray,
    anchor: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    margin: float = 1.0,
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between the training gradient, on a batch of one, and
    central differences of triplet_loss.

    The relative error is measured against the larger of the two gradients'
    max magnitudes. Raises GradientCheckInconclusive when the hinge argument
    sits within the guard band around zero, where finite differences straddle
    the kink.
    """
    weight = np.asarray(weight, dtype=np.float64)

    def loss_at(w: np.ndarray) -> float:
        return triplet_loss(w @ anchor, w @ positive, w @ negative, margin)

    hinge, analytic = _batch_loss_and_gradient(
        weight, anchor[None], positive[None], negative[None], margin
    )
    hinge_arg = float(hinge[0])
    guard = 100.0 * epsilon
    if abs(hinge_arg) <= guard:
        raise GradientCheckInconclusive(
            f"hinge argument {hinge_arg:.3e} within ±{guard:.3e} of the kink"
        )
    numeric = np.zeros_like(weight)
    for i in range(weight.shape[0]):
        for j in range(weight.shape[1]):
            bumped = weight.copy()
            bumped[i, j] += epsilon
            plus = loss_at(bumped)
            bumped[i, j] -= 2.0 * epsilon
            minus = loss_at(bumped)
            numeric[i, j] = (plus - minus) / (2.0 * epsilon)
    scale = max(float(np.abs(analytic).max()), float(np.abs(numeric).max()), 1e-12)
    return float(np.abs(analytic - numeric).max()) / scale
