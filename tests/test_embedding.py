from __future__ import annotations

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpt.embedding import (
    PROJECTION_FILE_VERSION,
    DimensionMismatch,
    GradientCheckInconclusive,
    HashingEmbedder,
    ProjectionModel,
    TripletConfig,
    embed,
    embed_base,
    gradient_check,
    l2_normalize,
    squared_distance,
    train,
    train_projection,
    triplet_loss,
)
from ecpt.cases import serialize_case
from ecpt.embedding import _batch_loss_and_gradient, _l2_normalize_rows, _token_bucket
from ecpt.errors import DataError

from fixtures import make_training_cases


class StubEmbedder:
    """Maps texts to fixed vectors; for linear-algebra-level assertions."""

    def __init__(self, mapping: dict[str, np.ndarray]):
        self._mapping = {k: np.asarray(v, dtype=np.float64) for k, v in mapping.items()}
        self.dim = len(next(iter(self._mapping.values())))

    def embed_texts(self, texts):
        return np.stack([self._mapping[t] for t in texts])


def make_synthetic(dim, n_labels, per_label, sigma, seed):
    """Noisy unit-norm copies of random unit prototypes, one prototype per label."""
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(n_labels, dim))
    prototypes /= np.linalg.norm(prototypes, axis=1, keepdims=True)
    vectors, labels = [], []
    for k in range(n_labels):
        for _ in range(per_label):
            v = prototypes[k] + sigma / np.sqrt(dim) * rng.normal(size=dim)
            vectors.append(v / np.linalg.norm(v))
            labels.append(f"L{k}")
    return np.asarray(vectors), labels


def precision_at_1(vectors, labels, weight):
    """Brute-force nearest-neighbor label agreement under a projection."""
    projected = vectors @ np.asarray(weight).T
    projected = projected / np.linalg.norm(projected, axis=1, keepdims=True)
    similarities = projected @ projected.T
    np.fill_diagonal(similarities, -np.inf)
    nearest = similarities.argmax(axis=1)
    return float(np.mean([labels[i] == labels[j] for i, j in enumerate(nearest)]))


# --- base embedder ---------------------------------------------------------------

def test_vectors_are_unit_norm():
    embedder = HashingEmbedder(dim=64)
    vector = embed_base("how many singers are there", embedder)
    assert abs(np.linalg.norm(vector) - 1.0) <= 1e-6


def test_hashing_embedder_is_deterministic():
    embedder = HashingEmbedder(dim=128)
    a = embed_base("select name from singer", embedder)
    b = embed_base("select name from singer", embedder)
    assert np.array_equal(a, b)


def _uncached_hash_embedding(text: str, dim: int) -> np.ndarray:
    """The hashing embedder's definition, with no memo in the way."""
    vector = np.zeros(dim)
    for token in re.findall(r"[A-Za-z0-9_]+", text.lower()):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        vector[int.from_bytes(digest, "big") % dim] += 1.0
    return vector / np.linalg.norm(vector)


def test_memoised_token_buckets_keep_vectors_bit_equal():
    texts = ["SELECT name FROM singer WHERE age > 30", "how many singers are there", "x_1 Y2 x_1"]
    _token_bucket.cache_clear()
    for dim in (48, 48, 31, 48, 31):  # cold, warm, then two dims in turn
        vectors = HashingEmbedder(dim=dim).embed_texts(texts)
        for text, vector in zip(texts, vectors):
            assert vector.tobytes() == _uncached_hash_embedding(text, dim).tobytes()
    assert _token_bucket.cache_info().hits > 0


def test_token_overlap_orders_similarity():
    embedder = HashingEmbedder(dim=64)
    base = "select the name of every singer in the list"
    half_overlap = "select the name of four people please now"
    disjoint = "zebra quartz mango bicycle seven rainbow drum kettle"
    va = embed_base(base, embedder)
    vb = embed_base(half_overlap, embedder)
    vc = embed_base(disjoint, embedder)
    assert float(va @ vc) < float(va @ vb)


def test_embed_base_rejects_empty_text():
    with pytest.raises(ValueError):
        embed_base("   ", HashingEmbedder(dim=16))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "entries, unit",
    [([1e200, 1.0], [1.0, 1e-200]), ([1e-170, 1e-170, 0.0], [0.5**0.5, 0.5**0.5, 0.0])],
)
def test_l2_normalize_survives_a_norm_that_overflows_or_underflows(entries, unit):
    # x·x is inf for the first and 0 for the second
    assert np.allclose(l2_normalize(np.array(entries)), unit, rtol=1e-15, atol=0)
    plain = np.arange(1.0, len(entries) + 1)
    rows = _l2_normalize_rows(np.array([plain, entries]))
    assert np.allclose(rows[1], unit, rtol=1e-15, atol=0)
    assert rows[0].tobytes() == (plain / np.linalg.norm(plain)).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entries", [[0.0, 0.0], [np.inf, 1.0], [np.nan, 1.0], []])
def test_l2_normalize_rejects_zero_and_non_finite_vectors(entries):
    with pytest.raises(ValueError, match="zero or non-finite"):
        l2_normalize(np.array(entries))
    with pytest.raises(ValueError, match="zero or non-finite"):
        _l2_normalize_rows(np.array([entries]))


# --- projection ---------------------------------------------------------------------

def test_identity_model_reproduces_base():
    embedder = HashingEmbedder(dim=32)
    model = ProjectionModel.identity(32)
    text = "group by year and count rows"
    assert np.allclose(embed(text, model, embedder), embed_base(text, embedder))


def _awkward_bases(dim: int) -> dict[str, np.ndarray]:
    """Finite base vectors with negative, -0.0, subnormal and large entries."""
    signs = np.where(np.arange(dim) % 3 == 0, 1.0, -1.0)
    small = [-0.75, -0.0, 1e-310, -3e-310, 5e-324, 0.0, 2.5, -1.0]
    large = [1e150, -1e150, -0.0, 3.0, -2e149, 0.0, 7e100, -1e-300]
    return {"small": np.resize(small, dim) * signs, "large": np.resize(large, dim) * signs}


@pytest.mark.parametrize("dim", [8, 768])
def test_identity_embeds_saves_and_hashes_as_the_eye_matrix(tmp_path, dim):
    embedder = StubEmbedder(_awkward_bases(dim))
    identity, eye = ProjectionModel.identity(dim), ProjectionModel(weight=np.eye(dim))
    for text in ("small", "large"):
        reference = l2_normalize(np.eye(dim) @ embed_base(text, embedder))
        assert embed(text, identity, embedder).tobytes() == reference.tobytes()
        assert embed(text, eye, embedder).tobytes() == reference.tobytes()
    assert np.array_equal(identity.weight, np.eye(dim))
    identity.save(tmp_path / "identity.bin")
    eye.save(tmp_path / "eye.bin")
    assert (tmp_path / "identity.bin").read_bytes() == (tmp_path / "eye.bin").read_bytes()
    assert identity.identity_hash() == eye.identity_hash()


def test_identity_projection_allocates_no_matrix():
    embedder = HashingEmbedder(dim=768)
    embed("warm the token cache", ProjectionModel.identity(768), embedder)
    tracemalloc.start()
    try:
        model = ProjectionModel.identity(768)
        model.identity_hash()
        embed("select name from singer where age > 30", model, embedder)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # np.eye(768) alone is 4.7 MB


def test_zeroed_weight_column_ignores_that_coordinate():
    v1 = np.array([0.6, 0.8, 0.0])
    v2 = np.array([0.6, 0.8, 0.5])
    embedder = StubEmbedder({"t1": v1 / np.linalg.norm(v1), "t2": v2 / np.linalg.norm(v2)})
    weight = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [0.0, 1.0, 0.0]])
    model = ProjectionModel(weight=weight)
    # weight column 2 is zero, so the third base coordinate cannot influence output
    assert np.allclose(embed("t1", model, embedder), embed("t2", model, embedder))


def test_embed_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        embed("some text", ProjectionModel.identity(8), HashingEmbedder(dim=16))


def test_projection_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        ProjectionModel(weight=np.zeros((2, 3)))
    bad = np.eye(4)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        ProjectionModel(weight=bad)


def test_projection_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    model = ProjectionModel(
        weight=rng.normal(size=(16, 16)), trained=True, seed=9, epoch_count=20
    )
    path = tmp_path / "proj.bin"
    model.save(path)
    loaded = ProjectionModel.load(path)
    assert np.array_equal(loaded.weight, model.weight)
    assert loaded.trained and loaded.seed == 9 and loaded.epoch_count == 20
    assert loaded.identity_hash() == model.identity_hash()


def test_projection_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "proj.bin"
    path.write_bytes(b'{"version": "ecpt-proj/999", "dim": 2}\n' + b"\x00" * 32)
    with pytest.raises(DataError, match="version"):
        ProjectionModel.load(path)


def test_projection_load_rejects_truncated_file(tmp_path):
    model = ProjectionModel.identity(8)
    path = tmp_path / "proj.bin"
    model.save(path)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(DataError, match="truncated"):
        ProjectionModel.load(path)


@pytest.mark.parametrize(
    "header, message",
    [
        (b'{"version": "ecpt-proj/1", "seed": 0}', "dim"),
        (b'["ecpt-proj/1", 2]', "expected an object"),
        (b'{"version": "ecpt-proj/1", "dim": 2, "trained": "\xff"}', "utf-8"),
        (b'{"version": "ecpt-proj/1", "dim": "2"}', "dim: expected an int"),
        (b'{"version": "ecpt-proj/1", "dim": -2}', "dim must be >= 1"),
    ],
    ids=["no_dim", "a_list", "bad_byte", "string_dim", "negative_dim"],
)
def test_a_bad_projection_header_names_the_file(tmp_path, header, message):
    path = tmp_path / "proj.bin"
    path.write_bytes(header + b"\n" + b"\x00" * 32)
    with pytest.raises(DataError, match=rf"bad projection header in .*proj\.bin: .*{message}"):
        ProjectionModel.load(path)


def test_identity_hash_depends_on_weights_and_shape():
    assert ProjectionModel.identity(8).identity_hash() != ProjectionModel.identity(16).identity_hash()
    nudged = np.eye(8)
    nudged[0, 1] = 1e-9
    assert ProjectionModel(weight=nudged).identity_hash() != ProjectionModel.identity(8).identity_hash()


def _header_and_weight_sha256(model: ProjectionModel) -> str:
    header = (
        f"{PROJECTION_FILE_VERSION}|{model.dim}|{model.seed}|"
        f"{model.epoch_count}|{model.trained}"
    )
    digest = hashlib.sha256(header.encode("ascii"))
    digest.update(np.ascontiguousarray(model.weight).tobytes())
    return digest.hexdigest()


def test_identity_hash_is_the_header_and_weight_sha256():
    trained = ProjectionModel(
        weight=np.random.default_rng(4).normal(size=(8, 8)),
        trained=True,
        seed=4,
        epoch_count=12,
    )
    for model in (ProjectionModel.identity(8), trained):
        expected = _header_and_weight_sha256(model)
        assert model.identity_hash() == expected
        assert model.identity_hash() == expected  # the cached value on later calls


# --- triplet loss ----------------------------------------------------------------------

def _vector_with_distance(d: float, dim: int = 4) -> np.ndarray:
    v = np.zeros(dim)
    v[0] = np.sqrt(d)
    return v


def test_triplet_loss_inactive_hinge():
    anchor = np.zeros(4)
    positive = _vector_with_distance(0.2)
    negative = _vector_with_distance(0.9)
    assert triplet_loss(anchor, positive, negative, margin=0.5) == 0.0


def test_triplet_loss_active_hinge_arithmetic():
    anchor = np.zeros(4)
    positive = _vector_with_distance(0.8)
    negative = _vector_with_distance(0.3)
    assert triplet_loss(anchor, positive, negative, margin=0.5) == pytest.approx(1.0)


def test_triplet_loss_anchor_equals_positive():
    anchor = _vector_with_distance(0.1)
    negative = _vector_with_distance(0.9)
    d_an = squared_distance(anchor, negative)
    assert triplet_loss(anchor, anchor, negative, margin=0.5) == pytest.approx(
        max(0.0, 0.5 - d_an)
    )


def test_triplet_loss_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        triplet_loss(np.zeros(3), np.zeros(4), np.zeros(4))


@settings(max_examples=100)
@given(
    data=st.lists(st.floats(-2, 2), min_size=12, max_size=12),
    margin=st.floats(0.01, 2.0),
)
def test_triplet_loss_non_negative_and_zero_when_separated(data, margin):
    a = np.asarray(data[:4])
    p = np.asarray(data[4:8])
    n = np.asarray(data[8:])
    loss = triplet_loss(a, p, n, margin)
    assert loss >= 0.0
    if squared_distance(a, p) + margin <= squared_distance(a, n):
        assert loss == 0.0


# --- training --------------------------------------------------------------------------

def close_two_clusters(seed=5):
    # prototypes at cosine 0.7: labels separable but the hinge starts active
    rng = np.random.default_rng(seed)
    a = np.zeros(16)
    a[0] = 1.0
    b = np.zeros(16)
    b[0] = 0.7
    b[1] = np.sqrt(1.0 - 0.49)
    vectors, labels = [], []
    for prototype, label in ((a, "A"), (b, "B")):
        for _ in range(12):
            v = prototype + 0.1 / np.sqrt(16) * rng.normal(size=16)
            vectors.append(v / np.linalg.norm(v))
            labels.append(label)
    return np.asarray(vectors), labels


def fixed_triplet_mean_loss(weight, vectors, labels, margin=1.0, seed=99):
    rng = np.random.default_rng(seed)
    weight = np.asarray(weight)
    losses = []
    for a in range(len(labels)):
        same = [i for i in range(len(labels)) if labels[i] == labels[a] and i != a]
        other = [i for i in range(len(labels)) if labels[i] != labels[a]]
        p = same[rng.integers(len(same))]
        n = other[rng.integers(len(other))]
        losses.append(
            triplet_loss(weight @ vectors[a], weight @ vectors[p], weight @ vectors[n], margin)
        )
    return float(np.mean(losses))


def test_config_rejects_zero_epochs():
    with pytest.raises(ValueError):
        TripletConfig(epochs=0)


def test_one_epoch_reduces_loss_on_two_clusters():
    vectors, labels = close_two_clusters()
    before = fixed_triplet_mean_loss(np.eye(16), vectors, labels)
    result = train_projection(
        vectors, labels, TripletConfig(learning_rate=3e-2, epochs=1), seed=3
    )
    after = fixed_triplet_mean_loss(result.model.weight, vectors, labels)
    assert after < before


def test_training_is_bitwise_reproducible():
    vectors, labels = make_synthetic(16, 4, 8, sigma=1.5, seed=2)
    config = TripletConfig(learning_rate=1e-2, epochs=5)
    first = train_projection(vectors, labels, config, seed=42)
    second = train_projection(vectors, labels, config, seed=42)
    assert first.model.weight.tobytes() == second.model.weight.tobytes()
    assert first.epoch_losses == second.epoch_losses


def test_training_differs_across_seeds():
    vectors, labels = make_synthetic(16, 4, 8, sigma=1.5, seed=2)
    config = TripletConfig(learning_rate=1e-2, epochs=5)
    first = train_projection(vectors, labels, config, seed=1)
    second = train_projection(vectors, labels, config, seed=2)
    assert not np.array_equal(first.model.weight, second.model.weight)


def test_training_requires_two_labels():
    vectors = np.eye(4)
    with pytest.raises(ValueError, match="labels"):
        train_projection(vectors, ["same"] * 4, TripletConfig(epochs=1), seed=0)


def test_training_skips_singleton_labels():
    vectors, labels = make_synthetic(8, 3, 4, sigma=1.0, seed=0)
    vectors = np.vstack([vectors, np.ones((1, 8)) / np.sqrt(8)])
    labels = labels + ["lonely"]
    result = train_projection(vectors, labels, TripletConfig(epochs=2), seed=0)
    assert result.model.trained


def test_training_aborts_on_divergence():
    vectors, labels = close_two_clusters()
    with pytest.raises(ValueError, match="non-finite"):
        train_projection(
            vectors, labels, TripletConfig(learning_rate=1e155, epochs=10), seed=0
        )


def test_fourteen_label_training_improves_precision_at_1():
    vectors, labels = make_synthetic(32, 14, 20, sigma=1.8, seed=11)
    identity_precision = precision_at_1(vectors, labels, np.eye(32))
    result = train_projection(
        vectors, labels, TripletConfig(learning_rate=3e-2, epochs=20), seed=7
    )
    trained_precision = precision_at_1(vectors, labels, result.model.weight)
    assert result.model.epoch_count == 20
    assert trained_precision > identity_precision


def test_trained_model_separates_held_out_cases():
    train_vectors, train_labels = make_synthetic(32, 14, 20, sigma=1.8, seed=11)
    result = train_projection(
        train_vectors, train_labels, TripletConfig(learning_rate=3e-2, epochs=20), seed=7
    )
    held_out, held_labels = make_synthetic(32, 14, 6, sigma=1.8, seed=11)
    projected = held_out @ np.asarray(result.model.weight).T
    projected /= np.linalg.norm(projected, axis=1, keepdims=True)
    sims = projected @ projected.T
    labels = np.asarray(held_labels)
    same = labels[:, None] == labels[None, :]
    off_diagonal = ~np.eye(len(labels), dtype=bool)
    intra = sims[same & off_diagonal].mean()
    inter = sims[~same].mean()
    assert intra > inter


def test_train_text_wrapper_runs_end_to_end():
    embedder = HashingEmbedder(dim=32)
    cases = [
        ("select name from singer where country is wrong", "e3"),
        ("select name from singer where the value case differs", "e3"),
        ("missing distinct keyword in count", "e1"),
        ("count should use distinct values only", "e1"),
    ]
    result = train(cases, embedder, TripletConfig(epochs=2), seed=5)
    assert result.model.dim == 32
    assert len(result.epoch_losses) == 2


def test_embed_and_train_output_bits_are_pinned(schemas):
    # Option B's examples and the bench oracle rest on these exact bits; the
    # digests hold for one BLAS build, since a kernel that sums in another
    # order may change the last bit of a norm or a product
    embedder = HashingEmbedder(dim=768)
    labeled = [(serialize_case(cc.case, include_result=True), cc.primary_label)
               for cc in make_training_cases(schemas)]
    result = train(labeled, embedder, TripletConfig(epochs=2), seed=5)
    digest = hashlib.sha256()
    for model in (ProjectionModel.identity(768), result.model):
        for text, _ in labeled:
            digest.update(embed(text, model, embedder).tobytes())
    digest.update(result.model.weight.tobytes())
    digest.update(np.array(result.epoch_losses).tobytes())
    assert digest.hexdigest() == (
        "cf1f58632cf6ce1666221dec49b41b8025c9df7410a3d3276f1e43585b6a1299"
    )


# --- gradient check -----------------------------------------------------------------------

def _active_triplet(seed=0, dim=8):
    rng = np.random.default_rng(seed)
    weight = np.eye(dim) + 0.05 * rng.normal(size=(dim, dim))
    anchor = rng.normal(size=dim)
    anchor /= np.linalg.norm(anchor)
    positive = anchor + 0.4 * rng.normal(size=dim)
    positive /= np.linalg.norm(positive)
    negative = anchor + 0.5 * rng.normal(size=dim)
    negative /= np.linalg.norm(negative)
    return weight, anchor, positive, negative


def test_gradient_check_active_hinge():
    weight, anchor, positive, negative = _active_triplet()
    hinge_arg = (
        squared_distance(weight @ anchor, weight @ positive)
        - squared_distance(weight @ anchor, weight @ negative)
        + 1.0
    )
    assert hinge_arg > 0
    error = gradient_check(weight, anchor, positive, negative, margin=1.0, epsilon=1e-5)
    assert error <= 1e-4


def _gradient_of_one(weight, anchor, positive, negative, margin=1.0):
    _, grad = _batch_loss_and_gradient(
        weight, anchor[None], positive[None], negative[None], margin
    )
    return grad


def test_gradient_check_inactive_hinge_is_zero():
    weight, anchor, positive, _ = _active_triplet()
    far_negative = -anchor
    assert np.allclose(_gradient_of_one(weight, anchor, positive, far_negative), 0.0)
    error = gradient_check(weight, anchor, positive, far_negative, margin=1.0)
    assert error <= 1e-8


def test_batch_gradient_matches_central_differences_of_the_mean_loss():
    # the gradient that train_projection applies averages over every row of the
    # batch, inactive rows included; a batch of one cannot tell that apart from
    # averaging over the active rows only
    rng = np.random.default_rng(12)
    dim, rows, margin, epsilon = 6, 10, 0.2, 1e-5
    weight = np.eye(dim) + 0.1 * rng.normal(size=(dim, dim))
    a, p, n = (rng.normal(size=(rows, dim)) / np.sqrt(dim) for _ in range(3))

    def mean_loss(w):
        return np.mean([triplet_loss(w @ x, w @ y, w @ z, margin) for x, y, z in zip(a, p, n)])

    hinge, analytic = _batch_loss_and_gradient(weight, a, p, n, margin)
    assert 0 < np.count_nonzero(hinge > 0.0) < rows
    assert np.abs(hinge).min() > 100.0 * epsilon  # no row straddles the kink
    assert np.allclose(
        np.maximum(hinge, 0.0),
        [triplet_loss(weight @ x, weight @ y, weight @ z, margin) for x, y, z in zip(a, p, n)],
        rtol=1e-12,
    )
    numeric = np.zeros_like(weight)
    for i in range(dim):
        for j in range(dim):
            bumped = weight.copy()
            bumped[i, j] += epsilon
            plus = mean_loss(bumped)
            bumped[i, j] -= 2.0 * epsilon
            numeric[i, j] = (plus - mean_loss(bumped)) / (2.0 * epsilon)
    assert np.abs(analytic - numeric).max() <= 1e-6 * np.abs(numeric).max()


def test_gradient_check_reports_kink_as_inconclusive():
    dim = 4
    weight = np.eye(dim)
    anchor = np.zeros(dim)
    positive = np.zeros(dim)
    negative = np.zeros(dim)
    negative[0] = 1.0  # d(a,p)=0, d(a,n)=1, margin=1 -> hinge argument exactly 0
    with pytest.raises(GradientCheckInconclusive):
        gradient_check(weight, anchor, positive, negative, margin=1.0)


def test_gradient_scales_with_input_scaling():
    weight, anchor, positive, negative = _active_triplet(seed=3)
    scale = 1.2
    baseline = _gradient_of_one(weight, anchor, positive, negative, margin=1.0)
    # scaling all inputs by c scales squared distances by c^2; with the margin
    # scaled to match, the hinge state is unchanged and the gradient scales by c^2
    scaled = _gradient_of_one(
        weight, scale * anchor, scale * positive, scale * negative, margin=scale**2
    )
    assert np.allclose(scaled, scale**2 * baseline, rtol=1e-12)
    numeric_error = gradient_check(
        weight,
        scale * anchor,
        scale * positive,
        scale * negative,
        margin=scale**2,
        epsilon=1e-5,
    )
    assert numeric_error <= 1e-4
