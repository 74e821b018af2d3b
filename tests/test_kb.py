from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import ecpt
from ecpt.cases import Case, CorrectionCase, ExecutionOutcome, OutcomeKind
from ecpt.embedding import DimensionMismatch, HashingEmbedder, ProjectionModel
from ecpt.errors import DataError
from ecpt.kb import KbStore, ModelMismatch
from ecpt.spider import load_schemas

from fixtures import CONCERT_DB, make_correction_cases


def unit_vectors(count: int, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(count, dim))
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def dummy_correction_case(schemas, label="e3", question="why did this fail?"):
    return CorrectionCase(
        case=Case(
            schema=schemas[CONCERT_DB],
            question=question,
            generated_sql="SELECT 1",
            outcome=ExecutionOutcome(OutcomeKind.UNDESIRED_RESULT, "mismatch"),
        ),
        error_types=(label,),
        ground_truth_sql="SELECT 2",
        reason="",
        instruction="change it",
    )


def filled_store(schemas, count=100, dim=32, seed=0, labels=("e3", "e5", "e8")):
    store = KbStore(dimension=dim, model_hash="test-hash")
    vectors = unit_vectors(count, dim, seed)
    for i in range(count):
        cc = dummy_correction_case(schemas, label=labels[i % len(labels)], question=f"q{i}?")
        store.insert_vector(cc, vectors[i])
    return store, vectors


def brute_force_search(vectors, query, k, candidate_ids=None):
    ids = range(len(vectors)) if candidate_ids is None else candidate_ids
    scored = [(i, float(vectors[i] @ query)) for i in ids]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k]


# --- insert ------------------------------------------------------------------------

def test_insert_into_empty_store_gets_id_zero(schemas):
    store = KbStore(dimension=8, model_hash="h")
    entry_id = store.insert_vector(dummy_correction_case(schemas), unit_vectors(1, 8, 0)[0])
    assert entry_id == 0
    assert len(store) == 1


def test_duplicate_inserts_get_distinct_ids(schemas):
    store = KbStore(dimension=8, model_hash="h")
    cc = dummy_correction_case(schemas)
    vector = unit_vectors(1, 8, 0)[0]
    first = store.insert_vector(cc, vector)
    second = store.insert_vector(cc, vector)
    assert (first, second) == (0, 1)
    assert len(store) == 2


def test_insert_embeds_serialized_case(schemas):
    embedder = HashingEmbedder(dim=32)
    model = ProjectionModel.identity(32)
    store = KbStore.for_model(model)
    cc = dummy_correction_case(schemas)
    store.insert(cc, model, embedder)
    hits = store.search(store.entries[0].vector, 1)
    assert hits[0][0].id == 0
    assert hits[0][1] == pytest.approx(1.0, abs=1e-6)


def test_insert_rejects_model_mismatch(schemas):
    model = ProjectionModel.identity(16)
    trained = ProjectionModel(weight=np.eye(16) * 2.0, trained=True)
    store = KbStore.for_model(model)
    with pytest.raises(ModelMismatch):
        store.insert(dummy_correction_case(schemas), trained, HashingEmbedder(dim=16))


def test_insert_rejects_wrong_dimension(schemas):
    store = KbStore(dimension=8, model_hash="h")
    with pytest.raises(DimensionMismatch):
        store.insert_vector(dummy_correction_case(schemas), np.ones(4))


# --- search ---------------------------------------------------------------------------

def test_search_matches_brute_force_oracle(schemas):
    store, vectors = filled_store(schemas, count=100, dim=32, seed=7)
    queries = unit_vectors(50, 32, seed=11)
    for k in (1, 5, 20):
        for query in queries:
            expected = brute_force_search(vectors, query, k)
            actual = store.search(query, k)
            assert [(e.id, round(s, 12)) for e, s in actual] == [
                (i, round(s, 12)) for i, s in expected
            ]


def test_search_k_larger_than_store(schemas):
    store, vectors = filled_store(schemas, count=5, dim=8, seed=1)
    hits = store.search(unit_vectors(1, 8, 2)[0], k=50)
    assert len(hits) == 5
    similarities = [s for _, s in hits]
    assert similarities == sorted(similarities, reverse=True)


def test_search_orthogonal_vector_similarity_zero(schemas):
    store = KbStore(dimension=4, model_hash="h")
    store.insert_vector(dummy_correction_case(schemas), np.array([1.0, 0, 0, 0]))
    hits = store.search(np.array([0.0, 1.0, 0, 0]), 1)
    assert hits[0][1] == pytest.approx(0.0, abs=1e-12)


def test_search_tie_break_on_ascending_id(schemas):
    store = KbStore(dimension=4, model_hash="h")
    vector = np.array([1.0, 0, 0, 0])
    for _ in range(3):
        store.insert_vector(dummy_correction_case(schemas), vector)
    hits = store.search(vector, 3)
    assert [entry.id for entry, _ in hits] == [0, 1, 2]


def test_search_prefix_property(schemas):
    store, _ = filled_store(schemas, count=40, dim=16, seed=3)
    query = unit_vectors(1, 16, 9)[0]
    smaller = store.search(query, 5)
    larger = store.search(query, 9)
    assert [e.id for e, _ in larger][:5] == [e.id for e, _ in smaller]


def test_search_self_retrieval(schemas):
    store, vectors = filled_store(schemas, count=30, dim=16, seed=5)
    for entry in store.entries:
        top_entry, top_similarity = store.search(entry.vector, 1)[0]
        assert top_similarity == pytest.approx(1.0, abs=1e-6)
        if top_entry.id != entry.id:
            # only an exact duplicate with a smaller id may outrank the entry itself
            assert top_entry.id < entry.id
            assert np.array_equal(top_entry.vector, entry.vector)


def test_search_filter_restricts_candidates(schemas):
    store, vectors = filled_store(schemas, count=30, dim=16, seed=5, labels=("e3", "e5"))
    query = unit_vectors(1, 16, 8)[0]
    hits = store.search(query, 10, error_filter={"e5"})
    assert hits
    assert all("e5" in e.correction_case.error_types for e, _ in hits)
    candidate_ids = [e.id for e in store.entries if "e5" in e.correction_case.error_types]
    expected = brute_force_search(vectors, query, 10, candidate_ids)
    assert [e.id for e, _ in hits] == [i for i, _ in expected]


def test_search_filter_without_matches_returns_empty(schemas):
    store, _ = filled_store(schemas, count=10, dim=16, seed=5, labels=("e3",))
    assert store.search(unit_vectors(1, 16, 0)[0], 3, error_filter={"e12"}) == []


PARITY_LABELS = [("e3",), ("e5", "e8"), ("e1", "e3", "e12"), ("e8",), ("e2", "e5"), ("e9",)]
PARITY_FILTERS = [None, {"e3"}, {"e5", "e12"}, {"e1", "e8", "e2"}, {"e13"}]


def stacked_search(vectors, labels, query, k, wanted):
    """Search as a stack of the candidates' vectors in insertion order, one
    product and a sort on (-score, id)."""
    ids = [i for i in range(len(vectors)) if wanted is None or wanted & set(labels[i])]
    if not ids:
        return []
    scores = np.stack([vectors[i] for i in ids]) @ query
    order = sorted(range(len(ids)), key=lambda j: (-scores[j], ids[j]))
    return [(ids[j], float(scores[j])) for j in order[:k]]


def test_search_is_bit_equal_to_scoring_the_stacked_candidates(tmp_path, schemas):
    # dim 768 because small dimensions hide BLAS rounding that depends on a
    # row's position in the matrix it is scored in
    dim, count = 768, 320
    vectors = unit_vectors(count, dim, seed=17)
    vectors[200:240] = vectors[:40]  # twins score alike and tie
    labels = [PARITY_LABELS[i % len(PARITY_LABELS)] for i in range(count)]
    queries = [*unit_vectors(6, dim, seed=18), vectors[3], vectors[10], vectors[37]]
    store = KbStore(dimension=dim, model_hash="h")  # grows through nine doublings
    for i in range(count):
        case = dummy_correction_case(schemas, question=f"q{i}?")
        store.insert_vector(dataclasses.replace(case, error_types=labels[i]), vectors[i])
    store.persist(tmp_path / "kb.jsonl")
    for searched in (store, KbStore.load(tmp_path / "kb.jsonl", schemas)):
        assert all(np.array_equal(e.vector, vectors[e.id]) for e in searched.entries)
        for query in queries:
            for wanted in PARITY_FILTERS:
                for k in (1, 3, count + 1):
                    actual = [(e.id, s) for e, s in searched.search(query, k, wanted)]
                    assert actual == stacked_search(vectors, labels, query, k, wanted)


def test_a_reused_gather_buffer_scores_like_a_fresh_stack(schemas):
    # candidate counts go large -> small -> large, then the store grows past
    # the buffer and is searched again
    dim, count, grown = 768, 320, 400
    vectors = unit_vectors(grown, dim, seed=21)
    vectors[200:240] = vectors[:40]
    vectors[360:400] = vectors[240:280]  # twins of rows that came before the growth
    labels = [PARITY_LABELS[i % len(PARITY_LABELS)] for i in range(grown)]
    queries = [*unit_vectors(3, dim, seed=22), vectors[3], vectors[250]]
    store = KbStore(dimension=dim, model_hash="h")

    def insert(rows):
        for i in rows:
            case = dummy_correction_case(schemas, question=f"q{i}?")
            store.insert_vector(dataclasses.replace(case, error_types=labels[i]), vectors[i])

    def check(filters, n):
        for wanted in filters:
            for query in queries:
                actual = [(e.id, s) for e, s in store.search(query, 4, wanted)]
                assert actual == stacked_search(vectors[:n], labels[:n], query, 4, wanted)

    insert(range(count))
    check([{"e3", "e5", "e8"}], count)
    buffer = store._local.buffer
    check([{"e9"}, {"e13"}, {"e1", "e2", "e5", "e8"}, None, {"e8"}], count)
    assert store._local.buffer is buffer  # reused, not reallocated
    insert(range(count, grown))
    check([{"e1", "e2", "e3", "e5", "e8", "e9"}, {"e9"}, {"e2", "e5"}], grown)
    assert len(store._local.buffer) == grown


def test_hits_survive_later_searches(schemas):
    store, vectors = filled_store(schemas, count=200, dim=32, seed=11)
    query = unit_vectors(1, 32, seed=12)[0]
    hits = store.search(query, 5, {"e3", "e5", "e8"})
    kept = [(entry.id, entry.vector.copy(), score) for entry, score in hits]
    for wanted in ({"e3"}, {"e5", "e8"}, {"e3", "e5", "e8"}):
        for other in unit_vectors(4, 32, seed=13):
            store.search(other, 5, wanted)
    assert [(e.id, e.vector.tolist(), s) for e, s in hits] == \
        [(i, v.tolist(), s) for i, v, s in kept]
    assert all(np.array_equal(entry.vector, vectors[entry.id]) for entry, _ in hits)


def _concurrent_searches_match_serial_ones(schemas, count, dim, filters, seed):
    labels = ("e3", "e5", "e8", "e13")
    serial_store, _ = filled_store(schemas, count=count, dim=dim, seed=seed, labels=labels)
    # its first lookups race
    store, _ = filled_store(schemas, count=count, dim=dim, seed=seed, labels=labels)
    queries = list(unit_vectors(40, dim, seed=seed + 2)) * 5
    filters = [filters[i % len(filters)] for i in range(len(queries))]

    def top3(query, wanted, store=store):
        return ([(e.id, s) for e, s in store.search(query, 3, wanted)],
                _lookup(store, query, ["e3", "e5", "e8"]))

    serial = [top3(query, wanted, serial_store) for query, wanted in zip(queries, filters)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(top3, queries, filters, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial


def test_concurrent_searches_match_serial_ones(schemas):
    # the filters take turns, so each thread's buffer serves gathers of 150
    # and 75 rows between unfiltered searches
    _concurrent_searches_match_serial_ones(
        schemas, count=300, dim=32, filters=[{"e5", "e8"}, {"e13"}, None], seed=4)


# Candidate counts around the search's block edges: filters over disjoint
# labels of 1, 255, 1, 255, 3 and 255 rows, and one that takes every row.
BLOCK_LABEL_ROWS = {"e1": 1, "e2": 255, "e3": 1, "e4": 255, "e5": 3, "e6": 255}
BLOCK_FILTERS = [
    {"e1"}, {"e2"}, {"e1", "e2"}, {"e1", "e2", "e3"},  # 1, 255, 256, 257
    {"e1", "e2", "e4"}, {"e1", "e2", "e3", "e4"}, {"e2", "e4", "e5"},  # 511, 512, 513
    {"e1", "e2", "e4", "e5"}, {"e1", "e2", "e3", "e4", "e5"},  # 514, 515
    {"e1", "e2", "e3", "e4", "e6"}, {"e2", "e4", "e5", "e6"},  # 767, 768
    {"e1", "e2", "e4", "e5", "e6"}, {f"e{i}" for i in range(1, 8)}, None,  # 769, 2100, 2100
]


def _multi_block_parity(tables: str) -> None:
    """Searches of 1 to 2,100 candidates, bit-equal to one product over their
    stack, serially and from 8 threads; run at one BLAS thread by the test below."""
    schemas = load_schemas(tables)
    dim, count = 768, 2100
    vectors = unit_vectors(count, dim, seed=31)
    for row, twin in ((250, 262), (255, 256), (506, 518), (511, 512), (1000, 1800)):
        vectors[twin] = vectors[row]  # twins on both sides of block edges
    rows = np.random.default_rng(32).permutation(count)
    labels = [("e7",)] * count
    for label, size in BLOCK_LABEL_ROWS.items():
        for row in rows[:size]:
            labels[row] = (label,)
        rows = rows[size:]
    store = KbStore(dimension=dim, model_hash="h")
    for i in range(count):
        case = dummy_correction_case(schemas, question=f"q{i}?")
        store.insert_vector(dataclasses.replace(case, error_types=labels[i]), vectors[i])
    queries = [*unit_vectors(2, dim, seed=33), vectors[255], vectors[511], vectors[1000]]
    searches = [(query, k, wanted) for query in queries for wanted in BLOCK_FILTERS
                for k in (1, 3, count)]
    expected = [stacked_search(vectors, labels, *search) for search in searches]

    def run(search):
        return [(e.id, s) for e, s in store.search(*search)]

    assert list(map(run, searches)) == expected
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            assert list(pool.map(run, searches, timeout=120)) == expected
    finally:
        sys.setswitchinterval(interval)


def _blas_and_cpu() -> str:
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return (f"BLAS {blas.get('name')} {blas.get('version')} "
            f"[{blas.get('openblas configuration', '')}], CPU {platform.machine()} "
            f"with SIMD {config['SIMD Extensions'].get('found')}")


def test_multi_block_searches_are_bit_equal_to_the_stacked_candidates(dataset_root):
    # At two BLAS threads the one product over the stack rounds some scores
    # otherwise than at one, so the bits are pinned at one, as the bench runs
    single = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    path = os.pathsep.join([str(Path(ecpt.__file__).parents[1]), str(Path(__file__).parent)])
    code = ("import sys, test_kb; print(test_kb._blas_and_cpu(), flush=True); "
            "test_kb._multi_block_parity(sys.argv[1])")
    done = subprocess.run(
        [sys.executable, "-c", code, str(dataset_root / "tables.json")],
        env={**os.environ, **single, "PYTHONPATH": path}, capture_output=True, text=True,
        timeout=300,
    )
    # bit parity of blocks rests on the BLAS kernel: name it beside a failure
    assert done.returncode == 0, f"{done.stdout.strip()}\n{done.stderr[-3000:]}"


def test_nearest_per_label_over_multi_block_labels_returns_one_search_per_label(
    schemas, monkeypatch
):
    store, vectors = _parity_store(schemas, count=1600)  # e3, e5 and e8 hold 533 rows
    fallbacks = _spy_on_search(monkeypatch, store)
    queries = [*unit_vectors(3, 768, seed=34), *vectors[[1, 10, 203, 1599]],
               *_near(vectors[1], 6, seed=35)]
    found = 0
    for query in queries:
        expected = _one_search_per_label(store, query, LOOKUP_LABELS)
        assert _lookup(store, query) == expected
        found += len(expected)
    assert 0 < len(fallbacks) < found
    assert (store._labels[: len(store)].sum(axis=0) > 512).any()


def test_concurrent_multi_block_searches_match_serial_ones(schemas):
    # 750, 1,125 and 375 candidates: two blocks, four and one
    _concurrent_searches_match_serial_ones(
        schemas, count=1500, dim=768,
        filters=[{"e5", "e8"}, {"e3", "e5", "e8"}, {"e13"}, None], seed=36)


def test_search_rejects_bad_k_and_dimension(schemas):
    store, _ = filled_store(schemas, count=4, dim=8, seed=0)
    with pytest.raises(ValueError):
        store.search(unit_vectors(1, 8, 0)[0], 0)
    with pytest.raises(DimensionMismatch):
        store.search(np.ones(4), 1)


# --- nearest per label -------------------------------------------------------------------

LOOKUP_LABELS = [f"e{i}" for i in range(1, 14)] + ["success", "e99"]


def _parity_store(schemas, count=320):
    """The parity store's twins plus its last row, a copy of row 1 moved one ulp
    away from zero in every component, so that the two score a few ulps apart."""
    dim = 768
    vectors = unit_vectors(count, dim, seed=17)
    vectors[200:240] = vectors[:40]
    vectors[count - 1] = np.nextafter(vectors[1], 2 * vectors[1])
    store = KbStore(dimension=dim, model_hash="h")
    for i in range(count):
        case = dummy_correction_case(schemas, question=f"q{i}?")
        labels = PARITY_LABELS[i % len(PARITY_LABELS)]
        store.insert_vector(dataclasses.replace(case, error_types=labels), vectors[i])
    return store, vectors


def _near(vector, count, seed):
    """Queries a millionth away from `vector`, where its twins decide the lookups."""
    noise = np.random.default_rng(seed).normal(scale=1e-6, size=(count, len(vector)))
    return list(vector + noise)


def _one_search_per_label(store, query, labels):
    hits = {label: KbStore.search(store, query, 1, {label}) for label in labels}
    return [(label, found[0][0].id) for label, found in hits.items() if found]


def _spy_on_search(monkeypatch, store) -> list:
    """The filters of the searches `store` makes from here on."""
    searched = []

    def search(query, k, error_filter=None):
        searched.append(error_filter)
        return KbStore.search(store, query, k, error_filter)

    monkeypatch.setattr(store, "search", search)
    return searched


def _lookup(store, query, labels=LOOKUP_LABELS):
    return [(label, entry.id) for label, entry in store.nearest_per_label(query, labels).items()]


def test_nearest_per_label_returns_what_one_search_per_label_returns(schemas, monkeypatch):
    store, vectors = _parity_store(schemas)
    fallbacks = _spy_on_search(monkeypatch, store)
    queries = [*unit_vectors(6, 768, seed=18), *vectors[[1, 3, 10, 37, 203, 319]],
               *_near(vectors[1], 10, seed=19)]
    found = 0
    for query in queries:
        expected = _one_search_per_label(store, query, LOOKUP_LABELS)
        assert _lookup(store, query) == expected
        found += len(expected)
    assert 0 < len(fallbacks) < found  # both paths ran


def test_a_margin_of_zero_breaks_near_ties(schemas, monkeypatch):
    # BLAS rounds a row's dot product by the row's position in its matrix, so
    # row 1 and its one-ulp copy can swap places between the shared product and
    # the gathered one; the margin is what sends such labels to `search`
    store, vectors = _parity_store(schemas)
    monkeypatch.setattr(KbStore, "_winning_margin", lambda self, query: 0.0)
    queries = _near(vectors[1], 100, seed=20)
    assert any(_lookup(store, q) != _one_search_per_label(store, q, LOOKUP_LABELS)
               for q in queries)


def test_nearest_per_label_edge_cases(schemas):
    store, vectors = filled_store(schemas, count=30, dim=16, seed=5, labels=("e3", "e5"))
    query = unit_vectors(1, 16, seed=8)[0]
    assert store.nearest_per_label(query, ["e99", "e4", "success"]) == {}
    assert store.nearest_per_label(query, []) == {}
    assert KbStore(dimension=16, model_hash="h").nearest_per_label(query, ["e3"]) == {}
    for empty in (store, KbStore(dimension=16, model_hash="h")):
        with pytest.raises(DimensionMismatch):
            empty.nearest_per_label(np.ones(4), ["e3"])
    labels = ["e5", "e4", "e3"]
    assert _lookup(store, query, labels) == _one_search_per_label(store, query, labels)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_query_sends_every_label_to_search(schemas, monkeypatch, bad):
    store, _ = filled_store(schemas, count=30, dim=16, seed=5, labels=("e3", "e5"))
    query = unit_vectors(1, 16, seed=8)[0]
    query[4] = bad
    searched = _spy_on_search(monkeypatch, store)
    assert _lookup(store, query) == _one_search_per_label(store, query, LOOKUP_LABELS)
    assert searched == [{label} for label in LOOKUP_LABELS if label != "e99"]


def test_an_insert_clears_the_largest_row_norm(schemas, monkeypatch):
    store, _ = filled_store(schemas, count=20, dim=16, seed=5, labels=("e3",))
    query = unit_vectors(1, 16, seed=9)[0]
    store.nearest_per_label(query, ["e3"])  # computes the largest norm: 1
    # two rows scoring 1e-12 apart: a clear gap under the margin of norm 1,
    # a near-tie under the margin of norm 1e3
    for scale in (1e3, 1e3 * (1 + 1e-15)):
        store.insert_vector(dummy_correction_case(schemas, label="e8"), scale * query)
    searched = _spy_on_search(monkeypatch, store)
    assert _lookup(store, query, ["e8"]) == _one_search_per_label(store, query, ["e8"])
    assert searched == [{"e8"}]


# --- persistence -------------------------------------------------------------------------

def test_persist_load_round_trip_preserves_search(tmp_path, schemas):
    embedder = HashingEmbedder(dim=48)
    model = ProjectionModel.identity(48)
    store = KbStore.for_model(model)
    for cc in make_correction_cases(schemas):
        store.insert(cc, model, embedder)
    for i in range(42):  # pad to 50 entries
        store.insert(dummy_correction_case(schemas, question=f"extra {i}?"), model, embedder)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    loaded = KbStore.load(path, schemas)
    assert len(loaded) == len(store)
    assert loaded.model_hash == store.model_hash
    for query in unit_vectors(10, 48, seed=21):
        original = [(e.id, s) for e, s in store.search(query, 7)]
        reloaded = [(e.id, s) for e, s in loaded.search(query, 7)]
        assert original == reloaded


def test_persist_load_empty_store(tmp_path, schemas):
    store = KbStore(dimension=8, model_hash="h")
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    loaded = KbStore.load(path, schemas)
    assert len(loaded) == 0
    assert loaded.dimension == 8


def test_load_rejects_wrong_version(tmp_path, schemas):
    path = tmp_path / "kb.jsonl"
    path.write_text('{"version": "ecpt-kb/9", "dimension": 4, "model_hash": "h"}\n')
    with pytest.raises(DataError, match="version"):
        KbStore.load(path, schemas)


def test_load_rejects_corrupted_record(tmp_path, schemas):
    path = tmp_path / "kb.jsonl"
    path.write_text(
        '{"version": "ecpt-kb/1", "dimension": 4, "model_hash": "h"}\n{not json\n'
    )
    with pytest.raises(DataError, match="corrupted"):
        KbStore.load(path, schemas)


def _drop_vector(record):
    del record["vector"]


def _unknown_outcome_kind(record):
    record["outcome"]["kind"] = "half_success"


def _drop_question(record):
    del record["question"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_vector, "vector"),
        (_unknown_outcome_kind, "half_success"),
        (_drop_question, "question"),
    ],
)
def test_load_names_the_line_of_a_bad_record(tmp_path, schemas, damage, message):
    store = KbStore(dimension=4, model_hash="h")
    for i in range(3):
        store.insert_vector(dummy_correction_case(schemas, question=f"q{i}?"), np.eye(4)[i])
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    damage(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"kb\.jsonl:3: .*{message}"):
        KbStore.load(path, schemas)


@pytest.mark.parametrize(
    "line, key, value, message",
    [
        (2, "id", 3.9, r"kb\.jsonl:3: id: expected an int, got 3\.9"),
        (0, "dimension", "4", r"kb\.jsonl:1: dimension: expected an int, got '4'"),
    ],
    ids=["float_id", "string_dimension"],
)
def test_load_rejects_a_float_id_or_a_string_dimension(
    tmp_path, schemas, line, key, value, message
):
    store = KbStore(dimension=4, model_hash="h")
    for i in range(3):
        store.insert_vector(dummy_correction_case(schemas, question=f"q{i}?"), np.eye(4)[i])
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[line] = json.dumps({**json.loads(lines[line]), key: value})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=message):
        KbStore.load(path, schemas)


def test_persisted_ids_survive_reload_for_new_inserts(tmp_path, schemas):
    store = KbStore(dimension=8, model_hash="h")
    store.insert_vector(dummy_correction_case(schemas), unit_vectors(1, 8, 0)[0])
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    loaded = KbStore.load(path, schemas)
    new_id = loaded.insert_vector(dummy_correction_case(schemas), unit_vectors(1, 8, 1)[0])
    assert new_id == 1


# --- the binary vector sidecar -----------------------------------------------------------

def _sidecar(path):
    return path.with_name(path.name + ".vectors")


def _sidecar_header(path) -> dict:
    with open(_sidecar(path), "rb") as handle:
        return json.loads(handle.readline())


def _assert_same_store(a: KbStore, b: KbStore) -> None:
    assert (a.dimension, a.model_hash, len(a)) == (b.dimension, b.model_hash, len(b))
    for x, y in zip(a.entries, b.entries):
        assert x.id == y.id and x.correction_case == y.correction_case
        assert x.vector.tobytes() == y.vector.tobytes()


def _twin_store(schemas) -> KbStore:
    """Entries whose vectors repeat, under mixed labels, so searches tie exactly."""
    store = KbStore(dimension=16, model_hash="h")
    vectors = unit_vectors(12, 16, seed=5)
    for i in range(60):
        cc = dummy_correction_case(schemas, label=("e3", "e5", "e8")[i % 3], question=f"q{i}?")
        store.insert_vector(cc, vectors[i % 12])
    return store


def test_persist_writes_the_sidecar_of_the_file_it_wrote(tmp_path, schemas):
    store, vectors = filled_store(schemas, count=10, dim=8)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    header = _sidecar_header(path)
    assert header["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert (header["rows"], header["dimension"]) == (10, 8)
    block = _sidecar(path).read_bytes().split(b"\n", 1)[1]
    assert block == vectors.astype("<f8").tobytes()


def test_a_sidecar_hit_loads_exactly_what_decoding_the_json_loads(tmp_path, schemas):
    store = _twin_store(schemas)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    hit = KbStore.load(path, schemas)
    _sidecar(path).unlink()
    miss = KbStore.load(path, schemas)
    assert _sidecar(path).exists()  # the miss wrote it again
    _assert_same_store(hit, miss)
    _assert_same_store(hit, store)
    for query in unit_vectors(6, 16, seed=9):
        for wanted in (None, {"e3"}, {"e5", "e8"}):
            expected = [(e.id, s) for e, s in miss.search(query, 7, wanted)]
            assert [(e.id, s) for e, s in hit.search(query, 7, wanted)] == expected
            assert len({s for _, s in expected}) < len(expected)  # exact ties are kept


def test_load_takes_the_vectors_from_a_sidecar_with_the_file_digest(tmp_path, schemas):
    store, vectors = filled_store(schemas, count=10, dim=8)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    head, _ = _sidecar(path).read_bytes().split(b"\n", 1)
    _sidecar(path).write_bytes(head + b"\n" + (-vectors).astype("<f8").tobytes())
    loaded = KbStore.load(path, schemas)
    assert np.array_equal([e.vector for e in loaded.entries], -vectors)
    assert [e.correction_case for e in loaded.entries] == [e.correction_case for e in store.entries]


def test_an_edit_that_keeps_the_length_misses_and_rewrites_the_sidecar(tmp_path, schemas):
    store, vectors = filled_store(schemas, count=10, dim=8)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    head, _ = _sidecar(path).read_bytes().split(b"\n", 1)
    _sidecar(path).write_bytes(head + b"\n" + (-vectors).astype("<f8").tobytes())
    text = path.read_text(encoding="utf-8")
    edited = text.replace('"q3?"', '"q9?"')
    assert len(edited) == len(text) and edited != text
    path.write_text(edited, encoding="utf-8")
    loaded = KbStore.load(path, schemas)
    assert np.array_equal([e.vector for e in loaded.entries], vectors)
    assert loaded.entries[3].correction_case.case.question == "q9?"
    assert _sidecar_header(path)["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    _assert_same_store(KbStore.load(path, schemas), loaded)


def _with_header(path, block, **changes):
    header = {**_sidecar_header(path), **changes}
    _sidecar(path).write_bytes(json.dumps(header).encode() + b"\n" + block)


def _truncated(path, block):
    _with_header(path, block[:-8])


def _trailing_bytes(path, block):
    _with_header(path, block + bytes(8))


def _empty(path, block):
    _sidecar(path).write_bytes(b"")


def _garbage(path, block):
    _sidecar(path).write_bytes(np.random.default_rng(0).bytes(len(block) + 200))


def _header_only(path, block):
    _with_header(path, b"")


def _wrong_dimension(path, block):
    _with_header(path, block, dimension=2 * _sidecar_header(path)["dimension"])


def _too_many_rows(path, block):
    _with_header(path, block * 4, rows=4 * _sidecar_header(path)["rows"])


def _too_few_rows(path, block):
    _with_header(path, block[: len(block) // 2], rows=_sidecar_header(path)["rows"] // 2)


def _a_directory(path, block):
    _sidecar(path).unlink()
    _sidecar(path).mkdir()


@pytest.mark.parametrize(
    "damage",
    [_truncated, _trailing_bytes, _empty, _garbage, _header_only, _wrong_dimension,
     _too_many_rows, _a_directory, _too_few_rows],
)
def test_a_malformed_sidecar_is_a_miss_not_an_error(tmp_path, schemas, damage):
    store, vectors = filled_store(schemas, count=10, dim=8)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    damage(path, (-vectors).astype("<f8").tobytes())  # vectors a wrong hit would return
    _assert_same_store(KbStore.load(path, schemas), store)
    if _sidecar(path).is_file():  # rewritten, unless a directory is in the way
        assert _sidecar(path).read_bytes().split(b"\n", 1)[1] == vectors.astype("<f8").tobytes()
    _assert_same_store(KbStore.load(path, schemas), store)


def test_a_read_only_directory_still_loads(tmp_path, schemas, monkeypatch):
    store, _ = filled_store(schemas, count=10, dim=8)
    folder = tmp_path / "kb"
    folder.mkdir()
    path = folder / "kb.jsonl"
    store.persist(path)
    _sidecar(path).unlink()
    folder.chmod(0o555)

    def refuse(source, target):  # what a read-only directory does, also to root
        raise PermissionError(13, "Permission denied", str(target))

    monkeypatch.setattr(os, "replace", refuse)
    try:
        _assert_same_store(KbStore.load(path, schemas), store)
        assert [p.name for p in folder.iterdir()] == ["kb.jsonl"]  # no sidecar, no temp file
    finally:
        folder.chmod(0o755)


def test_a_hit_still_names_the_line_of_an_unknown_db_id(tmp_path, schemas):
    store, _ = filled_store(schemas, count=3, dim=4)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    assert _sidecar(path).exists()
    others = {k: v for k, v in schemas.items() if k != CONCERT_DB}
    with pytest.raises(DataError, match=rf"kb\.jsonl:2: .*unknown db_id '{CONCERT_DB}'"):
        KbStore.load(path, others)


@pytest.mark.parametrize(
    "damage, message", [(_unknown_outcome_kind, "half_success"), (_drop_question, "question")]
)
def test_a_hit_still_names_the_line_of_a_bad_record(tmp_path, schemas, damage, message):
    store, vectors = filled_store(schemas, count=3, dim=4)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    damage(record)
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    header = {**_sidecar_header(path), "sha256": digest}
    _sidecar(path).write_bytes(
        json.dumps(header).encode() + b"\n" + (-vectors).astype("<f8").tobytes()
    )
    with pytest.raises(DataError, match=rf"kb\.jsonl:3: .*{message}"):
        KbStore.load(path, schemas)


def test_a_line_whose_vector_is_not_last_loads(tmp_path, schemas):
    store, _ = filled_store(schemas, count=5, dim=4)
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[2])
    lines[2] = json.dumps({"vector": record.pop("vector"), **record})
    record = json.loads(lines[3])  # a later member is a list too: the line still ends in "]}"
    error_types = record.pop("error_types")
    lines[3] = json.dumps({**record, "error_types": error_types})
    lines[4] = json.dumps(json.loads(lines[4]), separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _sidecar(path).unlink()
    _assert_same_store(KbStore.load(path, schemas), store)  # a miss
    _assert_same_store(KbStore.load(path, schemas), store)  # a hit


def test_persist_writes_the_v1_bytes(tmp_path, schemas):
    """Pins the `ecpt-kb/1` layout the sidecar hit relies on: `vector` is the
    last member, written with json's default separators."""
    store = KbStore(dimension=4, model_hash="h")
    for i in range(3):
        cc = dummy_correction_case(schemas, label=("e3", "e5", "e8")[i], question=f"q{i}?")
        store.insert_vector(cc, [0.5, -0.25, 1e-300, float(i)])
    path = tmp_path / "kb.jsonl"
    store.persist(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "38a98a74b005f9cf289962bcf5ceef058d91dbecd0d223cf1b69541793a9a8ce"
