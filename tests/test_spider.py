from __future__ import annotations

import json

import pytest

from ecpt.errors import DataError
from ecpt.spider import (
    DatasetItem,
    ExclusionList,
    database_path,
    load_items,
    load_schemas,
    normalize_question,
    question_hash,
)

from fixtures import CONCERT_DB, PET_DB, SCRIPTED_ITEMS


def test_load_schemas_resolves_foreign_keys(schemas):
    concert = schemas[CONCERT_DB]
    assert ("concert.singer_id", "singer.singer_id") in concert.foreign_keys
    assert ("concert.stadium_id", "stadium.stadium_id") in concert.foreign_keys
    assert "singer.singer_id" in concert.primary_keys


def test_load_schemas_lowercases_column_types(schemas):
    for _, columns in schemas[PET_DB].tables:
        for _, ctype in columns:
            assert ctype == ctype.lower()


def test_load_schemas_empty_foreign_keys(tmp_path):
    entry = {
        "db_id": "lonely",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    schemas = load_schemas(path)
    assert schemas["lonely"].foreign_keys == ()


def test_load_schemas_dangling_column_index(tmp_path):
    entry = {
        "db_id": "broken",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "text"],
        "primary_keys": [],
        "foreign_keys": [[1, 9]],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(DataError, match="dangling column index"):
        load_schemas(path)


def test_load_schemas_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_schemas(tmp_path / "nope.json")


def _one_table_entry(**changes):
    return {
        "db_id": "lonely",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "text"],
        "primary_keys": [1],
        "foreign_keys": [],
        "column_names": [[-1, "*"], [0, "a"]],  # Spider's other keys stay accepted
        "table_names": ["t"],
        **changes,
    }


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


@pytest.mark.parametrize(
    "tables, message",
    [
        ([_one_table_entry(), _without(_one_table_entry(db_id="b"), "table_names_original")],
         r"entry 1: missing field 'table_names_original'"),
        ([_one_table_entry(column_names_original=[[-1, "*"], [5, "a"]])],
         r"entry 0: column 'a' names table 5 of 1"),
        ([_one_table_entry(column_types=["text"])], r"entry 0: 1 column_types for 2 columns"),
        ([_one_table_entry(db_id=5)], r"entry 0: db_id: expected a string, got 5"),
        ([_one_table_entry(column_names_original=[[-1, "*"], [0, "a", "b"]])],
         r"entry 0: too many values to unpack"),
        ([_one_table_entry(column_names_original=[[-1, "*"], [0, 5]])],
         r"entry 0: column 1 is not a \[table index, name\] pair"),
        ({"db_id": "lonely"}, r"is not a JSON list"),
        (["lonely"], r"entry 0: expected an object"),
    ],
    ids=["no_table_names", "table_index_out_of_range", "short_column_types", "int_db_id",
         "column_of_three", "int_column_name", "one_object", "a_string_entry"],
)
def test_a_malformed_tables_entry_names_the_file_and_its_index(tmp_path, tables, message):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(tables), encoding="utf-8")
    with pytest.raises(DataError, match=rf"tables\.json.*{message}"):
        load_schemas(path)


def test_load_items_all_when_unfiltered(dataset_root, schemas):
    items = load_items(dataset_root / "dev.json", schemas)
    assert len(items) == len(SCRIPTED_ITEMS)
    assert [i.question for i in items] == [s.question for s in SCRIPTED_ITEMS]


def test_load_items_is_idempotent(dataset_root, schemas):
    first = load_items(dataset_root / "dev.json", schemas)
    second = load_items(dataset_root / "dev.json", schemas)
    assert first == second


def test_load_items_subset_filter(dataset_root, schemas):
    items = load_items(dataset_root / "dev.json", schemas, subset=[PET_DB])
    assert items
    assert all(i.db_id == PET_DB for i in items)


def test_load_items_applies_exclusions(dataset_root, schemas):
    target = SCRIPTED_ITEMS[0]
    exclusions = ExclusionList(
        entries=frozenset({(target.db_id, question_hash(target.question))})
    )
    items = load_items(dataset_root / "dev.json", schemas, exclusions=exclusions)
    assert len(items) == len(SCRIPTED_ITEMS) - 1
    assert all(i.question != target.question for i in items)


def test_load_items_unknown_db(tmp_path, schemas):
    path = tmp_path / "dev.json"
    path.write_text(
        json.dumps([{"db_id": "ghost", "question": "q?", "query": "SELECT 1"}]),
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="unknown db_id"):
        load_items(path, schemas)


_ITEM = {"db_id": CONCERT_DB, "question": "q?", "query": "SELECT 1", "query_toks": ["SELECT"]}


@pytest.mark.parametrize(
    "dev, message",
    [
        ([_ITEM, {"db_id": CONCERT_DB, "question": "q?"}], r"entry 1: missing field 'query'"),
        (_ITEM, r"is not a JSON list"),
        ([{**_ITEM, "db_id": 3}], r"entry 0: db_id: expected a string, got 3"),
        ([{**_ITEM, "question": None}], r"entry 0: question: expected a string, got None"),
        ([{**_ITEM, "query": ["SELECT 1"]}], r"entry 0: query: expected a string"),
    ],
    ids=["no_query", "one_object", "int_db_id", "null_question", "list_query"],
)
def test_a_malformed_dev_entry_names_the_file_and_its_index(tmp_path, schemas, dev, message):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps(dev), encoding="utf-8")
    with pytest.raises(DataError, match=rf"dev\.json.*{message}"):
        load_items(path, schemas)


def test_a_dev_entry_keeps_spiders_other_keys(tmp_path, schemas):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([_ITEM]), encoding="utf-8")
    assert load_items(path, schemas) == [DatasetItem(CONCERT_DB, "q?", "SELECT 1")]


def test_every_dev_db_id_resolvable(dataset_root, schemas):
    items = load_items(dataset_root / "dev.json", schemas)
    assert all(item.db_id in schemas for item in items)


def test_question_hash_survives_whitespace_changes():
    assert question_hash("How  many\tsingers?") == question_hash("How many singers?")
    assert len(question_hash("x")) == 16
    assert normalize_question("  a  b \n c ") == "a b c"


def test_exclusion_list_file_round_trip(tmp_path):
    exclusions = ExclusionList(
        entries=frozenset({("db1", "0" * 16), ("db2", "f" * 16)})
    )
    path = tmp_path / "excl.tsv"
    exclusions.to_file(path)
    loaded = ExclusionList.from_file(path)
    assert loaded == exclusions
    assert "\t" in path.read_text(encoding="utf-8").splitlines()[0]


def test_exclusion_list_rejects_malformed_lines(tmp_path):
    path = tmp_path / "excl.tsv"
    path.write_text("just-one-field\n", encoding="utf-8")
    with pytest.raises(DataError, match="TAB"):
        ExclusionList.from_file(path)


def test_item_ref_combines_db_and_hash():
    item = DatasetItem(db_id="db", question="who?", ground_truth_sql="SELECT 1")
    assert item.ref == f"db:{question_hash('who?')}"


def test_database_path_layout(dataset_root):
    path = database_path(dataset_root, CONCERT_DB)
    assert path.exists()
    assert path.name == f"{CONCERT_DB}.sqlite"


def test_ground_truth_queries_execute(items, runner):
    # ingestion-time check: every item's ground truth runs without error
    failures = []
    for item in items:
        try:
            runner.execute(item.db_id, item.ground_truth_sql)
        except Exception as exc:
            failures.append((item.question, str(exc)))
    assert failures == []
