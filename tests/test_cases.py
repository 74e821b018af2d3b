from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecpt.cases import (
    DIAGNOSABLE_IDS,
    ERROR_CATALOG,
    ERROR_IDS,
    ERROR_TYPES_BY_ID,
    SUCCESS_LABEL,
    Case,
    CorrectionCase,
    ExecutionOutcome,
    OutcomeKind,
    ResultPreview,
    SchemaDescription,
    build_preview,
    error_type_table_text,
    read_correction_cases,
    serialize_case,
    write_correction_cases,
)
from ecpt.errors import DataError

from fixtures import CONCERT_DB, PET_DB, make_correction_cases


def simple_schema(db_id="toy") -> SchemaDescription:
    return SchemaDescription(
        db_id=db_id,
        tables=(
            ("people", (("person_id", "number"), ("name", "text"))),
            ("pets", (("pet_id", "number"), ("owner_id", "number"))),
        ),
        primary_keys=("people.person_id", "pets.pet_id"),
        foreign_keys=(("pets.owner_id", "people.person_id"),),
    )


def simple_case(**overrides) -> Case:
    defaults = dict(
        schema=simple_schema(),
        question="How many people are there?",
        generated_sql="SELECT count(*) FROM people",
        outcome=ExecutionOutcome(OutcomeKind.UNDESIRED_RESULT, "result mismatch: got 1x1, expected 1x1"),
        result_preview=build_preview(("count(*)",), ((3,),)),
    )
    defaults.update(overrides)
    return Case(**defaults)


# --- domain type invariants ---------------------------------------------------

def test_schema_rejects_dangling_foreign_key():
    with pytest.raises(ValueError, match="foreign key endpoint"):
        SchemaDescription(
            db_id="bad",
            tables=(("t", (("a", "text"),)),),
            foreign_keys=(("t.a", "t.missing"),),
        )

def test_schema_rejects_duplicate_table_names():
    with pytest.raises(ValueError, match="duplicate table"):
        SchemaDescription(db_id="bad", tables=(("t", ()), ("t", ())))


def test_execution_error_requires_detail():
    with pytest.raises(ValueError):
        ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, "")


def test_case_question_must_be_non_empty():
    with pytest.raises(ValueError):
        simple_case(question="   ")


def test_correction_case_success_label_must_stand_alone():
    with pytest.raises(ValueError):
        CorrectionCase(
            case=simple_case(),
            error_types=("success", "e3"),
            ground_truth_sql="SELECT 1",
            reason="",
            instruction="x",
        )


def test_correction_case_rejects_duplicates_and_unknown_ids():
    with pytest.raises(ValueError):
        CorrectionCase(
            case=simple_case(),
            error_types=("e3", "e3"),
            ground_truth_sql="SELECT 1",
            reason="",
            instruction="x",
        )
    with pytest.raises(ValueError):
        CorrectionCase(
            case=simple_case(),
            error_types=("e99",),
            ground_truth_sql="SELECT 1",
            reason="",
            instruction="x",
        )


# --- error-type catalog ---------------------------------------------------------

def test_catalog_has_exactly_fourteen_ids():
    assert len(ERROR_CATALOG) == 14
    assert len(ERROR_IDS) == 14
    assert SUCCESS_LABEL in ERROR_IDS
    assert set(DIAGNOSABLE_IDS) == ERROR_IDS - {SUCCESS_LABEL}


def test_error_table_has_thirteen_data_rows():
    lines = error_type_table_text().splitlines()
    data_rows = [l for l in lines if l.startswith("e")]
    assert len(data_rows) == 13
    assert SUCCESS_LABEL not in error_type_table_text()


def test_error_table_row_contents():
    text = error_type_table_text()
    assert "GROUP BY" in [l for l in text.splitlines() if l.startswith("e12 ")][0]
    assert "DISTINCT" in [l for l in text.splitlines() if l.startswith("e1 ")][0]
    assert ERROR_TYPES_BY_ID["e9"].name == "Join:Wrong Keyword"


def test_error_table_is_deterministic():
    assert error_type_table_text() == error_type_table_text()


# --- serialization ---------------------------------------------------------------

def test_serialize_is_deterministic():
    case = simple_case()
    assert serialize_case(case, True) == serialize_case(case, True)
    assert serialize_case(case, False) == serialize_case(case, False)


def test_serialize_section_order_and_result_omission():
    case = simple_case()
    with_result = serialize_case(case, include_result=True)
    without = serialize_case(case, include_result=False)
    lines = with_result.splitlines()
    assert lines[0] == "SCHEMA"
    assert lines.index("QUESTION") < lines.index("SQL") < lines.index("RESULT")
    assert "RESULT" not in without.splitlines()


def test_serialize_empty_foreign_keys_emits_no_fk_lines():
    schema = SchemaDescription(db_id="x", tables=(("t", (("a", "text"),)),))
    case = simple_case(schema=schema)
    assert "FOREIGN KEY" not in serialize_case(case, True)


def test_serialize_execution_error_contains_db_message():
    case = simple_case(
        outcome=ExecutionOutcome(OutcomeKind.EXECUTION_ERROR, "no such column: x"),
        result_preview=None,
    )
    text = serialize_case(case, True)
    assert "no such column: x" in text


_QUESTIONS = st.text(
    alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=60
).filter(lambda s: s.strip())
_SQLS = st.sampled_from(
    ["SELECT 1", "SELECT a FROM t", "SELECT count(*) FROM people WHERE name = 'x'"]
)
_KINDS = st.sampled_from(list(OutcomeKind))


@settings(max_examples=50)
@given(a=st.tuples(_QUESTIONS, _SQLS, _KINDS), b=st.tuples(_QUESTIONS, _SQLS, _KINDS))
def test_serialize_distinguishes_question_sql_and_kind(a, b):
    def case(question, sql, kind):
        detail = "boom" if kind is OutcomeKind.EXECUTION_ERROR else ""
        return Case(
            schema=simple_schema(),
            question=question,
            generated_sql=sql,
            outcome=ExecutionOutcome(kind, detail),
        )

    if a != b:
        assert serialize_case(case(*a), True) != serialize_case(case(*b), True)


def test_serialize_injective_over_fixture_corpus(schemas):
    cases = [cc.case for cc in make_correction_cases(schemas)]
    texts = [serialize_case(c, True) for c in cases]
    for (i, a), (j, b) in itertools.combinations(enumerate(texts), 2):
        key_a = (cases[i].schema.db_id, cases[i].question, cases[i].generated_sql, cases[i].outcome.kind)
        key_b = (cases[j].schema.db_id, cases[j].question, cases[j].generated_sql, cases[j].outcome.kind)
        if key_a != key_b:
            assert a != b


# --- preview bounds ----------------------------------------------------------------

def test_preview_truncates_rows_and_long_values():
    rows = [(i, "v" * 100) for i in range(25)]
    preview = build_preview(("id", "value"), rows)
    assert len(preview.rows) == 10
    assert preview.total_rows == 25
    assert all(len(value) <= 64 for row in preview.rows for value in row)
    assert preview.rows[0][1].endswith("...")


def test_preview_marker_rendered_when_truncated():
    rows = [(i,) for i in range(12)]
    case = simple_case(result_preview=build_preview(("n",), rows))
    assert "(showing 10 of 12 rows)" in serialize_case(case, True)


def test_preview_formats_null_and_bytes():
    preview = build_preview(("a", "b"), [(None, b"\x01\x02")])
    assert preview.rows[0] == ("NULL", "0x0102")


# --- correction-case file -----------------------------------------------------------

def test_correction_case_file_round_trip(tmp_path, schemas):
    cases = make_correction_cases(schemas)
    path = tmp_path / "cases.jsonl"
    write_correction_cases(path, cases)
    loaded = read_correction_cases(path, schemas)
    assert len(loaded) == len(cases)
    for original, parsed in zip(cases, loaded):
        assert parsed.case.question == original.case.question
        assert parsed.error_types == original.error_types
        assert parsed.ground_truth_sql == original.ground_truth_sql
        assert parsed.instruction == original.instruction


def test_correction_case_file_requires_version_header(tmp_path, schemas):
    path = tmp_path / "cases.jsonl"
    path.write_text('{"version": "ecpt-kb/0"}\n', encoding="utf-8")
    with pytest.raises(Exception, match="version"):
        read_correction_cases(path, schemas)


def test_correction_case_file_header_is_first_record(tmp_path, schemas):
    cases = make_correction_cases(schemas)
    path = tmp_path / "cases.jsonl"
    write_correction_cases(path, cases)
    first = path.read_text(encoding="utf-8").splitlines()[0]
    assert '"version"' in first and "ecpt-kb/1" in first


def test_correction_case_file_unknown_db(tmp_path, schemas):
    cases = make_correction_cases(schemas)
    path = tmp_path / "cases.jsonl"
    write_correction_cases(path, cases)
    with pytest.raises(Exception, match="unknown db_id"):
        read_correction_cases(path, {CONCERT_DB: schemas[CONCERT_DB]})


def test_correction_case_file_names_the_line_of_a_bad_record(tmp_path, schemas):
    path = tmp_path / "cases.jsonl"
    write_correction_cases(path, make_correction_cases(schemas)[:3])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2].replace('"reason"', '"reasoning"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"cases\.jsonl:3: .*reason"):
        read_correction_cases(path, schemas)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("reason", 7, "reason: expected a string, got 7"),
        ("generated_sql", 3, "generated_sql: expected a string, got 3"),
        ("extra", 1, "unknown field 'extra'"),
        ("error_types", "e1", "error_types: expected a list, got 'e1'"),
    ],
    ids=["int_reason", "int_generated_sql", "unknown_key", "string_error_types"],
)
def test_a_correction_case_field_of_the_wrong_json_type_names_its_line(
    tmp_path, schemas, key, value, message
):
    path = tmp_path / "cases.jsonl"
    write_correction_cases(path, make_correction_cases(schemas)[:3])
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), key: value})
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"cases\.jsonl:3: {message}"):
        read_correction_cases(path, schemas)
