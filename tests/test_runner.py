from __future__ import annotations

import math
import random
import sqlite3

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ecpt.cases import OutcomeKind
from ecpt.runner import (
    ComparisonPolicy,
    ExecutionResult,
    ResultTable,
    SqlExecutionError,
    SqlRunner,
    SqlTimeout,
    UnknownDatabase,
    classify_outcome,
    _value_sort_key,
    compare,
    detect_order_by,
)

from fixtures import CONCERT_DB, PET_DB


# --- execute -------------------------------------------------------------------

def test_execute_select_one(runner):
    table = runner.execute(CONCERT_DB, "SELECT 1")
    assert table.rows == ((1,),)
    assert len(table.columns) == 1


def test_execute_unknown_column_preserves_db_message(runner):
    with pytest.raises(SqlExecutionError, match="no such column"):
        runner.execute(CONCERT_DB, "SELECT no_such_col FROM singer")


def test_execute_unknown_db(runner):
    with pytest.raises(UnknownDatabase):
        runner.execute("ghost", "SELECT 1")


def test_execute_is_read_only(runner):
    with pytest.raises(SqlExecutionError, match="readonly|read-only|attempt to write"):
        runner.execute(CONCERT_DB, "INSERT INTO singer VALUES (99, 'x', 'y', 1)")


def test_execute_hand_computed_fixture(runner):
    table = runner.execute(
        CONCERT_DB, "SELECT name, age FROM singer WHERE country = 'France' ORDER BY age"
    )
    assert table.rows == (
        ("Justin Brown", 29),
        ("Rose White", 41),
        ("John Nizinik", 43),
    )


def test_execute_row_cap(dataset_root, schemas):
    from ecpt.spider import database_paths

    capped = SqlRunner(database_paths(dataset_root, schemas), row_cap=2)
    table = capped.execute(CONCERT_DB, "SELECT singer_id FROM singer")
    assert len(table.rows) == 2


@pytest.fixture
def hundred_rows(tmp_path):
    path = tmp_path / "numbers.sqlite"
    connection = sqlite3.connect(path)
    connection.execute("CREATE TABLE t (x INTEGER)")
    connection.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(100)])
    connection.commit()
    connection.close()
    return {"numbers": path}


def test_execute_flags_results_past_the_row_cap(hundred_rows):
    capped = SqlRunner(hundred_rows, row_cap=10)
    over = capped.execute("numbers", "SELECT x FROM t")
    assert len(over.rows) == 10 and over.truncated
    exact = capped.execute("numbers", "SELECT x FROM t WHERE x < 10")
    assert len(exact.rows) == 10 and not exact.truncated


def test_truncated_results_are_never_a_success(hundred_rows):
    capped = SqlRunner(hundred_rows, row_cap=10)
    truth = capped.execute("numbers", "SELECT x FROM t ORDER BY x")
    for policy in (ComparisonPolicy(order_sensitive=True), ComparisonPolicy()):
        wrong = capped.try_execute("numbers", "SELECT x FROM t WHERE x < 59 ORDER BY x")
        outcome = classify_outcome(wrong, truth, policy)
        assert outcome.kind is OutcomeKind.UNDESIRED_RESULT
        assert "row cap" in outcome.detail
        same = capped.try_execute("numbers", "SELECT x FROM t ORDER BY x")
        assert classify_outcome(same, truth, policy).kind is not OutcomeKind.SUCCESS


def test_execute_timeout(runner):
    # recursive CTE that never finishes within 50 ms
    slow = (
        "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) "
        "SELECT count(*) FROM c"
    )
    with pytest.raises(SqlTimeout):
        SqlRunner(runner.databases, timeout_ms=50).execute(CONCERT_DB, slow)


def test_repeated_execution_is_stable(runner):
    sql = "SELECT name FROM singer"
    first = runner.execute(CONCERT_DB, sql)
    second = runner.execute(CONCERT_DB, sql)
    assert compare(first, second, ComparisonPolicy())


def test_try_execute_wraps_errors(runner):
    result = runner.try_execute(CONCERT_DB, "SELECT nope FROM singer")
    assert not result.ok
    assert "no such column" in result.error


# --- detect_order_by ------------------------------------------------------------

ORDER_BY_FIXTURES = [
    ("SELECT a FROM t ORDER BY a", True),
    ("select a from t order by a desc", True),
    ("SELECT a FROM t", False),
    ("SELECT a FROM t WHERE b IN (SELECT c FROM u ORDER BY c LIMIT 1)", False),
    ("SELECT 'ORDER BY' FROM t", False),
    ('SELECT "ORDER BY" FROM t', False),
    ("SELECT a FROM t -- ORDER BY a", False),
    ("SELECT a FROM t /* ORDER BY a */", False),
    ("SELECT a FROM t WHERE x = 1 ORDER BY a LIMIT 5", True),
    ("SELECT a FROM (SELECT b AS a FROM u ORDER BY b) sub", False),
    ("SELECT a FROM t UNION SELECT b FROM u ORDER BY 1", True),
    ("SELECT max(a) FROM t GROUP BY b ORDER BY max(a)", True),
    ("SELECT a, (SELECT max(c) FROM u ORDER BY c) FROM t", False),
    ("SELECT a FROM t WHERE name = 'order by proxy'", False),
    ("SELECT ordering FROM t", False),
    ("SELECT a FROM t WHERE b > 2 GROUP BY a HAVING count(*) > 1", False),
    ("SELECT a FROM t ORDER   BY a", True),
    ("SELECT a FROM t\nORDER BY\na", True),
    ("WITH x AS (SELECT a FROM t ORDER BY a) SELECT * FROM x", False),
    ("SELECT a FROM t WHERE b IN (1, 2) ORDER BY a DESC, b ASC", True),
]


@pytest.mark.parametrize("sql, expected", ORDER_BY_FIXTURES)
def test_detect_order_by(sql, expected):
    assert detect_order_by(sql) is expected


# --- compare ----------------------------------------------------------------------

def table(columns, rows) -> ResultTable:
    return ResultTable(columns=tuple(columns), rows=tuple(tuple(r) for r in rows))


def test_compare_identical_tables():
    t = table(("a", "b"), [(1, "x"), (2, "y")])
    assert compare(t, t, ComparisonPolicy())


def test_compare_shuffled_rows_order_insensitive():
    a = table(("a",), [(1,), (2,), (3,)])
    b = table(("a",), [(3,), (1,), (2,)])
    assert compare(a, b, ComparisonPolicy(order_sensitive=False))
    assert not compare(a, b, ComparisonPolicy(order_sensitive=True))


def test_compare_ignores_column_names_but_not_count():
    a = table(("StudentCount",), [(5,)])
    b = table(("count(*)",), [(5,)])
    assert compare(a, b, ComparisonPolicy())
    wide = table(("a", "b"), [(5, 5)])
    assert not compare(a, wide, ComparisonPolicy())


def test_compare_numeric_tolerance_and_cross_type():
    a = table(("v",), [(1.0000001,)])
    b = table(("v",), [(1.0,)])
    assert compare(a, b, ComparisonPolicy())
    assert compare(table(("v",), [(1,)]), table(("v",), [(1.0,)]), ComparisonPolicy())
    assert not compare(
        table(("v",), [(1.001,)]), table(("v",), [(1.0,)]), ComparisonPolicy()
    )


def test_compare_nulls_equal_only_to_nulls():
    assert compare(table(("v",), [(None,)]), table(("v",), [(None,)]), ComparisonPolicy())
    assert not compare(table(("v",), [(None,)]), table(("v",), [(0,)]), ComparisonPolicy())
    assert not compare(table(("v",), [(None,)]), table(("v",), [("",)]), ComparisonPolicy())


def test_compare_multiset_respects_duplicates():
    a = table(("v",), [(1,), (1,), (2,)])
    b = table(("v",), [(1,), (2,), (2,)])
    assert not compare(a, b, ComparisonPolicy())


@given(
    rows=st.lists(
        st.tuples(st.integers(-5, 5), st.sampled_from(["x", "y", None])), max_size=8
    ),
    seed=st.randoms(),
)
def test_compare_symmetric_and_reflexive_without_order(rows, seed):
    t = table(("a", "b"), rows)
    shuffled = list(rows)
    seed.shuffle(shuffled)
    s = table(("a", "b"), shuffled)
    policy = ComparisonPolicy(order_sensitive=False)
    assert compare(t, t, policy)
    assert compare(t, s, policy) == compare(s, t, policy)
    assert compare(t, s, policy)


def test_compare_straddling_a_power_of_ten_within_tolerance():
    a = table(("a", "b"), [(1.0000000005, 5.0), (2.0, 1.0)])
    b = table(("a", "b"), [(0.9999999995, 5.0), (2.0, 1.0)])
    assert compare(a, b, ComparisonPolicy())
    assert compare(b, a, ComparisonPolicy())


def test_compare_tied_aggregates_rounded_apart_in_the_last_bit():
    # the same per-group sums, added up in another order by another query
    truth = table(("total", "grp"), [(0.3, "x"), (0.3, "y")])
    generated = table(("total", "grp"), [(0.1 + 0.2, "x"), (0.3, "y")])
    assert 0.1 + 0.2 != 0.3
    assert compare(generated, truth, ComparisonPolicy())
    assert compare(truth, generated, ComparisonPolicy())
    for x in (1.0, -1.0, 1e-300, 1e299, 123456.789):
        nudged = x + abs(x) * 2**-50
        truth = table(("v", "k"), [(x, "a"), (x, "b")])
        generated = table(("v", "k"), [(nudged, "a"), (x, "b")])
        assert compare(generated, truth, ComparisonPolicy()), x
    truth = table(("v", "k"), [(1.0000000005, "b"), (1.0, "a")])
    generated = table(("v", "k"), [(1.0, "b"), (1.0000000005, "a")])
    assert compare(generated, truth, ComparisonPolicy())


def test_compare_sorts_numbers_in_order_across_magnitudes():
    edge = 2.0**996  # largest magnitudes sort on their own value
    values = [float("-inf"), -1e300, -edge, -edge * (1 - 2**-52), -2.5, -1, 0, 5e-324,
              1e-300, 0.5, 1, 1.5, 2, edge * (1 - 2**-52), edge, 1e300, float("inf")]
    rows = [(v, f"{i:02d}") for i, v in enumerate(values)]  # ties keep value order
    shuffled = table(("v", "k"), reversed(rows))
    assert compare(shuffled, table(("v", "k"), rows), ComparisonPolicy())
    assert [row[0] for row in shuffled._sorted_rows()] == values


def test_compare_never_matches_a_truncated_table():
    rows = ((1,), (2,))
    full = ResultTable(columns=("a",), rows=rows)
    cut = ResultTable(columns=("a",), rows=rows, truncated=True)
    for policy in (ComparisonPolicy(), ComparisonPolicy(order_sensitive=True)):
        assert not compare(cut, full, policy)
        assert not compare(full, cut, policy)
        assert not compare(cut, cut, policy)


# Values as sqlite3 returns them: NULL, 64-bit INTEGER, finite REAL, TEXT, BLOB.
SQLITE_VALUES = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.binary(max_size=4),
)


@given(
    data=st.data(),
    width=st.integers(1, 3),
    seed=st.randoms(),
)
def test_compare_any_row_permutation_of_mixed_sqlite_values(data, width, seed):
    rows = data.draw(st.lists(st.tuples(*[SQLITE_VALUES] * width), max_size=10))
    # a few exact duplicates, so multiset counts matter
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    columns = tuple(f"c{i}" for i in range(width))
    t = table(columns, rows)
    shuffled = list(rows)
    seed.shuffle(shuffled)
    s = table(columns, shuffled)
    policy = ComparisonPolicy(order_sensitive=False)
    assert compare(t, t, policy)
    assert compare(t, t, ComparisonPolicy(order_sensitive=True))
    assert compare(t, s, policy)
    assert compare(s, t, policy)


class Label(str):
    pass


def whole_row_order(rows):
    # the reference: one key tuple per row, every value keyed
    return sorted(rows, key=lambda row: tuple(map(_value_sort_key, row)))


def last_bit_apart(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


EDGE = 2.0**996  # magnitudes from here on sort unrounded
SORT_VALUES = st.one_of(
    SQLITE_VALUES,
    st.floats(allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False).map(last_bit_apart).flatmap(st.sampled_from),
    st.sampled_from([EDGE, -EDGE, 1.0, 0.3, 0.1 + 0.2]).map(last_bit_apart).flatmap(
        st.sampled_from
    ),
    st.booleans(),
    st.text(max_size=3).map(Label),
)


@given(data=st.data(), width=st.integers(1, 4))
def test_sorted_rows_follow_the_whole_row_key_order(data, width):
    columns = []
    for _ in range(width):
        few = data.draw(st.lists(SORT_VALUES, min_size=1, max_size=3))
        # at most three distinct values make long runs of ties
        columns.append(st.sampled_from(few) if data.draw(st.booleans()) else SORT_VALUES)
    rows = data.draw(st.lists(st.tuples(*columns), max_size=12))
    rows += data.draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    got = table(tuple(f"c{i}" for i in range(width)), rows)._sorted_rows()
    assert list(map(id, got)) == list(map(id, whole_row_order(rows)))


def test_a_unique_first_column_is_the_only_one_keyed(monkeypatch):
    rows = [(i, f"n{i % 7}", i / 3, None, b"x") for i in range(2000)]
    random.Random(0).shuffle(rows)
    keyed = []

    def counting_key(value):
        keyed.append(value)
        return _value_sort_key(value)

    monkeypatch.setattr("ecpt.runner._value_sort_key", counting_key)
    got = table(("a", "b", "c", "d", "e"), rows)._sorted_rows()
    assert len(keyed) == 2000
    assert got == whole_row_order(rows)


# --- classify_outcome ---------------------------------------------------------------

def test_classify_execution_error():
    truth = table(("a",), [(1,)])
    outcome = classify_outcome(
        ExecutionResult(error="no such column: x"), truth, ComparisonPolicy()
    )
    assert outcome.kind is OutcomeKind.EXECUTION_ERROR
    assert "no such column" in outcome.detail


def test_classify_success():
    truth = table(("a",), [(1,), (2,)])
    generated = ExecutionResult(table=table(("b",), [(2,), (1,)]))
    assert classify_outcome(generated, truth, ComparisonPolicy()).kind is OutcomeKind.SUCCESS


def test_classify_empty_table():
    truth = table(("a",), [(1,)])
    generated = ExecutionResult(table=table(("a",), []))
    assert classify_outcome(generated, truth, ComparisonPolicy()).kind is OutcomeKind.EMPTY_TABLE


def test_classify_both_empty_is_success():
    truth = table(("a",), [])
    generated = ExecutionResult(table=table(("b",), []))
    assert classify_outcome(generated, truth, ComparisonPolicy()).kind is OutcomeKind.SUCCESS


def test_classify_undesired_result():
    truth = table(("a",), [(1,)])
    generated = ExecutionResult(table=table(("a",), [(2,)]))
    assert (
        classify_outcome(generated, truth, ComparisonPolicy()).kind
        is OutcomeKind.UNDESIRED_RESULT
    )


def test_classify_is_deterministic():
    truth = table(("a",), [(1,)])
    generated = ExecutionResult(table=table(("a",), [(2,)]))
    first = classify_outcome(generated, truth, ComparisonPolicy())
    second = classify_outcome(generated, truth, ComparisonPolicy())
    assert first == second


# --- classifier fixture suite over real databases -----------------------------------

# (db_id, generated SQL, ground-truth SQL, expected outcome kind)
CLASSIFIER_FIXTURES = [
    # successes
    (CONCERT_DB, "SELECT count(*) FROM singer", "SELECT count(*) FROM singer",
     OutcomeKind.SUCCESS),
    (CONCERT_DB, "SELECT name FROM singer ORDER BY name DESC", "SELECT name FROM singer",
     OutcomeKind.SUCCESS),  # shuffled rows, order-insensitive truth
    (CONCERT_DB, "SELECT name AS StudentCount FROM stadium", "SELECT name FROM stadium",
     OutcomeKind.SUCCESS),  # alias differences are ignored
    (PET_DB,
     "SELECT name FROM student WHERE age > 90",
     "SELECT name FROM student WHERE age > 95",
     OutcomeKind.SUCCESS),  # both empty
    # execution errors
    (CONCERT_DB, "SELECT no_col FROM singer", "SELECT name FROM singer",
     OutcomeKind.EXECUTION_ERROR),
    (CONCERT_DB, "SELECT FROM singer", "SELECT name FROM singer",
     OutcomeKind.EXECUTION_ERROR),
    (PET_DB, "SELECT * FROM missing_table", "SELECT count(*) FROM student",
     OutcomeKind.EXECUTION_ERROR),
    # empty tables
    (PET_DB,
     'SELECT allergy FROM allergy_type WHERE allergytype = "Food"',
     "SELECT allergy FROM allergy_type WHERE allergytype = 'food'",
     OutcomeKind.EMPTY_TABLE),  # double-quoted wrong-case value matches nothing
    (CONCERT_DB,
     "SELECT name FROM singer WHERE country = 'Atlantis'",
     "SELECT name FROM singer WHERE country = 'France'",
     OutcomeKind.EMPTY_TABLE),
    # undesired results
    (CONCERT_DB, "SELECT count(country) FROM singer",
     "SELECT count(DISTINCT country) FROM singer",
     OutcomeKind.UNDESIRED_RESULT),
    (CONCERT_DB, "SELECT name FROM singer ORDER BY age DESC LIMIT 1",
     "SELECT name FROM singer ORDER BY age LIMIT 1",
     OutcomeKind.UNDESIRED_RESULT),
    (PET_DB, "SELECT major, count(*) FROM student",
     "SELECT major, count(*) FROM student GROUP BY major",
     OutcomeKind.UNDESIRED_RESULT),
    (CONCERT_DB, "SELECT year FROM concert ORDER BY year DESC",
     "SELECT year FROM concert ORDER BY year",
     OutcomeKind.UNDESIRED_RESULT),  # order-sensitive truth, reversed rows
    (PET_DB, "SELECT name, age FROM student", "SELECT name FROM student",
     OutcomeKind.UNDESIRED_RESULT),  # column count mismatch
]


@pytest.mark.parametrize("db_id, generated_sql, truth_sql, expected", CLASSIFIER_FIXTURES)
def test_classifier_fixture_suite(runner, db_id, generated_sql, truth_sql, expected):
    truth = runner.execute(db_id, truth_sql)
    policy = ComparisonPolicy(order_sensitive=detect_order_by(truth_sql))
    generated = runner.try_execute(db_id, generated_sql)
    assert classify_outcome(generated, truth, policy).kind is expected
