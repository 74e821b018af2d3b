"""Seeded input generator for the benchmark.

    python3 bench/gen.py --workload NAME --seed N --out DIR [--tiny]

Writes two trees under DIR:

- `program/`: what the program under test receives, in its own formats:
  SQLite databases under `database/<db_id>/<db_id>.sqlite`, a Spider-style
  `tables.json` and `dev.json`, and per workload a knowledge-base file
  (`kb.jsonl`) or a correction-case file (`correction_cases.jsonl`).
- `expected/`: what only the benchmark reads: the workload spec, the scripted
  replies of the fake chat backend, each item's expected schedule, and the
  knowledge base's vectors and labels for the retrieval oracle.

Expected outcomes follow from how each candidate SQL is built from its ground
truth (same rows reordered, an unknown column, an always-false predicate, a
shifted value column); nothing here runs the program's SQL runner. The same
seed gives byte-identical files. Aggregate shapes (schedule mix, label skew,
row counts) are fixed, so only names, values and assignments move with the
seed and run-to-run figures stay comparable across seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import sqlite3
import sys
from pathlib import Path

import numpy as np

from _source import import_ecpt

DIM = 768
KB_FILE_VERSION = "ecpt-kb/1"
MAX_TRIALS = 3
RETRIEVAL_K = 3
NEVER = MAX_TRIALS + 1

EXEC_ERROR = "execution_error"
EMPTY = "empty_table"
UNDESIRED = "undesired_result"
SUCCESS = "success"

# Per block of 8 items: 0 = zero-shot success, 1..3 = trial that fixes it,
# NEVER = still failing after the last trial.
FIX_PATTERN = (0, 1, 2, 1, 3, NEVER, 0, 2)
LABEL_COUNTS = (1, 2, 3, 1, 2, 1, 3, 2)
# Diagnosable labels from most to least frequent in the knowledge base.
LABELS = tuple(f"e{i}" for i in range(1, 14))
LABEL_WEIGHTS = np.array([1.0 / (rank + 1) ** 1.1 for rank in range(len(LABELS))])
KB_LABEL_COUNT_SHARES = ((1, 0.6), (2, 0.3), (3, 0.1))
TWIN_EVERY = 20

SPECS = {
    "retrieval-10k": {
        "mode": "ecpt", "items": 8, "db_rows": 40, "kb_size": 10_000,
        "option_b": True, "option_c": True, "latency_s": 0.0, "parallelism": 1,
    },
    "wide-results": {
        "mode": "generic", "items": 8, "wide_rows": 3_000, "latency_s": 0.0,
        "parallelism": 1,
    },
    "llm-latency": {
        "mode": "ecpt", "items": 16, "db_rows": 40, "kb_size": 300,
        "option_b": False, "option_c": False, "latency_s": 0.02,
        "parallelism": "nproc",
    },
    "prepare-kb": {
        "mode": "prepare", "items": 8, "db_rows": 40, "cases": 200, "epochs": 3,
    },
}
TINY = {
    "retrieval-10k": {"kb_size": 200},
    "wide-results": {"wide_rows": 60},
    "llm-latency": {"kb_size": 60, "latency_s": 0.001},
    "prepare-kb": {"cases": 40, "epochs": 1},
}

DB_WORDS = ("harbor", "orchard", "library", "clinic")
MAIN_TABLES = ("vessel", "tree", "book", "patient")
WORDS = (
    "amber", "basalt", "cedar", "delta", "ember", "fjord", "granite", "harvest",
    "indigo", "juniper", "kestrel", "lagoon", "meadow", "nimbus", "obsidian",
    "prairie", "quartz", "riverbank", "saffron", "tundra", "umber", "valley",
    "willow", "xenon", "yarrow", "zephyr",
)
VERBS = ("List", "Show", "Count", "Find", "Return", "Give")
_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")


# --- databases ----------------------------------------------------------------

def small_schema(index: int) -> dict:
    db_id = f"{DB_WORDS[index]}_{index}"
    main = MAIN_TABLES[index]
    aux = f"{main}_log"
    return {
        "db_id": db_id,
        "tables": [
            (main, [("id", "INTEGER"), ("name", "TEXT"), ("score", "REAL"),
                    ("qty", "INTEGER"), ("tag", "TEXT")]),
            (aux, [("id", "INTEGER"), ("main_id", "INTEGER"), ("label", "TEXT"),
                   ("amount", "REAL")]),
        ],
        "primary_keys": [(main, "id"), (aux, "id")],
        "foreign_keys": [((aux, "main_id"), (main, "id"))],
    }


def wide_schema() -> dict:
    return {
        "db_id": "sensor_0",
        "tables": [
            ("measurement", [("id", "INTEGER"), ("i_val", "INTEGER"), ("r_val", "REAL"),
                             ("t_val", "TEXT"), ("m_val", "")]),
        ],
        "primary_keys": [("measurement", "id")],
        "foreign_keys": [],
    }


def spider_entry(schema: dict) -> dict:
    """One tables.json record: columns by index, the synthetic '*' column first."""
    table_names = [name for name, _ in schema["tables"]]
    columns = [[-1, "*"]]
    types = ["text"]
    index = {}
    for t, (name, cols) in enumerate(schema["tables"]):
        for col, sql_type in cols:
            index[(name, col)] = len(columns)
            columns.append([t, col])
            types.append({"INTEGER": "number", "REAL": "number", "TEXT": "text"}.get(
                sql_type, "others"))
    return {
        "db_id": schema["db_id"],
        "table_names_original": table_names,
        "column_names_original": columns,
        "column_types": types,
        "primary_keys": [index[ref] for ref in schema["primary_keys"]],
        "foreign_keys": [[index[a], index[b]] for a, b in schema["foreign_keys"]],
    }


def write_database(root: Path, schema: dict, rows_by_table: dict) -> None:
    path = root / "database" / schema["db_id"] / f"{schema['db_id']}.sqlite"
    path.parent.mkdir(parents=True, exist_ok=True)
    connection = sqlite3.connect(path)
    try:
        for name, cols in schema["tables"]:
            defs = ", ".join(f"{c} {t}".strip() for c, t in cols)
            connection.execute(f"CREATE TABLE {name} ({defs})")
            marks = ", ".join("?" for _ in cols)
            connection.executemany(
                f"INSERT INTO {name} VALUES ({marks})", rows_by_table[name]
            )
        connection.commit()
    finally:
        connection.close()


def small_rows(rng: random.Random, schema: dict, rows: int) -> dict:
    (main, _), (aux, _) = schema["tables"]
    main_rows = [
        (i, f"{rng.choice(WORDS)} {i}", round(rng.uniform(0.0, 100.0), 3),
         None if rng.random() < 0.1 else rng.randint(0, 500), rng.choice(WORDS))
        for i in range(1, rows + 1)
    ]
    aux_rows = [
        (i, (i - 1) % rows + 1, rng.choice(WORDS), round(rng.uniform(-50.0, 50.0), 2))
        for i in range(1, rows + rows // 2 + 1)
    ]
    return {main: main_rows, aux: aux_rows}


# Ids share one digit count, so the comparator's text sort keys keep id order.
WIDE_FIRST_ID = 10_001


def wide_rows(rng: random.Random, rows: int) -> list[tuple]:
    out = []
    for i in range(WIDE_FIRST_ID, WIDE_FIRST_ID + rows):
        i_val = None if rng.random() < 0.1 else rng.randint(-1_000_000, 1_000_000)
        r_val = (
            None if rng.random() < 0.1
            else rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 6.0)
        )
        t_val = None if rng.random() < 0.1 else f"{rng.choice(WORDS)}-{rng.randint(0, 999)}"
        m_val = rng.choice((
            None, rng.randint(-999, 999), rng.uniform(-1e3, 1e3), rng.choice(WORDS)
        ))
        out.append((i, i_val, r_val, t_val, m_val))
    return out


# --- SQL built from parts -----------------------------------------------------

def render_sql(parts: dict) -> str:
    sql = f"SELECT {', '.join(parts['select'])} FROM {parts['from']} WHERE {parts['where']}"
    if parts.get("order"):
        sql += f" ORDER BY {parts['order']}"
    return sql


def candidate(parts: dict, kind: str, tag: str, reorder: str) -> str:
    """A SQL string whose outcome against `parts` is `kind` by construction."""
    c = dict(parts)
    if kind == SUCCESS:
        if parts.get("order"):
            c["where"] = f"{parts['where']} AND 1 = 1"  # same rows, same order
        else:
            c["order"] = reorder  # same rows, different order
    elif kind == EXEC_ERROR:
        c["select"] = [parts["select"][0], f"no_col_{tag}"]
    elif kind == EMPTY:
        c["where"] = f"{parts['where']} AND {parts['id_col']} < 0"
    elif kind == UNDESIRED:
        c["select"] = [f"{parts['select'][0]} + 1", *parts["select"][1:]]
    else:
        raise ValueError(kind)
    return render_sql(c)


def small_truth(rng: random.Random, schema: dict, rows: int) -> tuple[dict, str, str]:
    (main, _), (aux, _) = schema["tables"]
    a = rng.randint(1, rows // 2)
    b = a + rng.randint(3, rows // 4)
    shape = rng.randrange(3)
    if shape == 0:
        parts = {"select": ["id", "name", "score"], "from": main,
                 "where": f"id BETWEEN {a} AND {b}", "id_col": "id"}
        reorder = rng.choice(("score DESC", "name", "id DESC"))
    elif shape == 1:
        parts = {"select": [f"{main}.id", f"{aux}.label", f"{aux}.amount"],
                 "from": f"{main} JOIN {aux} ON {aux}.main_id = {main}.id",
                 "where": f"{main}.id <= {b}", "id_col": f"{main}.id"}
        reorder = rng.choice((f"{aux}.amount DESC", f"{aux}.label"))
    else:
        parts = {"select": ["id", "name"], "from": main, "where": f"id <= {b}",
                 "order": "id DESC", "id_col": "id"}
        reorder = ""
    question = (
        f"{rng.choice(VERBS)} the {main} records with {rng.choice(WORDS)} "
        f"{rng.choice(WORDS)} between {a} and {b}"
    )
    return parts, reorder, question


def wide_truth(rng: random.Random, rows: int, table_rows: int) -> tuple[dict, str, str]:
    a = WIDE_FIRST_ID - 1 + rng.randint(0, table_rows - rows)
    parts = {"select": ["id", "i_val", "r_val", "t_val", "m_val"], "from": "measurement",
             "where": f"id > {a} AND id <= {a + rows}", "id_col": "id"}
    reorder = "r_val DESC"  # a random permutation of the truth's rows
    question = f"{rng.choice(VERBS)} every measurement after reading {a} ({rng.choice(WORDS)})"
    return parts, reorder, question


# --- schedule -----------------------------------------------------------------

def failure_kinds(rng: random.Random, count: int) -> list[str]:
    kinds = ([EXEC_ERROR, EMPTY, UNDESIRED] * (count // 3 + 1))[:count]
    rng.shuffle(kinds)
    return kinds


def item_plans(rng: random.Random, count: int) -> list[tuple[int, list[str]]]:
    """(fix trial, diagnosed labels) per item. The pairs are fixed and only their
    order moves with the seed, so every seed asks for the same retrieval work."""
    plans, cursor = [], 0
    for i in range(count):
        size = LABEL_COUNTS[i % len(LABEL_COUNTS)]
        labels = [LABELS[(cursor + j) % len(LABELS)] for j in range(size)]
        plans.append((FIX_PATTERN[i % len(FIX_PATTERN)], labels))
        cursor += size
    rng.shuffle(plans)
    return plans


def build_items(rng: random.Random, truths: list) -> tuple[list, dict, list]:
    """dev.json entries, backend scripts and expected schedules for every item."""
    plans = item_plans(rng, len(truths))
    failing_slots = sum(
        0 if fix == 0 else 1 + min(fix - 1, MAX_TRIALS) for fix, _ in plans
    )
    kinds = iter(failure_kinds(rng, failing_slots))
    dev, scripts, schedule = [], {}, []
    for i, ((db_id, parts, reorder, phrase), (fix, labels)) in enumerate(zip(truths, plans)):
        question = f"Q{i:04d}: {phrase}?"
        truth_sql = render_sql(parts)
        zs_kind = SUCCESS if fix == 0 else next(kinds)
        trial_kinds = []
        if fix:
            for trial in range(1, MAX_TRIALS + 1):
                trial_kinds.append(SUCCESS if trial == fix else next(kinds))
                if trial == fix:
                    break
        dev.append({"db_id": db_id, "question": question, "query": truth_sql})
        scripts[question] = {
            "zero_shot": candidate(parts, zs_kind, f"{i}_0", reorder),
            "labels": labels,
            "reason": f"the query for {question[:5]} misreads the {rng.choice(WORDS)} condition",
            "instruction": f"rewrite the {rng.choice(WORDS)} filter of {question[:5]} "
                           f"to match the question",
            "treatments": [
                candidate(parts, kind, f"{i}_{t}", reorder)
                for t, kind in enumerate(trial_kinds, start=1)
            ],
        }
        schedule.append({
            "question": question, "db_id": db_id, "zero_shot_kind": zs_kind,
            "labels": labels, "trial_kinds": trial_kinds, "fix_trial": fix,
        })
    return dev, scripts, schedule


# --- correction cases and knowledge base --------------------------------------

def schema_lines(schema: dict) -> str:
    lines = [f"database: {schema['db_id']}"]
    for name, cols in schema["tables"]:
        lines.append(f"{name}(" + ", ".join(f"{c}:{t.lower()}" for c, t in cols) + ")")
    return "\n".join(lines)


def kb_label_lists(rng: np.random.Generator, count: int) -> list[list[str]]:
    sizes = []
    for size, share in KB_LABEL_COUNT_SHARES:
        sizes += [size] * int(round(share * count))
    sizes = (sizes + [1] * count)[:count]
    rng.shuffle(sizes)
    p = LABEL_WEIGHTS / LABEL_WEIGHTS.sum()
    return [[str(x) for x in rng.choice(LABELS, size=size, replace=False, p=p)]
            for size in sizes]


def correction_cases(rng: random.Random, np_rng, schemas: list[dict], count: int) -> list[dict]:
    """Labelled cases; every TWIN_EVERY-th one repeats its predecessor under a new
    question number, so some searches meet exact score ties."""
    records = []
    for i, labels in enumerate(kb_label_lists(np_rng, count)):
        if i % TWIN_EVERY == TWIN_EVERY - 1:
            twin = dict(records[-1])
            twin["question"] = f"K{i:05d}" + twin["question"][len("K00000"):]
            records.append(twin)
            continue
        schema = schemas[i % len(schemas)]
        main = schema["tables"][0][0]
        a, b = rng.randint(1, 30), rng.randint(31, 60)
        word, other = rng.choice(WORDS), rng.choice(WORDS)
        kind = (EXEC_ERROR, EMPTY, UNDESIRED)[i % 3]
        records.append({
            "db_id": schema["db_id"],
            "question": f"K{i:05d}: {rng.choice(VERBS)} {main} {word} rows with {other} "
                        f"between {a} and {b}",
            "generated_sql": f"SELECT name, {word} FROM {main} WHERE qty > {a}",
            "outcome": {"kind": kind,
                        "detail": f"no such column: {word}" if kind == EXEC_ERROR else ""},
            "error_types": labels,
            "ground_truth_sql": f"SELECT name FROM {main} WHERE qty BETWEEN {a} AND {b}",
            "reason": f"the {word} column does not answer the {other} condition",
            "instruction": f"select name and filter qty between {a} and {b}",
        })
    return records


class TokenHasher:
    """Bag-of-tokens hashing into DIM buckets, unit-normalised: the same
    scheme as build-kb's hash embedder, so stored vectors look like real ones."""

    def __init__(self):
        self._buckets: dict[str, int] = {}

    def bucket(self, token: str) -> int:
        b = self._buckets.get(token)
        if b is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            b = self._buckets[token] = int.from_bytes(digest, "big") % DIM
        return b

    def vector(self, text: str) -> np.ndarray:
        v = np.zeros(DIM)
        for token in _TOKEN_RE.findall(text.lower()):
            v[self.bucket(token)] += 1.0
        return v / np.linalg.norm(v)


def case_text(schema: dict, record: dict) -> str:
    outcome = record["outcome"]
    detail = f"error: {outcome['detail']}" if outcome["detail"] else "(no rows)"
    return (f"SCHEMA\n{schema_lines(schema)}\nQUESTION\n{record['question']}\nSQL\n"
            f"{record['generated_sql']}\nRESULT\nstatus: {outcome['kind']}\n{detail}\n")


def write_kb(program: Path, expected: Path, schemas: list[dict], records: list[dict],
             model_hash: str) -> None:
    by_id = {s["db_id"]: s for s in schemas}
    hasher = TokenHasher()
    vectors = np.stack([hasher.vector(case_text(by_id[r["db_id"]], r)) for r in records])
    with open(program / "kb.jsonl", "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"version": KB_FILE_VERSION, "dimension": DIM, "model_hash": model_hash}) + "\n")
        for i, (record, vector) in enumerate(zip(records, vectors)):
            handle.write(json.dumps({"id": i, **record, "vector": vector.tolist()}) + "\n")
    np.save(expected / "kb_vectors.npy", vectors)
    (expected / "kb_cases.json").write_text(json.dumps(
        [{"labels": r["error_types"], "question": r["question"]} for r in records]))


# --- entry point --------------------------------------------------------------

def generate(workload: str, seed: int, out: Path, tiny: bool = False) -> dict:
    spec = dict(SPECS[workload], workload=workload, seed=seed, dim=DIM,
                max_trials=MAX_TRIALS, retrieval_k=RETRIEVAL_K, tiny=tiny)
    if tiny:
        spec.update(TINY[workload])
    rng = random.Random(f"{workload}:{seed}")
    np_rng = np.random.default_rng(seed)
    program, expected = out / "program", out / "expected"
    program.mkdir(parents=True)
    expected.mkdir(parents=True)

    if spec["mode"] == "generic":
        schemas = [wide_schema()]
        table_rows = spec["wide_rows"] + 500
        write_database(program, schemas[0], {"measurement": wide_rows(rng, table_rows)})
        truths = []
        for _ in range(spec["items"]):
            parts, reorder, phrase = wide_truth(rng, spec["wide_rows"], table_rows)
            truths.append((schemas[0]["db_id"], parts, reorder, phrase))
    else:
        schemas = [small_schema(i) for i in range(len(DB_WORDS))]
        for schema in schemas:
            write_database(program, schema, small_rows(rng, schema, spec["db_rows"]))
        truths = []
        for i in range(spec["items"]):
            schema = schemas[i % len(schemas)]
            truths.append((schema["db_id"], *small_truth(rng, schema, spec["db_rows"])))

    dev, scripts, schedule = build_items(rng, truths)
    (program / "tables.json").write_text(json.dumps([spider_entry(s) for s in schemas]))
    (program / "dev.json").write_text(json.dumps(dev, indent=1))
    (expected / "scripts.json").write_text(json.dumps(scripts))
    (expected / "schedule.json").write_text(json.dumps(schedule, indent=1))

    if spec["mode"] == "ecpt":
        ecpt = import_ecpt()
        model_hash = ecpt.embedding.ProjectionModel.identity(DIM).identity_hash()
        write_kb(program, expected, schemas,
                 correction_cases(rng, np_rng, schemas, spec["kb_size"]), model_hash)
    elif spec["mode"] == "prepare":
        records = correction_cases(rng, np_rng, schemas, spec["cases"])
        with open(program / "correction_cases.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"version": KB_FILE_VERSION}) + "\n")
            for record in records:
                handle.write(json.dumps(record) + "\n")
        (expected / "kb_cases.json").write_text(json.dumps(
            [{"labels": r["error_types"], "question": r["question"]} for r in records]))

    if spec.get("parallelism") == "nproc":
        spec["parallelism"] = nproc()
    (expected / "spec.json").write_text(json.dumps(spec, indent=1))
    return spec


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, tiny=args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
