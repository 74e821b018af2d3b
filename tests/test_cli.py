from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import pytest

import ecpt.cli
import ecpt.embedding
from ecpt.cases import write_correction_cases
from ecpt.cli import main
from ecpt.config import load_config
from ecpt.embedding import HashingEmbedder, ProjectionModel, embed
from ecpt.errors import BackendError
from ecpt.kb import VECTORS_SUFFIX, KbStore
from ecpt.metrics import read_report
from ecpt.pipeline import read_results
from ecpt.runner import SqlRunner
from ecpt.spider import ExclusionList, question_hash

from fixtures import (
    EXPECTED_FIXED_CASES,
    EXPECTED_TOTAL_TRIALS,
    EXPECTED_ZERO_SHOT_SUCCESSES,
    SCRIPTED_ITEMS,
    make_training_cases,
    write_mock_script,
)

EMBEDDING_DIM = 64


def write_config(tmp_path: Path, dataset_root: Path, **overrides) -> Path:
    config = {
        "dataset": {
            "root": str(dataset_root),
            "schemas": str(dataset_root / "tables.json"),
            "questions": str(dataset_root / "dev.json"),
        },
        "paths": {
            "correction_cases": "cases.jsonl",
            "kb": "out/kb.jsonl",
            "projection": "out/projection.bin",
            "checkpoint": "out/checkpoint.jsonl",
            "results": "out/results.jsonl",
            "report": "out/report.json",
            "embedding_export": "out/vectors.jsonl",
        },
        "backend": {
            "chat_model": "mock-model",
            "embedding_backend": "hash",
            "embedding_dim": EMBEDDING_DIM,
        },
        "options": {},
        "pricing": {
            "mock-model": {"prompt_price_per_1k": 0.010, "completion_price_per_1k": 0.030}
        },
        "seed": 7,
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            config.setdefault(key, {}).update(value)
        else:
            config[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=1), encoding="utf-8")
    return path


@pytest.fixture()
def workspace(tmp_path, dataset_root, schemas):
    """Config + correction cases + mock script in a scratch directory."""
    config_path = write_config(tmp_path, dataset_root)
    write_correction_cases(tmp_path / "cases.jsonl", make_training_cases(schemas))
    script = write_mock_script(tmp_path / "mock.json")
    return {"config": config_path, "script": script, "dir": tmp_path}


def run_cli(*argv) -> int:
    return main(list(argv))


# --- ingest ---------------------------------------------------------------------

def test_ingest_prints_counts(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "ingest") == 0
    out = capsys.readouterr().out
    assert "databases: 2" in out
    assert f"items: {len(SCRIPTED_ITEMS)}" in out
    assert "ground-truth failures: 0" in out


def test_ingest_missing_schema_file_exits_2(tmp_path, dataset_root, capsys):
    config = write_config(
        tmp_path, dataset_root, dataset={
            "root": str(dataset_root),
            "schemas": str(dataset_root / "missing.json"),
            "questions": str(dataset_root / "dev.json"),
        },
    )
    assert run_cli("--config", str(config), "ingest") == 2
    assert "missing.json" in capsys.readouterr().err


def test_ingest_with_exclusions_reduces_count(tmp_path, dataset_root, capsys):
    excluded = SCRIPTED_ITEMS[:3]
    exclusions = ExclusionList(
        entries=frozenset((i.db_id, question_hash(i.question)) for i in excluded)
    )
    exclusions.to_file(tmp_path / "excl.tsv")
    config = write_config(
        tmp_path, dataset_root, dataset={
            "root": str(dataset_root),
            "schemas": str(dataset_root / "tables.json"),
            "questions": str(dataset_root / "dev.json"),
            "exclusions": str(tmp_path / "excl.tsv"),
        },
    )
    assert run_cli("--config", str(config), "ingest") == 0
    assert f"items: {len(SCRIPTED_ITEMS) - 3}" in capsys.readouterr().out


# --- build-kb --------------------------------------------------------------------

def test_build_kb_counts_and_reproducibility(workspace, schemas, capsys):
    config = str(workspace["config"])
    assert run_cli("--config", config, "build-kb") == 0
    kb_path = workspace["dir"] / "out" / "kb.jsonl"
    store = KbStore.load(kb_path, schemas)
    assert len(store) == len(make_training_cases(schemas))
    first = kb_path.read_bytes()
    assert run_cli("--config", config, "build-kb") == 0
    assert kb_path.read_bytes() == first


def test_build_kb_empty_input_yields_empty_store(tmp_path, dataset_root, schemas):
    config = write_config(tmp_path, dataset_root)
    write_correction_cases(tmp_path / "cases.jsonl", [])
    assert run_cli("--config", str(config), "build-kb") == 0
    store = KbStore.load(tmp_path / "out" / "kb.jsonl", schemas)
    assert len(store) == 0


class CountingEmbedder:
    """The hash embedder at the test dimension, counting its requests."""

    def __init__(self):
        self.dim, self.calls, self._inner = EMBEDDING_DIM, 0, HashingEmbedder(EMBEDDING_DIM)

    def embed_texts(self, texts):
        self.calls += 1
        return self._inner.embed_texts(texts)


@pytest.mark.parametrize("finetuned", [False, True])
def test_build_kb_embeds_in_chunks_what_one_insert_per_case_stores(
    workspace, schemas, monkeypatch, finetuned
):
    config = str(workspace["config"])
    cases = make_training_cases(schemas)
    embedder = CountingEmbedder()
    monkeypatch.setattr(ecpt.embedding, "EMBED_CHUNK", 7)
    monkeypatch.setattr(ecpt.cli, "_make_embedder", lambda config: embedder)
    flags = ["--finetuned"] if finetuned else []
    if finetuned:
        assert run_cli("--config", config, "train-embeddings", "--epochs", "2") == 0
        embedder.calls = 0
    assert run_cli("--config", config, "build-kb", *flags) == 0
    assert embedder.calls == math.ceil(len(cases) / 7)

    out = workspace["dir"] / "out"
    model = (ProjectionModel.load(out / "projection.bin") if finetuned
             else ProjectionModel.identity(EMBEDDING_DIM))
    one_by_one = KbStore.for_model(model)
    for cc in cases:
        one_by_one.insert(cc, model, HashingEmbedder(EMBEDDING_DIM))
    one_by_one.persist(out / "one_by_one.jsonl")
    for suffix in ("", VECTORS_SUFFIX):
        assert (out / f"kb.jsonl{suffix}").read_bytes() == \
            (out / f"one_by_one.jsonl{suffix}").read_bytes()


def test_build_kb_on_a_whitespace_case_fails_as_one_insert_does(workspace, monkeypatch):
    blank = "  \n\t"
    serialize, calls = ecpt.cli.serialize_case, itertools.count()
    monkeypatch.setattr(ecpt.cli, "serialize_case",
                        lambda case, include_result: blank if next(calls) == 9
                        else serialize(case, include_result=include_result))
    with pytest.raises(ValueError, match="^cannot embed empty text$"):
        run_cli("--config", str(workspace["config"]), "build-kb")
    with pytest.raises(ValueError, match="^cannot embed empty text$"):
        embed(blank, ProjectionModel.identity(EMBEDDING_DIM), HashingEmbedder(EMBEDDING_DIM))


# --- train-embeddings ---------------------------------------------------------------

def test_train_embeddings_prints_default_twenty_epochs(workspace, capsys):
    config = str(workspace["config"])
    assert run_cli("--config", config, "train-embeddings") == 0
    out = capsys.readouterr().out
    assert "epochs: 20" in out
    assert out.count("mean loss") == 20


def test_train_embeddings_loss_column_monotone_or_flagged(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "train-embeddings") == 0
    out = capsys.readouterr().out
    losses = []
    for line in out.splitlines():
        if "mean loss" not in line:
            continue
        value = float(line.split("mean loss")[1].split()[0])
        if losses and value > losses[-1]:
            assert "(increased)" in line
        else:
            assert "(increased)" not in line
        losses.append(value)
    assert len(losses) == 20


def test_train_embeddings_reruns_identically(workspace, capsys):
    config = str(workspace["config"])
    projection = workspace["dir"] / "out" / "projection.bin"
    assert run_cli("--config", config, "train-embeddings", "--epochs", "3") == 0
    first = projection.read_bytes()
    assert run_cli("--config", config, "train-embeddings", "--epochs", "3") == 0
    assert projection.read_bytes() == first


def test_train_embeddings_on_singleton_labels_exits_2(tmp_path, dataset_root, schemas, capsys):
    from fixtures import make_correction_cases

    config = write_config(tmp_path, dataset_root)
    cases = [cc for cc in make_correction_cases(schemas) if cc.primary_label == "e3"]
    write_correction_cases(tmp_path / "cases.jsonl", cases)
    assert run_cli("--config", str(config), "train-embeddings") == 2


# --- run / report ----------------------------------------------------------------------

def run_full(workspace, *extra) -> int:
    return run_cli(
        "--config",
        str(workspace["config"]),
        "--mock-backend",
        str(workspace["script"]),
        "run",
        *extra,
    )


def test_run_emits_report_and_results(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_full(workspace) == 0
    out = capsys.readouterr().out
    assert "85.00%" in out  # (12 + 5) / 20
    assert "62.50%" in out  # 5 / 8
    report = read_report(workspace["dir"] / "out" / "report.json")
    assert report.total_cases == len(SCRIPTED_ITEMS)
    assert report.zero_shot_successes == EXPECTED_ZERO_SHOT_SUCCESSES
    assert report.fixed_cases == EXPECTED_FIXED_CASES
    assert report.total_trials == EXPECTED_TOTAL_TRIALS


def test_run_is_reproducible_and_resumable(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_full(workspace) == 0
    report_path = workspace["dir"] / "out" / "report.json"
    first = report_path.read_bytes()

    # fresh rerun reproduces the report byte for byte
    assert run_full(workspace) == 0
    assert report_path.read_bytes() == first

    # resume after truncating the checkpoint reproduces it as well
    checkpoint = workspace["dir"] / "out" / "checkpoint.jsonl"
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    checkpoint.write_text("\n".join(lines[:7]) + "\n", encoding="utf-8")
    assert run_full(workspace, "--resume") == 0
    assert report_path.read_bytes() == first


def test_run_executes_each_ground_truth_once(workspace, monkeypatch, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    executed = []
    execute = SqlRunner.execute

    def recording_execute(self, db_id, sql):
        executed.append(sql)
        return execute(self, db_id, sql)

    monkeypatch.setattr(SqlRunner, "execute", recording_execute)
    assert run_full(workspace) == 0
    results = read_results(workspace["dir"] / "out" / "results.jsonl")
    generated = sum(
        (r.zero_shot_sql is not None) + sum(t.candidate_sql is not None for t in r.trials)
        for r in results
    )
    assert len(executed) == len(SCRIPTED_ITEMS) + generated
    executed.clear()
    assert run_full(workspace, "--resume") == 0  # nothing pending
    assert executed == []


def test_run_generic_mode(workspace, capsys):
    # the scripted treatments answer only correction prompts; every generic fix
    # gets the default reply, which fixes nothing
    script = json.loads(workspace["script"].read_text(encoding="utf-8"))
    workspace["script"].write_text(
        json.dumps({**script, "default_response": "SELECT 1"}), encoding="utf-8"
    )
    assert run_full(workspace, "--generic") == 0
    report = read_report(workspace["dir"] / "out" / "report.json")
    assert report.fixed_cases == 0
    assert report.zero_shot_successes == EXPECTED_ZERO_SHOT_SUCCESSES


def test_run_with_a_mock_script_lacking_a_rule_exits_2(workspace, capsys):
    # the script has no rule for the generic-fix prompt: the first item to need
    # one stops the run, and no item is recorded as failed
    assert run_full(workspace, "--generic") == 2
    assert "no mock rule matched" in capsys.readouterr().err
    checkpoint = workspace["dir"] / "out" / "checkpoint.jsonl"
    recorded = [json.loads(line) for line in checkpoint.read_text(encoding="utf-8").splitlines()]
    assert len(recorded) < len(SCRIPTED_ITEMS)
    assert all(record["error"] is None for record in recorded)


def test_run_parallelism_sets_the_http_chat_backend_cap(
    workspace, dataset_root, monkeypatch, capsys
):
    import ecpt.cli

    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    constructed = []

    class RecordingBackend:
        def __init__(self, **kwargs):
            constructed.append(kwargs)

        def complete(self, request):
            raise BackendError("not served")

    monkeypatch.setattr(ecpt.cli, "HttpChatBackend", RecordingBackend)
    config = write_config(
        workspace["dir"],
        dataset_root,
        backend={"base_url": "http://llm.invalid/v1", "embedding_dim": EMBEDDING_DIM},
    )
    assert run_cli("--config", str(config), "--parallelism", "16", "run") == 3
    assert [kwargs["max_concurrency"] for kwargs in constructed] == [16]


def test_report_recomputes_same_numbers(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_full(workspace) == 0
    report_path = workspace["dir"] / "out" / "report.json"
    first = report_path.read_bytes()
    assert run_cli("--config", str(workspace["config"]), "report") == 0
    assert report_path.read_bytes() == first


def test_report_unknown_model_exits_2(workspace, tmp_path, dataset_root, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_full(workspace) == 0
    config = write_config(
        workspace["dir"],
        dataset_root,
        backend={"chat_model": "unknown-model", "embedding_dim": EMBEDDING_DIM},
    )
    assert run_cli("--config", str(config), "report") == 2
    assert "unknown-model" in capsys.readouterr().err


def test_run_against_a_kb_record_without_vector_exits_2(workspace, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    kb_path = workspace["dir"] / "out" / "kb.jsonl"
    lines = kb_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    del record["vector"]
    lines[3] = json.dumps(record)
    kb_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_full(workspace) == 2
    assert "kb.jsonl:4" in capsys.readouterr().err


GOLDEN_DIR = Path(__file__).parent / "goldens"


def write_generic_mock_script(path: Path) -> Path:
    """The scripted schedule with the treatments answering the generic fix prompt."""
    script = write_mock_script(path)
    text = script.read_text(encoding="utf-8")
    script.write_text(
        text.replace("Fix the SQL query below", "did not produce the expected result"),
        encoding="utf-8",
    )
    return script


@pytest.mark.parametrize("mode", ["ecpt", "generic"])
def test_run_records_match_goldens(workspace, mode, capsys):
    """Old checkpoints stay resumable only while the record bytes stay the same."""
    extra = ["--generic"] if mode == "generic" else []
    if mode == "generic":
        write_generic_mock_script(workspace["script"])
    else:
        assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_full(workspace, *extra) == 0
    out = workspace["dir"] / "out"
    records = (GOLDEN_DIR / f"run_{mode}.jsonl").read_bytes()
    report = (GOLDEN_DIR / f"run_{mode}_report.json").read_bytes()
    assert (out / "checkpoint.jsonl").read_bytes() == records
    assert (out / "results.jsonl").read_bytes() == records
    assert (out / "report.json").read_bytes() == report

    # resuming from the golden checkpoint makes no LLM call: a script without
    # rules would turn any call into a failed item
    (out / "results.jsonl").unlink()
    workspace["script"].write_text('{"rules": []}', encoding="utf-8")
    assert run_full(workspace, "--resume", *extra) == 0
    assert (out / "results.jsonl").read_bytes() == records
    assert (out / "report.json").read_bytes() == report


# --- export-embeddings --------------------------------------------------------------------

def test_export_embeddings_row_count_matches_kb(workspace, schemas, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    assert run_cli("--config", str(workspace["config"]), "export-embeddings") == 0
    kb = KbStore.load(workspace["dir"] / "out" / "kb.jsonl", schemas)
    export = workspace["dir"] / "out" / "vectors.jsonl"
    assert len(export.read_text(encoding="utf-8").splitlines()) == len(kb)


# --- ground-truth failures are flagged, not dropped -------------------------------------------

@pytest.fixture()
def dataset_with_bad_truth(tmp_path, dataset_root):
    import shutil

    root = tmp_path / "spider"
    root.mkdir()
    shutil.copy(dataset_root / "tables.json", root / "tables.json")
    questions = json.loads((dataset_root / "dev.json").read_text(encoding="utf-8"))
    questions.append(
        {
            "db_id": "concert_hall",
            "question": "Which singer has a broken ground truth?",
            "query": "SELECT broken_column FROM singer",
        }
    )
    (root / "dev.json").write_text(json.dumps(questions), encoding="utf-8")
    shutil.copytree(dataset_root / "database", root / "database")
    return root


def test_ingest_reports_ground_truth_failures(tmp_path, dataset_with_bad_truth, capsys):
    config = write_config(tmp_path, dataset_with_bad_truth)
    assert run_cli("--config", str(config), "ingest") == 0
    out = capsys.readouterr().out
    assert f"items: {len(SCRIPTED_ITEMS) + 1}" in out  # kept in the dataset
    assert "ground-truth failures: 1" in out
    assert "broken_column" in out


def test_run_skips_items_with_failing_ground_truth(
    tmp_path, dataset_with_bad_truth, schemas, capsys
):
    config = write_config(tmp_path, dataset_with_bad_truth)
    write_correction_cases(tmp_path / "cases.jsonl", make_training_cases(schemas))
    script = write_mock_script(tmp_path / "mock.json")
    assert run_cli("--config", str(config), "build-kb") == 0
    assert run_cli("--config", str(config), "--mock-backend", str(script), "run") == 0
    out = capsys.readouterr().out
    assert "skipped items with failing ground truth: 1" in out
    report = read_report(tmp_path / "out" / "report.json")
    assert report.total_cases == len(SCRIPTED_ITEMS)


def test_ingest_lists_exactly_the_refs_run_skips(tmp_path, dataset_with_bad_truth, schemas, capsys):
    tables = json.loads((dataset_with_bad_truth / "tables.json").read_text(encoding="utf-8"))
    tables.append({**tables[0], "db_id": "ghost_hall"})  # a schema without a database file
    (dataset_with_bad_truth / "tables.json").write_text(json.dumps(tables), encoding="utf-8")
    questions = json.loads((dataset_with_bad_truth / "dev.json").read_text(encoding="utf-8"))
    questions.append({"db_id": "ghost_hall", "question": "How many ghosts sing?",
                      "query": "SELECT count(*) FROM singer"})
    (dataset_with_bad_truth / "dev.json").write_text(json.dumps(questions), encoding="utf-8")
    config = write_config(tmp_path, dataset_with_bad_truth)
    write_correction_cases(tmp_path / "cases.jsonl", make_training_cases(schemas))
    script = write_mock_script(tmp_path / "mock.json")
    assert run_cli("--config", str(config), "ingest") == 0
    listed = {line.split(": ")[0].strip() for line in capsys.readouterr().out.splitlines()
              if line.startswith("  ")}
    assert run_cli("--config", str(config), "build-kb") == 0
    assert run_cli("--config", str(config), "--mock-backend", str(script), "run") == 0
    assert "skipped items with failing ground truth: 2" in capsys.readouterr().out
    run = {r.item_ref for r in read_results(tmp_path / "out" / "results.jsonl")}
    asked = {f"{q['db_id']}:{question_hash(q['question'])}" for q in questions}
    assert listed == asked - run
    assert {ref.split(":")[0] for ref in listed} == {"concert_hall", "ghost_hall"}


# --- exit codes ------------------------------------------------------------------------------

def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1


@pytest.mark.parametrize("value", ["0", "-3", "2.5", "abc"])
def test_an_epoch_count_below_one_exits_1(workspace, value, capsys):
    projection = workspace["dir"] / "out" / "projection.bin"
    with pytest.raises(SystemExit) as excinfo:
        main(["--config", str(workspace["config"]), "train-embeddings", "--epochs", value])
    assert excinfo.value.code == 1
    assert f"argument --epochs: '{value}' is not an integer >= 1" in capsys.readouterr().err
    assert not projection.exists()


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "many"])
def test_a_parallelism_below_one_exits_1(workspace, value, capsys):
    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0
    results = workspace["dir"] / "out" / "results.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        run_cli("--config", str(workspace["config"]), "--parallelism", value,
                "--mock-backend", str(workspace["script"]), "run")
    assert excinfo.value.code == 1
    assert f"argument --parallelism: '{value}' is not an integer >= 1" in capsys.readouterr().err
    assert not results.exists()


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["--config", str(tmp_path / "none.json"), "ingest"]) == 2


@pytest.mark.parametrize(
    "backend",
    [{"embedding_dim": "abc"}, {"embeding_model": "text-embedding-3-small"}],
    ids=["embedding_dim_not_an_int", "misspelled_key"],
)
def test_bad_backend_value_or_key_exits_2(tmp_path, dataset_root, backend, capsys):
    config = write_config(tmp_path, dataset_root, backend=backend)
    assert main(["--config", str(config), "ingest"]) == 2
    assert "bad backend section" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, message",
    [
        ({"training": {"epochs": 0}}, "bad training section: epochs must be >= 1"),
        ({"options": {"max_trials": 0}}, "bad options section: max_trials must be >= 1"),
        ({"seed": "seven"}, "bad seed"),
    ],
    ids=["training_epochs_0", "options_max_trials_0", "seed_not_an_int"],
)
def test_out_of_range_config_value_exits_2(tmp_path, dataset_root, override, message, capsys):
    config = write_config(tmp_path, dataset_root, **override)
    assert main(["--config", str(config), "ingest"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, messages",
    [
        pytest.param({"options": {"option_b_examples_in_diagnosis": "false"}},
                     ("bad options section", "option_b_examples_in_diagnosis"),
                     id="bool_as_string"),
        pytest.param({"options": {"retrieval_k": 2.5}},
                     ("bad options section", "retrieval_k"), id="int_as_float"),
        pytest.param({"options": {"max_trials": True}},
                     ("bad options section", "max_trials"), id="int_as_bool"),
        pytest.param({"llm": {"temperature": "0.1"}},
                     ("bad llm section", "temperature"), id="float_as_string"),
        pytest.param({"llm": {"model_name": "gpt-x"}},
                     ("bad llm section", "model_name"), id="llm_model_name"),
        pytest.param({"training": {"epochs": 2.0}},
                     ("bad training section", "epochs"), id="int_as_whole_float"),
        pytest.param({"backend": {"chat_model": 5}},
                     ("bad backend section", "chat_model"), id="str_as_int"),
        pytest.param({"dataset": {"subset": "abc"}},
                     ("bad dataset section", "subset"), id="tuple_as_string"),
        pytest.param({"dataset": {"subsets": ["concert_singer"]}},
                     ("bad dataset section", "subsets"), id="unknown_dataset_key"),
        pytest.param({"paths": {"kbb": "kb.jsonl"}},
                     ("bad paths section", "kbb"), id="unknown_paths_key"),
        pytest.param({"dataset": {"root": 5}},
                     ("bad dataset section", "root"), id="path_as_int"),
        pytest.param({"paths": {"kb": 5}}, ("bad paths section", "kb"), id="paths_kb_as_int"),
        pytest.param({"pricing": {"gpt-x": {"prompt_price_per_1k": 0.01}}},
                     ("bad pricing section", "gpt-x", "completion_price_per_1k"),
                     id="pricing_entry_lacking_a_key"),
        pytest.param({"pricing": {"gpt-x": {"prompt_price_per_1k": "abc",
                                            "completion_price_per_1k": 0.03}}},
                     ("bad pricing section", "gpt-x", "prompt_price_per_1k"),
                     id="pricing_price_as_string"),
        pytest.param({"pricing": {"gpt-x": 0.01}},
                     ("bad pricing section", "gpt-x"), id="pricing_entry_not_an_object"),
        pytest.param({"seed": "7"}, ("bad seed",), id="seed_as_string"),
        pytest.param({"seed": 1.7}, ("bad seed",), id="seed_as_float"),
        pytest.param({"seed": True}, ("bad seed",), id="seed_as_bool"),
        pytest.param({"optoins": {"max_trials": 1}}, ("unknown config section", "optoins"),
                     id="unknown_section"),
    ],
)
def test_a_config_value_of_the_wrong_json_type_or_an_unknown_key_exits_2(
    tmp_path, dataset_root, override, messages, capsys
):
    config = write_config(tmp_path, dataset_root, **override)
    assert main(["--config", str(config), "ingest"]) == 2
    err = capsys.readouterr().err
    assert all(message in err for message in messages), err
    assert "Traceback" not in err


def test_config_annotations_are_skipped_and_relative_paths_resolve(tmp_path, dataset_root):
    config = load_config(write_config(
        tmp_path, dataset_root, _note="top level", options={"_note": "x", "retrieval_k": 2},
        llm={"temperature": 0}, paths={"kb": "/abs/kb.jsonl"},
    ))
    assert config.options.retrieval_k == 2
    assert config.llm.temperature == 0.0 and type(config.llm.temperature) is float
    assert config.paths.kb == Path("/abs/kb.jsonl")
    assert config.paths.results == tmp_path / "out" / "results.jsonl"
    assert config.seed == 7


@pytest.mark.parametrize(
    "script, message",
    [
        pytest.param([{"response": "x"}], "expected an object", id="script_is_a_list"),
        pytest.param({"rules": [{"contains": ["x"]}]}, "response", id="rule_without_response"),
        pytest.param({"rules": 5}, "rules: expected a list", id="rules_not_a_list"),
        pytest.param({"rules": [{"contain": ["x"], "response": "y"}]}, "contain",
                     id="misspelled_contains"),
        pytest.param({"rules": [{"response": "y", "uses": 3}]}, "uses", id="uses_is_not_set"),
    ],
)
def test_a_bad_mock_script_exits_2(workspace, script, message, capsys):
    workspace["script"].write_text(json.dumps(script), encoding="utf-8")
    assert run_full(workspace) == 2
    err = capsys.readouterr().err
    assert "bad mock script" in err and message in err, err
    assert "Traceback" not in err


# each input file, the commands that write it first, the command that reads it,
# and the line that gets the bad byte (None: a JSON document or a binary header)
BAD_BYTE_CASES = [
    ("config.json", [], ["ingest"], None),
    ("mock.json", [], ["run"], None),
    ("tables.json", [], ["ingest"], None),
    ("dev.json", [], ["ingest"], None),
    ("excl.tsv", [], ["ingest"], 2),
    ("cases.jsonl", [], ["build-kb"], 2),
    ("out/kb.jsonl", [["build-kb"]], ["run"], 2),
    ("out/checkpoint.jsonl", [["build-kb"], ["run"]], ["run", "--resume"], 2),
    ("out/results.jsonl", [["build-kb"], ["run"]], ["report"], 2),
    ("out/projection.bin", [["train-embeddings", "--epochs", "1"]], ["build-kb", "--finetuned"],
     None),
]


@pytest.mark.parametrize("name, prepare, command, line", BAD_BYTE_CASES,
                         ids=[case[0] for case in BAD_BYTE_CASES])
def test_a_bad_utf8_byte_in_any_input_file_exits_2_naming_it(
    workspace, dataset_root, name, prepare, command, line, capsys
):
    folder = workspace["dir"]
    for source in ("tables.json", "dev.json"):
        (folder / source).write_bytes((dataset_root / source).read_bytes())
    ExclusionList(entries=frozenset({("a", "0" * 16), ("b", "1" * 16)})).to_file(
        folder / "excl.tsv")
    config = str(write_config(folder, dataset_root, dataset={
        "schemas": str(folder / "tables.json"), "questions": str(folder / "dev.json"),
        "exclusions": str(folder / "excl.tsv"),
    }))
    for argv in prepare:
        assert run_cli("--config", config, "--mock-backend", str(workspace["script"]), *argv) == 0
    path = folder / name
    lines = path.read_bytes().split(b"\n")
    lines[(line or 1) - 1] = b"\xff" + lines[(line or 1) - 1]
    path.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert run_cli("--config", config, "--mock-backend", str(workspace["script"]), *command) == 2
    err = capsys.readouterr().err
    assert (f"{path.name}:{line}:" if line else path.name) in err, err
    assert "Traceback" not in err


def test_backend_error_exits_3(workspace, dataset_root, monkeypatch, capsys):
    import requests

    import ecpt.transport

    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(ecpt.transport.requests, "post", refuse)
    monkeypatch.setattr(ecpt.transport.time, "sleep", lambda s: None)
    config = write_config(
        workspace["dir"],
        dataset_root,
        backend={
            "base_url": "http://llm.invalid/v1",
            "embedding_backend": "http",
            "embedding_model": "embed-model",
            "embedding_dim": EMBEDDING_DIM,
            "chat_model": "mock-model",
        },
    )
    assert run_cli("--config", str(config), "build-kb") == 3
    assert "transport failure" in capsys.readouterr().err


def test_run_backend_outage_exits_3_and_checkpoints_nothing(
    workspace, dataset_root, monkeypatch, capsys
):
    import requests

    import ecpt.transport

    assert run_cli("--config", str(workspace["config"]), "build-kb") == 0

    def refuse(*args, **kwargs):
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(ecpt.transport.requests, "post", refuse)
    monkeypatch.setattr(ecpt.transport.time, "sleep", lambda s: None)
    config = write_config(
        workspace["dir"],
        dataset_root,
        backend={"base_url": "http://llm.invalid/v1", "embedding_dim": EMBEDDING_DIM},
    )
    assert run_cli("--config", str(config), "--parallelism", "2", "run") == 3
    assert "transport failure" in capsys.readouterr().err
    checkpoint = workspace["dir"] / "out" / "checkpoint.jsonl"
    assert checkpoint.read_text(encoding="utf-8") == ""
