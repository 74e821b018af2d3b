"""Command-line entry point: ingest, build-kb, train-embeddings, run, report,
export-embeddings.

Exit codes: 0 success, 1 usage, 2 data error, 3 backend error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import metrics
from .cases import read_correction_cases, serialize_case
from .config import AppConfig, load_config
from .embedding import (
    Embedder,
    HashingEmbedder,
    HttpEmbedder,
    ProjectionModel,
    embed_all,
    train,
)
from .errors import BackendError, DataError
from .kb import KbStore
from .llm import ChatBackend, HttpChatBackend, MockBackend
from .pipeline import (
    MODE_ECPT,
    MODE_GENERIC,
    GroundTruthError,
    Pipeline,
    execute_ground_truth,
    read_results,
    write_results,
)
from .runner import SqlRunner
from .spider import ExclusionList, database_paths, load_items, load_schemas


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ecpt", description=__doc__)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--parallelism", type=_positive_int, default=1, help="concurrent items during run"
    )
    parser.add_argument(
        "--mock-backend",
        metavar="SCRIPT",
        default=None,
        help="serve LLM calls from a scripted mock instead of the HTTP backend",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("ingest", help="load and validate the dataset, print counts")

    build_kb = commands.add_parser("build-kb", help="embed correction cases into a store")
    build_kb.add_argument(
        "--finetuned",
        action="store_true",
        help="embed with the trained projection instead of the identity",
    )

    train_cmd = commands.add_parser(
        "train-embeddings", help="fit the projection with triplet loss"
    )
    train_cmd.add_argument("--epochs", type=_positive_int, help="override config epochs")

    run = commands.add_parser("run", help="run the dataset and emit results + report")
    run.add_argument("--resume", action="store_true", help="continue from the checkpoint")
    run.add_argument(
        "--generic",
        action="store_true",
        help="use the single-prompt self-correction baseline (no diagnosis, no retrieval)",
    )

    commands.add_parser("report", help="recompute the report from the results file")
    commands.add_parser("export-embeddings", help="dump labeled vectors from the store")
    return parser


def _make_embedder(config: AppConfig) -> Embedder:
    backend = config.backend
    if backend.embedding_backend == "hash":
        return HashingEmbedder(dim=backend.embedding_dim)
    if not backend.base_url:
        raise DataError("backend.base_url required for the http embedding backend")
    return HttpEmbedder(
        base_url=backend.base_url,
        model=backend.embedding_model,
        dim=backend.embedding_dim,
        api_key_env=backend.api_key_env,
    )


def _make_chat_backend(
    config: AppConfig, mock_script: str | None, parallelism: int
) -> ChatBackend:
    if mock_script is not None:
        return MockBackend.from_script(mock_script)
    if not config.backend.base_url:
        raise DataError(
            "backend.base_url is not configured; pass --mock-backend for offline runs"
        )
    return HttpChatBackend(
        base_url=config.backend.base_url,
        api_key_env=config.backend.api_key_env,
        max_concurrency=parallelism,
    )


def _load_dataset(config: AppConfig):
    schemas = load_schemas(config.dataset.schemas)
    exclusions = None
    if config.dataset.exclusions is not None:
        exclusions = ExclusionList.from_file(config.dataset.exclusions)
    items = load_items(
        config.dataset.questions,
        schemas,
        exclusions=exclusions,
        subset=config.dataset.subset or None,  # an empty subset selects every item
    )
    return schemas, items


def _make_runner(config: AppConfig, schemas) -> SqlRunner:
    return SqlRunner(database_paths(config.dataset.root, schemas))


def _projection_for(config: AppConfig, finetuned: bool) -> ProjectionModel:
    if finetuned:
        return ProjectionModel.load(config.paths.projection)
    return ProjectionModel.identity(config.backend.embedding_dim)


def _pricing_for(config: AppConfig) -> metrics.ModelPricing:
    model_name = config.backend.chat_model
    if model_name not in config.pricing:
        raise DataError(f"no pricing configured for model {model_name!r}")
    return config.pricing[model_name]


def cmd_ingest(config: AppConfig, args) -> int:
    schemas, items = _load_dataset(config)
    print(f"databases: {len(schemas)}")
    print(f"items: {len(items)}")
    runner = _make_runner(config, schemas)
    failures = []
    for item in items:
        try:
            execute_ground_truth(runner, item)
        except GroundTruthError as exc:
            failures.append((item.ref, str(exc.__cause__)))
    # kept in the dataset but reported; runs exclude them
    print(f"ground-truth failures: {len(failures)}")
    for ref, message in failures:
        print(f"  {ref}: {message}")
    return 0


def cmd_build_kb(config: AppConfig, args) -> int:
    schemas, _ = _load_dataset(config)
    cases = read_correction_cases(config.paths.correction_cases, schemas)
    model = _projection_for(config, args.finetuned)
    embedder = _make_embedder(config)
    store = KbStore.for_model(model)
    texts = [serialize_case(cc.case, include_result=True) for cc in cases]
    for cc, vector in zip(cases, embed_all(texts, model, embedder), strict=True):
        store.insert_vector(cc, vector)
    config.paths.kb.parent.mkdir(parents=True, exist_ok=True)
    store.persist(config.paths.kb)
    print(f"knowledge base: {len(store)} entries -> {config.paths.kb}")
    return 0


def cmd_train_embeddings(config: AppConfig, args, seed: int) -> int:
    schemas, _ = _load_dataset(config)
    cases = read_correction_cases(config.paths.correction_cases, schemas)
    labeled = [
        (serialize_case(cc.case, include_result=True), cc.primary_label) for cc in cases
    ]
    training = config.training
    if args.epochs is not None:
        training = replace(training, epochs=args.epochs)
    embedder = _make_embedder(config)
    try:
        result = train(labeled, embedder, training, seed=seed)
    except ValueError as exc:
        raise DataError(f"cannot train on {config.paths.correction_cases}: {exc}") from exc
    config.paths.projection.parent.mkdir(parents=True, exist_ok=True)
    result.model.save(config.paths.projection)
    print(f"epochs: {training.epochs}")
    previous = None
    for epoch, loss in enumerate(result.epoch_losses, start=1):
        flag = "  (increased)" if previous is not None and loss > previous else ""
        print(f"epoch {epoch:3d}  mean loss {loss:.6f}{flag}")
        previous = loss
    print(f"projection -> {config.paths.projection}")
    return 0


def cmd_run(config: AppConfig, args, parallelism: int, mock_script) -> int:
    schemas, items = _load_dataset(config)
    runner = _make_runner(config, schemas)
    backend = _make_chat_backend(config, mock_script, parallelism)
    pricing = _pricing_for(config)

    mode = MODE_GENERIC if args.generic else MODE_ECPT
    if mode == MODE_ECPT:
        model = _projection_for(config, config.options.option_a_finetuned_embeddings)
        kb = KbStore.load(config.paths.kb, schemas)
        embedder = _make_embedder(config)
    else:
        model = kb = embedder = None
    pipeline = Pipeline(
        schemas=schemas,
        runner=runner,
        backend=backend,
        settings=config.llm,
        options=config.options,
        kb=kb,
        model=model,
        embedder=embedder,
        mode=mode,
    )

    checkpoint = config.paths.checkpoint
    checkpoint.parent.mkdir(parents=True, exist_ok=True)
    if not args.resume and checkpoint.exists():
        checkpoint.unlink()
    # items whose ground truth fails (flagged at ingest) get no result
    results = pipeline.run_dataset(items, parallelism=parallelism, checkpoint_path=checkpoint)
    config.paths.results.parent.mkdir(parents=True, exist_ok=True)
    write_results(config.paths.results, results)
    report = metrics.build_report(results, pricing)
    metrics.write_report(config.paths.report, report)
    skipped = len(items) - len(results)
    if skipped:
        print(f"skipped items with failing ground truth: {skipped}")
    print(metrics.render_report_text(report), end="")
    return 0


def cmd_report(config: AppConfig, args) -> int:
    results = read_results(config.paths.results)
    pricing = _pricing_for(config)
    report = metrics.build_report(results, pricing)
    metrics.write_report(config.paths.report, report)
    print(metrics.render_report_text(report), end="")
    return 0


def cmd_export_embeddings(config: AppConfig, args) -> int:
    schemas, _ = _load_dataset(config)
    kb = KbStore.load(config.paths.kb, schemas)
    count = metrics.export_embeddings(kb, config.paths.embedding_export)
    print(f"exported {count} vectors -> {config.paths.embedding_export}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.seed
        if args.command == "ingest":
            return cmd_ingest(config, args)
        if args.command == "build-kb":
            return cmd_build_kb(config, args)
        if args.command == "train-embeddings":
            return cmd_train_embeddings(config, args, seed)
        if args.command == "run":
            return cmd_run(config, args, args.parallelism, args.mock_backend)
        if args.command == "report":
            return cmd_report(config, args)
        if args.command == "export-embeddings":
            return cmd_export_embeddings(config, args)
        raise AssertionError(f"unhandled command {args.command}")
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
