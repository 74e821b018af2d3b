"""Set-up, timed passes, correctness checks and metrics of each workload.

Loop workloads (`retrieval-10k`, `wide-results`, `llm-latency`) drive the
program the way `ecpt run` does: load the dataset, drop items whose ground
truth fails, load the knowledge base, then per pass `Pipeline.run_dataset`
with a fresh checkpoint, `write_results`, `metrics.build_report` and
`write_report`. `prepare-kb` does what `ecpt train-embeddings` and
`ecpt build-kb --finetuned` do: train the projection, insert every case,
persist the store, and reload it. Workers take the next item when their last
one finishes (a closed loop).

Every pass is checked against the generator's expected schedule after the
clock stops; checks never run inside a timed region.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

from fake_backend import STEPS, FakeChatBackend, detect_step
from tracing import Tracer, percentile, self_ms_by_layer, self_times

LAYERS = ("spider", "cases", "embedding", "kb", "llm", "runner", "pipeline", "metrics")
RENDERERS = {
    "zero_shot": "render_zero_shot",
    "diagnosis": "render_diagnosis",
    "prescription": "render_prescription",
    "treatment": "render_treatment",
    "generic_fix": "render_generic_fix",
}
PARSERS = ("parse_diagnosis", "parse_prescription", "parse_sql")
MODEL_NAME = "bench-chat-model"
SETUP_MIN_REPS = 5
SCORE_SLACK = 1e-12  # accumulation-order slack between two exact dot products


class Checks:
    """Counts correctness checks; `failed / attempted` is the run's error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


class CountingEmbedder:
    """Stands in for the embedding service: forwards to the program's hash
    embedder and counts round trips."""

    def __init__(self, inner):
        self._inner = inner
        self.dim = inner.dim
        self.calls = 0
        self._lock = threading.Lock()

    def embed_texts(self, texts):
        with self._lock:
            self.calls += 1
        return self._inner.embed_texts(texts)


@dataclass
class Pass:
    t0: float
    t1: float
    cpu_s: float
    units: int
    backend_calls: int
    data: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def units_per_s(self) -> float:
        return self.units / self.wall_s


@dataclass
class Run:
    ecpt: object
    root: Path  # generated inputs: program/ and expected/
    seconds: float
    trace: bool
    checks: Checks = field(default_factory=Checks)

    def __post_init__(self):
        self.program = self.root / "program"
        self.expected = self.root / "expected"
        self.out = self.root / "out"
        self.out.mkdir(exist_ok=True)
        self.spec = self.expected_json("spec.json")
        self.scripts = self.expected_json("scripts.json")
        self.schedule = {e["question"]: e for e in self.expected_json("schedule.json")}
        self.missing: list[str] = []  # traced targets that no longer exist
        self.log: dict = {}  # raw samples behind the reported medians

    def expected_json(self, name: str):
        return json.loads((self.expected / name).read_text(encoding="utf-8"))


# --- set-up -------------------------------------------------------------------

@dataclass
class State:
    schemas: dict
    items: list
    embedder: CountingEmbedder | None = None
    backend: FakeChatBackend | None = None
    pipeline: object = None
    cases: list | None = None


def setup(run: Run) -> State:
    ecpt, spec, program = run.ecpt, run.spec, run.program
    schemas = ecpt.spider.load_schemas(program / "tables.json")
    items = ecpt.spider.load_items(program / "dev.json", schemas)
    if spec["mode"] == "prepare":
        cases = ecpt.cases.read_correction_cases(program / "correction_cases.jsonl", schemas)
        embedder = CountingEmbedder(ecpt.embedding.HashingEmbedder(dim=spec["dim"]))
        return State(schemas, items, embedder=embedder, cases=cases)

    runner = ecpt.runner.SqlRunner(ecpt.spider.database_paths(program, schemas))
    runnable = [item for item in items if _truth_runs(runner, item)]
    kb = model = embedder = None
    mode = ecpt.pipeline.MODE_GENERIC
    if spec["mode"] == "ecpt":
        mode = ecpt.pipeline.MODE_ECPT
        model = ecpt.embedding.ProjectionModel.identity(spec["dim"])
        kb = ecpt.kb.KbStore.load(program / "kb.jsonl", schemas)
        embedder = CountingEmbedder(ecpt.embedding.HashingEmbedder(dim=spec["dim"]))
    backend = FakeChatBackend(run.scripts, spec["latency_s"], ecpt.llm.LlmResponse)
    pipeline = ecpt.pipeline.Pipeline(
        schemas=schemas,
        runner=runner,
        backend=backend,
        settings=ecpt.llm.LlmSettings(model_name=MODEL_NAME),
        options=ecpt.pipeline.PipelineOptions(
            option_b_examples_in_diagnosis=spec.get("option_b", False),
            option_c_resolve_all_at_once=spec.get("option_c", False),
            max_trials=spec["max_trials"],
            retrieval_k=spec["retrieval_k"],
        ),
        kb=kb,
        model=model,
        embedder=embedder,
        mode=mode,
    )
    return State(schemas, runnable, embedder=embedder, backend=backend, pipeline=pipeline)


def _truth_runs(runner, item) -> bool:
    try:
        runner.execute(item.db_id, item.ground_truth_sql)
    except Exception:  # the run pre-filter drops such items; the checks count them
        return False
    return True


# --- passes -------------------------------------------------------------------

def loop_pass(run: Run, state: State) -> Pass:
    ecpt = run.ecpt
    checkpoint = run.out / "checkpoint.jsonl"
    checkpoint.unlink(missing_ok=True)
    backend, embedder = state.backend, state.embedder
    backend.reset()
    if embedder is not None:
        embedder.calls = 0
    pricing = ecpt.metrics.ModelPricing(prompt_price_per_1k=0.01, completion_price_per_1k=0.03)
    cpu0, t0 = time.process_time(), time.perf_counter()
    results = state.pipeline.run_dataset(
        state.items, parallelism=run.spec["parallelism"], checkpoint_path=checkpoint
    )
    ecpt.pipeline.write_results(run.out / "results.jsonl", results)
    report = ecpt.metrics.build_report(results, pricing)
    ecpt.metrics.write_report(run.out / "report.json", report)
    t1, cpu1 = time.perf_counter(), time.process_time()
    chat_calls = sum(backend.calls.values())
    embed_calls = embedder.calls if embedder is not None else 0
    return Pass(t0, t1, cpu1 - cpu0, len(state.items), chat_calls + embed_calls, {
        "results": results,
        "report": report,
        "chat_calls": dict(backend.calls),
        "prompt_tokens": backend.prompt_tokens,
        "completion_tokens": backend.completion_tokens,
        "item_tokens": backend.item_tokens,
        "digests": dict(backend.digests),
        "diagnosis_prompts": backend.diagnosis_prompts,
        "checkpoint_bytes": checkpoint.stat().st_size,
    })


def prepare_pass(run: Run, state: State) -> Pass:
    ecpt, spec = run.ecpt, run.spec
    embedder = state.embedder
    embedder.calls = 0
    kb_path = run.out / "kb.jsonl"
    cpu0, t0 = time.process_time(), time.perf_counter()
    labeled = [
        (ecpt.cases.serialize_case(cc.case, include_result=True), cc.primary_label)
        for cc in state.cases
    ]
    trained = ecpt.embedding.train(
        labeled, embedder, ecpt.embedding.TripletConfig(epochs=spec["epochs"]),
        seed=spec["seed"],
    )
    t_train = time.perf_counter()
    model = trained.model
    store = ecpt.kb.KbStore.for_model(model)
    for cc in state.cases:
        store.insert(cc, model, embedder)
    store.persist(kb_path)
    t_build = time.perf_counter()
    loaded = ecpt.kb.KbStore.load(kb_path, state.schemas)
    t1, cpu1 = time.perf_counter(), time.process_time()
    # Reduce the pass to what the checks need, so memory stays flat across passes.
    weight = trained.model.weight
    return Pass(t0, t1, cpu1 - cpu0, len(state.cases), embedder.calls, {
        "train_s": t_train - t0,
        "kb_cases_per_s": len(state.cases) / (t_build - t_train),
        "weights_digest": hashlib.sha256(np.ascontiguousarray(weight).tobytes()).hexdigest(),
        "finite": bool(np.isfinite(weight).all())
        and all(np.isfinite(loss) for loss in trained.epoch_losses),
        "same_header": len(store) == len(loaded)
        and store.model_hash == loaded.model_hash
        and store.dimension == loaded.dimension,
        "labels": [list(e.correction_case.error_types) for e in store.entries],
        "reloaded_equal": [
            a.id == b.id
            and b.correction_case == a.correction_case
            and a.vector.tobytes() == b.vector.tobytes()
            for a, b in zip(store.entries, loaded.entries)
        ],
    })


def run_passes(
    run: Run, seconds: float, warmup: bool, state: State | None = None
) -> tuple[State, list[Pass], list[float]]:
    """Closed-loop passes until their summed time reaches `seconds`.

    Without a `state`, each pass gets a fresh, timed set-up, as each `ecpt run`
    does; set-up samples then spread over the whole run like the passes, and at
    least SETUP_MIN_REPS are taken. A warm-up pass first fills the OS caches.
    """
    one = prepare_pass if run.spec["mode"] == "prepare" else loop_pass
    fresh_each = state is None
    setup_times: list[float] = []

    def fresh() -> State:
        t0 = time.perf_counter()
        new = setup(run)
        setup_times.append(time.perf_counter() - t0)
        return new

    if fresh_each:
        state = fresh()
    if warmup:
        check_pass(run, state, one(run, state))
    passes: list[Pass] = []
    measured = 0.0
    while not passes or measured < seconds or (
        fresh_each and len(setup_times) < SETUP_MIN_REPS
    ):
        if fresh_each:
            state = None  # let the previous store go before building the next
            state = fresh()
        passes.append(one(run, state))
        measured += passes[-1].wall_s
    return state, passes, setup_times


# --- correctness checks -------------------------------------------------------

def check_pass(run: Run, state: State, p: Pass, oracle=None, reference=None) -> None:
    if run.spec["mode"] == "prepare":
        _check_prepare(run, p, reference)
    else:
        _check_loop(run, state, p, oracle, reference)


def _round2(numerator: int, denominator: int) -> float:
    value = Decimal(100 * numerator) / Decimal(denominator)
    return float(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _check_loop(run: Run, state: State, p: Pass, oracle, reference) -> None:
    checks, spec = run.checks, run.spec
    ecpt_mode = spec["mode"] == "ecpt"
    checks.expect(len(state.items) == len(run.schedule),
                  f"{len(run.schedule) - len(state.items)} items lost to the ground-truth filter")
    by_ref = {r.item_ref: r for r in p.data["results"]}
    for item in state.items:
        expected = run.schedule[item.question]
        script = run.scripts[item.question]
        result = by_ref.get(item.ref)
        problem = _case_problem(result, expected, script, ecpt_mode,
                                p.data["item_tokens"][item.question])
        checks.expect(problem is None, f"{item.question[:5]}: {problem}")
        if oracle is not None and result is not None:
            for trial in result.trials:
                prompt = p.data["diagnosis_prompts"].get((item.question, trial.trial_index))
                checks.expect(
                    prompt is not None and oracle.agrees(prompt, trial, spec),
                    f"{item.question[:5]} trial {trial.trial_index}: retrieval differs "
                    f"from the brute-force oracle",
                )

    schedule = list(run.schedule.values())
    total = len(schedule)
    zero_shot = sum(1 for e in schedule if e["fix_trial"] == 0)
    fixed = sum(1 for e in schedule if 1 <= e["fix_trial"] <= spec["max_trials"])
    report = p.data["report"]
    checks.expect(
        report.total_cases == total
        and report.execution_accuracy == _round2(zero_shot + fixed, total)
        and report.correction_accuracy == _round2(fixed, total - zero_shot),
        f"report accuracy {report.execution_accuracy}/{report.correction_accuracy} "
        f"differs from the schedule's",
    )
    checks.expect(
        report.prompt_tokens == p.data["prompt_tokens"]
        and report.completion_tokens == p.data["completion_tokens"],
        f"report tokens {report.prompt_tokens}/{report.completion_tokens} != backend's "
        f"{p.data['prompt_tokens']}/{p.data['completion_tokens']}",
    )
    if reference is not None:
        checks.expect(p.data["digests"] == reference.data["digests"],
                      "prompts differ from the first pass's")


def _case_problem(result, expected, script, ecpt_mode: bool, backend_tokens: int):
    """The first way `result` departs from the expected schedule, or None."""
    if result is None:
        return "no result"
    if result.error is not None:
        return f"run error {result.error}"
    if result.zero_shot_sql != script["zero_shot"]:
        return "zero-shot SQL differs from the backend's reply"
    if result.zero_shot_outcome.kind.value != expected["zero_shot_kind"]:
        return f"zero-shot {result.zero_shot_outcome.kind.value} != {expected['zero_shot_kind']}"
    trials = result.trials
    kinds = [t.outcome.kind.value for t in trials]
    if kinds != expected["trial_kinds"]:
        return f"trial outcomes {kinds} != {expected['trial_kinds']}"
    if [t.trial_index for t in trials] != list(range(1, len(trials) + 1)):
        return "trial indices out of sequence"
    if [t.candidate_sql for t in trials] != script["treatments"][: len(trials)]:
        return "candidate SQL differs from the backend's replies"
    diagnosis = tuple(expected["labels"]) if ecpt_mode else None
    if any(t.diagnosis != diagnosis for t in trials):
        return "diagnosis differs from the scheduled labels"
    if not ecpt_mode and any(t.retrieved_ids for t in trials):
        return "generic mode retrieved examples"
    final = kinds[-1] if kinds else expected["zero_shot_kind"]
    if result.final_outcome.kind.value != final:
        return f"final outcome {result.final_outcome.kind.value} != {final}"
    tokens = result.zero_shot_prompt_tokens + result.zero_shot_completion_tokens + sum(
        t.prompt_tokens + t.completion_tokens for t in trials
    )
    if tokens != backend_tokens:
        return f"recorded tokens {tokens} != backend's {backend_tokens}"
    return None


def _check_prepare(run: Run, p: Pass, reference) -> None:
    checks, data = run.checks, p.data
    expected = run.expected_json("kb_cases.json")
    checks.expect(data["finite"], "trained projection or losses not finite")
    if reference is not None:
        checks.expect(data["weights_digest"] == reference.data["weights_digest"],
                      "trained weights differ from the first pass's")
    checks.expect(data["same_header"] and len(data["labels"]) == len(expected),
                  "reloaded store header or size differs from the built one")
    for i, (want, labels, equal) in enumerate(
        zip(expected, data["labels"], data["reloaded_equal"])
    ):
        checks.expect(equal and labels == want["labels"],
                      f"KB entry {i} differs from its case or after persist and reload")


class RetrievalOracle:
    """Brute-force top-k over the generator's copy of the KB vectors.

    The query is the program's embedding of the case text quoted in the
    diagnosis prompt, recomputed here with the same hashing and normalisation
    steps. Order is (-score, id). A list that differs from the oracle's only
    where scores agree within SCORE_SLACK still agrees: two exact dot
    products may round differently with another summation order.
    """

    _TOKEN_RE = re.compile(r"[A-Za-z0-9_]+")
    _EXAMPLE_RE = re.compile(r"^    example \((e\d+)\):\n      question: (.*)$", re.MULTILINE)

    def __init__(self, expected: Path, dim: int):
        self.vectors = np.load(expected / "kb_vectors.npy")
        cases = json.loads((expected / "kb_cases.json").read_text(encoding="utf-8"))
        self.labels = [frozenset(c["labels"]) for c in cases]
        self.id_of_question = {c["question"]: i for i, c in enumerate(cases)}
        self.dim = dim
        self._eye = np.eye(dim)
        self._buckets: dict[str, int] = {}
        self._masks: dict[frozenset, np.ndarray] = {}
        self._queries: dict[str, np.ndarray] = {}

    def mask(self, wanted: frozenset) -> np.ndarray:
        m = self._masks.get(wanted)
        if m is None:
            m = self._masks[wanted] = np.array([bool(wanted & l) for l in self.labels])
        return m

    def candidates(self, wanted: frozenset) -> int:
        return int(self.mask(wanted).sum())

    def query(self, text: str) -> np.ndarray:
        q = self._queries.get(text)
        if q is None:
            counts = np.zeros((1, self.dim))
            for token in self._TOKEN_RE.findall(text.lower()):
                counts[0, self._bucket(token)] += 1.0
            base = (counts / np.linalg.norm(counts, axis=1, keepdims=True))[0]
            base = base / float(np.linalg.norm(base))
            projected = self._eye @ base
            q = self._queries[text] = projected / float(np.linalg.norm(projected))
        return q

    def _bucket(self, token: str) -> int:
        b = self._buckets.get(token)
        if b is None:
            digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
            b = self._buckets[token] = int.from_bytes(digest, "big") % self.dim
        return b

    def scores(self, q: np.ndarray, wanted: frozenset) -> tuple[np.ndarray, np.ndarray]:
        ids = np.flatnonzero(self.mask(wanted))
        return ids, self.vectors[ids] @ q

    def agrees(self, prompt: str, trial, spec: dict) -> bool:
        start = prompt.index("Failing case:\n") + len("Failing case:\n")
        q = self.query(prompt[start : prompt.index("\nKnown error types:\n", start)])
        labels = trial.diagnosis
        wanted = frozenset(labels if spec.get("option_c") else labels[:1])
        ids, s = self.scores(q, wanted)
        order = np.lexsort((ids, -s))[: spec["retrieval_k"]]
        if not _same_ranking(list(trial.retrieved_ids), list(ids[order]), dict(zip(ids, s))):
            return False
        if spec.get("option_b"):
            return self._option_b_agrees(prompt, q)
        return True

    def _option_b_agrees(self, prompt: str, q: np.ndarray) -> bool:
        shown = dict(self._EXAMPLE_RE.findall(prompt))
        for n in range(1, 14):
            label = f"e{n}"
            ids, s = self.scores(q, frozenset((label,)))
            if not len(ids):
                if label in shown:
                    return False
                continue
            chosen = self.id_of_question.get(shown.get(label))
            score = dict(zip(ids.tolist(), s.tolist()))
            if chosen not in score:
                return False
            best = max(score.values())
            if score[chosen] < best - SCORE_SLACK:
                return False
            if score[chosen] == best and chosen != min(i for i, v in score.items() if v == best):
                return False  # an exact tie goes to the lowest id
        return True


def _same_ranking(got: list, want: list, score: dict) -> bool:
    """Equal lists, or lists that differ only between entries whose scores are
    unequal yet within SCORE_SLACK. Exact ties must follow the id order."""
    if got == want:
        return True
    if len(got) != len(want) or len(set(got)) != len(got) or any(g not in score for g in got):
        return False
    return all(
        g == w or (score[g] != score[w] and abs(score[g] - score[w]) <= SCORE_SLACK)
        for g, w in zip(got, want)
    )


# --- metrics ------------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(setup_times: list[float], passes: list[Pass]) -> dict:
    med = statistics.median
    return {
        "setup_s": med(setup_times),
        "items_per_s": med(p.units_per_s for p in passes),
        "cpu_ms_per_item": med(p.cpu_s * 1e3 / p.units for p in passes),
        "backend_calls_per_item": med(p.backend_calls / p.units for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def install_tracer(tracer: Tracer, ecpt, backend=None) -> None:
    """Wrap the layer boundaries the per-layer metrics are built from."""
    P, K, E, R = ecpt.pipeline, ecpt.kb, ecpt.embedding, ecpt.runner
    w = tracer.wrap
    w(ecpt.spider, "load_schemas", "spider.load_schemas")
    w(ecpt.spider, "load_items", "spider.load_items")
    w(ecpt.cases, "read_correction_cases", "cases.read_correction_cases")
    w(P, "build_preview", "cases.build_preview")
    w(K.KbStore, "load", "kb.load")
    w(K.KbStore, "insert", "kb.insert")
    w(K.KbStore, "persist", "kb.persist")
    w(K.KbStore, "search", "kb.search", attrs=_search_attrs)
    w(E.ProjectionModel, "identity_hash", "embedding.identity_hash")
    w(E.HashingEmbedder, "embed_texts", "embedding.hash")
    w(P, "embed", "embedding.embed")
    w(K, "embed", "embedding.embed")
    w(E, "train", "embedding.train")
    w(R.SqlRunner, "execute", "runner.execute", attrs=_execute_attrs(tracer))
    w(R, "compare", "runner.compare")
    if backend is not None:
        w(backend, "complete", "llm.complete", attrs=lambda a, kw, r: detect_step(a[0].prompt))
    for step, name in RENDERERS.items():
        w(P, name, f"llm.render.{step}")
    for name in PARSERS:
        w(P, name, "llm.parse")
    w(P.Pipeline, "run_item", "pipeline.run_item", item_of=lambda a: a[1])
    w(P, "write_results", "pipeline.write_results")
    w(ecpt.metrics, "build_report", "metrics.build_report")


def _search_attrs(args, kwargs, result):
    k = args[2] if len(args) > 2 else kwargs["k"]
    wanted = args[3] if len(args) > 3 else kwargs.get("error_filter")
    return k, (frozenset(wanted) if wanted is not None else None), len(result)


def _execute_attrs(tracer: Tracer):
    def attrs(args, kwargs, result):
        item = tracer.current_item()
        sql = args[2] if len(args) > 2 else kwargs["sql"]
        return len(result.rows), item is not None and sql == item.ground_truth_sql
    return attrs


def per_layer(run: Run, tracer: Tracer, setup_spans: list, untraced: list[Pass],
              traced: list[Pass], oracle) -> dict:
    """Per-layer table: per-pass counts and busy times are medians over the
    traced passes; `ms_p50`/`ms_p90` pool every traced call."""
    spec = run.spec
    med = statistics.median
    windows = [(p, tracer.between(p.t0, p.t1)) for p in traced]
    pooled = [s for _, spans in windows for s in spans]

    def named(name, spans):
        return [s for s in spans if s.name == name]

    def p50(name, where=lambda s: True):
        return percentile([s.ms for s in named(name, pooled) if where(s)], 50)

    def per_pass(fn):
        return med(fn(p, spans) for p, spans in windows)

    def calls(name, where=lambda s: True):
        return per_pass(lambda p, spans: sum(1 for s in named(name, spans) if where(s)))

    def busy(name):
        return per_pass(lambda p, spans: sum(s.ms for s in named(name, spans)))

    def once(name, spans):
        durations = [s.ms for s in named(name, spans)]
        return med(durations) if durations else 0.0

    searches = named("kb.search", pooled)
    hits = sum(s.attrs[2] for s in searches)
    candidates = sum(oracle.candidates(s.attrs[1]) for s in searches) if oracle else 0
    everything = setup_spans + pooled
    by_layer_self = self_ms_by_layer(pooled)
    total_self = sum(by_layer_self.values()) or 1.0
    own = self_times(pooled)

    m = {
        "kb.search.one_label.ms_p50": p50(
            "kb.search", lambda s: s.attrs[0] != 1 and len(s.attrs[1] or ()) == 1),
        "kb.search.multi_label.ms_p50": p50(
            "kb.search", lambda s: s.attrs[0] != 1 and len(s.attrs[1] or ()) > 1),
        "kb.search.option_b.ms_p50": p50("kb.search", lambda s: s.attrs[0] == 1),
        "kb.search.calls": calls("kb.search"),
        "kb.search.busy_ms": busy("kb.search"),
        "kb.search.candidates_per_hit": candidates / hits if hits else 0.0,
        "kb.load_ms": once("kb.load", everything),
        "kb.insert.ms_p50": p50("kb.insert"),
        "kb.persist_ms": once("kb.persist", pooled),
        "embedding.identity_hash.calls": calls("embedding.identity_hash"),
        "embedding.identity_hash.busy_ms": busy("embedding.identity_hash"),
        "embedding.hash.ms_p50": p50("embedding.hash"),
        "embedding.embed.ms_p50": p50("embedding.embed"),
        "embedding.train.ms_per_epoch": once("embedding.train", pooled) / spec.get("epochs", 1),
        "runner.execute.calls": calls("runner.execute"),
        "runner.execute.ms_p50": p50("runner.execute"),
        "runner.execute.busy_ms": busy("runner.execute"),
        "runner.rows_fetched": per_pass(
            lambda p, spans: sum(s.attrs[0] for s in named("runner.execute", spans) if s.attrs)),
        "runner.truth_executions_per_item": per_pass(
            lambda p, spans: sum(1 for s in named("runner.execute", spans)
                                 if s.attrs and s.attrs[1]) / p.units),
        "runner.compare.ms_p50": p50("runner.compare"),
        "runner.compare.busy_ms": busy("runner.compare"),
        "cases.build_preview.busy_ms": busy("cases.build_preview"),
        "llm.complete.wait_ms": busy("llm.complete"),
        "llm.parse.busy_ms": busy("llm.parse"),
        "llm.parse_failures": calls("llm.parse", lambda s: s.failed),
        "pipeline.run_item.ms_p50": p50("pipeline.run_item"),
        "pipeline.run_item.ms_p90": percentile(
            [s.ms for s in named("pipeline.run_item", pooled)], 90),
        "pipeline.self_ms": per_pass(lambda p, spans: sum(
            own[s.id] for s in spans if s.layer == "pipeline")),
        "pipeline.concurrency_mean": per_pass(lambda p, spans: sum(
            s.ms for s in named("pipeline.run_item", spans)) / (p.wall_s * 1e3)),
        "spider.load_ms": sum(s.ms for s in setup_spans if s.layer == "spider"),
        "cases.read_correction_cases_ms": once("cases.read_correction_cases", setup_spans),
        "metrics.build_report_ms": once("metrics.build_report", pooled),
        "pipeline.write_results_ms": once("pipeline.write_results", pooled),
        "trace.overhead_pct": 100.0 * (1.0 - med(p.units_per_s for p in traced)
                                       / med(p.units_per_s for p in untraced)),
    }
    for step in STEPS:
        m[f"llm.complete.calls.{step}"] = calls("llm.complete", lambda s, st=step: s.attrs == st)
        m[f"llm.render.{step}.ms_p50"] = p50(f"llm.render.{step}")
    for layer in LAYERS:
        m[f"selftime.{layer}.pct"] = 100.0 * by_layer_self.get(layer, 0.0) / total_self
    m.update(_workload_figures(run, untraced))
    return without_missing(m, tracer.missing)


def _workload_figures(run: Run, untraced: list[Pass]) -> dict:
    """Counts and rates measured in the untraced passes of a traced run."""
    spec = run.spec
    med = statistics.median
    out = {"train_s": 0.0, "kb_cases_per_s": 0.0, "llm.calls_per_item": 0.0,
           "llm.prompt_tokens_per_item": 0.0, "llm.completion_tokens_per_item": 0.0,
           "pipeline.parallel_efficiency": 0.0, "pipeline.trials_per_corrected_item": 0.0,
           "pipeline.checkpoint_bytes": 0.0}
    if spec["mode"] == "prepare":
        out["train_s"] = med(p.data["train_s"] for p in untraced)
        out["kb_cases_per_s"] = med(p.data["kb_cases_per_s"] for p in untraced)
        return out
    calls = med(sum(p.data["chat_calls"].values()) / p.units for p in untraced)
    out["llm.calls_per_item"] = calls
    out["llm.prompt_tokens_per_item"] = med(p.data["prompt_tokens"] / p.units for p in untraced)
    out["llm.completion_tokens_per_item"] = med(
        p.data["completion_tokens"] / p.units for p in untraced)
    if spec["latency_s"] > 0:
        ideal = spec["parallelism"] / (calls * spec["latency_s"])
        out["pipeline.parallel_efficiency"] = med(p.units_per_s for p in untraced) / ideal
    results = untraced[0].data["results"]
    fixed = [r for r in results if r.fixed]
    if fixed:
        out["pipeline.trials_per_corrected_item"] = sum(len(r.trials) for r in fixed) / len(fixed)
    out["pipeline.checkpoint_bytes"] = med(p.data["checkpoint_bytes"] for p in untraced)
    return out


# Metrics named after another span than their prefix says.
_SOURCE_SPANS = {
    "runner.rows_fetched": "runner.execute",
    "runner.truth_executions_per_item": "runner.execute",
    "pipeline.self_ms": "pipeline.run_item",
    "pipeline.concurrency_mean": "pipeline.run_item",
    "spider.load_ms": "spider.load_schemas",
}


def without_missing(metrics: dict, missing: list[str]) -> dict:
    """Drop the metrics read from spans whose wrapped target no longer exists."""
    def lost(name: str) -> bool:
        return _SOURCE_SPANS.get(name) in missing or any(name.startswith(m) for m in missing)

    return {name: value for name, value in metrics.items() if not lost(name)}


def run_workload(run: Run, spans_path: Path | None = None) -> dict:
    """Measure one workload and check every pass; returns the metric values."""
    ecpt, spec = run.ecpt, run.spec
    needs_oracle = spec["mode"] == "ecpt"
    if not run.trace:
        state, passes, setup_times = run_passes(run, run.seconds, warmup=True)
        values = end_to_end(setup_times, passes)
        run.log["setup_s"] = setup_times
        run.log["pass_units_per_s"] = [p.units_per_s for p in passes]
        run.log["pass_cpu_ms_per_unit"] = [p.cpu_s * 1e3 / p.units for p in passes]
        first = passes[0].data
        run.log.update({k: first[k] for k in ("digests", "weights_digest") if k in first})
        oracle = RetrievalOracle(run.expected, spec["dim"]) if needs_oracle else None
        for p in passes:
            check_pass(run, state, p, oracle, reference=passes[0])
        return values

    tracer = Tracer()
    install_tracer(tracer, ecpt)
    t0 = time.perf_counter()
    try:
        state = setup(run)
    finally:
        tracer.unwrap()
    setup_spans = tracer.between(t0, time.perf_counter())
    _, untraced, _ = run_passes(run, run.seconds / 2, warmup=True, state=state)
    install_tracer(tracer, ecpt, backend=state.backend)
    try:
        _, traced, _ = run_passes(run, run.seconds / 2, warmup=False, state=state)
    finally:
        tracer.unwrap()
    oracle = RetrievalOracle(run.expected, spec["dim"]) if needs_oracle else None
    for p in untraced + traced:
        check_pass(run, state, p, oracle, reference=untraced[0])
    values = per_layer(run, tracer, setup_spans, untraced, traced, oracle)
    if spans_path is not None:
        tracer.write(spans_path)
    run.missing = list(tracer.missing)
    return values
