"""Paired runs of the offline benchmark: a parent commit against a change.

    python3 tools/bench_pairs.py --parent REV [--change REV] --workload wide-results \\
        --seeds 41-50 --seconds 15 --trace 0 --out BENCH_7.json

Both commits (the change defaults to HEAD) are extracted with `git archive`
into fresh directories under $TMPDIR, so both sides run from the same kind of
place: one commit ran measurably slower from a working checkout than from an
extracted copy. For each seed, `bench/run.py` runs once in each copy,
alternating which side runs first: the parent on the first, third, ... seed,
the change on the others. `--out` receives `what`, `parent`, `change`,
`machine`, one `summary_trace_<T>` per trace level (per workload and side: run
count, checks attempted and failed, and the median and quartiles of every
metric and of each run's whole wall time, `wall_s`, generation included; plus
the pairs the change won per metric, ties counting for neither; and a `verdict`
per end-to-end metric of `BENCHMARK.json`: `checks_failed` when a run of
either side failed any of its checks, whatever the numbers; otherwise
`claim_met` when the change won at least 9 of every 10 pairs over at least 10
pairs and its median beats the parent's by more than the parent's q3 - q1,
`regressed` when its median is worse than the parent's by more than the
metric's bound, a fraction of the parent's median, and `within_bound`
otherwise) and the raw `runs`, each with both output lines of `bench/run.py`
as printed.
Runs already in `--out` are kept, so workloads can be added one invocation at
a time. The file is rewritten after every pair. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WHAT = (
    "Paired runs of `python3 bench/run.py --workload W --seed N --seconds S --trace T`: "
    "the parent commit and this change, alternating which side runs first. `runs` keeps "
    "each run's two output lines (`record`, `result`) as printed."
)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def extract(rev: str, into: Path) -> str:
    """Write the files of commit `rev` into `into`; returns its short hash."""
    short = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return short


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall_s = round(time.perf_counter() - t0, 1)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"wall_s": wall_s, "record": record, "result": result}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    summaries: dict = {}
    for run in runs:
        by_side = summaries.setdefault(f"summary_trace_{run['trace']}", {}) \
            .setdefault(run["workload"], {})
        by_side.setdefault(run["side"], []).append(run)
    for by_workload in summaries.values():
        for workload, by_side in by_workload.items():
            summary = {}
            for side, side_runs in by_side.items():
                results = [r["result"] for r in side_runs]
                entry = {"runs": len(results),
                         "failed_checks": sum(r["failed"] for r in results),
                         "attempted_checks": sum(r["attempted"] for r in results),
                         "wall_s": quartiles([r["wall_s"] for r in side_runs])}
                for name in results[0]["metrics"]:
                    values = [r["metrics"][name]["value"] for r in results
                              if name in r["metrics"]]
                    entry[name] = quartiles(values)
                summary[side] = entry
            summary["change_wins"] = pair_wins(by_side, better)
            summary["verdict"] = verdicts(summary, better, bounds)
            by_workload[workload] = summary
    return summaries


def verdicts(summary: dict, better: dict[str, str], bounds: dict[str, float]) -> dict:
    parent, change = summary.get("parent", {}), summary.get("change", {})
    # a number from a run that failed its checks measured a wrong program
    failed = parent.get("failed_checks", 0) + change.get("failed_checks", 0) > 0
    verdict = {}
    for name, bound in bounds.items():
        if name not in parent or name not in change:
            continue
        sign = 1.0 if better[name] == "higher" else -1.0
        gain = sign * (change[name]["median"] - parent[name]["median"])
        tally = summary["change_wins"].get(name, {"wins": 0, "pairs": 0})
        if failed:
            verdict[name] = "checks_failed"
        elif (tally["pairs"] >= 10 and 10 * tally["wins"] >= 9 * tally["pairs"]
                and gain > parent[name]["q3"] - parent[name]["q1"]):
            verdict[name] = "claim_met"
        elif -gain > bound * abs(parent[name]["median"]):
            verdict[name] = "regressed"
        else:
            verdict[name] = "within_bound"
    return verdict


def pair_wins(by_side: dict, better: dict[str, str]) -> dict:
    parents = {run["seed"]: run["result"]["metrics"] for run in by_side.get("parent", [])}
    wins: dict = {}
    for run in by_side.get("change", []):
        parent = parents.get(run["seed"])
        if parent is None:
            continue
        for name, metric in run["result"]["metrics"].items():
            if name not in parent or name not in better:
                continue
            tally = wins.setdefault(name, {"wins": 0, "pairs": 0})
            tally["pairs"] += 1
            gap = metric["value"] - parent[name]["value"]
            tally["wins"] += gap > 0 if better[name] == "higher" else gap < 0
    return wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit to measure against")
    parser.add_argument("--change", default="HEAD", help="commit to measure")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 41-50 or 3,5")
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in config["end_to_end"] + config["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    document = {"what": WHAT, "runs": []}
    if args.out.exists():
        document = json.loads(args.out.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        sides = {"parent": Path(scratch, "parent"), "change": Path(scratch, "change")}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            commit = extract(rev, sides[side])
            if document.get(side, commit) != commit:
                raise SystemExit(f"{args.out} holds runs of {side} {document[side]}, not {commit}")
            document[side] = commit
        for index, seed in enumerate(args.seeds):
            first = "parent" if index % 2 == 0 else "change"
            order = [first, "change" if first == "parent" else "parent"]
            for side in order:
                run = run_bench(sides[side], args.workload, seed, args.seconds, args.trace)
                document["runs"].append({"workload": args.workload, "seed": seed,
                                         "trace": args.trace, "side": side, "first": first,
                                         **run})
                metrics = run["result"]["metrics"]
                shown = {k: round(v["value"], 3) for k, v in list(metrics.items())[:2]}
                print(f"{args.workload} seed {seed} {side}: {shown} "
                      f"failed {run['result']['failed']}", file=sys.stderr)
            document["machine"] = document["runs"][-1]["record"]["record"]["machine"]
            document = {key: document[key] for key in ("what", "parent", "change", "machine")} | \
                summarize(document["runs"], better, bounds) | {"runs": document["runs"]}
            args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
