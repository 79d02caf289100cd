"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --pr 7 \\
        --pairs suite1-paper=6 --pairs suite2-artifacts=4 --pairs manytask-sweep=4 --tier1

The parent ref is exported with ``git archive`` into a temporary directory,
which leaves the repository itself untouched. For each workload the script
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
once on each side as a warm-up, then N times on each side, in pairs that
alternate which side runs first, and reads each run's last line of JSON.
The warm-up runs are left out of every figure: a workload's first runs
read slower than the rest. It writes ``BENCH_<pr>.json``: every run's exit
status, the warm-up runs, and for every end-to-end metric of
BENCHMARK.json each side's runs in pair order, their median and quartiles,
the ratio of the medians (change / parent), each pair's ratio (change /
parent, in pair order), the number of pairs in which the change was
better and a verdict (see ``verdict``) against the metric's bound in
BENCHMARK.json. A workload with a failed run gets no figures, and the
script exits 1 once the file is written. With ``--tier1`` it also
times the Tier-1 command once on each side, the change first.

With ``--in-process`` it pairs single batches instead, in one process:

    python3 scripts/bench_pairs.py --parent HEAD --in-process \\
        --pairs suite1-paper=5 --pairs suite2-artifacts=5 --pairs manytask-sweep=5

Both trees' ``src/mtpso`` are imported under two package names. Each
workload's grid is built from ``bench/workloads.make`` at ``--seed`` and
cut into the batches its grid runs in on this machine. Each batch runs once on each side,
untimed, to compare the two sides' results; then N rounds time
``optimizer.run_batch`` in CPU time on each side, alternating which side
runs first. It prints one line per batch: the
median of the per-round ratios parent time / change time (above 1 when the
change is faster), the rounds the change was faster in, and whether the
two sides' results are equal. It writes no file.

Measure with nothing else running: the pairs share the machine.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pr", help="suffix of the BENCH_<pr>.json written (not with --in-process)")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 tests on both sides")
    parser.add_argument("--in-process", action="store_true", help="pair single batches in this process")
    args = parser.parse_args(argv)
    if not args.in_process and args.pr is None:
        parser.error("--pr is required without --in-process")
    return args


def export(ref: str, directory: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run's last line of JSON, with its exit status under ``exit``; a
    failed run gives its exit status and the tail of its stderr."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"exit": 0, **json.loads(proc.stdout.strip().splitlines()[-1])}


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"s": round(wall, 2), "summary": proc.stdout.strip().splitlines()[-1], "exit": proc.returncode}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    def side(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (runs[0],) * 3
        return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}

    sign = 1.0 if better == "higher" else -1.0
    return {
        "parent": side(parent),
        "change": side(change),
        "ratio_of_medians": statistics.median(change) / statistics.median(parent),
        "pair_ratios": [c / p for p, c in zip(parent, change)],
        "change_better_in_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def verdict(summary: dict, better: str, bound: float) -> str:
    """Read one metric's ``summarize`` output against its bound, a fraction
    of the parent's median:

    - ``gain``: of at least ten pairs, the change is better in at least nine
      tenths, and its median is better than the parent's by more than the
      parent's interquartile range;
    - ``regressed``: the change's median is worse than the parent's by more
      than the bound;
    - ``unresolved``: either side's interquartile range exceeds the bound,
      unless every run of the change is better than every run of the
      parent;
    - ``no worse`` otherwise.
    """
    parent, change = summary["parent"], summary["change"]
    sign = 1.0 if better == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])
    pairs = len(parent["runs"])
    won = pairs >= 10 and 10 * summary["change_better_in_pairs"] >= 9 * pairs
    if won and gap > parent["q3"] - parent["q1"]:
        return "gain"
    if gap < -bound * abs(parent["median"]):
        return "regressed"
    spread = max(side["q3"] - side["q1"] for side in (parent, change))
    separated = min(sign * c for c in change["runs"]) > max(sign * p for p in parent["runs"])
    if spread > bound * abs(parent["median"]) and not separated:
        return "unresolved"
    return "no worse"


def load_package(src: Path, name: str):
    """Import the ``mtpso`` package under ``src`` as ``name``, so that two
    trees' packages can sit side by side in one process."""
    spec = importlib.util.spec_from_file_location(
        name, src / "mtpso" / "__init__.py", submodule_search_locations=[str(src / "mtpso")]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def grid_cells(package, workload) -> list[tuple]:
    """The workload's grid as ``package``'s harness builds it, as cells
    (label, config, problem, problem id, run), in grid order; a sweep's
    configs take each swept lp, as ``mtpso sweep`` gives them."""
    harness = package.harness
    spec = harness.parse_experiment(workload.config, name_default=workload.name)
    if workload.sweep_values:
        swept = [(f"{label}@lp={v}", replace(c, lp=v)) for v in workload.sweep_values for label, c in spec.algorithms]
        spec = replace(spec, algorithms=tuple(swept))
    problems = harness.resolve_problems(spec)
    return [
        (label, replace(config, seed=harness.derive_seed(spec.master_seed, label, pid, run)), problem, pid, run)
        for label, config in spec.algorithms
        for pid, problem in problems
        for run in range(1, spec.runs + 1)
    ]


def pair_summary(parent: list[float], change: list[float]) -> dict:
    """Paired times of one batch: the median of the per-round ratios
    parent / change (above 1 when the change is faster) and the number of
    rounds in which the change was faster."""
    ratios = [p / c for p, c in zip(parent, change)]
    return {"median_ratio": statistics.median(ratios), "change_wins": sum(r > 1.0 for r in ratios)}


def same_results(a: list, b: list) -> bool:
    """Whether two lists of RunResults hold the same bests, traces and
    source counts, bit for bit."""
    fields = ("best_fevs", "best_positions", "fev_trace", "source_counts")
    return len(a) == len(b) and all(np.array_equal(getattr(x, f), getattr(y, f)) for x, y in zip(a, b) for f in fields)


def in_process(args, pairs: dict[str, int]) -> int:
    """Time each workload's batches on both sides in this process and print
    one line per batch; exits 1 if some batch's results differ."""
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    status = 0
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        export(args.parent, Path(tmp) / "tree")
        packages = {"parent": load_package(Path(tmp) / "tree" / "src", "mtpso_parent"),
                    "change": load_package(ROOT / "src", "mtpso_change")}
        for name, rounds in pairs.items():
            workload = workloads.make(name, args.seed, Path(tmp) / name)
            config = workload.config
            keep = {"record_trace": config["write_convergence"], "record_counts": config["write_transfer"]}
            cells = {side: grid_cells(package, workload) for side, package in packages.items()}

            def call(side, batch):
                chosen = [cells[side][i] for i in batch]
                problems, configs = [cell[2] for cell in chosen], [cell[1] for cell in chosen]
                return packages[side].optimizer.run_batch(problems, configs, **keep)

            # bench/run.py runs a sweep at the default --jobs of `mtpso sweep`
            jobs = importlib.import_module("mtpso_change.cli")._usable_cpus() if workload.sweep_values else workload.jobs
            for b, batch in enumerate(packages["change"].harness._batches(cells["change"], jobs)):
                equal = same_results(call("parent", batch), call("change", batch))
                times = {"parent": [], "change": []}
                for i in range(rounds):
                    for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                        start = time.process_time()
                        call(side, batch)
                        times[side].append(time.process_time() - start)
                summary = pair_summary(times["parent"], times["change"])
                label = cells["change"][batch[0]][0]
                print(f"{name} batch {b} ({len(batch)} cells, {label}, ...): parent/change CPU time "
                      f"{summary['median_ratio']:.3f} (median of {rounds}), change faster in "
                      f"{summary['change_wins']} of {rounds}, results equal: {equal}", flush=True)
                status |= not equal
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    pairs = {}
    for item in args.pairs:
        name, _, n = item.partition("=")
        pairs[name] = int(n)
    if args.in_process:
        return in_process(args, pairs)
    command = f"python3 bench/run.py --workload <workload> --seed {args.seed} --seconds {args.seconds:g} --trace 0"
    out = {
        "what": "End-to-end metrics of the benchmark, the parent commit against this change, in pairs that "
        "alternate which side runs first; each side's runs are listed in pair order.",
        "command": command,
        "parent": subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout.strip(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {np.__version__}",
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, n in pairs.items():
            warmup = {side: bench(tree, workload, args.seed, args.seconds) for side, tree in trees.items()}
            print(workload, "warmup", json.dumps(warmup), flush=True)
            runs = {"parent": [], "change": []}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(bench(trees[side], workload, args.seed, args.seconds))
                    print(workload, i, side, json.dumps(runs[side][-1]), flush=True)
            all_runs = [*warmup.values(), *runs["parent"], *runs["change"]]
            entry = {
                "pairs": n,
                "exits": {side: [r["exit"] for r in rs] for side, rs in runs.items()},
                "correct": all(r.get("correct", False) for r in all_runs),
                "failed_cells": sum(r.get("failed", 0) for r in all_runs),
                "warmup": warmup,
            }
            if any(r["exit"] != 0 for r in all_runs):
                status = 1
            else:
                for metric, (better, bound) in metrics.items():
                    values = {side: [r["metrics"][metric]["value"] for r in rs] for side, rs in runs.items()}
                    entry[metric] = summarize(values["parent"], values["change"], better)
                    entry[metric]["verdict"] = verdict(entry[metric], better, bound)
            out["workloads"][workload] = entry
        if args.tier1:
            out["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:])}
            for side in ("change", "parent"):
                out["tier1"][side] = tier1(trees[side])
                print("tier1", side, out["tier1"][side], flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
