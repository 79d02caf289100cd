"""Paired benchmark runs: a parent commit against the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --pr 7 \\
        --pairs suite1-paper=6 --pairs suite2-artifacts=4 --pairs manytask-sweep=4 --tier1

The parent ref is exported with ``git archive`` into a temporary directory,
which leaves the repository itself untouched. For each workload the script
runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
N times on each side, in pairs that alternate which side runs first, and
reads each run's last line of JSON. It writes ``BENCH_<pr>.json``: for
every end-to-end metric of BENCHMARK.json, each side's runs in pair order,
their median and quartiles, the ratio of the medians (change / parent) and
the number of pairs in which the change was better. With ``--tier1`` it
also times the Tier-1 command once on each side, the change first.

Measure with nothing else running: the pairs share the machine.
"""

from __future__ import annotations

import argparse
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
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent commit")
    parser.add_argument("--pr", required=True, help="suffix of the BENCH_<pr>.json written")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--tier1", action="store_true", help="also time the Tier-1 tests on both sides")
    return parser.parse_args(argv)


def export(ref: str, directory: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(directory, filter="data")


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
        "change_better_in_pairs": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs = {}
    for item in args.pairs:
        name, _, n = item.partition("=")
        pairs[name] = int(n)
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
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload, n in pairs.items():
            runs = {"parent": [], "change": []}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(bench(trees[side], workload, args.seed, args.seconds))
                    print(workload, i, side, json.dumps(runs[side][-1]), flush=True)
            all_runs = runs["parent"] + runs["change"]
            entry = {
                "pairs": n,
                "correct": all(r["correct"] for r in all_runs),
                "failed_cells": sum(r["failed"] for r in all_runs),
            }
            for metric, better in metrics.items():
                values = {side: [r["metrics"][metric]["value"] for r in rs] for side, rs in runs.items()}
                entry[metric] = summarize(values["parent"], values["change"], better)
            out["workloads"][workload] = entry
        if args.tier1:
            out["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python"] + TIER1[1:])}
            for side in ("change", "parent"):
                out["tier1"][side] = tier1(trees[side])
                print("tier1", side, out["tier1"][side], flush=True)
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
