"""Per-generation mix of a workload's grid at a chosen length.

    python3 bench/mix.py --workload suite1-paper --seed 1 --gens 2000 --problems 1,5,9

Runs the grid once untraced and once traced, from the root of a source
checkout, and prints one JSON line: the untraced throughput and, from the
traced grid, the milliseconds per generation spent in each layer and the
ratios that describe what the generations do (transfers, focus search,
bounces, improvements). Comparing the benchmark's grid with full-length
cells (``--gens 2000``, the paper's length) shows whether the shorter grid
does the same work per generation; README records the comparison.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import numpy as np

import reference
import run
import tracing
import workloads

# Layer groups of a generation, by span name; self time where a span wraps
# other layers.
GROUPS = {
    "task_eval": [(f"benchmarks.task_eval.{fn}", "dur") for fn in reference.FUNCTIONS],
    "evaluate_task+decode": [("core.evaluate_task", "self"), ("core.decode", "dur")],
    "move_self": [("optimizer.move", "self")],
    "velocity": [("optimizer.velocity", "dur")],
    "step_position": [("optimizer.step_position", "dur")],
    "evaluate_and_update_self": [("optimizer.evaluate_and_update", "self")],
    "adaptation": [
        (n, "dur")
        for n in (
            "adaptation.update_probabilities",
            "adaptation.check_focus",
            "adaptation.roulette_select_many",
            "adaptation.MemoryWindow.record_counts",
            "adaptation.MemoryWindow.commit_generation",
            "adaptation.MemoryWindow.evict_oldest",
        )
    ],
    "run_generation": [("optimizer.run_generation", "dur")],
}


def mix(rec: tracing.Recorder, jobs: int) -> dict[str, float]:
    nid, dur, self_t = rec.durations()
    by = {
        "dur": np.bincount(nid, weights=dur, minlength=len(rec.names)),
        "self": np.bincount(nid, weights=self_t, minlength=len(rec.names)),
    }
    gens = int(np.count_nonzero(nid == rec.ids["optimizer.run_generation"]))
    out = {}
    for group, parts in GROUPS.items():
        total = sum(float(by[kind][rec.ids[n]]) for n, kind in parts if n in rec.ids)
        out[f"{group}.ms_per_gen"] = 1e3 * total / gens
    m = tracing.layer_metrics(rec, 1, jobs, reference.FUNCTIONS)
    for key in (
        "optimizer.transfer_frac",
        "adaptation.focus_frac",
        "optimizer.step_position.bounce_frac",
        "optimizer.improved_frac",
        "harness.pool.result_bytes",
    ):
        out[key] = m[key]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--gens", type=int, default=None)
    parser.add_argument("--problems", default=None, help="comma-separated problem ids")
    args = parser.parse_args(argv)
    problems = [int(p) for p in args.problems.split(",")] if args.problems else None
    mtpso = run.import_package()
    work = run.OUT / f"mix-{args.workload}-seed{args.seed}"
    try:
        wl = workloads.make(args.workload, args.seed, work, gens=args.gens, problems=problems)
        wall = run.timed_round(mtpso, wl)
        rec = tracing.Recorder()
        tracing.install(mtpso, rec)
        try:
            wl.run_round(mtpso)
        finally:
            tracing.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "workload": wl.name,
        "gens": wl.max_gens,
        "cells": len(wl.cells),
        "grid_s": wall,
        "fe_per_s": sum(wl.evaluations_per_cell()) / wall,
        **mix(rec, wl.jobs),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
