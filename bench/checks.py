"""Output checks, computed apart from the package.

Each function returns a list of error strings; an empty list means the
outputs passed. The checks recompute what they can (cell seeds, scores,
objective values through ``reference``) and test properties the method
must have (best-so-far series never increase, choice fractions sum to 1).
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference

FEV_TOL = 1e-9  # relative, and absolute below 1
# The package sums the Weierstrass series with the triple-angle recurrence,
# which amplifies rounding error where 3^k (y + 1/2) nears a half-integer,
# most of all near the optimum and the other integer points y (the series
# has period 1). Each row bounds the package's absolute error per
# coordinate whose distance from the nearest integer is at most the first
# figure: twice the largest error seen against the reference's direct sum
# (itself within 4e-12 of a 40-digit evaluation) on 60,000 points per band.
# ``test_reference.py`` checks the package against these bounds. A
# Weierstrass value is compared within the sum of its coordinates' bounds
# on top of FEV_TOL.
WEIERSTRASS_ERROR = (
    (1e-8, 4e-5),
    (1e-7, 1e-5),
    (1e-6, 1.2e-6),
    (1e-5, 1.1e-7),
    (1e-4, 1.3e-8),
    (1e-3, 1.6e-9),
    (1e-2, 1.6e-10),
    (0.5, 5e-9),
)


def weierstrass_slack(y) -> float:
    """Bound on the package's error in a Weierstrass value at task-frame
    point ``y``, summed over its coordinates."""
    total = 0.0
    for v in y:
        dist = abs(v - round(v))
        total += next(err for edge, err in WEIERSTRASS_ERROR if dist <= edge)
    return total


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def cell_seed(master_seed: int, label: str, problem: int, run: int) -> int:
    """First 8 bytes, little-endian, of SHA-256(master|label|problem|run)."""
    digest = hashlib.sha256(f"{master_seed}|{label}|{problem}|{run}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def check_results(rows, grid, master_seed: int, name: str) -> list[str]:
    """``grid`` maps (label, problem, run) to the number of tasks."""
    errors = []
    seen = defaultdict(set)
    for row in rows:
        key = (row["algorithm"], int(row["problem"]), int(row["run"]))
        if key not in grid:
            errors.append(f"results.csv: unexpected cell {key}")
            continue
        seen[key].add(int(row["task"]))
        if row["experiment"] != name:
            errors.append(f"results.csv: cell {key} has experiment {row['experiment']!r}")
        if int(row["seed"]) != cell_seed(master_seed, *key):
            errors.append(f"results.csv: cell {key} seed {row['seed']} is not SHA-256 derived")
        fev = float(row["final_fev"])
        if not (math.isfinite(fev) and fev >= 0.0):
            errors.append(f"results.csv: cell {key} task {row['task']} final FEV {fev!r}")
    if len(rows) != sum(grid.values()):
        errors.append(f"results.csv: {len(rows)} rows, expected {sum(grid.values())}")
    for key, k in grid.items():
        if seen.get(key) != set(range(1, k + 1)):
            errors.append(f"results.csv: cell {key} has tasks {sorted(seen.get(key, ()))}")
    return errors


def final_fevs(rows) -> dict:
    """(label, problem, run, task) -> final FEV text, as written."""
    return {
        (r["algorithm"], int(r["problem"]), int(r["run"]), int(r["task"])): r["final_fev"] for r in rows
    }


def check_convergence(rows, finals: dict, max_gens: int) -> list[str]:
    errors = []
    series = defaultdict(list)
    for row in rows:
        key = (row["algorithm"], int(row["problem"]), int(row["run"]), int(row["task"]))
        series[key].append((int(row["generation"]), float(row["best_fev"])))
    if set(series) != set(finals):
        errors.append("convergence.csv: series do not match the cells of results.csv")
    for key, points in series.items():
        gens = [g for g, _ in points]
        values = np.array([v for _, v in points])
        if gens != list(range(1, max_gens + 1)):
            errors.append(f"convergence.csv: {key} covers generations {gens[0]}..{gens[-1]} ({len(gens)})")
        if np.any(np.diff(values) > 0):
            errors.append(f"convergence.csv: {key} increases")
        if key in finals and values[-1] != float(finals[key]):
            errors.append(f"convergence.csv: {key} ends at {values[-1]!r}, results.csv has {finals[key]}")
    return errors


def check_transfer(rows, pop_per_task: int, cells: dict, max_gens: int) -> list[str]:
    """``cells`` maps (label, problem, run) to the number of tasks of each
    adaptive cell."""
    errors = []
    sums = defaultdict(float)
    sources = defaultdict(int)
    for row in rows:
        key = (row["algorithm"], int(row["problem"]), int(row["run"]), int(row["generation"]), int(row["task"]))
        frac = float(row["fraction"])
        scaled = frac * pop_per_task
        if abs(scaled - round(scaled)) > 1e-9 or frac < 0:
            errors.append(f"transfer.csv: {key} source {row['source']} fraction {frac!r}")
        sums[key] += frac
        sources[key] += 1
    expected = {
        (label, pid, run, g, t)
        for (label, pid, run), k in cells.items()
        for g in range(2, max_gens + 1)
        for t in range(1, k + 1)
    }
    if set(sums) != expected:
        errors.append(f"transfer.csv: {len(sums)} (generation, task) groups, expected {len(expected)}")
    for key, total in sums.items():
        if abs(total - 1.0) > 1e-12:
            errors.append(f"transfer.csv: {key} fractions sum to {total!r}")
        k = cells.get(key[:3])
        if k is not None and sources[key] != k:
            errors.append(f"transfer.csv: {key} has {sources[key]} sources, expected {k}")
    return errors


def check_rerun(run_fn, sample, finals: dict) -> list[str]:
    """Re-run sampled cells and compare with the grid's final FEVs.

    ``sample`` holds (label, problem id, run, problem, config) with the
    cell's seed in the config. The re-run must reproduce every final FEV
    bit for bit, and the reference evaluator must give each reported best
    position that FEV.
    """
    errors = []
    for label, pid, run, problem, config in sample:
        result = run_fn(problem, config)
        for t, task in enumerate(problem.tasks):
            key = (label, pid, run, t + 1)
            written = finals[key]
            if repr(float(result.best_fevs[t])) != written:
                errors.append(f"re-run of {key}: {result.best_fevs[t]!r} != {written}")
            y = reference.task_point(result.best_positions[t], task.lower, task.upper, task.shift, task.rotation)
            ref = reference.task_frame(task.base_fn, y)
            slack = weierstrass_slack(y) if task.base_fn == "weierstrass" else 0.0
            if not math.isclose(ref, float(written), rel_tol=FEV_TOL, abs_tol=FEV_TOL + slack):
                errors.append(f"reference value of {key}: {ref!r} != {written}")
    return errors


def standardized_scores(rows) -> dict:
    """(problem, label) -> sum over tasks and runs of the residual over the
    pooled population standard deviation, pooled over all labels and runs
    of one task."""
    by_task = defaultdict(list)
    for r in rows:
        by_task[(int(r["problem"]), int(r["task"]))].append((r["algorithm"], float(r["final_fev"])))
    scores = defaultdict(float)
    for (pid, _), entries in by_task.items():
        values = [v for _, v in entries]
        mu = math.fsum(values) / len(values)
        sigma = math.sqrt(math.fsum((v - mu) ** 2 for v in values) / len(values))
        for label, v in entries:
            scores[(pid, label)] += 0.0 if sigma == 0 else (v - mu) / sigma
    return dict(scores)


def check_scores(result_rows, score_rows) -> list[str]:
    errors = []
    expected = standardized_scores(result_rows)
    got = {}
    means = {}
    for r in score_rows:
        if r["problem"] == "mean":
            means[r["algorithm"]] = float(r["score"])
        else:
            got[(int(r["problem"]), r["algorithm"])] = float(r["score"])
    if set(got) != set(expected):
        errors.append("scores.csv: (problem, algorithm) pairs differ from results.csv")
        return errors
    for key, value in expected.items():
        if not math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"scores.csv: {key} score {got[key]!r}, recomputed {value!r}")
    for pid in {p for p, _ in expected}:
        total = math.fsum(v for (p, _), v in got.items() if p == pid)
        if abs(total) > 1e-9:
            errors.append(f"scores.csv: problem {pid} scores sum to {total!r}, not 0")
    labels = {label for _, label in expected}
    problems = {p for p, _ in expected}
    for label in labels:
        mean = math.fsum(expected[(p, label)] for p in problems) / len(problems)
        if label not in means or not math.isclose(means[label], mean, rel_tol=1e-9, abs_tol=1e-9):
            errors.append(f"scores.csv: mean score of {label} {means.get(label)!r}, recomputed {mean!r}")
    return errors


def check_rows_per_cell(cell_rows, expected) -> list[str]:
    """Rows passed to task_eval in each cell of a traced grid, against
    max_gens x K x pop_per_task, in grid order."""
    if len(cell_rows) != len(expected):
        return [f"traced grid: {len(cell_rows)} cells, expected {len(expected)}"]
    return [
        f"traced cell {i + 1}: {rows:.0f} rows evaluated, expected {want}"
        for i, (rows, want) in enumerate(zip(cell_rows, expected))
        if rows != want
    ]
