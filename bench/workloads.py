"""The three workloads: their inputs, one grid each, and their checks.

Every workload is a batch: one experiment grid per round, driven from this
process. Inputs derive from the benchmark seed only; the package receives
the generated configuration and task files.

Every cell runs at full length; the problems are a subset (see ``GRIDS``).

- ``suite1-paper``: S1, S2 and PSO on four of the nine 2-task, 50-D
  suite-1 problems at paper defaults (2,000 generations), serially through
  ``harness.run_experiment``, writing only ``results.csv`` (and the
  manifest). The headline comparison: time goes to the base functions, the
  rotation and the move on 50 x 50 arrays, and the PSO third of the cells
  bypasses adaptation.
- ``suite2-artifacts``: S1 and S2 on three of the nine 5-task suite-2
  problems with ``jobs=2``, writing every artifact. The only workload on
  the process pool; K=5 gives K^2 transfer rows per generation, so the CSV
  writers and the results held in memory do real work.
- ``manytask-sweep``: ``mtpso sweep --param lp`` in-process over two
  generated task files of ten low-dimension tasks with mixed functions and
  dimensions, then scoring. Small arrays, so per-call overhead in the
  optimizer and adaptation dominates; it also covers the read path and
  ``load_problem_files``.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

SUITE1_ALGORITHMS = ("samtpso-s1", "samtpso-s2", "pso")
SUITE2_ALGORITHMS = ("samtpso-s1", "samtpso-s2")
POP_PER_TASK = 50  # the paper's default

# Canonical boxes, [-b, b] per coordinate, for the generated task files.
BOXES = {
    "sphere": 100.0,
    "griewank": 100.0,
    "rosenbrock": 50.0,
    "rastrigin": 50.0,
    "ackley": 50.0,
    "schwefel": 500.0,
    "weierstrass": 0.5,
}


@dataclass
class Workload:
    name: str
    jobs: int
    config: dict
    config_path: Path
    out_dir: Path
    max_gens: int
    labels: tuple[str, ...]  # as written to results.csv, in grid order
    problem_tasks: dict[int, int]  # problem id -> number of tasks
    sweep_values: tuple[int, ...] = ()

    @property
    def cells(self) -> list[tuple[str, int, int]]:
        runs = self.config["runs"]
        return [
            (label, pid, run)
            for label in self.labels
            for pid in sorted(self.problem_tasks)
            for run in range(1, runs + 1)
        ]

    def evaluations_per_cell(self) -> list[int]:
        """max_gens x K x pop_per_task per cell, in grid order; the initial
        population counts as generation 1."""
        return [self.max_gens * self.problem_tasks[pid] * POP_PER_TASK for _, pid, _ in self.cells]

    def run_round(self, mtpso) -> None:
        """One grid, from the parsed experiment to its last artifact."""
        if self.sweep_values:
            argv = [
                "sweep",
                "--config",
                str(self.config_path),
                "--param",
                "lp",
                "--values",
                ",".join(str(v) for v in self.sweep_values),
                "--quiet",
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                status = mtpso.cli.main(argv)
            if status != 0:
                raise RuntimeError(f"mtpso sweep exited with status {status}")
        else:
            spec = mtpso.harness.parse_experiment(self.config, name_default=self.name)
            mtpso.harness.run_experiment(spec, jobs=self.jobs)

    def check(self, mtpso, rng: np.random.Generator) -> list[str]:
        """Check the artifacts of the last round."""
        cfg = self.config
        rows = checks.read_csv(self.out_dir / "results.csv")
        grid = {cell: self.problem_tasks[cell[1]] for cell in self.cells}
        errors = checks.check_results(rows, grid, cfg["master_seed"], cfg["name"])
        if errors:
            return errors
        finals = checks.final_fevs(rows)
        if cfg["write_convergence"]:
            conv = checks.read_csv(self.out_dir / "convergence.csv")
            errors += checks.check_convergence(conv, finals, self.max_gens)
        if cfg["write_transfer"]:
            adaptive = {cell: k for cell, k in grid.items() if not cell[0].startswith("pso")}
            transfer = checks.read_csv(self.out_dir / "transfer.csv")
            errors += checks.check_transfer(transfer, POP_PER_TASK, adaptive, self.max_gens)
        if self.sweep_values:
            errors += checks.check_scores(rows, checks.read_csv(self.out_dir / "scores.csv"))
        errors += checks.check_rerun(mtpso.optimizer.run, self._rerun_sample(mtpso, rng), finals)
        return errors

    def _rerun_sample(self, mtpso, rng):
        """One cell per algorithm (of the sweep: at a drawn lp), re-run
        serially with its own seed."""
        spec = mtpso.harness.parse_experiment(self.config, name_default=self.name)
        problems = dict(mtpso.harness.resolve_problems(spec))
        base = dict(spec.algorithms)
        sample = []
        for name in self.config["algorithms"]:
            cells = [c for c in self.cells if c[0].partition("@lp=")[0] == name]
            label, pid, run = cells[rng.integers(len(cells))]
            algorithm, _, lp = label.partition("@lp=")
            config = base[algorithm]
            if lp:
                config = replace(config, lp=int(lp))
            seed = checks.cell_seed(spec.master_seed, label, pid, run)
            sample.append((label, pid, run, problems[pid], replace(config, seed=seed)))
        return sample


def _base_config(name: str, seed: int, out_dir: Path) -> dict:
    rng = np.random.default_rng([seed, 1])
    return {
        "name": name,
        "master_seed": int(rng.integers(2**62)),
        "suite_seed": int(rng.integers(2**31)),
        "runs": 1,
        "output_dir": str(out_dir),
    }


def _write_config(config: dict, path: Path) -> None:
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1)


def random_rotation(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def write_manytask_problems(directory: Path, rng, problems: int) -> None:
    """Problem files of ten tasks each, one per (function, dimension) of
    ``MANYTASK_TASKS``, in a drawn order. Only the order, the shifts and the
    rotations vary with the seed, so every seed asks for the same
    arithmetic per generation."""
    directory.mkdir(parents=True, exist_ok=True)
    for p in range(1, problems + 1):
        entries = []
        for i in rng.permutation(len(MANYTASK_TASKS)):
            fn, d = MANYTASK_TASKS[i]
            b = BOXES[fn]
            entries.append(
                {
                    "fn": str(fn),
                    "dim": int(d),
                    "lower": -b,
                    "upper": b,
                    "shift": (-b + 2 * b * (0.1 + 0.8 * rng.random(d))).tolist(),
                    "rotation": random_rotation(d, rng).tolist(),
                }
            )
        with open(directory / f"problem_{p:02d}.json", "w") as fh:
            json.dump({"tasks": entries}, fh)


def make(name: str, seed: int, work: Path, gens: int | None = None, problems=None) -> Workload:
    """Write the workload's inputs under ``work`` and describe it.
    ``gens`` and ``problems`` (problem ids) override the grid's length and
    its problems; ``bench/mix.py`` uses them to compare grid lengths."""
    if name not in GRIDS:
        raise ValueError(f"unknown workload {name!r}")
    grid = GRIDS[name]
    gens = gens or grid["gens"]
    pids = sorted(problems or grid["problems"])
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / "out"
    cfg = _base_config(name, seed, out_dir)
    cfg.update(problem_ids=pids, max_gens=gens)
    labels = tuple(grid["algorithms"])
    sweep_values = ()
    if name == "suite1-paper":
        cfg.update(suite="suite1", write_convergence=False, write_transfer=False)
    elif name == "suite2-artifacts":
        cfg.update(suite="suite2", write_convergence=True, write_transfer=True)
    else:
        task_dir = work / "tasks"
        rng = np.random.default_rng([seed, 2])
        write_manytask_problems(task_dir, rng, MANYTASK_PROBLEMS)
        cfg.update(suite=str(task_dir), write_convergence=False, write_transfer=False)
        sweep_values = MANYTASK_LP
        labels = tuple(f"{a}@lp={v}" for v in MANYTASK_LP for a in grid["algorithms"])
    cfg["algorithms"] = list(grid["algorithms"])
    wl = Workload(
        name,
        grid["jobs"],
        cfg,
        work / "config.json",
        out_dir,
        gens,
        labels,
        {p: grid["tasks"] for p in pids},
        sweep_values=sweep_values,
    )
    _write_config(cfg, wl.config_path)
    return wl


NAMES = ("suite1-paper", "suite2-artifacts", "manytask-sweep")

# Grid shapes. Every cell runs the full length of the runs it stands for
# (2,000 generations, the paper's; 1,000 for the sweep, as in Tier-1
# criterion 8), because what a generation does changes over a run: focus
# search starts only after hundreds of generations. The problems are the
# subsets whose per-generation mix (transfers, focus search, bounces,
# improvements, time per layer) is closest to that of all nine problems;
# bench/mix.py measures it and README records the comparison. The sweep's
# task files hold every base function once and three more, at dimensions
# from 2 to 10.
MANYTASK_TASKS = (
    ("sphere", 10),
    ("rosenbrock", 4),
    ("ackley", 7),
    ("rastrigin", 9),
    ("griewank", 3),
    ("weierstrass", 5),
    ("schwefel", 8),
    ("rastrigin", 2),
    ("griewank", 6),
    ("ackley", 6),
)
GRIDS = {
    "suite1-paper": dict(algorithms=SUITE1_ALGORITHMS, problems=(2, 4, 6, 8), tasks=2, gens=2000, jobs=1),
    "suite2-artifacts": dict(algorithms=SUITE2_ALGORITHMS, problems=(2, 6, 7), tasks=5, gens=2000, jobs=2),
    "manytask-sweep": dict(algorithms=SUITE2_ALGORITHMS, problems=(1, 2), tasks=len(MANYTASK_TASKS), gens=1000, jobs=1),
}
MANYTASK_PROBLEMS = 2  # task files written
MANYTASK_LP = (2, 5, 10)
