"""Experiment engine: config parsing, seeded grids of runs, CSV artifacts.

An experiment is a grid of (algorithm, problem, run) cells. Every cell's
seed is derived from the master seed and the cell coordinates, so any
subset of the grid can be reproduced independently and serial/parallel
execution give identical results.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import benchmarks
from .core import ALGORITHMS, MtoProblem, RunConfig
from .optimizer import RunResult, batch_key, run, run_batch

RESULTS_HEADER = ["experiment", "algorithm", "problem", "task", "run", "seed", "final_fev"]
CONVERGENCE_HEADER = ["algorithm", "problem", "run", "generation", "task", "best_fev"]
TRANSFER_HEADER = ["algorithm", "problem", "run", "generation", "task", "source", "fraction"]
SCORES_HEADER = ["problem", "algorithm", "score"]

DEFAULT_MASTER_SEED = 986019042187420
# Elements (K x C x N x D_u) of a batch's stacked positions, for C cells:
# beyond this the stacked arrays outgrow the caches and the per-cell gain
# shrinks (measured in CHANGES.md). 20,000 is four suite-1 cells of 2
# tasks x 50 particles x 50 dimensions.
BATCH_ELEMENTS = 20_000
SWEEP_GRIDS = {
    "bp": (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1),
    "lp": (1, 2, 5, 10, 20, 50, 100),
}


class ConfigError(ValueError):
    """An experiment configuration failed to validate."""


class WorkerCrashError(RuntimeError):
    """A pool worker process died before its cells returned."""


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    suite: str
    suite_seed: int
    problem_ids: tuple[int, ...]
    algorithms: tuple[tuple[str, RunConfig], ...]
    runs: int
    master_seed: int
    output_dir: str
    write_convergence: bool = True
    write_transfer: bool = True

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("'runs' must be >= 1")
        # an empty problem_ids tuple means "all problems in the suite",
        # resolved when the suite is loaded
        if not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        labels = [label for label, _ in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"algorithm labels must be unique, got {labels}")


@dataclass
class CellResult:
    """Summary of one run of the grid."""

    algorithm: str
    problem_id: int
    run_index: int  # 1-based
    seed: int
    num_tasks: int
    pop_per_task: int
    final_fevs: np.ndarray
    trace: np.ndarray | None
    source_counts: np.ndarray | None


_RUNCONFIG_FIELDS = (
    "pop_per_task",
    "lp",
    "bp",
    "eps",
    "w_start",
    "w_end",
    "c1",
    "c2",
    "c3",
    "max_gens",
)
_INT_FIELDS = {"pop_per_task", "lp", "max_gens"}


def _check_number(key, value, integer=False):
    if integer:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"field {key!r}: expected an integer, got {value!r}")
    elif not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"field {key!r}: expected a number, got {value!r}")
    return value


def parse_experiment(cfg: dict, name_default: str = "experiment") -> ExperimentSpec:
    """Build a validated spec from a config dict (all fields optional except
    the algorithm list; paper-default parameters fill the gaps)."""
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    known = {
        "name",
        "suite",
        "suite_seed",
        "problem_ids",
        "algorithms",
        "runs",
        "master_seed",
        "output_dir",
        "write_convergence",
        "write_transfer",
        "jobs",  # written by older manifests; the worker count is --jobs
        *_RUNCONFIG_FIELDS,
    }
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown config field {key!r}")

    suite = cfg.get("suite", "suite1")
    if not isinstance(suite, str):
        raise ConfigError("field 'suite': expected a suite id or problem-file path")
    runs = _check_number("runs", cfg.get("runs", 30), integer=True)
    master_seed = _check_number("master_seed", cfg.get("master_seed", DEFAULT_MASTER_SEED), integer=True)
    suite_seed = _check_number("suite_seed", cfg.get("suite_seed", benchmarks.DEFAULT_SUITE_SEED), integer=True)

    shared = {}
    for key in _RUNCONFIG_FIELDS:
        if key in cfg:
            shared[key] = _check_number(key, cfg[key], integer=key in _INT_FIELDS)

    algo_list = cfg.get("algorithms", [{"algorithm": "samtpso-s1"}, {"algorithm": "pso"}])
    if not isinstance(algo_list, list) or not algo_list:
        raise ConfigError("field 'algorithms': expected a non-empty list")
    algorithms = []
    for i, entry in enumerate(algo_list):
        if isinstance(entry, str):
            entry = {"algorithm": entry}
        if not isinstance(entry, dict):
            raise ConfigError(f"algorithms[{i}]: expected an object or algorithm name")
        algo = entry.get("algorithm")
        if algo not in ALGORITHMS:
            raise ConfigError(f"algorithms[{i}]: 'algorithm' must be one of {ALGORITHMS}, got {algo!r}")
        label = entry.get("label", algo)
        if not isinstance(label, str) or not label:
            raise ConfigError(f"algorithms[{i}]: 'label' must be a non-empty string")
        params = dict(shared)
        for key, value in entry.items():
            if key in ("algorithm", "label"):
                continue
            if key not in _RUNCONFIG_FIELDS:
                raise ConfigError(f"algorithms[{i}]: unknown field {key!r}")
            params[key] = _check_number(key, value, integer=key in _INT_FIELDS)
        try:
            config = RunConfig(algorithm=algo, **params)
        except ValueError as exc:
            raise ConfigError(f"algorithms[{i}]: {exc}") from exc
        algorithms.append((label, config))

    problem_ids = cfg.get("problem_ids")
    if problem_ids is None:
        problem_ids = list(range(1, 10)) if suite in benchmarks.SUITE_IDS else None
    if problem_ids is not None:
        if not isinstance(problem_ids, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in problem_ids
        ):
            raise ConfigError("field 'problem_ids': expected a list of integers")
        if len(set(problem_ids)) != len(problem_ids):
            raise ConfigError(f"field 'problem_ids': ids must be unique, got {problem_ids}")
    flags = {key: cfg.get(key, True) for key in ("write_convergence", "write_transfer")}
    for key, value in flags.items():
        if not isinstance(value, bool):
            raise ConfigError(f"field {key!r}: expected true or false, got {value!r}")

    name = cfg.get("name", name_default)
    if not isinstance(name, str) or not name:
        raise ConfigError("field 'name': expected a non-empty string")
    output_dir = cfg.get("output_dir", "out")
    if not isinstance(output_dir, str):
        raise ConfigError("field 'output_dir': expected a path string")

    spec = ExperimentSpec(
        name=name,
        suite=suite,
        suite_seed=suite_seed,
        problem_ids=tuple(problem_ids) if problem_ids is not None else (),
        algorithms=tuple(algorithms),
        runs=runs,
        master_seed=master_seed,
        output_dir=output_dir,
        **flags,
    )
    return spec


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def resolve_problems(spec: ExperimentSpec) -> list[tuple[int, MtoProblem]]:
    """Problem instances for the spec's suite, keyed by 1-based id."""
    if spec.suite in benchmarks.SUITE_IDS:
        suite = benchmarks.build_suite(spec.suite, benchmarks.GeneratedSeeded(spec.suite_seed))
        problems = list(suite.problems)
    else:
        problems = benchmarks.load_problem_files(spec.suite)
    ids = spec.problem_ids or tuple(range(1, len(problems) + 1))
    out = []
    for pid in ids:
        if not 1 <= pid <= len(problems):
            raise ConfigError(f"problem id {pid} out of range 1..{len(problems)}")
        out.append((pid, problems[pid - 1]))
    return out


def derive_seed(master_seed: int, algorithm: str, problem_id: int, run_index: int) -> int:
    """Stable 64-bit per-cell seed."""
    key = f"{master_seed}|{algorithm}|{problem_id}|{run_index}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def _cell_result(cell, result: RunResult) -> CellResult:
    label, config, problem, problem_id, run_index, keep_trace, keep_counts = cell
    return CellResult(
        algorithm=label,
        problem_id=problem_id,
        run_index=run_index,
        seed=config.seed,
        num_tasks=problem.num_tasks,
        pop_per_task=config.pop_per_task,
        final_fevs=result.best_fevs,
        trace=result.fev_trace if keep_trace else None,
        source_counts=result.source_counts if keep_counts else None,
    )


def _run_cell(cell) -> CellResult:
    """One cell, run on its own."""
    return _cell_result(cell, run(cell[2], cell[1]))


def _run_batch(batch: list) -> list[CellResult]:
    """One pool task: the cells of a batch, stepped as one stacked swarm.
    A batch of one goes through :func:`_run_cell`, the per-cell entry
    point that the benchmark's tracer wraps."""
    if len(batch) == 1:
        return [_run_cell(batch[0])]
    results = run_batch([cell[2] for cell in batch], [cell[1] for cell in batch])
    return [_cell_result(cell, result) for cell, result in zip(batch, results)]


def _batches(cells: list, jobs: int) -> list[list[int]]:
    """Indices of the grid's cells, grouped into batches of one swarm
    shape: cells with equal task count K and unified dimension D_u whose
    configs differ only in seed, lp, bp and PSO against S2 (so equal N).
    A group is sorted by problem id, keeping grid order within a problem,
    so that a problem's cells stay adjacent; it is split into batches of at
    most BATCH_ELEMENTS stacked elements, and a group of at least ``jobs``
    cells into at least ``jobs`` batches so that every worker gets one."""
    groups: dict = {}
    for i, (_, config, problem, *_) in enumerate(cells):
        key = (problem.num_tasks, problem.unified_dim, batch_key(config))
        groups.setdefault(key, []).append(i)
    batches = []
    for (k, d_u, config), members in groups.items():
        members.sort(key=lambda i: cells[i][3])
        per_batch = max(1, BATCH_ELEMENTS // (k * config.pop_per_task * d_u))
        count = max(-(-len(members) // per_batch), min(jobs, len(members)))
        batches += [list(part) for part in np.array_split(members, count)]
    return batches


def _pool_outputs(futures: list, batches: list[list[int]], cells: list):
    """The results of the pool's batches in order. If a worker process
    dies, raise WorkerCrashError naming the (algorithm, problem, run) cells
    of every batch that never returned."""
    try:
        for future in futures:
            yield future.result()
    except BrokenProcessPool as exc:
        names = ", ".join(
            f"({label}, {pid}, {run_index})"
            for batch, future in zip(batches, futures)
            if future.exception() is not None
            for label, _, _, pid, run_index, *_ in (cells[i] for i in batch)
        )
        raise WorkerCrashError(
            f"a worker process died; cells that never returned (algorithm, problem, run): {names}"
        ) from exc
    finally:
        for future in futures:
            future.cancel()


def execute(
    spec: ExperimentSpec,
    jobs: int = 1,
    keep_traces: bool | None = None,
    keep_counts: bool | None = None,
    progress=None,
    problems: list[tuple[int, MtoProblem]] | None = None,
) -> list[CellResult]:
    """Run the whole grid; cells come back ordered by (algorithm, problem,
    run) regardless of worker count or batching. ``problems`` is the spec's
    resolved problem list, loaded here when not given."""
    if keep_traces is None:
        keep_traces = spec.write_convergence
    if keep_counts is None:
        keep_counts = spec.write_transfer
    if problems is None:
        problems = resolve_problems(spec)
    cells = []
    for label, config in spec.algorithms:
        for pid, problem in problems:
            for run_index in range(1, spec.runs + 1):
                seed = derive_seed(spec.master_seed, label, pid, run_index)
                cell_config = replace(config, seed=seed)
                cells.append((label, cell_config, problem, pid, run_index, keep_traces, keep_counts))

    batches = _batches(cells, jobs)
    tasks = [[cells[i] for i in batch] for batch in batches]
    results: list = [None] * len(cells)
    done = 0
    with contextlib.ExitStack() as stack:
        if jobs <= 1:
            outputs = map(_run_batch, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            futures = [pool.submit(_run_batch, task) for task in tasks]
            outputs = _pool_outputs(futures, batches, cells)
        for batch, out in zip(batches, outputs):
            for i, cell_result in zip(batch, out):
                results[i] = cell_result
            done += len(batch)
            if progress is not None:
                progress(done, len(cells))
    return results


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def write_results_csv(path, experiment_name: str, cells: list[CellResult]) -> None:
    with open(path, "w", newline="") as fh:
        out = _writer(fh)
        out.writerow(RESULTS_HEADER)
        for cell in cells:
            for task in range(cell.num_tasks):
                out.writerow(
                    [
                        experiment_name,
                        cell.algorithm,
                        cell.problem_id,
                        task + 1,
                        cell.run_index,
                        cell.seed,
                        repr(float(cell.final_fevs[task])),
                    ]
                )


def write_convergence_csv(path, cells: list[CellResult]) -> None:
    with open(path, "w", newline="") as fh:
        out = _writer(fh)
        out.writerow(CONVERGENCE_HEADER)
        for cell in cells:
            if cell.trace is None:
                continue
            for g in range(cell.trace.shape[0]):
                for task in range(cell.num_tasks):
                    out.writerow(
                        [
                            cell.algorithm,
                            cell.problem_id,
                            cell.run_index,
                            g + 1,
                            task + 1,
                            repr(float(cell.trace[g, task])),
                        ]
                    )


def write_transfer_csv(path, cells: list[CellResult]) -> None:
    with open(path, "w", newline="") as fh:
        _writer(fh).writerow(TRANSFER_HEADER)
        for cell in cells:
            if cell.source_counts is None:
                continue
            # a fraction is count / pop_per_task: N + 1 strings, each
            # formatted once; the label goes through the csv writer so that
            # it is quoted as it would be in a row of its own
            n = cell.pop_per_task
            fractions = [repr(i / n) for i in range(n + 1)]
            label = io.StringIO()
            _writer(label).writerow([cell.algorithm, cell.problem_id, cell.run_index, ""])
            prefix = label.getvalue()[:-1]
            k = cell.num_tasks
            pairs = [f"{task + 1},{source + 1}," for task in range(k) for source in range(k)]
            for g, row in enumerate(cell.source_counts.reshape(-1, k * k), start=2):
                lines = (f"{prefix}{g},{pair}{fractions[c]}\n" for pair, c in zip(pairs, row.tolist()))
                fh.write("".join(lines))


def spec_to_manifest(spec: ExperimentSpec) -> dict:
    """Fully resolved configuration; itself a valid config file."""
    manifest = {
        "name": spec.name,
        "suite": spec.suite,
        "suite_seed": spec.suite_seed,
        "problem_ids": list(spec.problem_ids),
        "runs": spec.runs,
        "master_seed": spec.master_seed,
        "output_dir": spec.output_dir,
        "write_convergence": spec.write_convergence,
        "write_transfer": spec.write_transfer,
        "algorithms": [
            {
                "algorithm": config.algorithm,
                "label": label,
                **{key: getattr(config, key) for key in _RUNCONFIG_FIELDS},
            }
            for label, config in spec.algorithms
        ],
    }
    return manifest


def write_manifest(path, spec: ExperimentSpec) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_manifest(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(
    spec: ExperimentSpec,
    jobs: int = 1,
    progress=None,
    problems: list[tuple[int, MtoProblem]] | None = None,
) -> Path:
    """Execute the grid and write results/convergence/transfer/manifest
    under the spec's output directory; returns that directory.
    ``problems`` is the spec's resolved problem list, loaded here when not
    given; the manifest lists its ids."""
    if problems is None:
        problems = resolve_problems(spec)
    spec = replace(spec, problem_ids=tuple(pid for pid, _ in problems))
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cells = execute(spec, jobs=jobs, progress=progress, problems=problems)
    write_results_csv(out_dir / "results.csv", spec.name, cells)
    if spec.write_convergence:
        write_convergence_csv(out_dir / "convergence.csv", cells)
    if spec.write_transfer:
        write_transfer_csv(out_dir / "transfer.csv", cells)
    write_manifest(out_dir / "manifest.json", spec)
    return out_dir


# ---------------------------------------------------------------------------
# Scoring over results files
# ---------------------------------------------------------------------------


def read_results_csv(path):
    """Parse a results file into {algorithm: {problem: {(task, run): fev}}},
    preserving first-appearance algorithm order."""
    data: dict[str, dict[int, dict[tuple[int, int], float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != RESULTS_HEADER:
            raise ConfigError(f"{path}: expected header {RESULTS_HEADER}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(RESULTS_HEADER):
                raise ConfigError(f"{path}: line {lineno}: expected {len(RESULTS_HEADER)} fields")
            try:
                _, algorithm, problem, task, run_index, _, final_fev = row
                key = (int(task), int(run_index))
                value = float(final_fev)
                pid = int(problem)
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
            data.setdefault(algorithm, {}).setdefault(pid, {})[key] = value
    if not data:
        raise ConfigError(f"{path}: no result rows")
    return data


def merge_results(datasets: list[dict]) -> dict:
    merged: dict = {}
    for data in datasets:
        for algorithm, problems in data.items():
            if algorithm in merged:
                raise ConfigError(f"algorithm {algorithm!r} appears in more than one input")
            merged[algorithm] = problems
    return merged


def tabulate_fevs(data: dict) -> tuple[list[str], list[int], dict[int, np.ndarray]]:
    """Turn merged results into per-problem (Q, K, L) tensors; every
    algorithm must cover the identical (problem, task, run) grid."""
    algorithms = list(data)
    if len(algorithms) < 2:
        raise ConfigError("scoring needs results from at least 2 algorithms")
    reference = algorithms[0]
    problems = sorted(data[reference])
    tables: dict[int, np.ndarray] = {}
    for pid in problems:
        ref_keys = set(data[reference][pid])
        tasks = sorted({t for t, _ in ref_keys})
        runs = sorted({r for _, r in ref_keys})
        if ref_keys != {(t, r) for t in tasks for r in runs}:
            raise ConfigError(f"problem {pid}: incomplete (task, run) grid for {reference!r}")
        table = np.empty((len(algorithms), len(tasks), len(runs)))
        for qi, algorithm in enumerate(algorithms):
            if sorted(data[algorithm]) != problems:
                raise ConfigError(
                    f"problem sets differ: {reference!r} has {problems}, "
                    f"{algorithm!r} has {sorted(data[algorithm])}"
                )
            cells = data[algorithm][pid]
            if set(cells) != ref_keys:
                raise ConfigError(f"problem {pid}: (task, run) grids differ for {algorithm!r}")
            for ti, task in enumerate(tasks):
                for ri, run_index in enumerate(runs):
                    table[qi, ti, ri] = cells[(task, run_index)]
        tables[pid] = table
    return algorithms, problems, tables


def write_scores_csv(path, algorithms, problems, per_problem, mean_scores) -> None:
    with open(path, "w", newline="") as fh:
        out = _writer(fh)
        out.writerow(SCORES_HEADER)
        for pid in problems:
            for qi, algorithm in enumerate(algorithms):
                out.writerow([pid, algorithm, repr(float(per_problem[pid][qi]))])
        for qi, algorithm in enumerate(algorithms):
            out.writerow(["mean", algorithm, repr(float(mean_scores[qi]))])
