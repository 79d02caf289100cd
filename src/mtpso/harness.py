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
import math
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterator, get_type_hints

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
# the knee of the measured time per cell and generation against C (in
# CHANGES.md); beyond it the stacked arrays outgrow the caches and the
# per-cell gain stops. 50,000 is ten cells of 2 tasks x 50 particles x 50
# dimensions (suite 1) or of ten tasks of at most 10 dimensions, and four
# 5-task 50-D cells (suite 2).
BATCH_ELEMENTS = 50_000
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
        # an empty problem_ids tuple (a config without the key) means "all
        # problems in the suite", resolved when the suite is loaded
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


# the run parameters a config may set, in RunConfig's field order: the
# algorithm comes from each entry and the seed from derive_seed
_HINTS = get_type_hints(RunConfig)
_RUNCONFIG_FIELDS = tuple(key for key in _HINTS if key not in ("algorithm", "seed"))
_INT_FIELDS = {key for key in _RUNCONFIG_FIELDS if _HINTS[key] is int}


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
    _check_number("jobs", cfg.get("jobs", 1), integer=True)  # checked, then ignored
    master_seed = _check_number("master_seed", cfg.get("master_seed", DEFAULT_MASTER_SEED), integer=True)
    suite_seed = _check_number("suite_seed", cfg.get("suite_seed", benchmarks.DEFAULT_SUITE_SEED), integer=True)
    if suite_seed < 0:
        raise ConfigError(f"field 'suite_seed': expected a non-negative integer, got {suite_seed}")

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
        if not problem_ids:
            raise ConfigError("field 'problem_ids': expected at least one id (leave it out for every problem)")
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
        problems = benchmarks.build_suite(spec.suite, seed=spec.suite_seed)
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
    label, config, problem, problem_id, run_index, *_ = cell
    return CellResult(
        algorithm=label,
        problem_id=problem_id,
        run_index=run_index,
        seed=config.seed,
        num_tasks=problem.num_tasks,
        pop_per_task=config.pop_per_task,
        final_fevs=result.best_fevs,
        trace=result.fev_trace,
        source_counts=result.source_counts,
    )


def _run_cell(cell) -> CellResult:
    """One cell, run on its own, recording what its keep flags say."""
    _, config, problem, _, _, keep_trace, keep_counts = cell
    return _cell_result(cell, run(problem, config, record_trace=keep_trace, record_counts=keep_counts))


def _run_batch(batch: list) -> list[CellResult]:
    """One pool task: the cells of a batch, stepped as one stacked swarm;
    the cells of a grid share their keep flags. A batch of one goes through
    :func:`_run_cell`, the per-cell entry point that the benchmark's tracer
    wraps."""
    if len(batch) == 1:
        return [_run_cell(batch[0])]
    keep_trace, keep_counts = batch[0][5:]
    problems, configs = [cell[2] for cell in batch], [cell[1] for cell in batch]
    results = run_batch(problems, configs, record_trace=keep_trace, record_counts=keep_counts)
    return [_cell_result(cell, result) for cell, result in zip(batch, results)]


def _batches(cells: list, jobs: int) -> list[list[int]]:
    """Indices of the grid's cells, grouped into batches by
    :func:`optimizer.batch_key`: cells with equal task count K and unified
    dimension D_u whose configs differ only in seed, lp, bp and PSO against
    S2 (so equal N). A group is split into near-equal batches of at most
    BATCH_ELEMENTS stacked elements in problem id order, grid order within
    a problem, so a batch spans few problems and few (base_fn, dim) groups.
    While the grid has fewer batches than ``jobs`` and than cells, the
    group with the most cells per batch is cut into one batch more, so
    that every worker gets a batch but no group is cut further than the
    pool needs: a batch pays per numpy call and per row, so fewer, larger
    batches cost less per cell."""
    groups: dict = {}
    for i, (_, config, problem, *_) in enumerate(cells):
        groups.setdefault(batch_key(problem, config), []).append(i)
    members, counts = [], []
    for (k, d_u, config), group in groups.items():
        members.append(sorted(group, key=lambda i: cells[i][3]))
        per_batch = max(1, BATCH_ELEMENTS // (k * config.pop_per_task * d_u))
        counts.append(-(-len(group) // per_batch))
    while sum(counts) < min(jobs, len(cells)):
        g = max(range(len(counts)), key=lambda i: len(members[i]) / counts[i])
        counts[g] += 1
    return [list(part) for group, count in zip(members, counts) for part in np.array_split(group, count)]


def _pool_outputs(futures: list, batches: list[list[int]], cells: list):
    """The results of the pool's batches in order; a future is dropped once
    its result is taken, since it holds that result. If a worker process
    dies, raise WorkerCrashError naming the (algorithm, problem, run) cells
    of every batch that never returned."""
    from concurrent.futures.process import BrokenProcessPool

    try:
        for i, future in enumerate(futures):
            yield future.result()
            futures[i] = None
    except BrokenProcessPool as exc:
        names = ", ".join(
            f"({label}, {pid}, {run_index})"
            for batch, future in zip(batches, futures)
            if future is not None and future.exception() is not None
            for label, _, _, pid, run_index, *_ in (cells[i] for i in batch)
        )
        raise WorkerCrashError(
            f"a worker process died; cells that never returned (algorithm, problem, run): {names}"
        ) from exc
    finally:
        for future in futures:
            if future is not None:
                future.cancel()


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")


def _grid_cells(
    spec: ExperimentSpec, jobs: int, progress, problems: list[tuple[int, MtoProblem]]
) -> Iterator[CellResult]:
    """The grid's cells in (algorithm, problem, run) order, each yielded as
    soon as it and every cell before it have returned. Batches are grouped
    by shape and sorted by problem, so a cell can return before an earlier
    one; it is held until then. A grid of more than one batch and ``jobs``
    above 1 runs on a process pool."""
    keep = (spec.write_convergence, spec.write_transfer)
    cells = []
    for label, config in spec.algorithms:
        for pid, problem in problems:
            for run_index in range(1, spec.runs + 1):
                seed = derive_seed(spec.master_seed, label, pid, run_index)
                cell_config = replace(config, seed=seed)
                cells.append((label, cell_config, problem, pid, run_index, *keep))

    batches = _batches(cells, jobs)
    tasks = [[cells[i] for i in batch] for batch in batches]
    workers = min(jobs, len(batches))
    early: dict[int, CellResult] = {}
    next_cell = done = 0
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            outputs = map(_run_batch, tasks)
        else:
            # imported here, so that a serial grid loads neither the pool
            # nor multiprocessing nor the logging the pool module uses
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            futures = [pool.submit(_run_batch, task) for task in tasks]
            outputs = _pool_outputs(futures, batches, cells)
        for batch, out in zip(batches, outputs):
            early.update(zip(batch, out))
            done += len(batch)
            if progress is not None:
                progress(done, len(cells))
            while next_cell in early:
                yield early.pop(next_cell)
                next_cell += 1


def execute(
    spec: ExperimentSpec,
    jobs: int = 1,
    progress=None,
    problems: list[tuple[int, MtoProblem]] | None = None,
) -> list[CellResult]:
    """Run the whole grid; cells come back ordered by (algorithm, problem,
    run) regardless of worker count or batching, each with its trace only
    under the spec's ``write_convergence`` and its source counts only under
    ``write_transfer`` (a run records nothing else). ``problems`` is the
    spec's resolved problem list, loaded here when not given. ``jobs``
    below 1 is a ConfigError; a grid of fewer batches than ``jobs`` starts
    one worker per batch, and a grid of one batch runs in this process."""
    _check_jobs(jobs)
    if problems is None:
        problems = resolve_problems(spec)
    return list(_grid_cells(spec, jobs, progress, problems))


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def _writer(fh):
    return csv.writer(fh, lineterminator="\n")


def _results_rows(experiment_name: str, fh, cell: CellResult) -> None:
    out = _writer(fh)
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


def _cell_prefix(cell: CellResult) -> str:
    """The cell's algorithm, problem and run fields and a trailing comma,
    through the csv writer so that the label is quoted as it would be in a
    row of its own. The rest of a row is numbers, which need no quoting."""
    label = io.StringIO()
    _writer(label).writerow([cell.algorithm, cell.problem_id, cell.run_index, ""])
    return label.getvalue()[:-1]


def _convergence_rows(fh, cell: CellResult) -> None:
    prefix = _cell_prefix(cell)
    for g, row in enumerate(cell.trace, start=1):
        fh.write("".join(f"{prefix}{g},{task},{v!r}\n" for task, v in enumerate(row.tolist(), start=1)))


def _transfer_rows(fh, cell: CellResult) -> None:
    if cell.source_counts is None:
        return
    # a fraction is count / pop_per_task: N + 1 strings, each formatted once
    n = cell.pop_per_task
    fractions = [repr(i / n) for i in range(n + 1)]
    prefix = _cell_prefix(cell)
    k = cell.num_tasks
    pairs = [f"{task + 1},{source + 1}," for task in range(k) for source in range(k)]
    for g, row in enumerate(cell.source_counts.reshape(-1, k * k), start=2):
        fh.write("".join(f"{prefix}{g},{pair}{fractions[c]}\n" for pair, c in zip(pairs, row.tolist())))


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
    given; the manifest lists its ids.

    The CSV files are written as the grid runs, a cell as soon as every
    cell before it in grid order is written, and each cell is dropped once
    written. The manifest is written last, so a grid that fails leaves
    files that hold a grid-order prefix of complete cells, and no
    manifest."""
    _check_jobs(jobs)
    if problems is None:
        problems = resolve_problems(spec)
    spec = replace(spec, problem_ids=tuple(pid for pid, _ in problems))
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = [("results.csv", RESULTS_HEADER, partial(_results_rows, spec.name))]
    if spec.write_convergence:
        outputs.append(("convergence.csv", CONVERGENCE_HEADER, _convergence_rows))
    if spec.write_transfer:
        outputs.append(("transfer.csv", TRANSFER_HEADER, _transfer_rows))
    with contextlib.ExitStack() as stack:
        files = []
        for name, header, rows in outputs:
            fh = stack.enter_context(open(out_dir / name, "w", newline=""))
            _writer(fh).writerow(header)
            files.append((fh, rows))
        # closed on the way out, so that a failed write stops the pool too
        cells = stack.enter_context(contextlib.closing(_grid_cells(spec, jobs, progress, problems)))
        for cell in cells:
            for fh, rows in files:
                rows(fh, cell)
    write_manifest(out_dir / "manifest.json", spec)
    return out_dir


# ---------------------------------------------------------------------------
# Scoring over results files
# ---------------------------------------------------------------------------


def read_results_csv(path):
    """Parse a results file into {algorithm: {problem: {(task, run): fev}}},
    preserving first-appearance algorithm order. A non-finite value or a
    repeated (algorithm, problem, task, run) is a ConfigError."""
    data: dict[str, dict[int, dict[tuple[int, int], float]]] = {}
    first_line: dict[tuple, int] = {}
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
            if not math.isfinite(value):
                raise ConfigError(f"{path}: line {lineno}: final_fev must be finite, got {final_fev!r}")
            first = first_line.setdefault((algorithm, pid, key), lineno)
            if first != lineno:
                raise ConfigError(
                    f"{path}: lines {first} and {lineno} both give algorithm {algorithm!r}, "
                    f"problem {pid}, task {key[0]}, run {key[1]}"
                )
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
