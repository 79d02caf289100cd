"""Command-line experiment runner.

Exit codes:

- 0: success;
- 2: a configuration or input error: an invalid config, a malformed or
  missing task file, or a task that gave a non-finite fitness;
- 3: an I/O error;
- 4: a worker process died (the error names the cells that never
  returned).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, metrics
from .benchmarks import BenchmarkDataError
from .harness import ConfigError, ExperimentSpec
from .optimizer import NonFiniteFitnessError

SEED_ENV_VAR = "MTPSO_SEED"


def _load_spec(config_path: str, out_override: str | None) -> ExperimentSpec:
    cfg = harness.load_config(config_path)
    spec = harness.parse_experiment(cfg, name_default=Path(config_path).stem)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            spec = replace(spec, master_seed=int(env_seed))
        except ValueError:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}")
    if out_override is not None:
        spec = replace(spec, output_dir=out_override)
    return spec


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _clock(seconds: float) -> str:
    minutes, secs = divmod(round(seconds), 60)
    hours, minutes = divmod(minutes, 60)
    return f"{hours}:{minutes:02d}:{secs:02d}" if hours else f"{minutes}:{secs:02d}"


def _progress_printer(quiet: bool):
    if quiet:
        return None

    start = time.monotonic()
    shown = 0

    def progress(done, total):
        # cells complete a batch at a time, so report each step crossed
        nonlocal shown
        step = max(1, total // 20)
        if done == total or done // step > shown // step:
            shown = done
            elapsed = max(time.monotonic() - start, 1e-9)
            rate = done / elapsed
            print(f"  {done}/{total} runs complete, {_clock(elapsed)} elapsed, "
                  f"{rate:.2f} runs/s, ETA {_clock((total - done) / rate)}", flush=True)

    return progress


def cmd_run(args) -> int:
    spec = _load_spec(args.config, args.out)
    resolved = harness.resolve_problems(spec)
    print(f"experiment {spec.name!r}: {len(spec.algorithms)} algorithm(s) x "
          f"{len(resolved)} problem(s) x {spec.runs} run(s)")
    out_dir = harness.run_experiment(
        spec, jobs=args.jobs, progress=_progress_printer(args.quiet), problems=resolved
    )
    print(f"wrote {out_dir / 'results.csv'}")
    if spec.write_convergence:
        print(f"wrote {out_dir / 'convergence.csv'}")
    if spec.write_transfer:
        print(f"wrote {out_dir / 'transfer.csv'}")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _print_score_table(algorithms, problems, tables, per_problem, mean_scores, std_mode):
    col = max(len(a) for a in algorithms) + 2
    cell_w = max(22, col)
    header = f"{'problem':>8} {'task':>5}"
    for algorithm in algorithms:
        header += f" {algorithm + ' mean(std)':>{cell_w}} {algorithm + ' score':>{cell_w}}"
    print(header)
    for pid in problems:
        table = tables[pid]
        _, k, n_runs = table.shape
        for ti in range(k):
            line = f"{pid if ti == 0 else '':>8} {'T' + str(ti + 1):>5}"
            for qi in range(len(algorithms)):
                vals = table[qi, ti, :]
                std = vals.std(ddof=1) if n_runs > 1 else 0.0
                cell = metrics.format_cell(vals.mean(), std)
                score_txt = metrics.sci(per_problem[pid][qi]) if ti == 0 else ""
                line += f" {cell:>{cell_w}} {score_txt:>{cell_w}}"
            print(line)
    line = f"{'mean':>8} {'':>5}"
    for qi in range(len(algorithms)):
        line += f" {'-':>{cell_w}} {metrics.sci(mean_scores[qi]):>{cell_w}}"
    print(line)
    print(f"(scores use {std_mode} standard deviation; lower is better)")


def _score(paths, std_mode, out_path: Path) -> None:
    """Score the results files: print the table and write the scores."""
    data = harness.merge_results([harness.read_results_csv(p) for p in paths])
    algorithms, problems, tables = harness.tabulate_fevs(data)
    per_problem = {pid: metrics.score(tables[pid], std=std_mode) for pid in problems}
    mean_scores = np.mean([per_problem[pid] for pid in problems], axis=0)
    _print_score_table(algorithms, problems, tables, per_problem, mean_scores, std_mode)
    harness.write_scores_csv(out_path, algorithms, problems, per_problem, mean_scores)
    print(f"wrote {out_path}")


def cmd_score(args) -> int:
    _score(args.results, args.std, Path(args.out) if args.out else Path(args.results[0]).parent / "scores.csv")
    return 0


def cmd_sweep(args) -> int:
    spec = _load_spec(args.config, args.out)
    param = args.param
    if args.values is not None:
        try:
            cast = int if param == "lp" else float
            values = [cast(v) for v in args.values.split(",")]
        except ValueError:
            raise ConfigError(f"--values must be comma-separated {param} values, got {args.values!r}")
    else:
        values = list(harness.SWEEP_GRIDS[param])

    swept = []
    for value in values:
        for label, config in spec.algorithms:
            try:
                swept.append((f"{label}@{param}={value}", replace(config, **{param: value})))
            except ValueError as exc:
                raise ConfigError(f"--values: {exc}") from exc
    spec = replace(spec, algorithms=tuple(swept))
    resolved = harness.resolve_problems(spec)

    print(f"sweep over {param} = {values}: {len(swept)} configuration(s) x "
          f"{len(resolved)} problem(s) x {spec.runs} run(s)")
    out_dir = harness.run_experiment(
        spec, jobs=args.jobs, progress=_progress_printer(args.quiet), problems=resolved
    )
    _score([out_dir / "results.csv"], args.std, out_dir / "scores.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtpso",
        description="Multi-task PSO benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cpus = _usable_cpus()
    jobs_help = ("parallel worker processes, at least 1; 1 runs in this process "
                 "(default: %(default)s, the CPUs this process may run on)")

    p_run = sub.add_parser("run", help="execute an experiment grid")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--jobs", type=int, default=cpus, help=jobs_help)
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_score = sub.add_parser("score", help="score one or more results.csv files")
    p_score.add_argument("results", nargs="+", help="results.csv paths")
    p_score.add_argument("--std", choices=("population", "sample"), default="population")
    p_score.add_argument("--out", default=None, help="scores.csv path")
    p_score.set_defaults(func=cmd_score)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and score it")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", choices=("bp", "lp"), required=True)
    p_sweep.add_argument("--values", default=None, help="comma-separated values (default: full grid)")
    p_sweep.add_argument("--jobs", type=int, default=cpus, help=jobs_help)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--std", choices=("population", "sample"), default="population")
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, BenchmarkDataError, NonFiniteFitnessError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except harness.WorkerCrashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
