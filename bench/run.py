"""Benchmark of the mtpso package: one workload per invocation.

    python3 bench/run.py --workload suite1-paper --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics:
set-up time (median of fresh processes), function evaluations per second
(median over whole grids) and peak resident memory. With ``--trace 1`` it
alternates untraced and traced grids and reports the per-layer metrics of
the traced ones, with the tracing overhead. Either way it checks the
artifacts of the last grid and prints, as the last line of standard
output, one JSON object with ``correct``, ``attempted``, ``failed`` (both
counted in cells) and ``metrics``. Spans of a traced run are written to
``.bench_out/trace-<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import reference
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PER_GRID = 5  # set-up probes before each timed grid, spread over the run
SETUP_SAMPLES = 15  # at least this many per run
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import mtpso from this checkout's ``src/``, and nowhere else."""
    if not (SRC / "mtpso" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'mtpso'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mtpso
    import mtpso.cli

    if Path(mtpso.__file__).resolve().parent != SRC / "mtpso":
        sys.exit(f"bench: imported mtpso from {mtpso.__file__}, not from {SRC}")
    return mtpso


def measure_setup(wl, n: int) -> list[float]:
    """Set-up time of ``n`` fresh processes: import, parse, build or load."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).parent / "setup_probe.py"), str(SRC), str(wl.config_path)],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def timed_round(mtpso, wl) -> float:
    """Wall time of one grid, from the first cell's start to its last
    artifact (and, for the sweep, its scores). The harness resolves the
    suite just before the first cell starts, so the clock starts when the
    last ``resolve_problems`` call returns (or with the grid, if none)."""
    harness = mtpso.harness
    resolve = harness.resolve_problems
    marks = [time.perf_counter()]

    def resolve_and_mark(spec):
        out = resolve(spec)
        marks.append(time.perf_counter())
        return out

    harness.resolve_problems = resolve_and_mark
    try:
        wl.run_round(mtpso)
        end = time.perf_counter()
    finally:
        harness.resolve_problems = resolve
    return end - marks[-1]


def results_digest(wl) -> str:
    return hashlib.sha256((wl.out_dir / "results.csv").read_bytes()).hexdigest()


class Rounds:
    """Whole grids, counted in cells, with each grid's results digest."""

    def __init__(self, mtpso, wl):
        self.mtpso, self.wl = mtpso, wl
        self.attempted = self.failed = 0
        self.digests = set()
        self.failures: list[str] = []

    def run(self) -> float | None:
        cells = len(self.wl.cells)
        self.attempted += cells
        try:
            wall = timed_round(self.mtpso, self.wl)
        except Exception as exc:  # a failed grid counts all its cells, and the run goes on
            self.failed += cells
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None
        self.digests.add(results_digest(self.wl))
        return wall


def end_to_end(mtpso, wl, rounds: Rounds, seconds: float) -> dict[str, float]:
    fe = sum(wl.evaluations_per_cell())
    rates, setup = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not rates:
        setup += measure_setup(wl, SETUP_PER_GRID)
        wall = rounds.run()
        if wall is None:
            break
        rates.append(fe / wall)
    setup += measure_setup(wl, max(0, SETUP_SAMPLES - len(setup)))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup),
        "fe_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": peak_kib / 1024.0,
    }


def per_layer(mtpso, wl, rounds: Rounds, seconds: float, seed: int, errors: list) -> dict[str, float]:
    """Alternate untraced and traced grids; the per-layer metrics come from
    the traced ones, the tracing overhead from comparing the two."""
    rec = tracing.Recorder()
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        plain.append(rounds.run())
        tracing.install(mtpso, rec)
        try:
            traced.append(rounds.run())
        finally:
            tracing.uninstall()
        if rounds.failed:
            break
    OUT.mkdir(exist_ok=True)
    rec.save(OUT / f"trace-{wl.name}-seed{seed}.npz")
    for rows in rec.cell_rows:
        errors += checks.check_rows_per_cell(rows, wl.evaluations_per_cell())
    metrics = tracing.layer_metrics(rec, len(traced), wl.jobs, reference.FUNCTIONS)
    if rounds.failed:
        metrics["trace.overhead_frac"] = 0.0
    else:
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    mtpso = import_package()

    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        wl = workloads.make(args.workload, args.seed, work)
        rounds = Rounds(mtpso, wl)
        errors: list[str] = []
        if args.trace:
            values = per_layer(mtpso, wl, rounds, args.seconds, args.seed, errors)
        else:
            values = end_to_end(mtpso, wl, rounds, args.seconds)
        if not rounds.digests:
            errors.append("no grid completed, so no output was checked")
        if len(rounds.digests) > 1:
            errors.append(f"results.csv differs between grids of one run ({len(rounds.digests)} digests)")
        if rounds.digests:
            errors += wl.check(mtpso, np.random.default_rng([args.seed, 3]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in rounds.failures:
        print(f"grid failed: {line}", file=sys.stderr)
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"bench: metrics not measured: {missing}")
    result = {
        "correct": not errors,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
