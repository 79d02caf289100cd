"""Span recorder for the traced run.

The package has no tracing of its own. ``install`` replaces the module
attributes through which the layers call each other (for example
``mtpso.optimizer.step_position``) with wrappers that record a span per
call: name, parent span, start and end. Spans are kept in flat arrays in
memory and written out once, at the end of the run. Counts that ratios
need (rows evaluated, bounces, improvements, transfers, rows written) are
taken at the same boundaries.

Under a process pool the wrapped ``harness._run_cell`` runs in the worker:
it records that cell's spans and counts there and sends them back as an
attribute of the cell's result, so worker-side spans reach the parent.
The pickled size of each result (``harness.pool.result_bytes``) is taken
before that attribute is added.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from array import array

import numpy as np

_ATTACHED = "_bench_trace"


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.pid = os.getpid()
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.cell_rows: list[list[float]] = []  # per traced grid, in grid order

    def __len__(self):
        return len(self.name_id)

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + n

    def export(self, first: int) -> dict:
        """Spans from index ``first`` on, with parents rebased so that a
        span opened before ``first`` becomes a root."""
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:] - first
        return {
            "names": list(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32)[first:].copy(),
            "parent": np.where(parent < 0, -1, parent).astype(np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64)[first:].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[first:].copy(),
        }

    def truncate(self, first: int) -> None:
        for arr in (self.name_id, self.parent, self.start, self.end):
            del arr[first:]

    def merge(self, spans: dict) -> None:
        """Append spans exported by :meth:`export`; their roots stay roots."""
        for name in spans["names"]:
            if name not in self.ids:
                self.ids[name] = len(self.names)
                self.names.append(name)
        remap = np.array([self.ids[n] for n in spans["names"]], dtype=np.int32)
        parent = spans["parent"]
        base = len(self.name_id)
        self.name_id.frombytes(remap[spans["name_id"]].tobytes())
        self.parent.frombytes(np.where(parent < 0, -1, parent + base).astype(np.int32).tobytes())
        self.start.frombytes(spans["start"].tobytes())
        self.end.frombytes(spans["end"].tobytes())

    def durations(self):
        """(name id, duration, self time) of every span; self time is the
        duration minus the durations of the span's direct children."""
        nid = np.frombuffer(self.name_id, dtype=np.int32).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return nid, dur, dur - child

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# The wrappers are installed on shared module attributes, so the recorder
# they write to is process-wide too; install() sets it.
_recorder: Recorder | None = None
_originals: list[tuple[object, str, object]] = []
_run_cell = None


def _wrap(name, fn, after=None, before=None, name_of=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = _recorder
        state = before(args) if before is not None else None
        i = rec.open(name if name_of is None else name_of(args))
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(i)
        if after is not None:
            after(rec, args, out, state)
        return out

    return traced


def _rows(x) -> int:
    return 1 if np.ndim(x) < 2 else int(np.shape(x)[0])


# Counters taken at the layer boundaries. Each gets (recorder, args, result,
# state-before-the-call).
def _task_eval_name(args) -> str:
    return f"benchmarks.task_eval.{args[0]}"


def _after_task_eval(rec, args, out, _):
    rec.count(f"benchmarks.task_eval.{args[0]}.rows", _rows(args[1]))


def _after_evaluate_task(rec, args, out, _):
    d = args[1].dim
    rec.count("core.evaluate_task.rotation_flop", 2.0 * _rows(args[0]) * d * d)


def _after_step_position(rec, args, out, _):
    rec.count("optimizer.step_position.calls", 1)
    rec.count("optimizer.step_position.bounces", out[1] is not args[1])


def _after_move(rec, args, out, _):
    sp, config = args[0], args[3]
    if config.algorithm != "pso":
        rec.count("optimizer.choices", sp.last_source.size)
        rec.count("optimizer.transfers", int(np.count_nonzero(sp.last_source != sp.task_index)))


def _before_evaluate_and_update(args):
    return args[0].pbest_fit.copy()


def _after_evaluate_and_update(rec, args, out, old_fit):
    rec.count("optimizer.evaluations", old_fit.size)
    rec.count("optimizer.improvements", int(np.count_nonzero(args[0].pbest_fit < old_fit)))


def _after_check_focus(rec, args, out, _):
    rec.count("adaptation.check_focus.calls", 1)
    rec.count("adaptation.focus", bool(out))


def _after_update_probabilities(rec, args, out, _):
    rec.count("adaptation.update_probabilities.calls", 1)


def _after_resolve(rec, args, out, _):
    rec.count("harness.resolve_problems.calls", 1)


def _writer_counter(rows_of):
    def after(rec, args, out, _):
        rec.count("harness.write.rows", rows_of(args))
        rec.count("harness.write.bytes", os.path.getsize(args[0]))

    return after


_results_rows = _writer_counter(lambda a: sum(c.num_tasks for c in a[2]))
_convergence_rows = _writer_counter(
    lambda a: sum(c.trace.shape[0] * c.num_tasks for c in a[1] if c.trace is not None)
)
_transfer_rows = _writer_counter(
    lambda a: sum(c.source_counts.shape[0] * c.num_tasks**2 for c in a[1] if c.source_counts is not None)
)
_manifest_rows = _writer_counter(lambda a: 0)


def traced_run_cell(args):
    """Stand-in for ``harness._run_cell`` that records the cell's span and
    counts; in a pool worker it ships them back on the result."""
    rec = _recorder
    worker = rec.pid != os.getpid()
    if worker:
        outer_stack, rec.stack = rec.stack, []
        outer_counts, rec.counts = rec.counts, {}
    first = len(rec)
    rows_before = _total_rows(rec)
    i = rec.open("harness._run_cell")
    try:
        result = _run_cell(args)
    finally:
        rec.close(i)
    rec.count("harness.pool.result_bytes", len(pickle.dumps(result)))
    rows = _total_rows(rec) - rows_before
    if worker:
        setattr(result, _ATTACHED, {"spans": rec.export(first), "counts": rec.counts, "rows": rows})
        rec.truncate(first)
        rec.stack, rec.counts = outer_stack, outer_counts
    else:
        setattr(result, _ATTACHED, {"rows": rows})
    return result


def _total_rows(rec) -> float:
    prefix = "benchmarks.task_eval."
    return sum(v for k, v in rec.counts.items() if k.startswith(prefix) and k.endswith(".rows"))


def _after_execute(rec, args, cells, _):
    # Fold the spans and counts that pool workers attached to the cells
    # into this process's recorder, and keep each cell's evaluated rows.
    rows = []
    for cell in cells:
        attached = cell.__dict__.pop(_ATTACHED)
        rows.append(attached["rows"])
        if "spans" in attached:
            rec.merge(attached["spans"])
            for key, n in attached["counts"].items():
                rec.count(key, n)
    rec.cell_rows.append(rows)


def _targets(mtpso):
    b, c, o, a, h, m, cli = (
        mtpso.benchmarks,
        mtpso.core,
        mtpso.optimizer,
        mtpso.adaptation,
        mtpso.harness,
        mtpso.metrics,
        mtpso.cli,
    )
    mw = a.MemoryWindow
    return [
        # (owner, attribute, span name, extra wrapper arguments)
        (b, "task_eval", None, dict(after=_after_task_eval, name_of=_task_eval_name)),
        (b, "build_suite", "benchmarks.build_suite", {}),
        (b, "load_problem_files", "benchmarks.load_problem_files", {}),
        (c, "decode", "core.decode", {}),
        (o, "evaluate_task", "core.evaluate_task", dict(after=_after_evaluate_task)),
        (o, "_move_subpop", "optimizer.move", dict(after=_after_move)),
        (o, "velocity_s1", "optimizer.velocity", {}),
        (o, "velocity_s2", "optimizer.velocity", {}),
        (o, "velocity_pso", "optimizer.velocity", {}),
        (o, "step_position", "optimizer.step_position", dict(after=_after_step_position)),
        (
            o,
            "evaluate_and_update",
            "optimizer.evaluate_and_update",
            dict(before=_before_evaluate_and_update, after=_after_evaluate_and_update),
        ),
        (o, "init_swarm", "optimizer.init_swarm", {}),
        (o, "run_generation", "optimizer.run_generation", {}),
        (h, "run", "optimizer.run", {}),
        (a, "update_probabilities", "adaptation.update_probabilities", dict(after=_after_update_probabilities)),
        (a, "check_focus", "adaptation.check_focus", dict(after=_after_check_focus)),
        (a, "roulette_select_many", "adaptation.roulette_select_many", {}),
        (mw, "record_counts", "adaptation.MemoryWindow.record_counts", {}),
        (mw, "commit_generation", "adaptation.MemoryWindow.commit_generation", {}),
        (mw, "evict_oldest", "adaptation.MemoryWindow.evict_oldest", {}),
        (mw, "success_sums", "adaptation.MemoryWindow.success_sums", {}),
        (mw, "failure_sums", "adaptation.MemoryWindow.failure_sums", {}),
        (h, "parse_experiment", "harness.parse_experiment", {}),
        (h, "load_config", "harness.load_config", {}),
        (h, "resolve_problems", "harness.resolve_problems", dict(after=_after_resolve)),
        (h, "run_experiment", "harness.run_experiment", {}),
        (h, "execute", "harness.execute", dict(after=_after_execute)),
        (h, "write_results_csv", "harness.write_results_csv", dict(after=_results_rows)),
        (h, "write_convergence_csv", "harness.write_convergence_csv", dict(after=_convergence_rows)),
        (h, "write_transfer_csv", "harness.write_transfer_csv", dict(after=_transfer_rows)),
        (h, "write_manifest", "harness.write_manifest", dict(after=_manifest_rows)),
        (h, "read_results_csv", "harness.read_results_csv", {}),
        (h, "tabulate_fevs", "harness.tabulate_fevs", {}),
        (h, "write_scores_csv", "harness.write_scores_csv", {}),
        (m, "score", "metrics.score", {}),
        (cli, "main", "cli.main", {}),
    ]


def install(mtpso, recorder: Recorder) -> None:
    """Wrap every layer boundary of the imported package."""
    global _recorder, _run_cell
    if _originals:
        raise RuntimeError("tracing is already installed")
    _recorder = recorder
    for owner, attr, name, extra in _targets(mtpso):
        fn = owner.__dict__.get(attr)
        if fn is None:  # a layer the package no longer has reads 0
            continue
        _originals.append((owner, attr, fn))
        setattr(owner, attr, _wrap(name, fn, **extra))
    _run_cell = mtpso.harness._run_cell
    _originals.append((mtpso.harness, "_run_cell", _run_cell))
    mtpso.harness._run_cell = traced_run_cell


def uninstall() -> None:
    while _originals:
        owner, attr, fn = _originals.pop()
        setattr(owner, attr, fn)


def layer_metrics(rec: Recorder, rounds: int, jobs: int, functions) -> dict[str, float]:
    """Per-layer metrics per traced grid, from the spans and counts."""
    nid, dur, self_t = rec.durations()
    n_names = len(rec.names)
    dur_by = np.bincount(nid, weights=dur, minlength=n_names)
    self_by = np.bincount(nid, weights=self_t, minlength=n_names)
    c = rec.counts

    def total(name, of=dur_by):
        i = rec.ids.get(name)
        return float(of[i]) / rounds if i is not None else 0.0

    def prefixed(prefix):
        return sum(total(n) for n in rec.names if n.startswith(prefix))

    def per_round(key):
        return c.get(key, 0.0) / rounds

    def ratio(num, den):
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    out: dict[str, float] = {}
    for fn in functions:
        out[f"benchmarks.task_eval.{fn}.s"] = total(f"benchmarks.task_eval.{fn}")
        out[f"benchmarks.task_eval.{fn}.rows"] = per_round(f"benchmarks.task_eval.{fn}.rows")
    out["core.evaluate_task.self_s"] = total("core.evaluate_task", self_by)
    out["core.decode.s"] = total("core.decode")
    out["core.evaluate_task.rotation_flop"] = per_round("core.evaluate_task.rotation_flop")
    out["optimizer.move.s"] = total("optimizer.move")
    out["optimizer.move.self_s"] = total("optimizer.move", self_by)
    out["optimizer.velocity.s"] = total("optimizer.velocity")
    out["optimizer.step_position.s"] = total("optimizer.step_position")
    out["optimizer.step_position.bounce_frac"] = ratio(
        "optimizer.step_position.bounces", "optimizer.step_position.calls"
    )
    out["optimizer.evaluate_and_update.self_s"] = total("optimizer.evaluate_and_update", self_by)
    out["optimizer.run.self_s"] = total("optimizer.run", self_by)
    out["optimizer.init_swarm.s"] = total("optimizer.init_swarm")
    gen_ms = dur[nid == rec.ids.get("optimizer.run_generation", -1)] * 1e3
    out["optimizer.run_generation.ms_p50"] = float(np.percentile(gen_ms, 50)) if gen_ms.size else 0.0
    out["optimizer.run_generation.ms_p99"] = float(np.percentile(gen_ms, 99)) if gen_ms.size else 0.0
    out["optimizer.improved_frac"] = ratio("optimizer.improvements", "optimizer.evaluations")
    out["optimizer.transfer_frac"] = ratio("optimizer.transfers", "optimizer.choices")
    out["adaptation.update_probabilities.s"] = total("adaptation.update_probabilities")
    out["adaptation.update_probabilities.calls"] = per_round("adaptation.update_probabilities.calls")
    out["adaptation.check_focus.s"] = total("adaptation.check_focus")
    out["adaptation.focus_frac"] = ratio("adaptation.focus", "adaptation.check_focus.calls")
    out["adaptation.roulette_select_many.s"] = total("adaptation.roulette_select_many")
    out["adaptation.MemoryWindow.s"] = prefixed("adaptation.MemoryWindow.")
    execute_s = total("harness.execute")
    out["harness.execute.s"] = execute_s
    cell_s = total("harness._run_cell")
    out["harness.pool.efficiency"] = cell_s / (jobs * execute_s) if execute_s else 0.0
    out["harness.pool.result_bytes"] = per_round("harness.pool.result_bytes")
    write_s = 0.0
    for writer in ("write_results_csv", "write_convergence_csv", "write_transfer_csv", "write_manifest"):
        out[f"harness.{writer}.s"] = total(f"harness.{writer}")
        write_s += out[f"harness.{writer}.s"]
    out["harness.write.rows"] = per_round("harness.write.rows")
    out["harness.write.bytes"] = per_round("harness.write.bytes")
    out["harness.write.rows_per_s"] = out["harness.write.rows"] / write_s if write_s else 0.0
    out["harness.read_results_csv.s"] = total("harness.read_results_csv")
    out["harness.tabulate_fevs.s"] = total("harness.tabulate_fevs")
    out["metrics.score.s"] = total("metrics.score")
    out["cli.main.self_s"] = total("cli.main", self_by)
    out["harness.parse_experiment.s"] = total("harness.parse_experiment")
    out["harness.resolve_problems.s"] = total("harness.resolve_problems")
    out["harness.resolve_problems.calls"] = per_round("harness.resolve_problems.calls")
    out["benchmarks.build_suite.s"] = total("benchmarks.build_suite")
    out["benchmarks.load_problem_files.s"] = total("benchmarks.load_problem_files")
    return out
