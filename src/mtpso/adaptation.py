"""Knowledge-source adaptation: success/failure memories, learned choice
probabilities, roulette selection and the focus-search monitor.

Counts and probabilities are rows over the k sources: one task's row of
shape (k,), or a stack of rows, shape (rows, k), which the optimizer
updates in one call per generation. A stack is task-major: C cells of K
tasks give rows = K·C, and row t·C + c is cell c's task t.
"""

from __future__ import annotations

import numpy as np


class EmptyWindowError(RuntimeError):
    """Probabilities were requested before any generation was stored."""


class MemoryWindow:
    """Sliding window of per-source success/failure counts.

    A column is one generation's counts, shape (k,), or (rows, k) for a
    window with one row per task (and cell). Outcomes are staged in the
    current column until it is committed; each row's window holds its last
    ``lp`` committed columns, where ``lp`` is one length for every row or,
    for a (rows, k) window, an array of one length per row. ``lp`` and
    ``filled``, the count of columns in each row's window, are arrays of
    the window's row shape: () for a (k,) window, (rows,) otherwise.

    The window keeps the running totals of the last ``max(lp) + 1`` commits
    in a ring, successes and failures side by side, so a row's window sum is
    its total now minus its total ``filled`` commits ago: integer
    arithmetic, equal to summing the columns.
    """

    def __init__(self, lp, k: int, rows: int | None = None):
        if np.any(np.asarray(lp) < 1) or k < 1 or (rows is not None and rows < 1):
            raise ValueError("window length, source count and row count must be >= 1")
        self.k = k
        self.shape = (k,) if rows is None else (rows, k)
        if np.ndim(lp) > 0 and np.shape(lp) != self.shape[:-1]:
            raise ValueError("per-row window lengths need one length per row")
        self.lp = np.broadcast_to(np.asarray(lp, dtype=np.int64), self.shape[:-1])
        self.filled = np.zeros(self.shape[:-1], dtype=np.int64)
        self._row_index = () if rows is None else (np.arange(rows),)
        self._ring = int(np.max(lp)) + 1
        block = (*self.shape[:-1], 2 * k)  # successes, then failures
        self._totals = np.zeros((self._ring, *block), dtype=np.int64)
        self._staged = np.zeros(block, dtype=np.int64)
        self._sums = np.zeros(block, dtype=np.int64)
        self._committed = 0

    def record(self, source: int, improved: bool) -> None:
        """Count one evaluation outcome against the current generation."""
        if not 0 <= source < self.k:
            raise IndexError(f"source index {source} out of range [0, {self.k})")
        self._staged[..., source if improved else self.k + source] += 1

    def record_counts(self, ns_col: np.ndarray, nf_col: np.ndarray) -> None:
        """Bulk form of :meth:`record` for one generation's tallies."""
        self._staged[..., : self.k] += np.asarray(ns_col, dtype=np.int64)
        self._staged[..., self.k :] += np.asarray(nf_col, dtype=np.int64)

    def commit_generation(self) -> None:
        """Store the staged column; a full row drops its oldest one."""
        n = self._committed
        np.add(self._totals[n % self._ring], self._staged, out=self._totals[(n + 1) % self._ring])
        self._staged.fill(0)
        self._committed = n + 1
        self.filled += self.filled < self.lp
        self._update_sums()

    def evict_oldest(self) -> None:
        if np.any(self.filled == 0):
            raise EmptyWindowError("cannot evict from an empty window")
        self.filled -= 1
        self._update_sums()

    def _update_sums(self) -> None:
        n = self._committed
        old = (n - self.filled) % self._ring  # each row's total `filled` commits ago
        past = self._totals[(old, *self._row_index)]
        np.subtract(self._totals[n % self._ring], past, out=self._sums)

    def success_sums(self) -> np.ndarray:
        return self._sums[..., : self.k].copy()

    def failure_sums(self) -> np.ndarray:
        return self._sums[..., self.k :].copy()

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored (ns, nf) columns in oldest-to-newest order (a window with
        per-row lengths gives as many as its fullest row holds)."""
        count = int(np.max(self.filled))
        ages = np.arange(self._committed - count, self._committed + 1) % self._ring
        cols = np.diff(self._totals[ages], axis=0)
        return cols[..., : self.k], cols[..., self.k :]


def row_tasks(rows: int, k: int) -> np.ndarray:
    """Own task of each row of a task-major stack of ``rows`` rows over k
    tasks: row t·C + c, for C = rows / k cells, belongs to task t."""
    return np.arange(rows) * k // rows


def update_probabilities(mem: MemoryWindow, bp, eps: float) -> np.ndarray:
    """Choice probabilities from windowed success rates, one row per task.

    Each source's rate is successes / (successes + failures + eps) plus the
    floor bp, a number or an array of one per row; probabilities are the
    rates normalized over each row. A row whose rates are all 0 (bp = 0 and
    no success in its window) puts all its probability on its own task
    (:func:`row_tasks`; a one-row window counts as task 0's row): such a row
    is in focus search, which picks that task anyway.
    """
    bp = np.asarray(bp, dtype=float)
    if bp.min() < 0 or eps <= 0:
        raise ValueError("bp must be >= 0 and eps > 0")
    if not mem.filled.any():
        raise EmptyWindowError("probability update requires at least one stored generation")
    ns = mem.success_sums().astype(float)
    nf = mem.failure_sums().astype(float)
    sr = ns / (ns + nf + eps) + bp[..., None]
    total = sr.sum(axis=-1, keepdims=True)
    if not total.all():  # bp = 0 and no success in some row's window
        dead = total == 0.0
        rows, flat = sr.reshape(-1, mem.k), dead.reshape(-1)
        rows[flat, row_tasks(len(rows), mem.k)[flat]] = 1.0
        total[dead] = 1.0
    return sr / total


def focus_flags(mem: MemoryWindow) -> np.ndarray:
    """Per row: True when no success was recorded in any stored generation
    (never for an empty row)."""
    return (mem.success_sums() == 0).all(axis=-1) & (mem.filled > 0)


def roulette_select(p: np.ndarray, u: float) -> int:
    """Smallest index whose cumulative probability exceeds u."""
    cum = np.cumsum(p)
    return int(min(np.searchsorted(cum, u, side="right"), len(p) - 1))


def roulette_select_many(p: np.ndarray, us: np.ndarray) -> np.ndarray:
    """:func:`roulette_select` for every u in ``us``; with p of shape (K, k),
    row t of ``us`` draws from p[t]. Counting the cumulative probabilities
    at or below u is the right-sided search, ties included."""
    cum = np.cumsum(p, axis=-1)
    picks = np.count_nonzero(cum[..., None, :] <= us[..., None], axis=-1)
    return np.minimum(picks, p.shape[-1] - 1)


def choose_sources(p: np.ndarray, focus: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Knowledge sources of a (rows, N) batch: a row picks its own task
    (:func:`row_tasks`) under focus search, otherwise roulette draws over
    its row of p with its row of ``us``."""
    own = row_tasks(len(focus), p.shape[-1])[:, None]
    return np.where(focus[:, None], own, roulette_select_many(p, us))
