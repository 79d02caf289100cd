"""Knowledge-source adaptation: success/failure memories, learned choice
probabilities, roulette selection and the focus-search monitor.

Counts and probabilities are stacks of rows over the k sources, shape
(rows, k), which the optimizer updates in one call per generation. A
stack is task-major: C cells of K tasks give rows = K·C, and row t·C + c
is cell c's task t.
"""

from __future__ import annotations

import numpy as np


class EmptyWindowError(RuntimeError):
    """Probabilities were requested before any generation was stored."""


class MemoryWindow:
    """Sliding window of per-source success/failure counts, one row per
    task (and cell).

    ``lp`` holds one window length per row, so the window has ``len(lp)``
    rows, and a column is one generation's counts, shape (rows, k). Each
    row's window holds its last ``lp`` committed columns; ``filled``, shape
    (rows,), counts the columns in each row's window.

    The window keeps the running totals of the last ``max(lp) + 1`` commits
    in a ring, successes and failures side by side, so a row's window sum is
    its total now minus its total ``filled`` commits ago: integer
    arithmetic, equal to summing the columns.
    """

    def __init__(self, lp, k: int):
        self.lp = np.asarray(lp, dtype=np.int64)
        if self.lp.ndim != 1 or not self.lp.size or self.lp.min() < 1 or k < 1:
            raise ValueError("lp must hold one window length >= 1 per row, and k must be >= 1")
        self.k = k
        self.shape = (len(self.lp), k)
        self.filled = np.zeros(len(self.lp), dtype=np.int64)
        self._rows = np.arange(len(self.lp))
        self._ring = int(self.lp.max()) + 1
        self._totals = np.zeros((self._ring, len(self.lp), 2 * k), dtype=np.int64)  # successes, then failures
        self._sums = np.zeros((len(self.lp), 2 * k), dtype=np.int64)
        self._committed = 0

    def commit_generation(self, ns, nf) -> None:
        """Store one generation's success and failure counts per source,
        each of shape (rows, k); a full row drops its oldest column."""
        ns, nf = np.asarray(ns, dtype=np.int64), np.asarray(nf, dtype=np.int64)
        if ns.shape != self.shape or nf.shape != self.shape:
            raise ValueError(f"counts must have the window's shape {self.shape}, got {ns.shape} and {nf.shape}")
        n = self._committed = self._committed + 1
        now, prev = self._totals[n % self._ring], self._totals[(n - 1) % self._ring]
        np.add(prev[:, : self.k], ns, out=now[:, : self.k])
        np.add(prev[:, self.k :], nf, out=now[:, self.k :])
        self.filled += self.filled < self.lp
        old = (n - self.filled) % self._ring  # each row's total `filled` commits ago
        np.subtract(now, self._totals[old, self._rows], out=self._sums)

    def success_sums(self) -> np.ndarray:
        return self._sums[:, : self.k].copy()

    def failure_sums(self) -> np.ndarray:
        return self._sums[:, self.k :].copy()


def row_tasks(rows: int, k: int) -> np.ndarray:
    """Own task of each row of a task-major stack of ``rows`` rows over k
    tasks: row t·C + c, for C = rows / k cells, belongs to task t."""
    return np.arange(rows) * k // rows


def update_probabilities(mem: MemoryWindow, bp, eps: float) -> np.ndarray:
    """Choice probabilities from windowed success rates, shape (rows, k).

    Each source's rate is successes / (successes + failures + eps) plus the
    floor bp, a number or an array of one per row; probabilities are the
    rates normalized over each row. A row whose rates are all 0 (bp = 0 and
    no success in its window) puts all its probability on its own task
    (:func:`row_tasks`): such a row is in focus search, which picks that
    task anyway.
    """
    bp = np.asarray(bp, dtype=float)
    if bp.min() < 0 or eps <= 0:
        raise ValueError("bp must be >= 0 and eps > 0")
    if not mem.filled.any():
        raise EmptyWindowError("probability update requires at least one stored generation")
    ns = mem.success_sums().astype(float)
    nf = mem.failure_sums().astype(float)
    sr = ns / (ns + nf + eps) + bp[..., None]
    total = sr.sum(axis=1, keepdims=True)
    if not total.all():  # bp = 0 and no success in some row's window
        dead = total[:, 0] == 0.0
        sr[dead, row_tasks(len(sr), mem.k)[dead]] = 1.0
        total[dead] = 1.0
    return sr / total


def focus_flags(mem: MemoryWindow) -> np.ndarray:
    """Per row: True when no success was recorded in any stored generation
    (never for an empty row)."""
    return (mem.success_sums() == 0).all(axis=1) & (mem.filled > 0)


def roulette_select_many(p: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Roulette choice for every u in ``us``, shape (rows, N): the smallest
    source index whose cumulative probability in p's row exceeds u, or the
    last index when none does (a float tail). p has shape (rows, k), and
    row t of ``us`` draws from p[t]. The index is the count of cumulative
    probabilities at or below u, so a u on an edge goes to the right; the
    cumulative sums ascend, so counting the first k − 1 of them, one
    (rows, N) comparison each, is that count clipped at k − 1."""
    cum = np.cumsum(p, axis=1)
    picks = np.zeros(us.shape, dtype=np.intp)
    for edge in cum[:, :-1].T:
        picks += edge[:, None] <= us
    return picks


def choose_sources(p: np.ndarray, focus: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Knowledge sources of a (rows, N) batch: a row picks its own task
    (:func:`row_tasks`) under focus search, otherwise roulette draws over
    its row of p with its row of ``us``."""
    own = row_tasks(len(focus), p.shape[1])[:, None]
    return np.where(focus[:, None], own, roulette_select_many(p, us))
