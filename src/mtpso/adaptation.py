"""Knowledge-source adaptation: success/failure memories, learned choice
probabilities, roulette selection and the focus-search monitor.

Counts and probabilities are rows over the k sources: one task's row of
shape (k,), or the rows of all K tasks at once, shape (K, k), which the
optimizer updates in one call per generation.
"""

from __future__ import annotations

from collections import deque

import numpy as np


class EmptyWindowError(RuntimeError):
    """Probabilities were requested before any generation was stored."""


class MemoryWindow:
    """Sliding window of per-source success/failure counts.

    A column is one generation's counts, shape (k,), or (rows, k) for a
    window with one row per task. Outcomes are staged in the current column
    until it is committed; the window keeps the last ``lp`` committed
    columns and rolling sums over them.
    """

    def __init__(self, lp: int, k: int, rows: int | None = None):
        if lp < 1 or k < 1 or (rows is not None and rows < 1):
            raise ValueError("window length, source count and row count must be >= 1")
        self.lp = lp
        self.k = k
        self.shape = (k,) if rows is None else (rows, k)
        self._ns_sum = np.zeros(self.shape, dtype=np.int64)
        self._nf_sum = np.zeros(self.shape, dtype=np.int64)
        self._cur_ns = np.zeros(self.shape, dtype=np.int64)
        self._cur_nf = np.zeros(self.shape, dtype=np.int64)
        self._columns: deque[tuple[np.ndarray, np.ndarray]] = deque()

    @property
    def filled(self) -> int:
        return len(self._columns)

    def record(self, source: int, improved: bool) -> None:
        """Count one evaluation outcome against the current generation."""
        if not 0 <= source < self.k:
            raise IndexError(f"source index {source} out of range [0, {self.k})")
        if improved:
            self._cur_ns[source] += 1
        else:
            self._cur_nf[source] += 1

    def record_counts(self, ns_col: np.ndarray, nf_col: np.ndarray) -> None:
        """Bulk form of :meth:`record` for one generation's tallies."""
        self._cur_ns += np.asarray(ns_col, dtype=np.int64)
        self._cur_nf += np.asarray(nf_col, dtype=np.int64)

    def commit_generation(self) -> None:
        """Store the staged column; evicts the oldest one when full."""
        if self.filled == self.lp:
            self.evict_oldest()
        self._columns.append((self._cur_ns, self._cur_nf))
        self._ns_sum += self._cur_ns
        self._nf_sum += self._cur_nf
        self._cur_ns = np.zeros(self.shape, dtype=np.int64)
        self._cur_nf = np.zeros(self.shape, dtype=np.int64)

    def evict_oldest(self) -> None:
        if not self._columns:
            raise EmptyWindowError("cannot evict from an empty window")
        ns, nf = self._columns.popleft()
        self._ns_sum -= ns
        self._nf_sum -= nf

    def success_sums(self) -> np.ndarray:
        return self._ns_sum.copy()

    def failure_sums(self) -> np.ndarray:
        return self._nf_sum.copy()

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Stored (ns, nf) columns in oldest-to-newest order."""
        shape = (self.filled, *self.shape)
        ns = np.array([c[0] for c in self._columns], dtype=np.int64).reshape(shape)
        nf = np.array([c[1] for c in self._columns], dtype=np.int64).reshape(shape)
        return ns, nf


def update_probabilities(mem: MemoryWindow, bp: float, eps: float) -> np.ndarray:
    """Choice probabilities from windowed success rates, one row per task.

    Each source's rate is successes / (successes + failures + eps) plus the
    floor bp; probabilities are the rates normalized over each row.
    """
    if bp < 0 or eps <= 0:
        raise ValueError("bp must be >= 0 and eps > 0")
    if mem.filled == 0:
        raise EmptyWindowError("probability update requires at least one stored generation")
    ns = mem.success_sums().astype(float)
    nf = mem.failure_sums().astype(float)
    sr = ns / (ns + nf + eps) + bp
    return sr / sr.sum(axis=-1, keepdims=True)


def focus_flags(mem: MemoryWindow) -> np.ndarray:
    """Per row: True when no success was recorded in any stored generation
    (never for an empty window)."""
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
    """Knowledge sources of a (K, N) batch: row t picks task t itself under
    focus search, otherwise roulette draws over p[t] with ``us[t]``."""
    own = np.arange(len(focus))[:, None]
    return np.where(focus[:, None], own, roulette_select_many(p, us))
