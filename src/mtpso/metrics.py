"""The cross-algorithm performance score and inter-task transfer
statistics."""

from __future__ import annotations

import warnings

import numpy as np

from .optimizer import RunResult


def score(values: np.ndarray, std: str = "population") -> np.ndarray:
    """Standardized-residual score per algorithm; lower is better.

    ``values`` holds the final error values indexed (algorithm q, task j,
    run l). For each task the values of all algorithms and runs are pooled;
    each algorithm's score sums its runs' standardized residuals over all
    tasks. A task with zero pooled deviation contributes nothing (warned).
    Error values may be slightly negative: a built-in task's floating-point
    value near its optimum can fall just below 0.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 3:
        raise ValueError(f"expected a Q x K x L tensor, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("error values must be finite")
    q, k, _ = values.shape
    if q < 2:
        raise ValueError("scores need at least 2 algorithms to compare")
    if std not in ("population", "sample"):
        raise ValueError("std must be 'population' or 'sample'")
    ddof = 0 if std == "population" else 1
    scores = np.zeros(q)
    for j in range(k):
        pooled = values[:, j, :]
        mu = pooled.mean()
        sigma = pooled.std(ddof=ddof)
        if sigma == 0:
            warnings.warn(
                f"task {j + 1} has zero spread across all algorithms and runs; "
                "it contributes 0 to every score",
                stacklevel=2,
            )
            continue
        scores += ((pooled - mu) / sigma).sum(axis=1)
    return scores


def sci(x: float) -> str:
    """Scientific notation with a 2-decimal mantissa and unpadded exponent,
    e.g. 0.006 -> '6.00E-3'."""
    mant, exp = f"{x:.2E}".split("E")
    return f"{mant}E{int(exp):+d}"


def format_cell(mean: float, std: float) -> str:
    """Mean with bracketed standard deviation, e.g. '6.00E-3(7.70E-3)'."""
    return f"{sci(mean)}({sci(std)})"


def transfer_rates(result: RunResult) -> np.ndarray:
    """Run-averaged choice fractions as a K x K array: entry [t, k] is the
    mean fraction of task t's particles choosing source k per generation,
    so each row sums to 1 and the off-diagonal entries are the inter-task
    transfer rates."""
    if result.source_counts is None:
        raise ValueError(f"{result.algorithm} runs choose no knowledge sources")
    counts = result.source_counts
    if counts.shape[0] == 0:
        raise ValueError("run has no move generations to average over")
    fractions = counts / result.pop_per_task
    return fractions.mean(axis=0)

