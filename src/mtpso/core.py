"""Shared domain types and the unified-space decoding.

All tasks are optimized in one normalized search space [0, 1]^D_u, where
D_u is the largest task dimensionality in the problem. A task of dimension
d < D_u reads the first d unified components; decoding maps them affinely
onto the task's native box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ORTHOGONALITY_TOL = 1e-9

ALGORITHMS = ("samtpso-s1", "samtpso-s2", "pso")

# Algorithms that step by another's rule with transfer switched off: the
# PSO baseline is S2 whose rows stay in focus search, so that they always
# pick their own task and the source best is their own swarm best.
NO_TRANSFER = {"pso": "samtpso-s2"}

# Default acceleration coefficients (c1, c2, c3) per rule. The four-term
# transfer rule gets three equal coefficients; the three-term rule, and so
# the plain baseline, gets the classic constricted pair.
DEFAULT_COEFFS = {
    "samtpso-s1": (1.1, 1.1, 1.1),
    "samtpso-s2": (1.494, 1.494, 0.0),
}


class DimensionMismatchError(ValueError):
    """A vector does not have the dimensionality an operation requires."""


@dataclass(frozen=True)
class TaskDef:
    """One component task: a shifted/rotated base function on a box.

    ``shift`` is the location of the task's global optimum in native
    coordinates, where its objective value is 0, so a fitness is also an
    error value.
    """

    base_fn: str
    dim: int
    lower: np.ndarray
    upper: np.ndarray
    shift: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", np.asarray(self.lower, dtype=float))
        object.__setattr__(self, "upper", np.asarray(self.upper, dtype=float))
        object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float))
        object.__setattr__(self, "rotation", np.asarray(self.rotation, dtype=float))
        if self.dim < 1:
            raise ValueError(f"task dimension must be positive, got {self.dim}")
        for name in ("lower", "upper", "shift"):
            vec = getattr(self, name)
            if vec.shape != (self.dim,):
                raise DimensionMismatchError(
                    f"{name} must have shape ({self.dim},), got {vec.shape}"
                )
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("box bounds must be finite")
        if not np.all(self.lower < self.upper):
            raise ValueError("lower bound must be strictly below upper bound in every dimension")
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(self.upper - self.lower)):
                raise ValueError("box width upper - lower must be finite (it overflows)")
        if self.rotation.shape != (self.dim, self.dim):
            raise DimensionMismatchError(
                f"rotation must be {self.dim}x{self.dim}, got {self.rotation.shape}"
            )
        with np.errstate(invalid="ignore"):  # a non-finite rotation gives a NaN err, which fails
            err = np.max(np.abs(self.rotation.T @ self.rotation - np.eye(self.dim)))
        if not err <= ORTHOGONALITY_TOL:
            raise ValueError(f"rotation is not orthogonal (max |R^T R - I| = {err:.3e})")
        if not (np.all(self.shift >= self.lower) and np.all(self.shift <= self.upper)):
            raise ValueError("shift must lie inside the box bounds")


@dataclass(frozen=True)
class MtoProblem:
    """An ordered set of K >= 1 component tasks sharing one unified search
    space; a single-task problem is the case K = 1."""

    tasks: tuple[TaskDef, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        if not self.tasks:
            raise ValueError("a problem needs at least 1 task")

    @property
    def unified_dim(self) -> int:
        """D_u, the largest task dimension."""
        return max(t.dim for t in self.tasks)

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)


@dataclass(frozen=True)
class RunConfig:
    """Parameters of a single optimizer run.

    ``c1``/``c2``/``c3`` default to those of the rule the algorithm steps
    by (see DEFAULT_COEFFS and NO_TRANSFER) when left as None.
    """

    algorithm: str = "samtpso-s1"
    pop_per_task: int = 50
    lp: int = 10
    bp: float = 0.001
    eps: float = 0.001
    w_start: float = 0.9
    w_end: float = 0.4
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    max_gens: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}"
            )
        defaults = DEFAULT_COEFFS[NO_TRANSFER.get(self.algorithm, self.algorithm)]
        for i, name in enumerate(("c1", "c2", "c3")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, defaults[i])
        for name in ("bp", "eps", "w_start", "w_end", "c1", "c2", "c3"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.pop_per_task < 1:
            raise ValueError("pop_per_task must be positive")
        if self.lp < 1:
            raise ValueError("lp must be >= 1")
        if self.bp < 0:
            raise ValueError("bp must be >= 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        if self.max_gens < 1:
            raise ValueError("max_gens must be >= 1")
        if self.w_start < self.w_end:
            raise ValueError("w_start must be >= w_end")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")


def decode(x_unified: np.ndarray, task: TaskDef) -> np.ndarray:
    """Map a unified [0,1] position onto the task's native box.

    Uses the first ``task.dim`` components; extra components are ignored.
    """
    x = np.asarray(x_unified, dtype=float)
    if x.shape[-1] < task.dim:
        raise DimensionMismatchError(
            f"unified vector has {x.shape[-1]} components, task needs {task.dim}"
        )
    head = x[..., : task.dim]
    return task.lower + head * (task.upper - task.lower)


def evaluate_task(x_unified: np.ndarray, task: TaskDef) -> float | np.ndarray:
    """Objective value of a unified-space point (or batch of rows) on a task.

    The decoded native point is rotated around the task's shift, into the
    task frame, and fed to the base function, re-centered so the global
    optimum sits at the shift, where the objective is 0.
    """
    from . import benchmarks  # local import: benchmarks depends on core types

    z = decode(x_unified, task) - task.shift
    return benchmarks.task_eval(task.base_fn, z @ task.rotation.T)
