"""Base functions and factories for the two benchmark suites.

Every base function is registered in its task frame: its global minimum is
exactly 0 at the origin. A generated task is ``base(R (z - shift))``, so
its optimum sits at ``z = shift`` with value 0. Rosenbrock and Schwefel,
whose textbook optima lie away from the origin, are translated so that
those optima fall on it; Schwefel also gets the usual quadratic boundary
penalty outside +-500, so a rotated task has no deeper minimum inside its
search box.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .core import MtoProblem, TaskDef

# Canonical 1-D minimizer of y*sin(sqrt(y)) and the value there; the
# classical 418.9829 constant is a rounding of this peak.
SCHWEFEL_OPT = 420.96874878568275
_SCHWEFEL_PEAK = SCHWEFEL_OPT * math.sin(math.sqrt(SCHWEFEL_OPT))
_SCHWEFEL_RESIDUAL = 418.9829 - _SCHWEFEL_PEAK  # ~1.2728e-5 per dimension

_WEIERSTRASS_A = 0.5
_WEIERSTRASS_KMAX = 20
_WK_A = _WEIERSTRASS_A ** np.arange(_WEIERSTRASS_KMAX + 1)
# cos(pi * 3^k) = -1 exactly (odd multiples of pi), so the bias telescopes.
_WEIERSTRASS_BIAS = float(-np.sum(_WK_A))


# 4a / a^(2(k-1)) for k = 1..kmax: the recurrence's d^2 coefficient.
_WK_SQUARE = 4.0 * _WEIERSTRASS_A / _WK_A[:-1] ** 2


def _weierstrass_series(theta):
    # sum_k a^k cos(3^k theta) via the triple-angle recurrence; one cosine
    # per element instead of kmax+1. It iterates d = a^k c_k, c_k =
    # cos(3^k theta): d <- d (4a d^2 / a^(2(k-1)) - 3a), in place. With
    # a = 1/2 each factor of a is a power of two, so every product is the
    # bits of c <- (4 c c - 3) c scaled exactly; total += d adds a^k c_k.
    d = np.cos(theta)
    total = d.copy()
    t = np.empty_like(d)
    for k in range(1, _WEIERSTRASS_KMAX + 1):
        np.multiply(d, d, out=t)
        t *= _WK_SQUARE[k - 1]
        t -= 3.0 * _WEIERSTRASS_A
        d *= t
        total += d
    return total


class BenchmarkDataError(ValueError):
    """A task-data file failed to parse or validate."""


def sphere(y):
    y = np.asarray(y, dtype=float)
    return np.sum(y * y, axis=-1)


def rosenbrock(y):
    y = np.asarray(y, dtype=float) + 1.0
    a, b = y[..., :-1], y[..., 1:]
    return np.sum(100.0 * (b - a * a) ** 2 + (1.0 - a) ** 2, axis=-1)


def ackley(y):
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(y * y, axis=-1) / d))
        - np.exp(np.sum(np.cos(2.0 * np.pi * y), axis=-1) / d)
        + 20.0
        + math.e
    )


def rastrigin(y):
    y = np.asarray(y, dtype=float)
    return np.sum(y * y - 10.0 * np.cos(2.0 * np.pi * y) + 10.0, axis=-1)


def griewank(y):
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    idx = np.sqrt(np.arange(1, d + 1, dtype=float))
    return 1.0 + np.sum(y * y, axis=-1) / 4000.0 - np.prod(np.cos(y / idx), axis=-1)


def weierstrass(y):
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    return np.sum(_weierstrass_series(2.0 * np.pi * (y + 0.5)), axis=-1) - d * _WEIERSTRASS_BIAS


def _schwefel_bounded(y):
    # Standard boundary treatment for the rotated variant: fold arguments
    # beyond +-500 back toward the boundary and add a quadratic penalty, so
    # the canonical interior optimum stays global. The fold is made first,
    # on a copy, so one y*sin(sqrt|y|) pass covers every entry.
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    flat = y.flatten()
    a = np.abs(flat)
    out = np.flatnonzero(a > 500.0)
    over = a[out]
    a[out] = 500.0 - np.fmod(over, 500.0)
    flat[out] = np.copysign(a[out], flat[out])
    g = np.sqrt(a)
    np.sin(g, out=g)
    g *= flat
    g[out] -= (over - 500.0) ** 2 / (10000.0 * d)
    return 418.9829 * d - np.sum(g.reshape(y.shape), axis=-1)


def schwefel(y):
    y = np.asarray(y, dtype=float)
    d = y.shape[-1]
    return _schwefel_bounded(y + SCHWEFEL_OPT) - d * _SCHWEFEL_RESIDUAL


@dataclass(frozen=True)
class BaseSpec:
    """A registered base function and its canonical box."""

    fn: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float


_REGISTRY: dict[str, BaseSpec] = {}


def register_base(name: str, fn, lower: float, upper: float) -> None:
    """Register a base function; ``fn`` must have its global minimum 0 at
    the origin."""
    _REGISTRY[name] = BaseSpec(fn, float(lower), float(upper))


register_base("sphere", sphere, -100, 100)
register_base("griewank", griewank, -100, 100)
register_base("rosenbrock", rosenbrock, -50, 50)
register_base("rastrigin", rastrigin, -50, 50)
register_base("ackley", ackley, -50, 50)
register_base("schwefel", schwefel, -500, 500)
register_base("weierstrass", weierstrass, -0.5, 0.5)


def base_spec(name: str) -> BaseSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown base function {name!r}; known: {sorted(_REGISTRY)}") from None


def task_eval(name: str, y) -> float | np.ndarray:
    """Evaluate in the task frame: global minimum exactly 0 at y = 0."""
    out = base_spec(name).fn(y)
    return float(out) if np.ndim(out) == 0 else out


def random_rotation(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal factor of a Gaussian matrix, sign-fixed for determinism."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _box_task(name: str, dim: int, u_shift: np.ndarray, rotation: np.ndarray) -> TaskDef:
    """A task on its base function's full box, shifted to the box point at
    fractions ``u_shift[:dim]`` of the width."""
    spec = base_spec(name)
    return TaskDef(
        base_fn=name,
        dim=dim,
        lower=np.full(dim, spec.lower),
        upper=np.full(dim, spec.upper),
        shift=spec.lower + (spec.upper - spec.lower) * u_shift[:dim],
        rotation=rotation,
    )


def make_task(name: str, dim: int, seed) -> TaskDef:
    """Build one shifted/rotated task, deterministic in (name, dim, seed)."""
    rng = np.random.default_rng(seed)
    u_shift = 0.1 + 0.8 * rng.random(dim)
    return _box_task(name, dim, u_shift, random_rotation(dim, rng))


# ---------------------------------------------------------------------------
# Suite factories
# ---------------------------------------------------------------------------

COMPLETE, PARTIAL, NONE = "complete", "partial", "none"

# Each suite's rows: (task functions, intersection degree, per-task dims)
SUITES = {
    "suite1": (
        (("griewank", "rastrigin"), COMPLETE, (50, 50)),
        (("ackley", "rastrigin"), COMPLETE, (50, 50)),
        (("ackley", "schwefel"), COMPLETE, (50, 50)),
        (("rastrigin", "sphere"), PARTIAL, (50, 50)),
        (("ackley", "rosenbrock"), PARTIAL, (50, 50)),
        (("ackley", "weierstrass"), PARTIAL, (50, 25)),
        (("rosenbrock", "rastrigin"), NONE, (50, 50)),
        (("griewank", "weierstrass"), NONE, (50, 50)),
        (("rastrigin", "weierstrass"), NONE, (50, 50)),
    ),
    "suite2": (
        (("sphere",) * 5, NONE, (50,) * 5),
        (("rosenbrock",) * 5, NONE, (50,) * 5),
        (("rastrigin",) * 5, NONE, (50,) * 5),
        (("sphere", "rosenbrock", "rastrigin", "sphere", "rosenbrock"), NONE, (50,) * 5),
        (("rastrigin", "griewank", "weierstrass", "rastrigin", "griewank"), NONE, (50,) * 5),
        (("rosenbrock", "griewank", "schwefel", "rosenbrock", "griewank"), NONE, (50,) * 5),
        (("ackley", "rastrigin", "weierstrass", "ackley", "rastrigin"), NONE, (50,) * 5),
        (("rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass"), NONE, (50,) * 5),
        (("ackley", "rastrigin", "griewank", "weierstrass", "schwefel"), NONE, (50,) * 5),
    ),
}

SUITE_IDS = tuple(SUITES)
DEFAULT_SUITE_SEED = 2021


def _build_problem(fns, dims, intersection, prob_ss: np.random.SeedSequence) -> MtoProblem:
    k = len(fns)
    unified = max(dims)
    children = prob_ss.spawn(k + 1)
    shift_rng = np.random.default_rng(children[0])
    u_base = 0.1 + 0.8 * shift_rng.random(unified)
    tasks = []
    for t, (name, dim) in enumerate(zip(fns, dims)):
        if intersection == COMPLETE:
            u = u_base
        elif intersection == PARTIAL:
            shared = math.ceil(unified / 2)
            u = np.concatenate([u_base[:shared], 0.1 + 0.8 * shift_rng.random(unified - shared)])
        else:
            u = 0.1 + 0.8 * shift_rng.random(unified)
        tasks.append(_box_task(name, dim, u, random_rotation(dim, np.random.default_rng(children[t + 1]))))
    return MtoProblem(tasks=tuple(tasks))


def build_suite(suite_id: str, seed: int = DEFAULT_SUITE_SEED) -> tuple[MtoProblem, ...]:
    """Generate the nine problems of a suite from ``seed``, in the order of
    its rows in SUITES; task-data files are read with
    :func:`load_problem_files`."""
    if suite_id not in SUITES:
        raise ValueError(f"unknown suite {suite_id!r}; expected one of {SUITE_IDS}")
    return tuple(
        _build_problem(fns, dims, inter, ss)
        for (fns, inter, dims), ss in zip(SUITES[suite_id], np.random.SeedSequence(seed).spawn(9))
    )


# ---------------------------------------------------------------------------
# Task-data files
# ---------------------------------------------------------------------------


def _parse_task(obj, where: str) -> TaskDef:
    if not isinstance(obj, dict):
        raise BenchmarkDataError(f"{where}: task entry must be an object")
    for key in ("fn", "dim", "lower", "upper", "shift", "rotation"):
        if key not in obj:
            raise BenchmarkDataError(f"{where}: missing field {key!r}")
    name = obj["fn"]
    if not isinstance(name, str) or name not in _REGISTRY:
        raise BenchmarkDataError(f"{where}: unknown function {name!r}")
    dim = obj["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise BenchmarkDataError(f"{where}: 'dim' must be a positive integer")

    def vec(key):
        val = obj[key]
        if isinstance(val, (int, float)) and not isinstance(val, bool):
            return np.full(dim, float(val))
        arr = np.asarray(val, dtype=float)
        if arr.shape != (dim,):
            raise BenchmarkDataError(f"{key!r} must be a scalar or length-{dim} array")
        return arr

    try:
        rotation = np.asarray(obj["rotation"], dtype=float)
        if rotation.shape != (dim, dim):
            raise BenchmarkDataError(f"'rotation' must be a {dim}x{dim} matrix")
        return TaskDef(
            base_fn=name,
            dim=dim,
            lower=vec("lower"),
            upper=vec("upper"),
            shift=vec("shift"),
            rotation=rotation,
        )
    except (TypeError, ValueError) as exc:  # np.asarray raises TypeError for an object
        raise BenchmarkDataError(f"{where}: {exc}") from exc


def _parse_problem(obj, where: str) -> MtoProblem:
    if not isinstance(obj, dict) or "tasks" not in obj:
        raise BenchmarkDataError(f"{where}: expected an object with a 'tasks' list")
    tasks = obj["tasks"]
    if not isinstance(tasks, list) or len(tasks) < 2:
        raise BenchmarkDataError(f"{where}: 'tasks' must list at least 2 tasks")
    parsed = [_parse_task(t, f"{where}, task {i + 1}") for i, t in enumerate(tasks)]
    return MtoProblem(tasks=tuple(parsed))


def load_problem_files(path) -> list[MtoProblem]:
    """Read problems from a JSON file or a directory of one-problem files."""
    p = Path(path)
    if not p.exists():
        raise BenchmarkDataError(f"{p}: no such file or directory")
    if p.is_dir():
        files = sorted(p.glob("*.json"))
        if not files:
            raise BenchmarkDataError(f"{p}: directory contains no .json problem files")
        return [_parse_problem(_load_json(f), str(f)) for f in files]
    data = _load_json(p)
    if isinstance(data, dict) and "problems" in data:
        data = data["problems"]
    if isinstance(data, dict):
        return [_parse_problem(data, str(p))]
    if not isinstance(data, list):
        raise BenchmarkDataError(f"{p}: expected a problem object or list of problems")
    return [_parse_problem(obj, f"{p}: problem {i + 1}") for i, obj in enumerate(data)]


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise BenchmarkDataError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise BenchmarkDataError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def problem_to_dict(problem: MtoProblem) -> dict:
    """JSON-serializable form accepted by :func:`load_problem_files`."""
    return {
        "tasks": [
            {
                "fn": t.base_fn,
                "dim": t.dim,
                "lower": t.lower.tolist(),
                "upper": t.upper.tolist(),
                "shift": t.shift.tolist(),
                "rotation": t.rotation.tolist(),
            }
            for t in problem.tasks
        ]
    }

