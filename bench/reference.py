"""Reference evaluator for the seven shifted and rotated task functions.

Written apart from ``mtpso.benchmarks`` in the textbook forms, one point
at a time, so the benchmark can re-evaluate the positions the optimizer
reports. A task maps a unified point ``u`` in [0, 1]^D to its native box
``z = lower + u[:d] * (upper - lower)``, rotates it around the shift,
``y = R (z - shift)``, and evaluates the base function in a frame whose
global minimum is 0 at ``y = 0``.

Weierstrass is the double cosine sum, not a recurrence. Schwefel folds
arguments beyond +-500 back toward the boundary and adds the quadratic
penalty ``(|z| - 500)^2 / (10000 d)``, as the CEC 2014 definition does.
Rosenbrock and Schwefel have their canonical optima away from the origin;
the task frame translates those optima onto the origin.
"""

from __future__ import annotations

import math

WEIERSTRASS_A = 0.5
WEIERSTRASS_B = 3.0
WEIERSTRASS_KMAX = 20

# Where the task frame puts Schwefel's canonical optimum: the constant the
# package uses. The exact stationary point of z*sin(sqrt(z)) is
# 420.9687463599821 (see ``schwefel_stationary_point``), 2.4e-6 lower, so
# the task frame's true minimum lies 2.4e-6 per coordinate off the origin
# and about 1e-12 per dimension below 0. Using the package's translation
# keeps the reference evaluating the same task.
SCHWEFEL_TRANSLATION = 420.96874878568275

FUNCTIONS = ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel")


def sphere(y) -> float:
    return float(sum(v * v for v in y))


def rosenbrock(y) -> float:
    return float(
        sum(100.0 * (y[i + 1] - y[i] ** 2) ** 2 + (y[i] - 1.0) ** 2 for i in range(len(y) - 1))
    )


def ackley(y) -> float:
    d = len(y)
    s2 = sum(v * v for v in y) / d
    sc = sum(math.cos(2.0 * math.pi * v) for v in y) / d
    return -20.0 * math.exp(-0.2 * math.sqrt(s2)) - math.exp(sc) + 20.0 + math.e


def rastrigin(y) -> float:
    return float(sum(v * v - 10.0 * math.cos(2.0 * math.pi * v) + 10.0 for v in y))


def griewank(y) -> float:
    total = sum(v * v for v in y) / 4000.0
    prod = 1.0
    for i, v in enumerate(y, start=1):
        prod *= math.cos(v / math.sqrt(i))
    return 1.0 + total - prod


def weierstrass(y) -> float:
    a, b = WEIERSTRASS_A, WEIERSTRASS_B
    ks = range(WEIERSTRASS_KMAX + 1)
    inner = sum(
        a**k * math.cos(2.0 * math.pi * b**k * (v + 0.5)) for v in y for k in ks
    )
    bias = sum(a**k * math.cos(math.pi * b**k) for k in ks)
    return inner - len(y) * bias


def _schwefel_term(z: float, d: int) -> float:
    if z > 500.0:
        w = 500.0 - math.fmod(z, 500.0)
        return w * math.sin(math.sqrt(abs(w))) - (z - 500.0) ** 2 / (10000.0 * d)
    if z < -500.0:
        w = math.fmod(abs(z), 500.0) - 500.0
        return w * math.sin(math.sqrt(abs(w))) - (z + 500.0) ** 2 / (10000.0 * d)
    return z * math.sin(math.sqrt(abs(z)))


def schwefel(z) -> float:
    """418.9829 d - sum g(z_i), with the boundary penalty in g."""
    d = len(z)
    return 418.9829 * d - sum(_schwefel_term(v, d) for v in z)


def schwefel_stationary_point() -> float:
    """The maximizer of z*sin(sqrt(z)) near 421, by Newton's method on
    tan(s) = -s/2 with s = sqrt(z)."""
    s = math.sqrt(421.0)
    for _ in range(50):
        s -= (math.tan(s) + s / 2.0) / (1.0 / math.cos(s) ** 2 + 0.5)
    return s * s


def task_frame(name: str, y) -> float:
    """Base function ``name`` in the task frame: minimum 0 at ``y = 0``."""
    y = [float(v) for v in y]
    d = len(y)
    if name == "rosenbrock":
        return rosenbrock([v + 1.0 for v in y])
    if name == "schwefel":
        c = SCHWEFEL_TRANSLATION
        peak = _schwefel_term(c, d)
        return float(sum(peak - _schwefel_term(v + c, d) for v in y))
    try:
        fn = {
            "sphere": sphere,
            "ackley": ackley,
            "rastrigin": rastrigin,
            "griewank": griewank,
            "weierstrass": weierstrass,
        }[name]
    except KeyError:
        raise KeyError(f"unknown base function {name!r}") from None
    return fn(y)


def task_point(u, lower, upper, shift, rotation) -> list[float]:
    """The task-frame point ``y = R (z - shift)`` of unified point ``u``;
    the bounds and shift are length-d vectors, the rotation a d x d
    matrix."""
    d = len(shift)
    z = [lower[i] + u[i] * (upper[i] - lower[i]) for i in range(d)]
    diff = [z[i] - shift[i] for i in range(d)]
    return [math.fsum(rotation[i, j] * diff[j] for j in range(d)) for i in range(d)]


def evaluate(u, fn: str, lower, upper, shift, rotation) -> float:
    """Objective value of unified point ``u`` on one task (its FEV, since
    every task's optimum value is 0)."""
    return task_frame(fn, task_point(u, lower, upper, shift, rotation))
