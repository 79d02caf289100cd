"""Tests of the benchmark's reference evaluator and its recomputations.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
from mtpso import benchmarks, harness, metrics  # noqa: E402


@pytest.mark.parametrize("name", reference.FUNCTIONS)
def test_task_frame_minimum_is_zero_at_origin(name):
    for d in (1, 2, 7):
        assert abs(reference.task_frame(name, [0.0] * d)) < 1e-11


def test_hand_values():
    assert reference.sphere([1.0, 2.0]) == 5.0
    assert reference.rastrigin([0.5, 0.0]) == pytest.approx(20.25, abs=1e-12)
    assert reference.rosenbrock([0.0, 0.0]) == 1.0
    assert reference.rosenbrock([1.0, 1.0, 1.0]) == 0.0
    assert reference.ackley([1.0]) == pytest.approx(20.0 - 20.0 * math.exp(-0.2), abs=1e-12)
    assert reference.griewank([0.0, 0.0]) == 0.0
    # every cosine of the double sum is 1 at y = 0.5
    assert reference.weierstrass([0.5]) == pytest.approx(4.0 - 2.0**-19, abs=1e-12)


def test_schwefel_inside_box_is_the_plain_formula():
    z = [-420.0, 13.5, 499.0]
    plain = 418.9829 * 3 - sum(v * math.sin(math.sqrt(abs(v))) for v in z)
    assert reference.schwefel(z) == pytest.approx(plain, abs=1e-9)


def test_schwefel_boundary_penalty():
    # 600 folds to 500 - fmod(600, 500) = 400 with penalty 100^2 / 10000
    assert reference.schwefel([600.0]) == pytest.approx(418.9829 - (400 * math.sin(20.0) - 1.0))
    assert reference.schwefel([-600.0]) == pytest.approx(418.9829 - (-400 * math.sin(20.0) - 1.0))


def test_schwefel_translation_is_near_the_stationary_point():
    z = reference.schwefel_stationary_point()
    s = math.sqrt(z)
    assert abs(math.sin(s) + s * math.cos(s) / 2) < 1e-12
    assert abs(reference.SCHWEFEL_TRANSLATION - z) < 3e-6


@pytest.mark.parametrize("name", reference.FUNCTIONS)
def test_agrees_with_package_away_from_the_optimum(name):
    rng = np.random.default_rng(7)
    b = 0.4 if name == "weierstrass" else 80.0
    for d in (2, 5, 10):
        for _ in range(20):
            y = rng.uniform(-b, b, d)
            y = np.where(np.abs(y) < 0.01 * b, 0.01 * b, y)
            want = reference.task_frame(name, y)
            assert benchmarks.task_eval(name, y) == pytest.approx(want, rel=1e-9, abs=1e-8)


def test_weierstrass_reference_matches_a_40_digit_sum():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    half = mpmath.mpf("0.5")
    for y in (3e-9, 2e-5, 0.137):
        terms = (half**k * (mpmath.cos(2 * mpmath.pi * 3**k * (mpmath.mpf(y) + half)) + 1) for k in range(21))
        exact = float(mpmath.fsum(terms))
        assert abs(reference.task_frame("weierstrass", [y]) - exact) < 1e-11


def _weierstrass_band_points(rng, n=3000):
    lo = 0.0
    for edge, bound in checks.WEIERSTRASS_ERROR:
        dist = rng.uniform(0.0, edge, n) if lo == 0.0 else np.exp(rng.uniform(np.log(lo), np.log(edge), n))
        y = dist * rng.choice([-1.0, 1.0], n) + rng.integers(-2, 3, n)
        yield y, bound
        lo = edge


def test_weierstrass_error_table_bounds_the_package():
    rng = np.random.default_rng(5)
    for y, bound in _weierstrass_band_points(rng):
        got = benchmarks.task_eval("weierstrass", y[:, None])
        want = np.array([reference.task_frame("weierstrass", [v]) for v in y])
        assert np.max(np.abs(got - want)) <= bound
        assert all(checks.weierstrass_slack([v]) == bound for v in y[:20])


def test_weierstrass_slack_does_not_hide_a_missing_term():
    # Dropping the series' last term (k = 20) moves a 10-D value by far
    # more than the slack the checks allow it.
    rng = np.random.default_rng(6)
    last = 0.5**20
    for _ in range(50):
        y = rng.uniform(-0.5, 0.5, 10)
        y = np.where(np.abs(y) < 1e-5, 1e-5, y)
        missing = last * np.sum(np.cos(2 * np.pi * 3**20 * (y + 0.5)) - np.cos(np.pi * 3**20))
        slack = checks.weierstrass_slack(y) + checks.FEV_TOL * max(1.0, reference.task_frame("weierstrass", y))
        assert missing > 10 * slack


def test_evaluate_decodes_rotates_and_shifts():
    rng = np.random.default_rng(3)
    task = benchmarks.make_task("rastrigin", 4, 11)
    u_shift = (task.shift - task.lower) / (task.upper - task.lower)
    assert abs(
        reference.evaluate(u_shift, "rastrigin", task.lower, task.upper, task.shift, task.rotation)
    ) < 1e-9
    u = rng.random(6)  # unified vectors may be longer than the task
    z = task.lower + u[:4] * (task.upper - task.lower)
    y = task.rotation @ (z - task.shift)
    got = reference.evaluate(u, "rastrigin", task.lower, task.upper, task.shift, task.rotation)
    assert got == pytest.approx(reference.rastrigin(y), rel=1e-12)


def test_cell_seed_matches_the_documented_derivation():
    for key in [(1, "pso", 1, 1), (986019042187420, "samtpso-s1@lp=5", 9, 30)]:
        assert checks.cell_seed(*key) == harness.derive_seed(*key)


def test_standardized_scores_match_the_package():
    rng = np.random.default_rng(5)
    values = rng.random((3, 2, 4))  # (algorithm, task, run)
    labels = ["a", "b", "c"]
    rows = [
        {
            "algorithm": labels[q],
            "problem": "1",
            "task": str(t + 1),
            "run": str(r + 1),
            "final_fev": repr(float(values[q, t, r])),
        }
        for q in range(3)
        for t in range(2)
        for r in range(4)
    ]
    got = checks.standardized_scores(rows)
    want = metrics.score(values)
    for q, label in enumerate(labels):
        assert got[(1, label)] == pytest.approx(want[q], abs=1e-12)
    assert abs(sum(got.values())) < 1e-12
