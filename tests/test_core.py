import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso.core import (
    DimensionMismatchError,
    MtoProblem,
    RunConfig,
    TaskDef,
    decode,
    encode,
    evaluate_task,
)
from mtpso.harness import ConfigError, parse_experiment


def plain_task(fn="sphere", dim=2, lower=-100.0, upper=100.0, shift=None):
    """Identity rotation, configurable shift; handy for exact arithmetic."""
    return TaskDef(
        base_fn=fn,
        dim=dim,
        lower=np.full(dim, lower),
        upper=np.full(dim, upper),
        shift=np.zeros(dim) if shift is None else np.asarray(shift, float),
        rotation=np.eye(dim),
    )


class TestDecode:
    def test_midpoint_maps_to_box_center(self):
        task = plain_task(dim=2, lower=-100, upper=100)
        assert np.allclose(decode(np.array([0.5, 0.5]), task), [0.0, 0.0])

    def test_endpoints_map_to_bounds(self):
        task = plain_task(dim=2, lower=-50, upper=50)
        assert np.allclose(decode(np.array([0.0, 1.0]), task), [-50.0, 50.0])

    def test_extra_components_dropped(self):
        task = plain_task(dim=2, lower=0, upper=4, shift=[1, 1])
        assert np.allclose(decode(np.array([0.25, 0.75, 0.5]), task), [1.0, 3.0])

    def test_too_short_vector_rejected(self):
        task = plain_task(dim=3, shift=[0, 0, 0])
        with pytest.raises(DimensionMismatchError):
            decode(np.array([0.1, 0.2]), task)

    def test_batch_rows(self):
        task = plain_task(dim=2, lower=0, upper=10, shift=[5, 5])
        out = decode(np.array([[0.0, 0.5], [1.0, 1.0]]), task)
        assert np.allclose(out, [[0.0, 5.0], [10.0, 10.0]])

    @given(st.lists(st.floats(min_value=-49.9, max_value=49.9), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, point):
        task = plain_task(dim=3, lower=-50, upper=50, shift=[0, 0, 0])
        z = np.asarray(point)
        back = decode(encode(z, task), task)
        assert np.allclose(back, z, rtol=1e-12, atol=1e-12)

    def test_encode_pads_with_half(self):
        task = plain_task(dim=2, lower=0, upper=4, shift=[1, 1])
        u = encode(np.array([1.0, 3.0]), task, unified_dim=4)
        assert np.allclose(u, [0.25, 0.75, 0.5, 0.5])


class TestEvaluateTask:
    def test_zero_at_constructed_optimum(self):
        from mtpso.benchmarks import make_task

        task = make_task("sphere", 4, 11)
        u = encode(task.shift, task)
        assert evaluate_task(u, task) == pytest.approx(0.0, abs=1e-12)

    def test_sphere_identity_frame(self):
        task = plain_task("sphere", dim=2, lower=-100, upper=100)
        u = encode(np.array([1.0, 1.0]), task)
        assert evaluate_task(u, task) == pytest.approx(2.0, rel=1e-12)

    def test_rastrigin_zero_at_origin(self):
        task = plain_task("rastrigin", dim=3, lower=-50, upper=50)
        u = encode(np.zeros(3), task)
        assert evaluate_task(u, task) == pytest.approx(0.0, abs=1e-12)

    def test_fev_equals_fitness_when_optimum_zero(self):
        """Every task's optimum value is 0, so a run's error values are its
        swarm bests' fitness, with nothing subtracted."""
        from mtpso.optimizer import run

        problem = MtoProblem(tasks=(plain_task("sphere", dim=2), plain_task("rastrigin", dim=2, lower=-5, upper=5)))
        result = run(problem, RunConfig(pop_per_task=6, max_gens=5, seed=3))
        for t, task in enumerate(problem.tasks):
            assert result.best_fevs[t] == pytest.approx(evaluate_task(result.best_positions[t], task), rel=1e-12)


class TestTaskDefInvariants:
    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError, match="lower bound"):
            plain_task(dim=2, lower=10, upper=-10)

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            (-np.inf, 1.0, "bounds must be finite"),
            (-1.0, np.inf, "bounds must be finite"),
            (np.nan, 1.0, "bounds must be finite"),
            (-1e308, 1e308, "width upper - lower must be finite"),
        ],
    )
    def test_bounds_and_width_must_be_finite(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            plain_task(dim=2, lower=lower, upper=upper, shift=[0.0, 0.0])

    def test_rotation_must_be_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            TaskDef(
                base_fn="sphere",
                dim=2,
                lower=np.full(2, -1.0),
                upper=np.full(2, 1.0),
                shift=np.zeros(2),
                rotation=np.array([[1.0, 0.1], [0.0, 1.0]]),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rotation_is_not_orthogonal(self, bad):
        """|R^T R - I| is NaN here, and a NaN error must fail the check."""
        with pytest.raises(ValueError, match="orthogonal"):
            TaskDef(
                base_fn="sphere",
                dim=2,
                lower=np.full(2, -1.0),
                upper=np.full(2, 1.0),
                shift=np.zeros(2),
                rotation=np.array([[bad, 0.0], [0.0, 1.0]]),
            )

    def test_shift_must_be_in_box(self):
        with pytest.raises(ValueError, match="shift"):
            plain_task(dim=2, lower=-1, upper=1, shift=[0.0, 2.0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            TaskDef(
                base_fn="sphere",
                dim=3,
                lower=np.full(2, -1.0),
                upper=np.full(3, 1.0),
                shift=np.zeros(3),
                rotation=np.eye(3),
            )


class TestMtoProblem:
    def test_needs_one_task(self):
        with pytest.raises(ValueError, match="at least 1 task"):
            MtoProblem(tasks=())
        single = MtoProblem(tasks=(plain_task(dim=3, shift=[0] * 3),))
        assert single.num_tasks == 1 and single.unified_dim == 3

    def test_unified_dim_is_max(self):
        p = MtoProblem(tasks=(plain_task(dim=5, shift=[0] * 5), plain_task(dim=3, shift=[0] * 3)))
        assert p.unified_dim == 5
        assert p.num_tasks == 2


class TestRunConfig:
    def test_defaults_per_algorithm(self):
        s1 = RunConfig(algorithm="samtpso-s1")
        assert (s1.c1, s1.c2, s1.c3) == (1.1, 1.1, 1.1)
        s2 = RunConfig(algorithm="samtpso-s2")
        assert (s2.c1, s2.c2) == (1.494, 1.494)
        pso = RunConfig(algorithm="pso")
        assert (pso.c1, pso.c2) == (1.494, 1.494)
        assert s1.pop_per_task == 50 and s1.lp == 10
        assert s1.bp == 0.001 and s1.eps == 0.001
        assert (s1.w_start, s1.w_end) == (0.9, 0.4)

    def test_coefficients_overridable(self):
        cfg = RunConfig(algorithm="samtpso-s1", c1=0.5, c3=2.0)
        assert (cfg.c1, cfg.c2, cfg.c3) == (0.5, 1.1, 2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"algorithm": "nope"},
            {"lp": 0},
            {"max_gens": 0},
            {"w_start": 0.3, "w_end": 0.4},
            {"eps": 0.0},
            {"bp": -0.1},
            {"pop_per_task": 0},
            {"seed": 2**64},
            {"seed": -1},
            {"bp": float("nan")},
            {"bp": float("inf")},
            {"eps": float("nan")},
            {"w_start": float("nan")},
            {"w_end": float("nan")},
            {"w_start": float("inf")},
            {"c1": float("nan")},
            {"c2": float("inf")},
            {"c3": float("-inf")},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RunConfig(**kwargs)

    def test_nan_from_json_rejected(self):
        """``json.loads`` accepts a bare NaN; the experiment parser must not."""
        cfg = json.loads('{"bp": NaN, "algorithms": ["samtpso-s1"]}')
        with pytest.raises(ConfigError, match="bp must be finite"):
            parse_experiment(cfg)
