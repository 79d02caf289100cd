import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso import adaptation, benchmarks
from mtpso.benchmarks import make_task
from mtpso.core import ALGORITHMS, MtoProblem, RunConfig, evaluate_task
from mtpso.optimizer import (
    NonFiniteFitnessError,
    evaluate_and_update,
    inertia_weight,
    init_swarm,
    run,
    run_batch,
    run_generation,
    step_position,
    velocity_s1,
    velocity_s2,
)


def small_problem(seed=0, dim=5):
    return MtoProblem(tasks=(make_task("sphere", dim, seed), make_task("rastrigin", dim, seed + 1)))


class TestInertiaWeight:
    def test_schedule_start(self):
        assert inertia_weight(1, 2000, 0.9, 0.4) == 0.9

    def test_schedule_end(self):
        assert inertia_weight(2000, 2000, 0.9, 0.4) == pytest.approx(0.4)

    def test_midpoint(self):
        assert inertia_weight(501, 1001, 0.9, 0.4) == pytest.approx(0.65)

    def test_single_generation(self):
        assert inertia_weight(1, 1, 0.9, 0.4) == 0.9


class TestVelocityRules:
    def test_fixed_point(self):
        x = np.array([0.3, 0.7])
        v = np.zeros(2)
        out = velocity_s1(v, x, x, x, x, 0.5, 1.1, 1.1, 1.1, 0.5, 0.5, 0.5)
        assert np.allclose(out, 0.0)

    def test_s1_hand_arithmetic(self):
        out = velocity_s1(
            v=0.2, x=1.0, pbest=1.0, gbest_own=1.0, gbest_src=2.0,
            w=0.5, c1=1.0, c2=1.0, c3=1.0, r1=1.0, r2=1.0, r3=1.0,
        )
        assert out == pytest.approx(1.1)

    def test_s2_hand_arithmetic(self):
        out = velocity_s2(v=0.2, x=1.0, pbest=1.0, gbest_src=2.0,
                          w=0.5, c1=1.0, c2=1.0, r1=1.0, r2=1.0)
        assert out == pytest.approx(1.1)

    def test_s1_collapses_when_source_is_own(self):
        """The bare formula with a scalar c3; the optimizer itself passes
        c3 = 0 for self-choices (see TestS1SelfChoice)."""
        rng = np.random.default_rng(0)
        v, x, pb, gb = rng.random((4, 6))
        r1, r2, r3 = rng.random((3, 6))
        four_term = velocity_s1(v, x, pb, gb, gb, 0.7, 1.1, 1.1, 1.1, r1, r2, r3)
        merged = 0.7 * v + 1.1 * r1 * (pb - x) + (1.1 * r2 + 1.1 * r3) * (gb - x)
        assert np.allclose(four_term, merged, rtol=1e-12)

    def test_s2_with_own_source_equals_pso(self):
        rng = np.random.default_rng(1)
        v, x, pb, gb = rng.random((4, 6))
        r1, r2 = rng.random((2, 6))
        assert np.allclose(
            velocity_s2(v, x, pb, gb, 0.6, 1.494, 1.494, r1, r2),
            0.6 * v + 1.494 * r1 * (pb - x) + 1.494 * r2 * (gb - x),
        )

    def test_zero_coefficients_leave_inertia(self):
        v = np.array([0.4, -0.2])
        x = np.array([0.1, 0.9])
        out = velocity_s2(v, x, x + 1, x + 2, 0.5, 0.0, 0.0, 0.3, 0.7)
        assert np.allclose(out, 0.5 * v)


class TestS1SelfChoice:
    """A particle whose chosen source is its own task does no transfer: S1
    moves it with the three-term rule (c1, c2) and drops the c3 term."""

    def step_and_check(self, force_focus):
        """Step one S1 generation, replaying r1, r2, r3 from a copy of each
        task's velocity stream, and return each task's mask of particles
        that chose another task."""
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=40, seed=11, max_gens=50, lp=30)
        state = init_swarm(small_problem(), cfg)
        for _ in range(4):
            run_generation(state)
        state.focus[:] = force_focus
        gbest_mat = state.gbest_pos.copy()
        before = [
            (state.positions[t].copy(), state.velocities[t].copy(), state.pbest_pos[t].copy(),
             copy.deepcopy(state.vel_rngs[t]))
            for t in range(2)
        ]
        run_generation(state)
        w = inertia_weight(state.generation, cfg.max_gens, cfg.w_start, cfg.w_end)
        masks = []
        for t, (x, v, pb, rng) in enumerate(before):
            shape = x.shape
            r1, r2, r3 = rng.random(shape), rng.random(shape), rng.random(shape)
            three_term = w * v + cfg.c1 * r1 * (pb - x) + cfg.c2 * r2 * (gbest_mat[t] - x)
            other = (state.last_source[t] != t)[:, None]
            source_term = cfg.c3 * r3 * (gbest_mat[state.last_source[t]] - x)
            expected = three_term + np.where(other, source_term, 0.0)
            exp_x, exp_v = step_position(x, expected)
            assert np.allclose(state.velocities[t], exp_v, rtol=1e-12, atol=1e-15)
            assert np.allclose(state.positions[t], exp_x, rtol=1e-12, atol=1e-15)
            masks.append(other)
        return masks

    def test_focus_uses_three_term_rule(self):
        for other in self.step_and_check(force_focus=True):
            assert not other.any()

    def test_only_other_task_choices_carry_source_term(self):
        for other in self.step_and_check(force_focus=False):
            assert other.any() and not other.all()


class TestStackedEqualsPerTask:
    """The move on (K, N, D) arrays equals K per-task calls bit for bit."""

    K, N, D = 4, 7, 5

    def arrays(self, seed):
        rng = np.random.default_rng(seed)
        x, pb = rng.random((2, self.K, self.N, self.D))
        v = rng.uniform(-0.5, 0.5, (self.K, self.N, self.D))
        gbest = rng.random((self.K, self.D))
        iks = rng.integers(0, self.K, (self.K, self.N))
        r1, r2, r3 = rng.random((3, self.K, self.N, self.D))
        return x, v, pb, gbest, iks, r1, r2, r3

    def test_velocity_s1_with_per_row_c3(self):
        for seed in range(5):
            x, v, pb, gbest, iks, r1, r2, r3 = self.arrays(seed)
            own = np.arange(self.K)[:, None]
            c3 = np.where(iks == own, 0.0, 1.1)[..., None]
            stacked = velocity_s1(v, x, pb, gbest[:, None, :], gbest[iks], 0.7, 1.1, 1.1, c3, r1, r2, r3)
            for t in range(self.K):
                c3_t = np.where(iks[t] == t, 0.0, 1.1)[:, None]
                one = velocity_s1(v[t], x[t], pb[t], gbest[t], gbest[iks[t]], 0.7, 1.1, 1.1, c3_t,
                                  r1[t], r2[t], r3[t])
                assert np.array_equal(stacked[t], one)

    def test_step_position_when_only_some_tasks_bounce(self):
        for seed in range(5):
            x, v, *_ = self.arrays(seed)
            x = 0.25 + 0.5 * x
            v[::2] *= 0.4  # tasks 0 and 2 stay inside the box
            v[1, 0, 0] = 3.7
            x_all, v_all = step_position(x, v)
            bounced = []
            for t, v_in in enumerate(v):
                x_t, v_t = step_position(x[t], v_in)
                assert np.array_equal(x_all[t], x_t) and np.array_equal(v_all[t], v_t)
                bounced.append(v_t is not v_in)
            assert bounced[1] and not bounced[0] and not bounced[2]


class TestStepPosition:
    def test_interior_move_keeps_velocity(self):
        x, v = step_position(np.array([0.5]), np.array([0.2]))
        assert x[0] == pytest.approx(0.7)
        assert v[0] == pytest.approx(0.2)

    def test_overshoot_reflects_and_damps(self):
        x, v = step_position(np.array([0.9]), np.array([0.3]))
        assert x[0] == pytest.approx(0.8)  # bounced off 1.0
        assert v[0] == pytest.approx(-0.15)

    def test_undershoot_reflects(self):
        x, v = step_position(np.array([0.1]), np.array([-0.3]))
        assert x[0] == pytest.approx(0.2)
        assert v[0] == pytest.approx(0.15)

    def test_multi_width_overshoot_stays_inside(self):
        x, v = step_position(np.array([0.0]), np.array([3.7]))
        assert x[0] == pytest.approx(0.3)
        assert 0.0 <= x[0] <= 1.0

    def test_zero_velocity_is_noop(self):
        x, v = step_position(np.array([0.25, 0.75]), np.zeros(2))
        assert np.array_equal(x, [0.25, 0.75])

    def test_exact_boundary_landing_keeps_velocity(self):
        x, v = step_position(np.array([0.5]), np.array([0.5]))
        assert x[0] == 1.0
        assert v[0] == 0.5

    def test_batch(self):
        rng = np.random.default_rng(5)
        x = rng.random((40, 7))
        v = rng.uniform(-2, 2, (40, 7))
        x2, _ = step_position(x, v)
        assert np.all(x2 >= 0.0) and np.all(x2 <= 1.0)


class TestInitSwarm:
    def test_structure(self):
        state = init_swarm(small_problem(), RunConfig(algorithm="samtpso-s1", pop_per_task=50, seed=3))
        assert state.positions.shape == (2, 50, 5)
        for t in range(2):
            assert state.positions[t].shape[0] == 50
            assert np.allclose(state.probs[t], 0.5)
            assert not state.focus[t]
            assert np.all(state.velocities[t] == 0.0)
            assert np.array_equal(state.pbest_pos[t], state.positions[t])
        assert not state.mem.filled.any()
        assert state.generation == 1

    def test_deterministic(self):
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=20, seed=9)
        a = init_swarm(small_problem(), cfg)
        b = init_swarm(small_problem(), cfg)
        for t in range(2):
            assert np.array_equal(a.positions[t], b.positions[t])
            assert np.array_equal(a.pbest_fit[t], b.pbest_fit[t])

    def test_gbest_is_min_pbest(self):
        state = init_swarm(small_problem(), RunConfig(algorithm="samtpso-s2", pop_per_task=30, seed=1))
        for t in range(2):
            assert state.gbest_fit[t] == state.pbest_fit[t].min()
            assert state.gbest_fit[t] <= state.pbest_fit[t].min()

    def test_pbest_fitness_consistent(self):
        problem = small_problem()
        state = init_swarm(problem, RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=2))
        for t, task in enumerate(problem.tasks):
            for i in range(state.positions.shape[1]):
                ref = evaluate_task(state.pbest_pos[t, i], task)
                assert float(state.pbest_fit[t, i]) == pytest.approx(ref, rel=1e-12)


class TestEvaluateAndUpdate:
    def make_state(self, positions, pbest_fit, last_source, problem):
        """A swarm whose task 0 holds the given particles; the assertions
        read task 0's row."""
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=len(positions), seed=0)
        state = init_swarm(problem, cfg)
        state.positions[0] = positions
        state.pbest_fit[0] = pbest_fit
        state.pbest_pos[0] = 0.25
        state.last_source[0] = last_source
        return state

    def test_improve_improve_worsen_tally(self):
        problem = small_problem()
        task = problem.tasks[0]
        positions = np.array([[0.2] * 5, [0.3] * 5, [0.4] * 5])
        fits = np.asarray(evaluate_task(positions, task))
        # pbest thresholds placed so particles 0,1 improve and 2 worsens
        pbest_fit = np.array([fits[0] + 1.0, fits[1] + 1.0, fits[2] - 1.0])
        state = self.make_state(positions, pbest_fit, [0, 1, 1], problem)
        evaluate_and_update(state)
        ns, nf = state.mem.columns()
        assert ns[-1, 0].sum() == 2
        assert nf[-1, 0].sum() == 1
        assert np.array_equal(ns[-1, 0], [1, 1])
        assert np.array_equal(nf[-1, 0], [0, 1])

    def test_tie_counts_as_failure(self):
        problem = small_problem()
        task = problem.tasks[0]
        positions = np.array([[0.2] * 5])
        fit = float(np.asarray(evaluate_task(positions, task))[0])
        state = self.make_state(positions, [fit], [0], problem)
        old_pbest = state.pbest_pos[0].copy()
        evaluate_and_update(state)
        ns, nf = state.mem.columns()
        assert ns[-1, 0].sum() == 0 and nf[-1, 0].sum() == 1
        assert np.array_equal(state.pbest_pos[0], old_pbest)

    def test_gbest_updated_to_subpop_min(self):
        problem = small_problem()
        task = problem.tasks[0]
        positions = np.array([[0.2] * 5, [0.21] * 5])
        fits = np.asarray(evaluate_task(positions, task))
        state = self.make_state(positions, fits + 10.0, [0, 0], problem)
        state.gbest_fit[0] = fits.min() + 5.0
        evaluate_and_update(state)
        assert state.gbest_fit[0] == fits.min()


class TestRunLoops:
    def test_pso_ignores_adaptation(self):
        state = init_swarm(small_problem(), RunConfig(algorithm="pso", pop_per_task=10, seed=5, max_gens=30))
        for _ in range(10):
            counts = run_generation(state)
        assert counts is None
        assert not state.mem.filled.any()
        for t in range(2):
            assert np.allclose(state.probs[t], 0.5)  # untouched

    def test_single_generation_run(self):
        result = run(small_problem(), RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=1, max_gens=1))
        assert result.fev_trace.shape == (1, 2)
        assert result.source_counts.shape == (0, 2, 2)

    def test_trace_monotone_and_counts_conserved(self):
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=12, seed=7, max_gens=60, lp=5)
        result = run(small_problem(), cfg)
        diffs = np.diff(result.fev_trace, axis=0)
        assert np.all(diffs <= 1e-15)
        assert np.all(result.source_counts.sum(axis=2) == 12)

    def test_trace_matches_final_fevs(self):
        cfg = RunConfig(algorithm="samtpso-s2", pop_per_task=10, seed=3, max_gens=25)
        result = run(small_problem(), cfg)
        assert np.array_equal(result.fev_trace[-1], result.best_fevs)
        assert result.best_positions.shape == (2, 5)

    def test_determinism_over_100_generations(self):
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=15, seed=123, max_gens=100)
        a = run(small_problem(), cfg)
        b = run(small_problem(), cfg)
        assert np.array_equal(a.fev_trace, b.fev_trace)
        assert np.array_equal(a.source_counts, b.source_counts)
        assert np.array_equal(a.best_positions, b.best_positions)

    def test_positions_stay_in_unit_box(self):
        seen = []

        def observer(state):
            for t in range(2):
                seen.append((state.positions[t].min(), state.positions[t].max()))

        run(small_problem(), RunConfig(algorithm="samtpso-s2", pop_per_task=10, seed=4, max_gens=40),
            observer=observer)
        lo = min(s[0] for s in seen)
        hi = max(s[1] for s in seen)
        assert lo >= 0.0 and hi <= 1.0

    def test_gbest_never_above_pbests(self):
        def observer(state):
            for t in range(2):
                assert state.gbest_fit[t] <= state.pbest_fit[t].min() + 1e-15

        run(small_problem(), RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=6, max_gens=30),
            observer=observer)

    def test_probabilities_on_simplex_every_generation(self):
        def observer(state):
            for t in range(2):
                assert abs(state.probs[t].sum() - 1.0) <= 1e-12
                assert np.all(state.probs[t] > 0)

        run(small_problem(), RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=8, max_gens=40, lp=5),
            observer=observer)

    def test_single_task_degenerate_run(self):
        task = make_task("sphere", 6, 77)
        result = run(task, RunConfig(algorithm="samtpso-s2", pop_per_task=10, seed=2, max_gens=20))
        assert result.fev_trace.shape == (20, 1)

    def test_k1_s2_bit_identical_to_pso(self):
        task = make_task("sphere", 10, 31)
        s2 = run(task, RunConfig(algorithm="samtpso-s2", pop_per_task=20, seed=17, max_gens=50))
        pso = run(task, RunConfig(algorithm="pso", pop_per_task=20, seed=17, max_gens=50))
        assert np.array_equal(s2.fev_trace, pso.fev_trace)
        assert np.array_equal(s2.best_positions, pso.best_positions)

    def test_probabilities_uniform_until_learning_period_ends(self):
        lp = 8
        snapshots = []

        def observer(state):
            snapshots.append((state.generation, [state.probs[t].copy() for t in range(2)]))

        run(small_problem(), RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=5, max_gens=lp + 3, lp=lp),
            observer=observer)
        for g, pools in snapshots:
            if g <= lp:
                for p in pools:
                    assert np.allclose(p, 0.5)


class TestBatch:
    """A batch of cells that differ only in seed, lp and bp equals each
    cell run on its own, bit for bit."""

    FUNCTIONS = ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel")

    @given(
        st.lists(st.tuples(st.sampled_from(FUNCTIONS), st.integers(2, 7)), min_size=1, max_size=6),
        st.lists(
            st.tuples(st.integers(0, 2**64 - 1), st.integers(1, 6), st.sampled_from([0.0, 0.001, 0.1])),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(ALGORITHMS),
        st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_cells_alone(self, tasks, cells, algorithm, task_seed):
        defs = tuple(make_task(fn, d, task_seed + i) for i, (fn, d) in enumerate(tasks))
        problem = defs[0] if len(defs) == 1 else MtoProblem(tasks=defs)
        base = RunConfig(algorithm=algorithm, pop_per_task=6, max_gens=14)
        configs = [replace(base, seed=seed, lp=lp, bp=bp) for seed, lp, bp in cells]
        for config, got in zip(configs, run_batch(problem, configs)):
            alone = run(problem, config)
            assert got.seed == config.seed
            assert np.array_equal(got.fev_trace, alone.fev_trace)
            assert np.array_equal(got.best_positions, alone.best_positions)
            if algorithm == "pso":
                assert got.source_counts is None and alone.source_counts is None
            else:
                assert np.array_equal(got.source_counts, alone.source_counts)

    def test_configs_must_differ_only_in_seed_lp_bp(self):
        base = RunConfig(pop_per_task=4, max_gens=3)
        with pytest.raises(ValueError, match="seed, lp and bp"):
            init_swarm(small_problem(), [base, replace(base, c1=1.0)])
        with pytest.raises(ValueError, match="seed, lp and bp"):
            init_swarm(small_problem(), [])

    def test_rows_are_task_major(self):
        base = RunConfig(pop_per_task=4, max_gens=3)
        configs = [replace(base, seed=s) for s in (1, 2, 3)]
        state = init_swarm(small_problem(), configs)
        assert state.positions.shape == (6, 4, 5)
        assert adaptation.row_tasks(6, 2).tolist() == [0, 0, 0, 1, 1, 1]
        assert state.last_source[:, 0].tolist() == [0, 0, 0, 1, 1, 1]
        for c, config in enumerate(configs):
            alone = init_swarm(small_problem(), config)
            assert np.array_equal(state.positions[c::3], alone.positions)
            assert np.array_equal(state.pbest_fit[c::3], alone.pbest_fit)


class TestNonFiniteFitness:
    @staticmethod
    def register(name, bad_from_call):
        calls = []

        def fn(y):
            calls.append(1)
            out = np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)
            return out * np.nan if len(calls) >= bad_from_call else out

        benchmarks.register_base(name, fn, -1, 1)

    @pytest.mark.parametrize("bad_from_call, name", [(1, "nan-at-init"), (3, "nan-later")])
    def test_raises_naming_task_and_function(self, bad_from_call, name):
        self.register(name, bad_from_call)
        problem = MtoProblem(tasks=(make_task("sphere", 3, 1), make_task(name, 3, 2)))
        with pytest.raises(NonFiniteFitnessError, match=f"task index 1 \\(base function '{name}'\\)"):
            run(problem, RunConfig(pop_per_task=5, max_gens=10))

    def test_infinity_raises(self):
        benchmarks.register_base("inf-everywhere", lambda y: np.full(np.shape(y)[:-1], np.inf), -1, 1)
        problem = MtoProblem(tasks=(make_task("inf-everywhere", 2, 1), make_task("sphere", 2, 2)))
        with pytest.raises(NonFiniteFitnessError, match="task index 0"):
            run(problem, RunConfig(algorithm="pso", pop_per_task=5, max_gens=4))
