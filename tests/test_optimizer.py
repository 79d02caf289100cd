import copy
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtpso import adaptation, benchmarks, optimizer
from mtpso.benchmarks import make_task
from mtpso.core import ALGORITHMS, MtoProblem, RunConfig, evaluate_task
from mtpso.optimizer import (
    NonFiniteFitnessError,
    _bounce,
    _evaluate,
    _evaluation_plan,
    _move_swarm,
    evaluate_and_update,
    inertia_weight,
    init_swarm,
    run,
    run_batch,
    run_generation,
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


class ConstantDraws:
    """Stands in for a velocity stream: every draw is ``r``."""

    def __init__(self, r):
        self.r = r

    def random(self, out):
        out.fill(self.r)


def move_particle(algorithm, x, v, pbest, g_own, g_src, w, source=1, r=0.5, **coeffs):
    """One ``_move_swarm`` step of task 0's only particle in a two-task,
    one-dimensional swarm whose draws all equal ``r``. Task 0's swarm best
    is ``g_own``, task 1's is ``g_src``, and task 0 picks ``source`` (0 is
    its own task). Returns the particle's new (x, v)."""
    problem = MtoProblem(tasks=(make_task("sphere", 1, 0), make_task("sphere", 1, 1)))
    state = init_swarm([problem], [RunConfig(algorithm=algorithm, pop_per_task=1, **coeffs)])
    state.positions[0], state.velocities[0], state.pbest_pos[0] = x, v, pbest
    state.gbest_pos[:] = [[g_own], [g_src]]
    state.probs[0] = np.eye(2)[source]
    state.vel_rngs = [ConstantDraws(r)] * 2
    _move_swarm(state, w)
    assert state.last_source[0, 0] == source
    return state.positions[0, 0, 0], state.velocities[0, 0, 0]


class TestVelocityRules:
    """Hand-worked moves through ``_move_swarm``: with every draw r, S1 moves
    by w·v + c1·r·(pbest − x) + c2·r·(g_own − x) + c3·r·(g_src − x) and S2
    by w·v + c1·r·(pbest − x) + c2·r·(g_src − x)."""

    def test_fixed_point(self):
        x, v = move_particle("samtpso-s1", 0.3, 0.0, 0.3, 0.3, 0.3, w=0.5)
        assert (x, v) == (0.3, 0.0)

    def test_s1_hand_arithmetic(self):
        x, v = move_particle("samtpso-s1", 0.4, 0.2, 0.5, 0.6, 0.3, w=0.5, c1=1.0, c2=1.0, c3=1.0)
        assert v == pytest.approx(0.1 + 0.05 + 0.1 - 0.05)
        assert x == pytest.approx(0.6)

    def test_s2_hand_arithmetic(self):
        x, v = move_particle("samtpso-s2", 0.4, 0.2, 0.5, 0.6, 0.3, w=0.5, c1=1.0, c2=1.0)
        assert v == pytest.approx(0.1 + 0.05 - 0.05)
        assert x == pytest.approx(0.5)

    def test_s1_collapses_when_source_is_own(self):
        """A self-choice drops the c3 term, whatever c3 is."""
        x, v = move_particle("samtpso-s1", 0.4, 0.02, 0.45, 0.35, 0.9, w=0.7, source=0, r=0.3, c3=5.0)
        expected = 0.7 * 0.02 + 1.1 * 0.3 * (0.45 - 0.4) + 1.1 * 0.3 * (0.35 - 0.4)
        assert v == pytest.approx(expected, rel=1e-12)
        assert x == pytest.approx(0.4 + expected, rel=1e-12)

    def test_s2_with_own_source_equals_pso(self):
        s2 = move_particle("samtpso-s2", 0.4, 0.02, 0.45, 0.35, 0.9, w=0.6, source=0, r=0.3)
        pso = move_particle("pso", 0.4, 0.02, 0.45, 0.35, 0.9, w=0.6, source=0, r=0.3)
        assert s2 == pso
        assert s2[1] == pytest.approx(0.6 * 0.02 + 1.494 * 0.3 * 0.05 - 1.494 * 0.3 * 0.05, abs=1e-15)

    def test_zero_coefficients_leave_inertia(self):
        for algorithm in ("samtpso-s1", "samtpso-s2"):
            x, v = move_particle(algorithm, 0.1, 0.4, 0.9, 0.8, 0.7, w=0.5, c1=0.0, c2=0.0, c3=0.0)
            assert v == 0.5 * 0.4
            assert x == pytest.approx(0.3)


class SequenceDraws:
    """Stands in for a velocity stream that yields ``values`` in order across
    calls, as a bit generator yields its doubles."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self, out):
        out.flat[:] = [next(self.values) for _ in range(out.size)]


class TestVelocityDrawOrder:
    """Each row's stream gives r1 for every particle and dimension, then r2,
    then (S1) r3, and each term takes its own block: S1 puts r1 on pbest,
    r2 on its own swarm best and r3 on the source's best; S2 puts r1 on
    pbest and r2 on the source's best. Task 0's one particle in two
    dimensions picks task 1; task 1's row draws from a stream of its own."""

    X, V, PBEST, G_OWN, G_SRC = [0.4, 0.6], [0.2, -0.1], [0.5, 0.5], [0.6, 0.3], [0.3, 0.8]

    def move(self, algorithm, terms):
        problem = MtoProblem(tasks=(make_task("sphere", 2, 0), make_task("sphere", 2, 1)))
        config = RunConfig(algorithm=algorithm, pop_per_task=1, c1=1.0, c2=1.0, c3=1.0)
        state = init_swarm([problem], [config])
        state.positions[0], state.velocities[0], state.pbest_pos[0] = self.X, self.V, self.PBEST
        state.gbest_pos[:] = [self.G_OWN, self.G_SRC]
        state.probs[0] = [0.0, 1.0]
        own = SequenceDraws([0.1, 0.2, 0.3, 0.4, 0.5, 0.6][: 2 * terms] + [0.7])
        state.vel_rngs = [own, SequenceDraws([0.9] * 2 * terms)]
        _move_swarm(state, 0.5)
        assert state.last_source[0, 0] == 1
        assert next(own.values) == 0.7  # the row drew r1, r2 (and r3), nothing more
        return state.positions[0, 0], state.velocities[0, 0]

    def test_s1_terms_take_r1_r2_r3_in_order(self):
        x, v = self.move("samtpso-s1", 3)
        # w·v + r1·(pbest − x) + r2·(g_own − x) + r3·(g_src − x), per dimension
        expected = [0.1 + 0.1 * 0.1 + 0.3 * 0.2 + 0.5 * -0.1, -0.05 + 0.2 * -0.1 + 0.4 * -0.3 + 0.6 * 0.2]
        assert v == pytest.approx(expected, rel=1e-12)  # 0.12, -0.07
        assert x == pytest.approx([0.52, 0.53], rel=1e-12)

    def test_s2_terms_take_r1_r2_in_order(self):
        x, v = self.move("samtpso-s2", 2)
        # w·v + r1·(pbest − x) + r2·(g_src − x), per dimension
        expected = [0.1 + 0.1 * 0.1 + 0.3 * -0.1, -0.05 + 0.2 * -0.1 + 0.4 * 0.2]
        assert v == pytest.approx(expected, rel=1e-12)  # 0.08, 0.01
        assert x == pytest.approx([0.48, 0.61], rel=1e-12)


class TestS1SelfChoice:
    """A particle whose chosen source is its own task does no transfer: S1
    moves it with the three-term rule (c1, c2) and drops the c3 term, and S2
    steers it toward its own swarm best. A PSO cell's particles always pick
    their own task. Every row of the batch (``ALGORITHMS``, one per cell) is
    replayed from a copy of its velocity stream; the subclasses run the same
    checks on S2 and on an S2 cell next to a PSO cell."""

    ALGORITHMS = ("samtpso-s1",)

    def step_and_check(self, force_focus):
        """Step one generation, check each row's closed-form move, and return
        each row's (transfers, mask of particles that chose another task)."""
        configs = [
            RunConfig(algorithm=a, pop_per_task=40, seed=11 + c, max_gens=50, lp=30)
            for c, a in enumerate(self.ALGORITHMS)
        ]
        state = init_swarm([small_problem()] * len(configs), configs)
        for _ in range(4):
            run_generation(state)
        state.focus[:] = force_focus | ~state.transfer
        cfg, cells = state.config, state.cells
        gbest = state.gbest_pos.copy()
        before = [
            (state.positions[row].copy(), state.velocities[row].copy(), state.pbest_pos[row].copy(),
             copy.deepcopy(state.vel_rngs[row]))
            for row in range(len(gbest))
        ]
        run_generation(state)
        w = inertia_weight(state.generation, cfg.max_gens, cfg.w_start, cfg.w_end)
        masks = []
        for row, (x, v, pb, rng) in enumerate(before):
            t, c = divmod(row, cells)
            source = state.last_source[row]
            other = (source != t)[:, None]
            g_src = gbest[source * cells + c]
            if cfg.algorithm == "samtpso-s1":
                r1, r2, r3 = rng.random((3, *x.shape))
                expected = w * v + cfg.c1 * r1 * (pb - x) + cfg.c2 * r2 * (gbest[row] - x)
                expected += np.where(other, cfg.c3 * r3 * (g_src - x), 0.0)
            else:
                r1, r2 = rng.random((2, *x.shape))
                expected = w * v + cfg.c1 * r1 * (pb - x) + cfg.c2 * r2 * (g_src - x)
            exp_x = x + expected
            _bounce(exp_x, expected)
            assert np.allclose(state.velocities[row], expected, rtol=1e-12, atol=1e-15)
            assert np.allclose(state.positions[row], exp_x, rtol=1e-12, atol=1e-15)
            masks.append((state.transfer[row], other))
        return masks

    def test_focus_uses_three_term_rule(self):
        for _, other in self.step_and_check(force_focus=True):
            assert not other.any()

    def test_only_other_task_choices_carry_source_term(self):
        for transfers, other in self.step_and_check(force_focus=False):
            assert (other.any() and not other.all()) if transfers else not other.any()


class TestS2SelfChoice(TestS1SelfChoice):
    ALGORITHMS = ("samtpso-s2",)


class TestS2AndPsoBatchSelfChoice(TestS1SelfChoice):
    """Two cells (C = 2): the source gather stays within each cell."""

    ALGORITHMS = ("samtpso-s2", "pso")


def step(x, v):
    """x + v, bounced by ``_bounce`` on copies: returns the new (x, v) and
    whether any entry bounced."""
    x, v = np.asarray(x, dtype=float) + v, np.array(v, dtype=float)
    return x, v, _bounce(x, v)


class TestStackedEqualsPerTask:
    """The bounce on (K, N, D) arrays equals K per-task calls bit for bit."""

    K, N, D = 4, 7, 5

    def test_step_position_when_only_some_tasks_bounce(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = 0.25 + 0.5 * rng.random((self.K, self.N, self.D))
            v = rng.uniform(-0.5, 0.5, (self.K, self.N, self.D))
            v[::2] *= 0.4  # tasks 0 and 2 stay inside the box
            v[1, 0, 0] = 3.7
            x_all, v_all, any_bounced = step(x, v)
            bounced = []
            for t in range(self.K):
                x_t, v_t, bounced_t = step(x[t], v[t])
                assert np.array_equal(x_all[t], x_t) and np.array_equal(v_all[t], v_t)
                bounced.append(bounced_t)
            assert any_bounced and bounced[1] and not bounced[0] and not bounced[2]


class TestStepPosition:
    def test_interior_move_keeps_velocity(self):
        x, v, bounced = step([0.5], [0.2])
        assert x[0] == pytest.approx(0.7)
        assert v[0] == 0.2 and not bounced

    def test_overshoot_reflects_and_damps(self):
        x, v, bounced = step([0.9], [0.3])
        assert x[0] == pytest.approx(0.8)  # bounced off 1.0
        assert v[0] == pytest.approx(-0.15) and bounced

    def test_undershoot_reflects(self):
        x, v, bounced = step([0.1], [-0.3])
        assert x[0] == pytest.approx(0.2)
        assert v[0] == pytest.approx(0.15) and bounced

    def test_multi_width_overshoot_stays_inside(self):
        x, v, bounced = step([0.0], [3.7])
        assert x[0] == pytest.approx(0.3)
        assert 0.0 <= x[0] <= 1.0
        assert v[0] == pytest.approx(-1.85) and bounced

    def test_zero_velocity_is_noop(self):
        x, v, bounced = step([0.25, 0.75], np.zeros(2))
        assert np.array_equal(x, [0.25, 0.75])
        assert np.array_equal(v, [0.0, 0.0]) and not bounced

    def test_exact_boundary_landing_keeps_velocity(self):
        x, v, bounced = step([0.5], [0.5])
        assert x[0] == 1.0
        assert v[0] == 0.5 and not bounced

    def test_batch(self):
        rng = np.random.default_rng(5)
        x2, v2, bounced = step(rng.random((40, 7)), rng.uniform(-2, 2, (40, 7)))
        assert np.all(x2 >= 0.0) and np.all(x2 <= 1.0)
        assert bounced and np.all(np.abs(v2) <= 2.0)


class TestInitSwarm:
    def test_structure(self):
        state = init_swarm([small_problem()], [RunConfig(algorithm="samtpso-s1", pop_per_task=50, seed=3)])
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
        a = init_swarm([small_problem()], [cfg])
        b = init_swarm([small_problem()], [cfg])
        for t in range(2):
            assert np.array_equal(a.positions[t], b.positions[t])
            assert np.array_equal(a.pbest_fit[t], b.pbest_fit[t])

    def test_gbest_is_min_pbest(self):
        state = init_swarm([small_problem()], [RunConfig(algorithm="samtpso-s2", pop_per_task=30, seed=1)])
        for t in range(2):
            assert state.gbest_fit[t] == state.pbest_fit[t].min()
            assert state.gbest_fit[t] <= state.pbest_fit[t].min()

    def test_pbest_fitness_consistent(self):
        problem = small_problem()
        state = init_swarm([problem], [RunConfig(algorithm="samtpso-s1", pop_per_task=10, seed=2)])
        for t, task in enumerate(problem.tasks):
            for i in range(state.positions.shape[1]):
                ref = evaluate_task(state.pbest_pos[t, i], task)
                assert float(state.pbest_fit[t, i]) == pytest.approx(ref, rel=1e-12)


class TestEvaluateAndUpdate:
    def make_state(self, positions, pbest_fit, last_source, problem):
        """A swarm whose task 0 holds the given particles; the assertions
        read task 0's row."""
        cfg = RunConfig(algorithm="samtpso-s1", pop_per_task=len(positions), seed=0)
        state = init_swarm([problem], [cfg])
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
        ns, nf = state.mem.success_sums(), state.mem.failure_sums()  # the window holds this generation alone
        assert ns[0].sum() == 2
        assert nf[0].sum() == 1
        assert np.array_equal(ns[0], [1, 1])
        assert np.array_equal(nf[0], [0, 1])

    def test_tie_counts_as_failure(self):
        problem = small_problem()
        task = problem.tasks[0]
        positions = np.array([[0.2] * 5])
        fit = float(np.asarray(evaluate_task(positions, task))[0])
        state = self.make_state(positions, [fit], [0], problem)
        old_pbest = state.pbest_pos[0].copy()
        evaluate_and_update(state)
        ns, nf = state.mem.success_sums(), state.mem.failure_sums()
        assert ns[0].sum() == 0 and nf[0].sum() == 1
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
        state = init_swarm([small_problem()], [RunConfig(algorithm="pso", pop_per_task=10, seed=5, max_gens=30)])
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
        problem = MtoProblem((make_task("sphere", 6, 77),))
        result = run(problem, RunConfig(algorithm="samtpso-s2", pop_per_task=10, seed=2, max_gens=20))
        assert result.fev_trace.shape == (20, 1)

    def test_k1_s2_bit_identical_to_pso(self):
        problem = MtoProblem((make_task("sphere", 10, 31),))
        s2 = run(problem, RunConfig(algorithm="samtpso-s2", pop_per_task=20, seed=17, max_gens=50))
        pso = run(problem, RunConfig(algorithm="pso", pop_per_task=20, seed=17, max_gens=50))
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
    """A batch of cells of one swarm shape (K, N, D_u) whose configs differ
    only in seed, lp, bp and PSO against S2 equals each cell run on its
    own, bit for bit, whatever problem each cell has."""

    FUNCTIONS = ("sphere", "rosenbrock", "ackley", "rastrigin", "griewank", "weierstrass", "schwefel")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_cells_alone(self, data):
        k = data.draw(st.integers(1, 4), label="tasks")
        d_u = data.draw(st.integers(2, 7), label="unified dimension")

        def draw_problem():
            tasks = data.draw(
                st.lists(st.tuples(st.sampled_from(self.FUNCTIONS), st.integers(2, d_u)), min_size=k, max_size=k)
            )
            widest = data.draw(st.integers(0, k - 1))
            tasks[widest] = (tasks[widest][0], d_u)
            task_seed = data.draw(st.integers(0, 2**16))
            defs = tuple(make_task(fn, d, task_seed + i) for i, (fn, d) in enumerate(tasks))
            return MtoProblem(tasks=defs)

        problems = [draw_problem() for _ in range(data.draw(st.integers(1, 3), label="problems"))]
        family = data.draw(st.sampled_from([("samtpso-s1",), ("samtpso-s2", "pso")]))
        cells = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, len(problems) - 1),
                    st.sampled_from(family),
                    st.integers(0, 2**64 - 1),
                    st.integers(1, 6),
                    st.sampled_from([0.0, 0.001, 0.1]),
                ),
                min_size=1,
                max_size=5,
            ),
            label="cells",
        )
        # with one particle per task, a cell's rotations are (1, d) x (d, d)
        # products, which the BLAS may compute by another kernel than (N, d)
        n_s = data.draw(st.sampled_from([1, 6]), label="pop_per_task")
        batch = [problems[p] for p, *_ in cells]
        configs = [
            RunConfig(algorithm=algorithm, pop_per_task=n_s, max_gens=14, seed=seed, lp=lp, bp=bp)
            for _, algorithm, seed, lp, bp in cells
        ]
        unrecorded = run_batch(batch, configs, record_trace=False, record_counts=False)
        for problem, config, got, bare in zip(batch, configs, run_batch(batch, configs), unrecorded):
            alone = run(problem, config)
            assert got.seed == config.seed and got.algorithm == config.algorithm
            assert np.array_equal(got.fev_trace, alone.fev_trace)
            assert np.array_equal(got.best_positions, alone.best_positions)
            assert np.array_equal(got.best_fevs, got.fev_trace[-1])
            if config.algorithm == "pso":
                assert got.source_counts is None and alone.source_counts is None
            else:
                assert np.array_equal(got.source_counts, alone.source_counts)
            # recording nothing changes no draw: the same bests, bit for bit
            assert bare.fev_trace is None and bare.source_counts is None
            assert np.array_equal(bare.best_fevs, got.best_fevs)
            assert np.array_equal(bare.best_positions, got.best_positions)

    def test_batch_equals_cells_alone_on_the_generic_blas_kernel(self):
        """OpenBLAS's generic kernel gives a row of a product other bits in
        a product of more rows; a batch still equals each cell alone. The
        first batch has three cells on one 50-D problem; the second has S1
        cells on two problems in the order p1, p2, p1, whose 50-D Rastrigin
        tasks share one stacked rotation call over distinct rotations, and
        whose second tasks are 20-D Ackley (d < D_u). The variable acts
        only on the subprocess, and where the BLAS ignores it, this checks
        the host's kernel."""
        code = (
            "import numpy as np\n"
            "from mtpso.benchmarks import make_task\n"
            "from mtpso.core import MtoProblem, RunConfig\n"
            "from mtpso.optimizer import run, run_batch\n"
            "problem = MtoProblem((make_task('rastrigin', 50, 1), make_task('ackley', 50, 2)))\n"
            "p1 = MtoProblem((make_task('rastrigin', 50, 3), make_task('ackley', 20, 4)))\n"
            "p2 = MtoProblem((make_task('rastrigin', 50, 5), make_task('ackley', 20, 6)))\n"
            "batches = [\n"
            "    ([problem] * 3, [RunConfig(algorithm='samtpso-s2', max_gens=20, seed=s) for s in (1, 2, 3)]),\n"
            "    ([p1, p2, p1], [RunConfig(algorithm='samtpso-s1', max_gens=20, seed=s) for s in (4, 5, 6)]),\n"
            "]\n"
            "for problems, configs in batches:\n"
            "    for problem, config, got in zip(problems, configs, run_batch(problems, configs)):\n"
            "        alone = run(problem, config)\n"
            "        print(np.array_equal(got.fev_trace, alone.fev_trace)\n"
            "              and np.array_equal(got.best_positions, alone.best_positions))\n"
        )
        src = Path(optimizer.__file__).resolve().parent.parent
        env = {
            **os.environ,
            "OPENBLAS_CORETYPE": "Prescott",
            "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]),
        }
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["True"] * 6

    def test_configs_must_differ_only_in_seed_lp_bp(self):
        base = RunConfig(pop_per_task=4, max_gens=3)
        with pytest.raises(ValueError, match="seed, lp and bp"):
            init_swarm([small_problem()] * 2, [base, replace(base, c1=1.0)])
        with pytest.raises(ValueError, match="seed, lp and bp"):
            init_swarm([], [])

    def test_one_problem_per_config(self):
        base = RunConfig(pop_per_task=4, max_gens=3)
        with pytest.raises(ValueError, match="2 configs needs 2 problems, got 1"):
            init_swarm([small_problem()], [base, replace(base, seed=1)])
        with pytest.raises(ValueError, match="2 configs needs 2 problems, got 3"):
            run_batch([small_problem()] * 3, [base, replace(base, seed=1)])

    @pytest.mark.parametrize(
        "other",
        [
            MtoProblem((make_task("sphere", 5, 7),)),  # K = 1
            MtoProblem((make_task("sphere", 6, 7), make_task("rastrigin", 5, 8))),  # D_u = 6
        ],
        ids=["task count", "unified dimension"],
    )
    def test_cells_must_share_task_count_and_unified_dimension(self, other):
        base = RunConfig(pop_per_task=4, max_gens=3)
        with pytest.raises(ValueError, match="same task count and unified dimension"):
            init_swarm([small_problem(), other], [base, replace(base, seed=1)])

    def test_rows_are_task_major(self):
        base = RunConfig(pop_per_task=4, max_gens=3)
        configs = [replace(base, seed=s) for s in (1, 2, 3)]
        state = init_swarm([small_problem()] * 3, configs)
        assert state.positions.shape == (6, 4, 5)
        assert adaptation.row_tasks(6, 2).tolist() == [0, 0, 0, 1, 1, 1]
        assert state.last_source[:, 0].tolist() == [0, 0, 0, 1, 1, 1]
        for c, config in enumerate(configs):
            alone = init_swarm([small_problem()], [config])
            assert np.array_equal(state.positions[c::3], alone.positions)
            assert np.array_equal(state.pbest_fit[c::3], alone.pbest_fit)


class TestEvaluate:
    def test_equals_evaluate_task_per_group(self):
        """The one-pass decode and each group's stacked rotation give every
        cell's rows the values ``evaluate_task`` gives for that cell's rows
        alone: cells 0 and 1 share a problem; task 1 has d < D_u; the three
        cells' task 0 form one (base function, dimension) group over two
        problems' rotations, and the problems' task 1 form two more."""
        n, d_u = 60, 50
        first = MtoProblem(tasks=(make_task("ackley", d_u, 1), make_task("rastrigin", 20, 2)))
        second = MtoProblem(tasks=(make_task("ackley", d_u, 3), make_task("weierstrass", 7, 4)))
        problems = (first, first, second)
        positions = np.random.default_rng(8).random((2 * len(problems), n, d_u))
        plan = _evaluation_plan(problems)
        assert [plan.order[group.at].tolist() for group in plan.groups] == [[0, 1, 2], [3, 4], [5]]
        fit = _evaluate(plan, problems, positions, np.empty_like(positions), np.empty_like(positions))
        for t in range(2):
            for c, problem in enumerate(problems):
                row = t * len(problems) + c
                assert np.array_equal(fit[row], evaluate_task(positions[row], problem.tasks[t]))


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
