"""Generation loops for the multi-task swarm and the plain PSO baseline.

A run keeps one subpopulation per task in the shared unified space. Each
generation every particle picks a knowledge source (another task or its
own), moves using that source's best-known position, is re-evaluated on
its own task, and the per-source success/failure tallies feed the source
probabilities once the learning period has filled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import adaptation
from .adaptation import MemoryWindow
from .core import MtoProblem, RunConfig, TaskDef, evaluate_task


class NonFiniteFitnessError(FloatingPointError):
    """A task function returned NaN or an infinity."""


@dataclass(frozen=True)
class _SingleTask:
    """Degenerate one-task wrapper so a bare TaskDef can be optimized."""

    tasks: tuple[TaskDef, ...]
    unified_dim: int

    @property
    def num_tasks(self) -> int:
        return 1


def _as_problem(problem: MtoProblem | TaskDef):
    if isinstance(problem, TaskDef):
        return _SingleTask(tasks=(problem,), unified_dim=problem.dim)
    return problem


@dataclass
class SwarmState:
    """The K subpopulations of each of C cells, stacked task-major.

    A batch is a set of runs (cells) on one problem whose configs differ
    only in ``seed``, ``lp`` and ``bp`` (:func:`batch_key`). Row t·C + c
    belongs to cell c's task t, so a task's C·N particles are one
    contiguous block; with C = 1, row t is task t.

    Positions, velocities and pbest positions have shape (K·C, N, D_u);
    pbest fitness and each particle's last chosen source task (K·C, N); the
    swarm bests (K·C, D_u) and (K·C,). A row's source probabilities are its
    row of ``probs`` (K·C, K) and its focus flag ``focus[row]``; ``mem`` is
    the (K·C, K) success/failure window with each row's cell's lp, and
    ``bp`` (K·C,) each row's floor. Each row draws from its own
    ``select_rngs[row]`` and ``vel_rngs[row]`` streams, cell c's task-t
    streams, into ``picks[row]`` and ``draws[row]``.
    """

    problem: MtoProblem
    configs: tuple[RunConfig, ...]
    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_fit: np.ndarray
    last_source: np.ndarray
    gbest_pos: np.ndarray
    gbest_fit: np.ndarray
    probs: np.ndarray
    focus: np.ndarray
    mem: MemoryWindow
    bp: np.ndarray
    select_rngs: list[np.random.Generator]
    vel_rngs: list[np.random.Generator]
    picks: np.ndarray  # (K·C, N) roulette draws
    draws: np.ndarray  # (K·C, 2 or 3, N, D_u): r1, r2 (and r3 for S1)
    generation: int = 1

    @property
    def config(self) -> RunConfig:
        """The parameters every cell shares (all but seed, lp and bp)."""
        return self.configs[0]

    @property
    def cells(self) -> int:
        return len(self.configs)


@dataclass
class RunResult:
    """Everything one run produces.

    ``fev_trace[g-1, t]`` is task t's best error value at generation g
    (generation 1 is the evaluated initial population). ``source_counts``
    is None for the plain PSO baseline; otherwise ``source_counts[j, t, k]``
    counts task t's particles that chose source k in generation j+2, in the
    smallest unsigned integer type that holds ``pop_per_task``.
    """

    algorithm: str
    seed: int
    pop_per_task: int
    fev_trace: np.ndarray
    source_counts: np.ndarray | None
    best_positions: np.ndarray
    best_fevs: np.ndarray


def inertia_weight(g: int, max_gens: int, w_start: float, w_end: float) -> float:
    """Linearly decreasing inertia over the run."""
    if max_gens == 1:
        return w_start
    return w_start - (w_start - w_end) * (g - 1) / (max_gens - 1)


def velocity_s1(v, x, pbest, gbest_own, gbest_src, w, c1, c2, c3, r1, r2, r3):
    """Four-term update: inertia, cognition, own swarm best, source best.

    The source term transfers knowledge from another task. A particle whose
    chosen source is its own task (including every particle under focus
    search) does no transfer, so the caller passes ``c3 = 0`` for it and
    the rule reduces to the three-term move with ``c1`` and ``c2``; ``c3``
    may be an array of per-particle coefficients of shape (N, 1) or (K, N, 1).
    """
    return (
        w * v
        + c1 * r1 * (pbest - x)
        + c2 * r2 * (gbest_own - x)
        + c3 * r3 * (gbest_src - x)
    )


def velocity_s2(v, x, pbest, gbest_src, w, c1, c2, r1, r2):
    """Three-term update with the chosen source's best in the social term.
    With the particle's own swarm best as the source it is the classic PSO
    update, which the no-transfer baseline uses."""
    return w * v + c1 * r1 * (pbest - x) + c2 * r2 * (gbest_src - x)


BOUNCE_DAMPING = 0.5


def step_position(x, v):
    """Move within [0, 1]: positions that would leave the box are reflected
    off the walls and their velocity is reversed and damped.

    Hard clamping (zeroed velocity at the wall) collapses the swarm long
    before the inertia schedule ends and stalls convergence by orders of
    magnitude; a damped bounce keeps the box invariant without the stall.
    ``x`` and ``v`` are arrays of one shape; ``v`` itself is returned when
    nothing bounces. Only the leaving entries are folded back (``np.mod``
    is slow).
    """
    moved = x + v
    out = np.flatnonzero((moved < 0.0) | (moved > 1.0))
    if out.size == 0:
        return moved, v
    flat = moved.reshape(-1)
    folded = np.mod(flat[out], 2.0)
    flat[out] = np.where(folded > 1.0, 2.0 - folded, folded)
    velocity = v.copy()
    flat_v = velocity.reshape(-1)
    flat_v[out] = -BOUNCE_DAMPING * flat_v[out]
    return moved, velocity


def batch_key(config: RunConfig) -> RunConfig:
    """What the cells of one batch share: the config without seed, lp and bp."""
    return replace(config, seed=0, lp=1, bp=0.0)


def _evaluate(problem, positions: np.ndarray, cells: int) -> np.ndarray:
    """Fitness of the stacked positions, one call per task over its C·N
    rows; a NaN or infinite value is an error."""
    k = problem.num_tasks
    rows, n_s, d_u = positions.shape
    by_task = positions.reshape(k, cells * n_s, d_u)
    fit = np.empty((k, cells * n_s))
    for t, task in enumerate(problem.tasks):
        fit[t] = evaluate_task(by_task[t], task)
    if not np.isfinite(fit).all():
        t = int(np.flatnonzero(~np.isfinite(fit).all(axis=1))[0])
        raise NonFiniteFitnessError(
            f"task index {t} (base function {problem.tasks[t].base_fn!r}) gave a non-finite fitness"
        )
    return fit.reshape(rows, n_s)


def init_swarm(problem: MtoProblem | TaskDef, configs: RunConfig | Sequence[RunConfig]) -> SwarmState:
    """Uniform random positions, zero velocities, memories empty, uniform
    source probabilities; every subpopulation evaluated on its own task.

    ``configs`` is one run's config or a batch of configs that differ only
    in seed, lp and bp. Each cell's task t seeds its streams from
    ``SeedSequence(seed).spawn(K)[t]``, as a run of its own would. Accepts
    a bare TaskDef for degenerate single-task (K=1) runs."""
    problem = _as_problem(problem)
    configs = (configs,) if isinstance(configs, RunConfig) else tuple(configs)
    if not configs or any(batch_key(c) != batch_key(configs[0]) for c in configs):
        raise ValueError("the configs of a batch must differ only in seed, lp and bp")
    k, cells = problem.num_tasks, len(configs)
    rows = k * cells
    n_s = configs[0].pop_per_task
    d_u = problem.unified_dim
    positions = np.empty((rows, n_s, d_u))
    select_rngs: list = [None] * rows
    vel_rngs: list = [None] * rows
    for c, config in enumerate(configs):
        for t, task_ss in enumerate(np.random.SeedSequence(config.seed).spawn(k)):
            init_ss, select_ss, vel_ss = task_ss.spawn(3)
            row = t * cells + c
            np.random.default_rng(init_ss).random(out=positions[row])
            select_rngs[row] = np.random.default_rng(select_ss)
            vel_rngs[row] = np.random.default_rng(vel_ss)
    fit = _evaluate(problem, positions, cells)
    best = np.argmin(fit, axis=1)
    n_draws = 3 if configs[0].algorithm == "samtpso-s1" else 2
    return SwarmState(
        problem=problem,
        configs=configs,
        positions=positions,
        velocities=np.zeros((rows, n_s, d_u)),
        pbest_pos=positions.copy(),
        pbest_fit=fit,
        last_source=np.repeat(adaptation.row_tasks(rows, k)[:, None], n_s, axis=1),
        gbest_pos=positions[np.arange(rows), best],
        gbest_fit=fit[np.arange(rows), best],
        probs=np.full((rows, k), 1.0 / k),
        focus=np.zeros(rows, dtype=bool),
        mem=MemoryWindow(np.tile([c.lp for c in configs], k), k, rows=rows),
        bp=np.tile([float(c.bp) for c in configs], k),
        select_rngs=select_rngs,
        vel_rngs=vel_rngs,
        picks=np.empty((rows, n_s)),
        draws=np.empty((rows, n_draws, n_s, d_u)),
    )


def _move_swarm(state: SwarmState, w: float) -> None:
    """Choose every particle's source and take one velocity and bounce step
    for all rows at once; only the random draws are made row by row."""
    config = state.config
    if config.algorithm != "pso":
        for row in np.flatnonzero(~state.focus):
            state.select_rngs[row].random(out=state.picks[row])
        state.last_source = adaptation.choose_sources(state.probs, state.focus, state.picks)
    for row, rng in enumerate(state.vel_rngs):
        rng.random(out=state.draws[row])
    r = state.draws
    x, v, pb = state.positions, state.velocities, state.pbest_pos
    g_own = state.gbest_pos[:, None, :]
    if config.algorithm == "pso":
        g_src = g_own
    else:
        src = state.last_source
        if state.cells > 1:  # the source task's row in the same cell
            src = src * state.cells + (np.arange(len(src)) % state.cells)[:, None]
        g_src = state.gbest_pos[src]
    if config.algorithm == "samtpso-s1":
        own = adaptation.row_tasks(len(x), state.problem.num_tasks)[:, None]
        c3 = np.where(state.last_source == own, 0.0, config.c3)[..., None]
        v_new = velocity_s1(
            v, x, pb, g_own, g_src, w, config.c1, config.c2, c3, r[:, 0], r[:, 1], r[:, 2]
        )
    else:
        v_new = velocity_s2(v, x, pb, g_src, w, config.c1, config.c2, r[:, 0], r[:, 1])
    state.positions, state.velocities = step_position(x, v_new)


def evaluate_and_update(state: SwarmState, record_outcomes: bool = True) -> np.ndarray | None:
    """Evaluate every moved particle on its own task, refresh pbest/gbest
    (strict improvement only), and tally outcomes against each particle's
    chosen source. Returns the (K·C, K) source-choice counts when tallying."""
    fitness = _evaluate(state.problem, state.positions, state.cells)
    improved = fitness < state.pbest_fit
    state.pbest_pos[improved] = state.positions[improved]
    state.pbest_fit[improved] = fitness[improved]
    # each row's first best improved particle, if it beats the swarm best
    cand = np.where(improved, fitness, np.inf)
    rows = np.arange(len(cand))
    j = np.argmin(cand, axis=1)
    best = cand[rows, j]
    better = best < state.gbest_fit
    state.gbest_pos[better] = state.positions[rows[better], j[better]]
    state.gbest_fit[better] = best[better]
    if not record_outcomes:
        return None
    k = state.problem.num_tasks
    flat = (rows[:, None] * k + state.last_source).ravel()
    counts = np.bincount(flat, minlength=len(rows) * k).reshape(-1, k)
    ns = np.bincount(flat[improved.ravel()], minlength=len(rows) * k).reshape(-1, k)
    state.mem.record_counts(ns, counts - ns)
    state.mem.commit_generation()
    return counts


def run_generation(state: SwarmState) -> np.ndarray | None:
    """Advance one generation; returns the (K·C, K) source-choice counts,
    or None for the baseline. A row's probabilities and focus flag follow
    its window from the generation after its learning period on."""
    state.generation += 1
    config = state.config
    adaptive = config.algorithm != "pso"
    w = inertia_weight(state.generation, config.max_gens, config.w_start, config.w_end)
    _move_swarm(state, w)
    counts = evaluate_and_update(state, record_outcomes=adaptive)
    ready = state.generation > state.mem.lp
    if adaptive and ready.any():
        probs = adaptation.update_probabilities(state.mem, state.bp, config.eps)
        state.probs = np.where(ready[:, None], probs, state.probs)
        state.focus = ready & adaptation.focus_flags(state.mem)
    return counts


def run_batch(
    problem: MtoProblem | TaskDef, configs: Sequence[RunConfig], observer=None
) -> list[RunResult]:
    """Execute the runs of a batch (configs that differ only in seed, lp and
    bp) side by side for ``max_gens`` generations; one RunResult per
    config, each equal bit for bit to that config's run on its own.

    ``observer(state)``, when given, is called after the initial evaluation
    and after every generation; useful for invariant checks.
    """
    problem = _as_problem(problem)
    state = init_swarm(problem, configs)
    k, cells = problem.num_tasks, state.cells
    gens = state.config.max_gens
    adaptive = state.config.algorithm != "pso"
    optimum = np.repeat([task.optimum_value for task in problem.tasks], cells)
    # cell-major, so that each cell's trace and counts are contiguous; a
    # count is at most pop_per_task, which sets the counts' integer type
    trace = np.empty((cells, gens, k))
    trace[:, 0] = (state.gbest_fit - optimum).reshape(k, cells).T
    count_type = np.min_scalar_type(state.config.pop_per_task)
    counts_hist = np.zeros((cells, gens - 1, k, k), dtype=count_type) if adaptive else None
    if observer is not None:
        observer(state)
    while state.generation < gens:
        counts = run_generation(state)
        g = state.generation
        trace[:, g - 1] = (state.gbest_fit - optimum).reshape(k, cells).T
        if counts is not None:
            counts_hist[:, g - 2] = counts.reshape(k, cells, k).transpose(1, 0, 2)
        if observer is not None:
            observer(state)
    return [
        RunResult(
            algorithm=config.algorithm,
            seed=config.seed,
            pop_per_task=config.pop_per_task,
            fev_trace=trace[c],
            source_counts=None if counts_hist is None else counts_hist[c],
            best_positions=state.gbest_pos[c::cells].copy(),
            best_fevs=trace[c, -1].copy(),
        )
        for c, config in enumerate(state.configs)
    ]


def run(problem: MtoProblem | TaskDef, config: RunConfig, observer=None) -> RunResult:
    """Execute one full run of ``config.max_gens`` generations: a batch of
    one (see :func:`run_batch`)."""
    return run_batch(problem, (config,), observer)[0]
