"""Generation loops for the multi-task swarm and the plain PSO baseline.

A run keeps one subpopulation per task in the shared unified space. Each
generation every particle picks a knowledge source (another task or its
own), moves using that source's best-known position, is re-evaluated on
its own task, and the per-source success/failure tallies feed the source
probabilities once the learning period has filled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adaptation
from .adaptation import MemoryWindow
from .core import MtoProblem, RunConfig, TaskDef, evaluate_task


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
    """All K subpopulations of a run, stacked along the first axis.

    Positions, velocities and pbest positions have shape (K, N, D_u); pbest
    fitness and each particle's last chosen source (K, N); the swarm bests
    (K, D_u) and (K,). Row t of ``probs`` (K, K) holds task t's source
    probabilities and ``focus[t]`` its focus flag; ``mem`` is the (K, K)
    success/failure window. Task t draws from its own ``select_rngs[t]``
    and ``vel_rngs[t]`` streams, into ``picks[t]`` and ``draws[t]``.
    """

    problem: MtoProblem
    config: RunConfig
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
    select_rngs: list[np.random.Generator]
    vel_rngs: list[np.random.Generator]
    picks: np.ndarray  # (K, N) roulette draws
    draws: np.ndarray  # (K, 2 or 3, N, D_u): r1, r2 (and r3 for S1)
    generation: int = 1


@dataclass
class RunResult:
    """Everything one run produces.

    ``fev_trace[g-1, t]`` is task t's best error value at generation g
    (generation 1 is the evaluated initial population). ``source_counts``
    is None for the plain PSO baseline; otherwise ``source_counts[j, t, k]``
    counts task t's particles that chose source k in generation j+2.
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


def init_swarm(problem: MtoProblem | TaskDef, config: RunConfig) -> SwarmState:
    """Uniform random positions, zero velocities, memories empty, uniform
    source probabilities; every subpopulation evaluated on its own task.

    Accepts a bare TaskDef for degenerate single-task (K=1) runs."""
    problem = _as_problem(problem)
    k = problem.num_tasks
    n_s = config.pop_per_task
    d_u = problem.unified_dim
    positions = np.empty((k, n_s, d_u))
    fit = np.empty((k, n_s))
    select_rngs, vel_rngs = [], []
    for t, task_ss in enumerate(np.random.SeedSequence(config.seed).spawn(k)):
        init_ss, select_ss, vel_ss = task_ss.spawn(3)
        np.random.default_rng(init_ss).random(out=positions[t])
        fit[t] = evaluate_task(positions[t], problem.tasks[t])
        select_rngs.append(np.random.default_rng(select_ss))
        vel_rngs.append(np.random.default_rng(vel_ss))
    tasks = np.arange(k)
    best = np.argmin(fit, axis=1)
    n_draws = 3 if config.algorithm == "samtpso-s1" else 2
    return SwarmState(
        problem=problem,
        config=config,
        positions=positions,
        velocities=np.zeros((k, n_s, d_u)),
        pbest_pos=positions.copy(),
        pbest_fit=fit,
        last_source=np.repeat(tasks[:, None], n_s, axis=1),
        gbest_pos=positions[tasks, best],
        gbest_fit=fit[tasks, best],
        probs=np.full((k, k), 1.0 / k),
        focus=np.zeros(k, dtype=bool),
        mem=MemoryWindow(config.lp, k, rows=k),
        select_rngs=select_rngs,
        vel_rngs=vel_rngs,
        picks=np.empty((k, n_s)),
        draws=np.empty((k, n_draws, n_s, d_u)),
    )


def _move_swarm(state: SwarmState, w: float) -> None:
    """Choose every particle's source and take one velocity and bounce step
    for all tasks at once; only the random draws are made task by task."""
    config = state.config
    if config.algorithm != "pso":
        for t in np.flatnonzero(~state.focus):
            state.select_rngs[t].random(out=state.picks[t])
        state.last_source = adaptation.choose_sources(state.probs, state.focus, state.picks)
    for t, rng in enumerate(state.vel_rngs):
        rng.random(out=state.draws[t])
    r = state.draws
    x, v, pb = state.positions, state.velocities, state.pbest_pos
    g_own = state.gbest_pos[:, None, :]
    g_src = g_own if config.algorithm == "pso" else state.gbest_pos[state.last_source]
    if config.algorithm == "samtpso-s1":
        own = np.arange(len(g_own))[:, None]
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
    chosen source. Returns the (K, K) source-choice counts when tallying."""
    fitness = np.empty_like(state.pbest_fit)
    for t, task in enumerate(state.problem.tasks):
        fitness[t] = evaluate_task(state.positions[t], task)
    improved = fitness < state.pbest_fit
    state.pbest_pos[improved] = state.positions[improved]
    state.pbest_fit[improved] = fitness[improved]
    # each task's first best improved particle, if it beats the swarm best
    cand = np.where(improved, fitness, np.inf)
    tasks = np.arange(len(cand))
    j = np.argmin(cand, axis=1)
    best = cand[tasks, j]
    better = best < state.gbest_fit
    state.gbest_pos[better] = state.positions[tasks[better], j[better]]
    state.gbest_fit[better] = best[better]
    if not record_outcomes:
        return None
    k = len(tasks)
    flat = (tasks[:, None] * k + state.last_source).ravel()
    counts = np.bincount(flat, minlength=k * k).reshape(k, k)
    ns = np.bincount(flat[improved.ravel()], minlength=k * k).reshape(k, k)
    state.mem.record_counts(ns, counts - ns)
    state.mem.commit_generation()
    return counts


def run_generation(state: SwarmState) -> np.ndarray | None:
    """Advance one generation; returns the (K, K) source-choice counts, or
    None for the baseline."""
    state.generation += 1
    config = state.config
    adaptive = config.algorithm != "pso"
    w = inertia_weight(state.generation, config.max_gens, config.w_start, config.w_end)
    _move_swarm(state, w)
    counts = evaluate_and_update(state, record_outcomes=adaptive)
    if adaptive and state.generation > config.lp:
        state.probs = adaptation.update_probabilities(state.mem, config.bp, config.eps)
        state.focus = adaptation.focus_flags(state.mem)
        state.mem.evict_oldest()
    return counts


def run(problem: MtoProblem | TaskDef, config: RunConfig, observer=None) -> RunResult:
    """Execute one full run of ``config.max_gens`` generations.

    ``observer(state)``, when given, is called after the initial evaluation
    and after every generation; useful for invariant checks.
    """
    problem = _as_problem(problem)
    state = init_swarm(problem, config)
    k = problem.num_tasks
    gens = config.max_gens
    adaptive = config.algorithm != "pso"
    optimum = np.array([task.optimum_value for task in problem.tasks])
    trace = np.empty((gens, k))
    trace[0] = state.gbest_fit - optimum
    counts_hist = np.zeros((gens - 1, k, k), dtype=np.int64) if adaptive else None
    if observer is not None:
        observer(state)
    while state.generation < gens:
        counts = run_generation(state)
        g = state.generation
        trace[g - 1] = state.gbest_fit - optimum
        if counts is not None:
            counts_hist[g - 2] = counts
        if observer is not None:
            observer(state)
    return RunResult(
        algorithm=config.algorithm,
        seed=config.seed,
        pop_per_task=config.pop_per_task,
        fev_trace=trace,
        source_counts=counts_hist,
        best_positions=state.gbest_pos.copy(),
        best_fevs=trace[-1].copy(),
    )
