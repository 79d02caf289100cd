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

from . import adaptation, benchmarks
from .adaptation import MemoryWindow
from .core import MtoProblem, RunConfig, TaskDef, task_frame


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


# One problem for every cell of a batch, or a sequence of one per cell.
Problems = MtoProblem | TaskDef | Sequence[MtoProblem | TaskDef]


def _as_problem(problem: MtoProblem | TaskDef):
    if isinstance(problem, TaskDef):
        return _SingleTask(tasks=(problem,), unified_dim=problem.dim)
    return problem


@dataclass
class SwarmState:
    """The K subpopulations of each of C cells, stacked task-major.

    A batch is a set of runs (cells) of one swarm shape, equal K, N and
    D_u, whose configs differ only in ``seed``, ``lp``, ``bp`` and PSO
    against S2 (:func:`batch_key`); each cell has its own problem. Row
    t·C + c belongs to cell c's task t, so a task index's C·N particles are
    one contiguous block; with C = 1, row t is task t.

    Positions, velocities and pbest positions have shape (K·C, N, D_u);
    pbest fitness and each particle's last chosen source task (K·C, N); the
    swarm bests (K·C, D_u) and (K·C,). A row's source probabilities are its
    row of ``probs`` (K·C, K) and its focus flag ``focus[row]``; ``mem`` is
    the (K·C, K) success/failure window with each row's cell's lp, and
    ``bp`` (K·C,) each row's floor. ``transfer[row]`` is False for the rows
    of a no-transfer (PSO) cell, which stay in focus search. Each row draws
    from its own ``select_rngs[row]`` and ``vel_rngs[row]`` streams, cell
    c's task-t streams, into ``picks[row]`` and ``draws[row]``.
    """

    problems: tuple[MtoProblem, ...]
    configs: tuple[RunConfig, ...]
    config: RunConfig  # what every cell shares: batch_key(configs[0])
    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_fit: np.ndarray
    last_source: np.ndarray
    gbest_pos: np.ndarray
    gbest_fit: np.ndarray
    probs: np.ndarray
    focus: np.ndarray
    transfer: np.ndarray
    mem: MemoryWindow
    bp: np.ndarray
    select_rngs: list[np.random.Generator]
    vel_rngs: list[np.random.Generator]
    picks: np.ndarray  # (K·C, N) roulette draws
    draws: np.ndarray  # (K·C, 2 or 3, N, D_u): r1, r2 (and r3 for S1)
    term: np.ndarray  # (K·C, N, D_u) scratch for one velocity term
    plan: list[_Group]
    generation: int = 1

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


BOUNCE_DAMPING = 0.5


def _bounce(x, v) -> bool:
    """Reflect the entries of moved positions ``x`` that left [0, 1] off
    the walls and reverse and damp ``v`` there, both in place; returns
    whether any entry bounced. Only the leaving entries are folded back
    (``np.mod`` is slow).

    Hard clamping (zeroed velocity at the wall) collapses the swarm long
    before the inertia schedule ends and stalls convergence by orders of
    magnitude; a damped bounce keeps the box invariant without the stall.
    """
    out = np.flatnonzero((x < 0.0) | (x > 1.0))
    if out.size == 0:
        return False
    flat = x.reshape(-1)
    folded = np.mod(flat[out], 2.0)
    flat[out] = np.where(folded > 1.0, 2.0 - folded, folded)
    flat_v = v.reshape(-1)
    flat_v[out] = -BOUNCE_DAMPING * flat_v[out]
    return True


# Algorithms that step by another's rule with transfer switched off: the
# PSO baseline is S2 whose rows stay in focus search, so that they always
# pick their own task and the source best is their own swarm best.
NO_TRANSFER = {"pso": "samtpso-s2"}


def batch_key(config: RunConfig) -> RunConfig:
    """What the cells of one batch share: the config without seed, lp and
    bp, and with the rule it steps by in place of a no-transfer algorithm."""
    algorithm = NO_TRANSFER.get(config.algorithm, config.algorithm)
    return replace(config, algorithm=algorithm, seed=0, lp=1, bp=0.0)


@dataclass
class _Group:
    """Segments of the stacked swarm on one base function and task
    dimension, evaluated by one ``task_eval`` call over ``frame``."""

    base_fn: str
    frame: np.ndarray  # (particles, d) task-frame coordinates, reused
    segments: list[tuple[slice, TaskDef, slice]]  # swarm particles, task, frame rows


def _evaluation_plan(problems: tuple, n_s: int) -> list[_Group]:
    """A segment is one task index over a run of adjacent cells on the same
    problem: the particles of rows t·C + c0 to t·C + c1, in the flattened
    (K·C·N, D_u) positions. Segments are grouped by (base function, task
    dimension)."""
    cells = len(problems)
    starts = [c for c in range(cells) if c == 0 or problems[c] is not problems[c - 1]]
    groups: dict = {}
    for t in range(problems[0].num_tasks):
        for c0, c1 in zip(starts, starts[1:] + [cells]):
            task = problems[c0].tasks[t]
            segments = groups.setdefault((task.base_fn, task.dim), [])
            at = segments[-1][2].stop if segments else 0
            particles = slice((t * cells + c0) * n_s, (t * cells + c1) * n_s)
            segments.append((particles, task, slice(at, at + (c1 - c0) * n_s)))
    return [_Group(fn, np.empty((segs[-1][2].stop, d)), segs) for (fn, d), segs in groups.items()]


def _evaluate(plan: list[_Group], problems: tuple, positions: np.ndarray) -> np.ndarray:
    """Fitness of the stacked positions, one ``task_eval`` call per group of
    the plan; a NaN or infinite value is an error."""
    rows, n_s, d_u = positions.shape
    x = positions.reshape(-1, d_u)
    fit = np.empty(rows * n_s)
    for group in plan:
        for particles, task, at in group.segments:
            task_frame(x[particles], task, out=group.frame[at])
        values = benchmarks.task_eval(group.base_fn, group.frame)
        for particles, _, at in group.segments:
            fit[particles] = values[at]
    if not np.isfinite(fit).all():
        t, c = divmod(int(np.flatnonzero(~np.isfinite(fit))[0]) // n_s, len(problems))
        raise NonFiniteFitnessError(
            f"task index {t} (base function {problems[c].tasks[t].base_fn!r}) gave a non-finite fitness"
        )
    return fit.reshape(rows, n_s)


def _per_cell(problems: Problems, cells: int) -> tuple:
    """One problem per cell: a sequence of one per cell, or one for all."""
    if not isinstance(problems, (list, tuple)):
        return (_as_problem(problems),) * cells
    if len(problems) != cells:
        raise ValueError(f"a batch of {cells} configs needs {cells} problems, got {len(problems)}")
    return tuple(_as_problem(p) for p in problems)


def init_swarm(problems: Problems, configs: RunConfig | Sequence[RunConfig]) -> SwarmState:
    """Uniform random positions, zero velocities, memories empty, uniform
    source probabilities; every subpopulation evaluated on its own task.

    ``configs`` is one run's config or a batch of configs that differ only
    in seed, lp, bp and PSO against S2, and ``problems`` one problem for
    every cell or a sequence of one per cell, all with the same K and D_u.
    Each cell's task t seeds its streams from ``SeedSequence(seed).spawn(K)[t]``,
    as a run of its own would. Accepts a bare TaskDef for degenerate
    single-task (K=1) runs."""
    configs = (configs,) if isinstance(configs, RunConfig) else tuple(configs)
    if not configs or any(batch_key(c) != batch_key(configs[0]) for c in configs):
        raise ValueError("the configs of a batch must differ only in seed, lp and bp (and PSO against S2)")
    problems = _per_cell(problems, len(configs))
    k, d_u = problems[0].num_tasks, problems[0].unified_dim
    if any(p.num_tasks != k or p.unified_dim != d_u for p in problems):
        raise ValueError("the problems of a batch must have the same task count and unified dimension")
    cells = len(configs)
    rows = k * cells
    n_s = configs[0].pop_per_task
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
    plan = _evaluation_plan(problems, n_s)
    fit = _evaluate(plan, problems, positions)
    best = np.argmin(fit, axis=1)
    shared = batch_key(configs[0])
    transfer = np.tile([c.algorithm not in NO_TRANSFER for c in configs], k)
    n_draws = 3 if shared.algorithm == "samtpso-s1" else 2
    return SwarmState(
        problems=problems,
        configs=configs,
        config=shared,
        positions=positions,
        velocities=np.zeros((rows, n_s, d_u)),
        pbest_pos=positions.copy(),
        pbest_fit=fit,
        last_source=np.repeat(adaptation.row_tasks(rows, k)[:, None], n_s, axis=1),
        gbest_pos=positions[np.arange(rows), best],
        gbest_fit=fit[np.arange(rows), best],
        probs=np.full((rows, k), 1.0 / k),
        focus=~transfer,
        transfer=transfer,
        mem=MemoryWindow(np.tile([c.lp for c in configs], k), k, rows=rows),
        bp=np.tile([float(c.bp) for c in configs], k),
        select_rngs=select_rngs,
        vel_rngs=vel_rngs,
        picks=np.empty((rows, n_s)),
        draws=np.empty((rows, n_draws, n_s, d_u)),
        term=np.empty((rows, n_s, d_u)),
        plan=plan,
    )


def _add_term(v, term, coeff, draw) -> None:
    """v += (coeff * draw) * term, in place; ``draw`` and ``term`` are
    overwritten."""
    draw *= coeff
    term *= draw
    v += term


def _move_swarm(state: SwarmState, w: float) -> None:
    """Choose every particle's source and take one velocity and bounce step
    for all rows at once, in place; only the random draws are made row by
    row.

    With draws r1, r2, r3 uniform on [0, 1) per particle and dimension, own
    swarm best g and chosen source's best g_s, S2 moves by

        v <- w·v + c1·r1·(pbest − x) + c2·r2·(g_s − x),

    which with the own task as the source (every no-transfer row) is the
    classic PSO rule, and S1 by

        v <- w·v + c1·r1·(pbest − x) + c2·r2·(g − x) + c3·r3·(g_s − x),

    where the c3 term transfers knowledge and is dropped (c3 = 0) for a
    particle whose source is its own task. Then x <- x + v and
    :func:`_bounce`. The terms are summed in this order into
    ``state.velocities``, each draw scaled in place by its coefficient.
    """
    config = state.config
    for row in np.flatnonzero(~state.focus):
        state.select_rngs[row].random(out=state.picks[row])
    state.last_source = adaptation.choose_sources(state.probs, state.focus, state.picks)
    for row, rng in enumerate(state.vel_rngs):
        rng.random(out=state.draws[row])
    r = state.draws
    x, v, term = state.positions, state.velocities, state.term
    # the source task's row in the same cell
    src = state.last_source * state.cells + (np.arange(len(x)) % state.cells)[:, None]

    v *= w
    _add_term(v, np.subtract(state.pbest_pos, x, out=term), config.c1, r[:, 0])
    if config.algorithm == "samtpso-s1":
        _add_term(v, np.subtract(state.gbest_pos[:, None, :], x, out=term), config.c2, r[:, 1])
        own = adaptation.row_tasks(len(x), state.probs.shape[1])[:, None]
        c3 = np.where(state.last_source == own, 0.0, config.c3)[..., None]
        np.take(state.gbest_pos, src, axis=0, out=term, mode="clip")
        _add_term(v, np.subtract(term, x, out=term), c3, r[:, 2])
    else:
        np.take(state.gbest_pos, src, axis=0, out=term, mode="clip")
        _add_term(v, np.subtract(term, x, out=term), config.c2, r[:, 1])
    x += v
    _bounce(x, v)


def evaluate_and_update(state: SwarmState, record_outcomes: bool = True) -> np.ndarray | None:
    """Evaluate every moved particle on its own task, refresh pbest/gbest
    (strict improvement only), and tally outcomes against each particle's
    chosen source. Returns the (K·C, K) source-choice counts when tallying."""
    fitness = _evaluate(state.plan, state.problems, state.positions)
    improved = fitness < state.pbest_fit
    np.copyto(state.pbest_pos, state.positions, where=improved[..., None])
    np.copyto(state.pbest_fit, fitness, where=improved)
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
    k = state.probs.shape[1]
    flat = (rows[:, None] * k + state.last_source).ravel()
    counts = np.bincount(flat, minlength=len(rows) * k).reshape(-1, k)
    ns = np.bincount(flat[improved.ravel()], minlength=len(rows) * k).reshape(-1, k)
    state.mem.record_counts(ns, counts - ns)
    state.mem.commit_generation()
    return counts


def run_generation(state: SwarmState) -> np.ndarray | None:
    """Advance one generation; returns the (K·C, K) source-choice counts,
    or None for a batch of no-transfer cells, which records nothing. A
    transferring row's probabilities and focus flag follow its window from
    the generation after its learning period on; a no-transfer row stays
    in focus."""
    state.generation += 1
    config = state.config
    w = inertia_weight(state.generation, config.max_gens, config.w_start, config.w_end)
    _move_swarm(state, w)
    counts = evaluate_and_update(state, record_outcomes=state.transfer.any())
    ready = (state.generation > state.mem.lp) & state.transfer
    if ready.any():
        probs = adaptation.update_probabilities(state.mem, state.bp, config.eps)
        state.probs = np.where(ready[:, None], probs, state.probs)
        state.focus = ~state.transfer | (ready & adaptation.focus_flags(state.mem))
    return counts


def run_batch(problems: Problems, configs: Sequence[RunConfig], observer=None) -> list[RunResult]:
    """Execute the runs of a batch (one swarm shape, configs that differ
    only in seed, lp, bp and PSO against S2; see :func:`init_swarm`) side
    by side for ``max_gens`` generations; one RunResult per config, each
    equal bit for bit to that config's run on its own.

    ``observer(state)``, when given, is called after the initial evaluation
    and after every generation; useful for invariant checks.
    """
    state = init_swarm(problems, configs)
    k, cells = state.probs.shape[1], state.cells
    gens = state.config.max_gens
    # cell-major, so that each cell's trace and counts are contiguous; a
    # count is at most pop_per_task, which sets the counts' integer type
    trace = np.empty((cells, gens, k))
    trace[:, 0] = state.gbest_fit.reshape(k, cells).T
    count_type = np.min_scalar_type(state.config.pop_per_task)
    counts_hist = np.zeros((cells, gens - 1, k, k), dtype=count_type) if state.transfer.any() else None
    if observer is not None:
        observer(state)
    while state.generation < gens:
        counts = run_generation(state)
        g = state.generation
        trace[:, g - 1] = state.gbest_fit.reshape(k, cells).T
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
            source_counts=counts_hist[c] if state.transfer[c] else None,
            best_positions=state.gbest_pos[c::cells].copy(),
            best_fevs=trace[c, -1].copy(),
        )
        for c, config in enumerate(state.configs)
    ]


def run(problem: MtoProblem | TaskDef, config: RunConfig, observer=None) -> RunResult:
    """Execute one full run of ``config.max_gens`` generations: a batch of
    one (see :func:`run_batch`)."""
    return run_batch(problem, (config,), observer)[0]
