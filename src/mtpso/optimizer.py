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
from .core import NO_TRANSFER, MtoProblem, RunConfig


class NonFiniteFitnessError(FloatingPointError):
    """A task function returned NaN or an infinity."""


@dataclass
class SwarmState:
    """The K subpopulations of each of C cells, stacked task-major.

    A batch is a set of runs (cells) with the same :func:`batch_key`: equal
    K and D_u, and configs that differ only in ``seed``, ``lp``, ``bp`` and
    PSO against S2; each cell has its own problem. Row t·C + c belongs to
    cell c's task t, so a task index's C·N particles are one contiguous
    block; with C = 1, row t is task t.

    Positions, velocities and pbest positions have shape (K·C, N, D_u);
    pbest fitness and each particle's last chosen source task (K·C, N); the
    swarm bests (K·C, D_u) and (K·C,). A row's source probabilities are its
    row of ``probs`` (K·C, K) and its focus flag ``focus[row]``; ``mem`` is
    the (K·C, K) success/failure window with each row's cell's lp, capped
    at max_gens: a run commits max_gens − 1 generations, so past max_gens
    the window holds the same counts and the learning period never ends
    either way. ``bp`` (K·C,) is each row's floor. ``transfer[row]`` is
    False for the rows of a no-transfer (PSO) cell, which stay in focus
    search. Each row draws from its own ``select_rngs[row]`` and
    ``vel_rngs[row]`` streams, cell c's task-t streams, into ``picks[row]``
    and ``draws[row]``; ``draws`` holds one velocity term's r at a time,
    drawn just before that term, so each stream yields its doubles in the
    order a run alone draws them.
    """

    problems: tuple[MtoProblem, ...]
    configs: tuple[RunConfig, ...]
    config: RunConfig  # what every cell shares: the config of its batch_key
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
    draws: np.ndarray  # (K·C, N, D_u): one velocity term's r, then the rotated rows
    term: np.ndarray  # (K·C, N, D_u): one velocity term, then the decode
    plan: _Plan
    generation: int = 1

    @property
    def cells(self) -> int:
        return len(self.configs)


@dataclass
class RunResult:
    """Everything one run produces.

    ``fev_trace[g-1, t]`` is task t's best error value at generation g
    (generation 1 is the evaluated initial population), or None for a run
    that did not record it. ``source_counts`` is None for the plain PSO
    baseline and for a run that did not record it; otherwise
    ``source_counts[j, t, k]`` counts task t's particles that chose source
    k in generation j+2, in the smallest unsigned integer type that holds
    ``pop_per_task``.
    """

    algorithm: str
    seed: int
    pop_per_task: int
    fev_trace: np.ndarray | None
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


def batch_key(problem: MtoProblem, config: RunConfig) -> tuple[int, int, RunConfig]:
    """What the cells of one batch share, the one rule for which cells may
    be stepped as one swarm: the task count K, the unified dimension D_u
    and the config without seed, lp and bp, with the rule it steps by in
    place of a no-transfer algorithm."""
    algorithm = NO_TRANSFER.get(config.algorithm, config.algorithm)
    return problem.num_tasks, problem.unified_dim, replace(config, algorithm=algorithm, seed=0, lp=1, bp=0.0)


@dataclass
class _Group:
    """Swarm rows on one base function and task dimension, rotated by one
    stacked ``matmul`` and evaluated by one ``task_eval`` call."""

    base_fn: str
    at: slice  # the group's rows in the plan's order
    rotations: np.ndarray  # (rows, d, d): each row's task.rotation.T


@dataclass
class _Plan:
    """How a stacked swarm is evaluated: its rows in ``order``, one group
    after another, and every row's decode tables in that order, of shape
    (K·C, 1, D_u) and zero beyond the row's task dimension."""

    order: np.ndarray
    lower: np.ndarray
    width: np.ndarray  # upper − lower
    shift: np.ndarray
    groups: list[_Group]


def _evaluation_plan(problems: tuple) -> _Plan:
    """Group the swarm rows, row t·C + c for cell c's task t, by (base
    function, task dimension), in order of first appearance."""
    cells = len(problems)
    members: dict = {}
    for t in range(problems[0].num_tasks):
        for c, problem in enumerate(problems):
            task = problem.tasks[t]
            members.setdefault((task.base_fn, task.dim), []).append((t * cells + c, task))
    ordered = [member for group in members.values() for member in group]
    lower, width, shift = np.zeros((3, len(ordered), 1, problems[0].unified_dim))
    for i, (_, task) in enumerate(ordered):
        lower[i, 0, : task.dim] = task.lower
        width[i, 0, : task.dim] = task.upper - task.lower
        shift[i, 0, : task.dim] = task.shift
    plan = _Plan(np.array([row for row, _ in ordered]), lower, width, shift, [])
    at = 0
    for (fn, _), group in members.items():
        # a transposed stack of the C-ordered rotations: each slice is laid
        # out as task.rotation.T, and a contiguous copy changes the bits
        rotations = np.stack([task.rotation for _, task in group]).transpose(0, 2, 1)
        span = slice(at, at + len(group))
        plan.groups.append(_Group(fn, span, rotations))
        at += len(group)
    return plan


def _evaluate(
    plan: _Plan, problems: tuple, positions: np.ndarray, scratch: np.ndarray, frames: np.ndarray
) -> np.ndarray:
    """Fitness of the stacked positions: one decode pass over the whole
    swarm, gathered in the plan's order into ``scratch`` (lower + x·width,
    then − shift: the operations of :func:`core.evaluate_task`, in its
    order), then per group one stacked ``matmul`` call, which makes one
    (N, d) × (d, d) product per row, the product a cell run alone makes,
    into the front of ``frames``, a free buffer of the swarm's size (a
    fresh product faults pages past malloc's mmap threshold), and one
    ``task_eval`` call. A NaN or infinite value is an error."""
    rows, n_s, d_u = positions.shape
    np.take(positions, plan.order, axis=0, out=scratch, mode="clip")
    scratch *= plan.width
    scratch += plan.lower
    scratch -= plan.shift
    fit = np.empty((rows, n_s))
    for group in plan.groups:
        d = group.rotations.shape[-1]
        frame = frames.reshape(-1)[: len(group.rotations) * n_s * d].reshape(-1, n_s, d)
        np.matmul(scratch[group.at, :, :d], group.rotations, out=frame)
        fit[plan.order[group.at]] = benchmarks.task_eval(group.base_fn, frame.reshape(-1, d)).reshape(-1, n_s)
    if not np.isfinite(fit).all():
        t, c = divmod(int(np.flatnonzero(~np.isfinite(fit))[0]) // n_s, len(problems))
        raise NonFiniteFitnessError(
            f"task index {t} (base function {problems[c].tasks[t].base_fn!r}) gave a non-finite fitness"
        )
    return fit


def init_swarm(problems: Sequence[MtoProblem], configs: Sequence[RunConfig]) -> SwarmState:
    """Uniform random positions, zero velocities, memories empty, uniform
    source probabilities; every subpopulation evaluated on its own task.

    ``problems`` and ``configs`` hold one problem and one config per cell,
    and every cell must have the same :func:`batch_key`. Each cell's task t
    seeds its streams from ``SeedSequence(seed).spawn(K)[t]``, as a run of
    its own would."""
    problems, configs = tuple(problems), tuple(configs)
    if len(problems) != len(configs):
        raise ValueError(f"a batch of {len(configs)} configs needs {len(configs)} problems, got {len(problems)}")
    keys = [batch_key(p, c) for p, c in zip(problems, configs)]
    if not keys or any(key != keys[0] for key in keys):
        raise ValueError(
            "the cells of a batch must have the same task count and unified dimension, and configs "
            "that differ only in seed, lp and bp (and PSO against S2)"
        )
    k, d_u, shared = keys[0]
    cells = len(configs)
    rows = k * cells
    n_s = shared.pop_per_task
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
    draws, term = np.empty((2, rows, n_s, d_u))
    plan = _evaluation_plan(problems)
    fit = _evaluate(plan, problems, positions, term, draws)
    best = np.argmin(fit, axis=1)
    transfer = np.tile([c.algorithm not in NO_TRANSFER for c in configs], k)
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
        mem=MemoryWindow(np.tile([min(c.lp, c.max_gens) for c in configs], k), k),
        bp=np.tile([float(c.bp) for c in configs], k),
        select_rngs=select_rngs,
        vel_rngs=vel_rngs,
        picks=np.empty((rows, n_s)),
        draws=draws,
        term=term,
        plan=plan,
    )


def _add_term(state: SwarmState, term: np.ndarray, coeff) -> None:
    """v += (coeff * r) * term, in place, with r every row's next draw from
    its velocity stream; ``term`` is overwritten."""
    r = state.draws
    for rng, out in zip(state.vel_rngs, r):
        rng.random(out=out)
    r *= coeff
    term *= r
    state.velocities += term


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
    ``state.velocities``, each term's draws made just before it and scaled
    in place by its coefficient.
    """
    config = state.config
    for row in np.flatnonzero(~state.focus):
        state.select_rngs[row].random(out=state.picks[row])
    state.last_source = adaptation.choose_sources(state.probs, state.focus, state.picks)
    x, v, term = state.positions, state.velocities, state.term
    # the source task's row in the same cell
    src = state.last_source * state.cells + (np.arange(len(x)) % state.cells)[:, None]

    v *= w
    _add_term(state, np.subtract(state.pbest_pos, x, out=term), config.c1)
    coeff = config.c2
    if config.algorithm == "samtpso-s1":
        _add_term(state, np.subtract(state.gbest_pos[:, None, :], x, out=term), config.c2)
        own = adaptation.row_tasks(len(x), state.probs.shape[1])[:, None]
        coeff = np.where(state.last_source == own, 0.0, config.c3)[..., None]
    np.take(state.gbest_pos, src, axis=0, out=term, mode="clip")
    _add_term(state, np.subtract(term, x, out=term), coeff)
    x += v
    _bounce(x, v)


def evaluate_and_update(state: SwarmState) -> np.ndarray | None:
    """Evaluate every moved particle on its own task and refresh pbest/gbest
    (strict improvement only); if any row transfers, commit the outcomes per
    chosen source to the window and return the (K·C, K) choice counts."""
    fitness = _evaluate(state.plan, state.problems, state.positions, state.term, state.draws)
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
    if not state.transfer.any():
        return None
    k = state.probs.shape[1]
    flat = (rows[:, None] * k + state.last_source).ravel()
    counts = np.bincount(flat, minlength=len(rows) * k).reshape(-1, k)
    ns = np.bincount(flat[improved.ravel()], minlength=len(rows) * k).reshape(-1, k)
    state.mem.commit_generation(ns, counts - ns)
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
    counts = evaluate_and_update(state)
    ready = (state.generation > state.mem.lp) & state.transfer
    if ready.any():
        probs = adaptation.update_probabilities(state.mem, state.bp, config.eps)
        state.probs = np.where(ready[:, None], probs, state.probs)
        state.focus = ~state.transfer | (ready & adaptation.focus_flags(state.mem))
    return counts


def run_batch(
    problems: Sequence[MtoProblem],
    configs: Sequence[RunConfig],
    observer=None,
    record_trace: bool = True,
    record_counts: bool = True,
) -> list[RunResult]:
    """Execute the runs of a batch, one problem and one config per cell, all
    cells with the same :func:`batch_key` (see :func:`init_swarm`), side by
    side for ``max_gens`` generations; one RunResult per cell, each equal
    bit for bit to that cell's run on its own.

    The per-generation trace and source counts are recorded only under
    ``record_trace`` and ``record_counts``; neither changes a draw or a
    final best. ``observer(state)``, when given, is called after the
    initial evaluation and after every generation; useful for invariant
    checks.
    """
    state = init_swarm(problems, configs)
    k, cells = state.probs.shape[1], state.cells
    gens = state.config.max_gens
    # cell-major, so that each cell's trace and counts are contiguous; a
    # count is at most pop_per_task, which sets the counts' integer type
    trace = np.empty((cells, gens, k)) if record_trace else None
    count_type = np.min_scalar_type(state.config.pop_per_task)
    record_counts = record_counts and state.transfer.any()
    counts_hist = np.zeros((cells, gens - 1, k, k), dtype=count_type) if record_counts else None
    if record_trace:
        trace[:, 0] = state.gbest_fit.reshape(k, cells).T
    if observer is not None:
        observer(state)
    while state.generation < gens:
        counts = run_generation(state)
        g = state.generation
        if record_trace:
            trace[:, g - 1] = state.gbest_fit.reshape(k, cells).T
        if record_counts:
            counts_hist[:, g - 2] = counts.reshape(k, cells, k).transpose(1, 0, 2)
        if observer is not None:
            observer(state)
    return [
        RunResult(
            algorithm=config.algorithm,
            seed=config.seed,
            pop_per_task=config.pop_per_task,
            fev_trace=trace[c] if record_trace else None,
            source_counts=counts_hist[c] if record_counts and state.transfer[c] else None,
            best_positions=state.gbest_pos[c::cells].copy(),
            best_fevs=state.gbest_fit[c::cells].copy(),
        )
        for c, config in enumerate(state.configs)
    ]


def run(
    problem: MtoProblem,
    config: RunConfig,
    observer=None,
    record_trace: bool = True,
    record_counts: bool = True,
) -> RunResult:
    """Execute one full run of ``config.max_gens`` generations: a batch of
    one (see :func:`run_batch`). A single-task run passes a one-task
    problem, ``MtoProblem((task,))``."""
    return run_batch((problem,), (config,), observer, record_trace, record_counts)[0]
