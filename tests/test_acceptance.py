"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line. The full-scale comparison (criteria 4-5) runs once and takes several
minutes; run with ``pytest tests/test_acceptance.py -v -s`` to watch it.
"""

import json
import multiprocessing
from fractions import Fraction

import numpy as np
import pytest

from mtpso import benchmarks, cli, harness, metrics
from mtpso.adaptation import MemoryWindow, update_probabilities
from mtpso.benchmarks import make_task
from mtpso.core import MtoProblem, RunConfig
from mtpso.harness import execute, parse_experiment
from mtpso.optimizer import run

ACCEPTANCE_MASTER_SEED = 20250810
FULL_RUNS = 30
FULL_GENS = 2000
POP_PER_TASK = 50


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def fev_table(cells, labels, pid):
    out = []
    for label in labels:
        sel = sorted(
            (c for c in cells if c.algorithm == label and c.problem_id == pid),
            key=lambda c: c.run_index,
        )
        out.append(np.stack([c.best_fevs for c in sel], axis=1))  # (K, L)
    return np.stack(out)


@pytest.fixture(scope="module")
def fullscale_cells():
    """30 runs x 2000 generations of S1, S2 and PSO on all of suite 1."""
    spec = parse_experiment(
        {
            "name": "acceptance-fullscale",
            "suite": "suite1",
            "algorithms": [
                {"algorithm": "samtpso-s1"},
                {"algorithm": "samtpso-s2"},
                {"algorithm": "pso"},
            ],
            "runs": FULL_RUNS,
            "max_gens": FULL_GENS,
            "master_seed": ACCEPTANCE_MASTER_SEED,
            "write_convergence": False,
            "write_transfer": True,
        }
    )
    return execute(spec, jobs=2)


def test_criterion_1_formula_oracles():
    rng = np.random.default_rng(1001)
    worst_p = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 7))
        ns = rng.integers(0, 60, k)
        nf = rng.integers(0, 60, k)
        mem = MemoryWindow([10], k)
        mem.commit_generation(ns[None], nf[None])
        got = update_probabilities(mem, bp=0.001, eps=0.001)[0]
        bp, eps = Fraction("0.001"), Fraction("0.001")
        sr = [
            Fraction(int(a)) / (Fraction(int(a)) + Fraction(int(b)) + eps) + bp
            for a, b in zip(ns, nf)
        ]
        total = sum(sr)
        expected = np.array([float(s / total) for s in sr])
        rel = np.max(np.abs(got - expected) / expected)
        worst_p = max(worst_p, rel)
        assert rel <= 1e-12

    worst_s = 0.0
    for _ in range(50):
        q, k, l = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
        values = rng.random((q, k, l)) * 50
        got = metrics.score(values)
        expected = np.zeros(q)
        for j in range(k):
            pooled = values[:, j, :].ravel()
            mu = pooled.sum() / pooled.size
            sigma = np.sqrt(((pooled - mu) ** 2).sum() / pooled.size)
            for qq in range(q):
                for ll in range(l):
                    expected[qq] += (values[qq, j, ll] - mu) / sigma
        scale = np.maximum(np.abs(expected), 1.0)
        worst_s = max(worst_s, float(np.max(np.abs(got - expected) / scale)))
        assert np.all(np.abs(got - expected) / scale <= 1e-12)

    report(1, True, f"probability rel err <= {worst_p:.2e}, score rel err <= {worst_s:.2e}")


def test_criterion_2_collapse_equivalence():
    problem = MtoProblem((make_task("sphere", 10, 8101),))
    gens = 200
    s2 = run(problem, RunConfig(algorithm="samtpso-s2", pop_per_task=POP_PER_TASK, seed=4242, max_gens=gens))
    pso = run(problem, RunConfig(algorithm="pso", pop_per_task=POP_PER_TASK, seed=4242, max_gens=gens))
    identical = np.array_equal(s2.fev_trace, pso.fev_trace) and np.array_equal(
        s2.best_positions, pso.best_positions
    )
    report(2, identical, f"K=1 S2 vs PSO traces bit-identical over {gens} generations")


class _InvariantObserver:
    """Re-derives the adaptation state from scratch each generation."""

    def __init__(self, problem, config):
        self.k = problem.num_tasks
        self.lp = config.lp
        self.n_s = config.pop_per_task
        self.prev_pbest = None
        self.naive_ns = [[] for _ in range(self.k)]
        self.checked = 0

    def __call__(self, state):
        g = state.generation
        for t in range(self.k):
            positions, p = state.positions[t], state.probs[t]
            last_source = state.last_source[t]
            assert np.all(positions >= 0.0) and np.all(positions <= 1.0), "position bounds"
            assert abs(p.sum() - 1.0) <= 1e-12, "probability simplex"
            assert np.all(p > 0.0), "probability positivity"
            if g >= 2:
                improved = state.pbest_fit[t] < self.prev_pbest[t]
                ns_col = np.bincount(last_source[improved], minlength=self.k)
                nf_col = np.bincount(last_source[~improved], minlength=self.k)
                assert ns_col.sum() + nf_col.sum() == self.n_s, "memory column conservation"
                self.naive_ns[t].append(ns_col)
                if g > self.lp:
                    window = self.naive_ns[t][-self.lp :]
                    expected_focus = bool(np.sum(window) == 0)
                    assert state.focus[t] == expected_focus, "focus predicate"
                    self.checked += 1
        self.prev_pbest = state.pbest_fit.copy()


def test_criterion_3_invariant_suite():
    suite = benchmarks.build_suite("suite1")
    runs, gens = 10, 500
    total_checks = 0
    for pid, problem in enumerate(suite, start=1):
        for run_index in range(runs):
            seed = harness.derive_seed(ACCEPTANCE_MASTER_SEED, "invariants", pid, run_index)
            config = RunConfig(
                algorithm="samtpso-s1", pop_per_task=POP_PER_TASK, seed=seed, max_gens=gens
            )
            observer = _InvariantObserver(problem, config)
            result = run(problem, config, observer=observer)
            assert np.all(np.diff(result.fev_trace, axis=0) <= 1e-15), "FEV monotonicity"
            assert np.all(result.source_counts.sum(axis=2) == POP_PER_TASK)
            total_checks += observer.checked
    report(3, True, f"9 problems x {runs} runs x {gens} gens; {total_checks} focus-predicate checks")


def _direction(cells, challenger):
    per_problem = {}
    for pid in range(1, 10):
        table = fev_table(cells, (challenger, "pso"), pid)
        per_problem[pid] = metrics.score(table)
    wins = sum(1 for sc in per_problem.values() if sc[0] < sc[1])
    mean_challenger = float(np.mean([sc[0] for sc in per_problem.values()]))
    mean_pso = float(np.mean([sc[1] for sc in per_problem.values()]))
    return per_problem, wins, mean_challenger, mean_pso


def test_criterion_4_headline_direction(fullscale_cells):
    ok_all = True
    details = []
    for challenger in ("samtpso-s1", "samtpso-s2"):
        _, wins, mean_c, mean_pso = _direction(fullscale_cells, challenger)
        ok = (mean_c < mean_pso) and wins >= 6
        ok_all = ok_all and ok
        details.append(f"{challenger}: mean {mean_c:+.1f} vs pso {mean_pso:+.1f}, wins {wins}/9")
    report(4, ok_all, "; ".join(details))


def test_criterion_5_adaptation_behavior(fullscale_cells):
    s1 = [c for c in fullscale_cells if c.algorithm == "samtpso-s1"]

    def mean_first(pid):
        sel = [c for c in s1 if c.problem_id == pid]
        return np.mean([c.source_counts[0] / c.pop_per_task for c in sel], axis=0)

    def mean_itk(pid):
        sel = [c for c in s1 if c.problem_id == pid]
        return np.mean([(c.source_counts / c.pop_per_task).mean(axis=0) for c in sel], axis=0)

    tol = 3 * np.sqrt(0.25 / POP_PER_TASK)
    worst = 0.0
    for pid in range(1, 10):
        first = mean_first(pid)
        for frac in (first[0, 1], first[1, 0]):
            worst = max(worst, abs(frac - 0.5))
    ok_a = worst <= tol

    itk1 = mean_itk(1)
    itk9 = mean_itk(9)
    ok_b = itk9[0, 1] < itk1[0, 1] and itk9[1, 0] < itk1[1, 0]
    ok_c = itk9[0, 1] < 0.15 and itk9[1, 0] < 0.15

    detail = (
        f"(a) first-gen offdiag max dev {worst:.3f} <= {tol:.3f}; "
        f"(b) p9 ITK {itk9[0,1]*100:.2f}%/{itk9[1,0]*100:.2f}% < "
        f"p1 {itk1[0,1]*100:.2f}%/{itk1[1,0]*100:.2f}%; (c) p9 < 15%"
    )
    report(5, ok_a and ok_b and ok_c, detail)


def test_criterion_6_focus_search_effect():
    benchmarks.register_base(
        "plateau-accept", lambda y: np.zeros(np.asarray(y, dtype=float).shape[:-1]), -1, 1
    )
    problem = MtoProblem(
        tasks=(make_task("plateau-accept", 5, 61), make_task("sphere", 5, 62))
    )
    lp = 10
    config = RunConfig(algorithm="samtpso-s1", pop_per_task=20, lp=lp, seed=606, max_gens=40)

    focus_after = {}  # generation -> focus flag of task 1 at end of that generation
    choices = {}  # generation -> task 1's source choices made in that generation

    def observer(state):
        focus_after[state.generation] = bool(state.focus[0])
        if state.generation >= 2:
            choices[state.generation] = state.last_source[0].copy()

    run(problem, config, observer=observer)

    first_check = lp + 1
    activated = [g for g, flag in sorted(focus_after.items()) if flag]
    ok_activation = bool(activated) and activated[0] <= first_check + lp + 2
    # while active at move time, every choice must be the task itself
    ok_self = True
    for g, iks in choices.items():
        if focus_after.get(g - 1, False):
            ok_self = ok_self and bool(np.all(iks == 0))
    ok_stays = all(focus_after[g] for g in range(activated[0], config.max_gens + 1)) if activated else False
    report(
        6,
        ok_activation and ok_self and ok_stays,
        f"plateau task focused at generation {activated[0] if activated else 'never'} "
        f"(first eligible check {first_check}); all choices while active are self-choices",
    )


def test_criterion_7_determinism(tmp_path):
    problems_cfg = {
        "name": "determinism",
        "suite": "suite1",
        "problem_ids": [1, 5],
        "algorithms": [{"algorithm": "samtpso-s1"}, {"algorithm": "pso"}],
        "runs": 3,
        "max_gens": 60,
        "master_seed": 1234,
        "output_dir": str(tmp_path / "serial"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(problems_cfg))
    assert cli.main(["run", "--config", str(cfg_path), "--quiet", "--jobs", "1"]) == 0

    manifest_path = tmp_path / "serial" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["output_dir"] = str(tmp_path / "rerun")
    rerun_cfg = tmp_path / "rerun.json"
    rerun_cfg.write_text(json.dumps(manifest))
    # without --jobs: a worker per CPU this process may run on
    assert cli.main(["run", "--config", str(rerun_cfg), "--quiet"]) == 0

    assert cli.main(
        ["run", "--config", str(cfg_path), "--quiet", "--jobs", "2", "--out", str(tmp_path / "par")]
    ) == 0

    serial = (tmp_path / "serial" / "results.csv").read_bytes()
    rerun = (tmp_path / "rerun" / "results.csv").read_bytes()
    parallel = (tmp_path / "par" / "results.csv").read_bytes()
    ok = serial == rerun and serial == parallel
    assert not multiprocessing.active_children()  # every pool's workers have exited
    report(7, ok, "manifest rerun at the default --jobs and 2-worker parallel run are byte-identical "
                  "to the serial (--jobs 1) run")


def test_criterion_8_parameter_sweep_sanity():
    runs, gens = 10, 1000

    def sweep(param, good, bad):
        spec = parse_experiment(
            {
                "name": f"sweep-{param}",
                "suite": "suite1",
                "algorithms": [
                    {"algorithm": "samtpso-s1", "label": f"s1-{param}-{good}", param: good},
                    {"algorithm": "samtpso-s1", "label": f"s1-{param}-{bad}", param: bad},
                ],
                "runs": runs,
                "max_gens": gens,
                "master_seed": ACCEPTANCE_MASTER_SEED + 8,
                "write_convergence": False,
                "write_transfer": False,
            }
        )
        cells = execute(spec, jobs=2)
        labels = (f"s1-{param}-{good}", f"s1-{param}-{bad}")
        scores = [metrics.score(fev_table(cells, labels, pid)) for pid in range(1, 10)]
        mean_good, mean_bad = np.mean(scores, axis=0)
        return float(mean_good), float(mean_bad)

    bp_good, bp_bad = sweep("bp", 0.001, 0.1)
    lp_good, lp_bad = sweep("lp", 10, 1)
    ok = bp_good < bp_bad and lp_good < lp_bad
    report(
        8,
        ok,
        f"bp: score({0.001})={bp_good:+.1f} < score(0.1)={bp_bad:+.1f}; "
        f"lp: score(10)={lp_good:+.1f} < score(1)={lp_bad:+.1f}",
    )
