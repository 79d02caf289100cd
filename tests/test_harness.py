import concurrent.futures
import csv
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mtpso import benchmarks, cli, harness, metrics
from mtpso.benchmarks import build_suite, make_task, problem_to_dict
from mtpso.core import MtoProblem, RunConfig
from mtpso.optimizer import NonFiniteFitnessError, batch_key, run
from mtpso.harness import (
    ConfigError,
    derive_seed,
    execute,
    parse_experiment,
    read_results_csv,
    resolve_problems,
    run_experiment,
    tabulate_fevs,
)


@pytest.fixture()
def tiny_problems(tmp_path):
    """Two 3-D problems written as task-data files; cheap to optimize."""
    problems = [
        MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("rastrigin", 3, 2))),
        MtoProblem(tasks=(make_task("sphere", 3, 3), make_task("ackley", 3, 4))),
    ]
    path = tmp_path / "problems.json"
    path.write_text(json.dumps({"problems": [problem_to_dict(p) for p in problems]}))
    return str(path)


def tiny_config(tiny_problems, out_dir, **extra):
    cfg = {
        "name": "tiny",
        "suite": tiny_problems,
        "algorithms": [{"algorithm": "samtpso-s1"}, {"algorithm": "pso"}],
        "runs": 2,
        "max_gens": 12,
        "pop_per_task": 8,
        "lp": 4,
        "master_seed": 777,
        "output_dir": str(out_dir),
    }
    cfg.update(extra)
    return cfg


class TestParseExperiment:
    def test_defaults(self):
        spec = parse_experiment({})
        assert spec.suite == "suite1"
        assert spec.runs == 30
        assert spec.problem_ids == tuple(range(1, 10))
        labels = [label for label, _ in spec.algorithms]
        assert labels == ["samtpso-s1", "pso"]
        s1 = spec.algorithms[0][1]
        assert s1.max_gens == 2000 and s1.pop_per_task == 50
        assert (s1.c1, s1.c2, s1.c3) == (1.1, 1.1, 1.1)

    def test_shared_params_cascade_with_overrides(self):
        spec = parse_experiment(
            {
                "max_gens": 100,
                "bp": 0.01,
                "algorithms": [
                    {"algorithm": "samtpso-s1"},
                    {"algorithm": "samtpso-s1", "label": "s1-lowbp", "bp": 0.0001},
                ],
            }
        )
        assert spec.algorithms[0][1].bp == 0.01
        assert spec.algorithms[1][1].bp == 0.0001
        assert all(cfg.max_gens == 100 for _, cfg in spec.algorithms)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config field 'mex_gens'"):
            parse_experiment({"mex_gens": 10})

    def test_unknown_algorithm_field_rejected(self):
        with pytest.raises(ConfigError, match=r"algorithms\[0\]: unknown field"):
            parse_experiment({"algorithms": [{"algorithm": "pso", "velocity_cap": 3}]})

    def test_bad_algorithm_name(self):
        with pytest.raises(ConfigError, match="must be one of"):
            parse_experiment({"algorithms": [{"algorithm": "cmaes"}]})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            parse_experiment({"algorithms": [{"algorithm": "pso"}, {"algorithm": "pso"}]})

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="'runs'"):
            parse_experiment({"runs": "thirty"})
        with pytest.raises(ConfigError, match="'lp'"):
            parse_experiment({"lp": 2.5})

    # every run parameter a config may set, shared or in an algorithm's
    # entry: an integer field takes no float or bool, a float field no string
    @pytest.mark.parametrize(
        "key, value",
        [(key, value) for key in ("pop_per_task", "lp", "max_gens") for value in (2.5, True)]
        + [(key, "x") for key in ("bp", "eps", "w_start", "w_end", "c1", "c2", "c3")],
    )
    @pytest.mark.parametrize("in_entry", [False, True], ids=["shared", "entry"])
    def test_run_parameter_type_errors(self, key, value, in_entry):
        cfg = {"algorithms": [{"algorithm": "pso", key: value}]} if in_entry else {key: value}
        with pytest.raises(ConfigError, match=f"'{key}'"):
            parse_experiment(cfg)

    def test_run_parameters_follow_run_config(self):
        # in RunConfig's field order, so that errors come in that order
        assert harness._RUNCONFIG_FIELDS == (
            "pop_per_task", "lp", "bp", "eps", "w_start", "w_end", "c1", "c2", "c3", "max_gens",
        )
        with pytest.raises(ConfigError, match="'lp'"):
            parse_experiment({"max_gens": 2.5, "bp": "x", "lp": 2.5})

    def test_invalid_run_config_reported(self):
        with pytest.raises(ConfigError, match=r"algorithms\[0\]"):
            parse_experiment({"algorithms": [{"algorithm": "pso", "lp": 0}]})

    def test_algorithm_shorthand_string(self):
        spec = parse_experiment({"algorithms": ["pso"]})
        assert spec.algorithms[0][0] == "pso"

    @pytest.mark.parametrize("key", ["write_convergence", "write_transfer"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_write_flags_must_be_booleans(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_experiment({key: value})

    def test_write_flags_accept_booleans(self):
        spec = parse_experiment({"write_convergence": False, "write_transfer": True})
        assert spec.write_convergence is False and spec.write_transfer is True

    # an empty list would otherwise read as "every problem"; leaving the
    # key out still means that
    @pytest.mark.parametrize("ids", [[1, 1], []], ids=["duplicate", "empty"])
    def test_duplicate_problem_ids_rejected(self, ids):
        with pytest.raises(ConfigError, match="problem_ids"):
            parse_experiment({"problem_ids": ids})


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(7, "pso", 3, 12) == derive_seed(7, "pso", 3, 12)

    def test_distinct_over_grid(self):
        seeds = {
            derive_seed(123, algorithm, problem, run_index)
            for algorithm in ("samtpso-s1", "pso")
            for problem in range(1, 51)
            for run_index in range(1, 101)
        }
        assert len(seeds) == 2 * 50 * 100

    def test_master_seed_changes_everything(self):
        assert derive_seed(1, "pso", 1, 1) != derive_seed(2, "pso", 1, 1)


class TestResolveProblems:
    def test_suite_subset(self):
        spec = parse_experiment({"problem_ids": [2, 6]})
        got = resolve_problems(spec)
        assert [pid for pid, _ in got] == [2, 6]
        assert got[1][1].tasks[1].dim == 25

    def test_out_of_range(self):
        spec = parse_experiment({"problem_ids": [10]})
        with pytest.raises(ConfigError, match="out of range"):
            resolve_problems(spec)

    def test_from_files(self, tiny_problems):
        spec = parse_experiment({"suite": tiny_problems})
        got = resolve_problems(spec)
        assert len(got) == 2

    def test_suite_seed_controls_instances(self):
        a = resolve_problems(parse_experiment({"suite_seed": 1, "problem_ids": [1]}))
        b = resolve_problems(parse_experiment({"suite_seed": 2, "problem_ids": [1]}))
        assert not np.array_equal(a[0][1].tasks[0].shift, b[0][1].tasks[0].shift)
        assert np.array_equal(a[0][1].tasks[0].shift, build_suite("suite1", seed=1)[0].tasks[0].shift)


class TestExecute:
    def test_ordering_and_seeds(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        cells = execute(spec, jobs=1)
        expected = [
            (label, pid, run_index)
            for label in ("samtpso-s1", "pso")
            for pid in (1, 2)
            for run_index in (1, 2)
        ]
        assert [(c.algorithm, c.problem_id, c.run_index) for c in cells] == expected
        for cell in cells:
            assert cell.seed == derive_seed(777, cell.algorithm, cell.problem_id, cell.run_index)

    def test_pso_has_no_counts(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        cells = execute(spec, jobs=1)
        for cell in cells:
            if cell.algorithm == "pso":
                assert cell.source_counts is None
            else:
                assert cell.source_counts.shape == (11, 2, 2)

    def test_keeps_what_the_write_flags_say(self, tiny_problems, tmp_path):
        """A cell holds its trace exactly when ``write_convergence`` is set
        and its source counts exactly when ``write_transfer`` is (PSO has
        none either way); ``execute`` writes no file. What is not recorded
        changes no byte of what is written, at one job or two."""
        cells = {}
        for convergence in (False, True):
            for transfer in (False, True):
                cfg = tiny_config(tiny_problems, tmp_path / "out", write_convergence=convergence, write_transfer=transfer)
                for jobs in (1, 2):
                    got = cells[convergence, transfer, jobs] = execute(parse_experiment(cfg), jobs=jobs)
                    for cell in got:
                        assert (cell.trace is not None) == convergence
                        has_counts = transfer and cell.algorithm != "pso"
                        assert (cell.source_counts is not None) == has_counts
                        if convergence:
                            assert cell.trace.shape == (12, 2)
                        if has_counts:
                            assert cell.source_counts.shape == (11, 2, 2)
        assert not (tmp_path / "out").exists()
        written = {}
        for (convergence, transfer, jobs), got in cells.items():
            assert [c.final_fevs.tolist() for c in got] == [c.final_fevs.tolist() for c in cells[True, True, 1]]
            cfg = tiny_config(
                tiny_problems, tmp_path / f"out-{convergence}-{transfer}-{jobs}",
                write_convergence=convergence, write_transfer=transfer,
            )
            out = run_experiment(parse_experiment(cfg), jobs=jobs)
            names = ["results.csv"] + ["convergence.csv"] * convergence + ["transfer.csv"] * transfer
            assert sorted(f.name for f in out.iterdir()) == sorted(names + ["manifest.json"])
            for name in names:
                assert written.setdefault(name, (out / name).read_bytes()) == (out / name).read_bytes(), name


class TestBatches:
    """Cells of one swarm shape whose configs differ only in seed, lp, bp
    and PSO against S2 share a batch, whatever their problem; neither
    batching nor ``jobs`` changes an artifact."""

    def lp_sweep_config(self, tiny_problems, out_dir, **extra):
        cfg = tiny_config(tiny_problems, out_dir, max_gens=15, **extra)
        cfg["algorithms"] = [
            {"algorithm": "samtpso-s1", "label": f"s1@lp={lp}", "lp": lp} for lp in (2, 5, 10)
        ] + [{"algorithm": "samtpso-s2", "label": "s2@bp=0", "bp": 0.0}, {"algorithm": "samtpso-s2"}]
        return cfg

    def test_grouping_and_split(self, tiny_problems, tmp_path):
        spec = parse_experiment(self.lp_sweep_config(tiny_problems, tmp_path / "out"))
        problems = resolve_problems(spec)
        cells = [
            (label, config, problem, pid, 1, False, False)
            for label, config in spec.algorithms
            for pid, problem in problems
            for _ in range(spec.runs)
        ]
        sizes = lambda jobs: [len(b) for b in harness._batches(cells, jobs)]  # noqa: E731
        # both problems have one shape: the three S1 lp values x 2 problems
        # x 2 runs, and S2 at two bp x 2 problems x 2 runs; a group is cut
        # only while the grid has fewer batches than jobs, the group with
        # the most cells per batch first
        assert sizes(1) == sizes(2) == [12, 8]
        assert sizes(3) == [6, 6, 8]
        assert sizes(5) == [4, 4, 4, 4, 4]
        assert sizes(16) == [2, 2] + [1] * 8 + [2, 2] + [1] * 4
        assert sizes(25) == [1] * 20  # a grid of n < jobs cells: n batches
        # an lp sweep of S1 and S2 over both problems, one run: two groups
        # of six, one batch each at two jobs
        base = spec.algorithms[0][1]
        sweep = [
            (f"{algorithm}@lp={lp}", replace(base, algorithm=algorithm, lp=lp), problem, pid, 1, False, False)
            for algorithm in ("samtpso-s1", "samtpso-s2")
            for lp in (2, 5, 10)
            for pid, problem in problems
        ]
        assert [len(b) for b in harness._batches(sweep, 2)] == [6, 6]
        per_batch = harness.BATCH_ELEMENTS // (2 * 8 * 3)  # K x N x D_u of a tiny cell
        many = cells[:1] * (2 * per_batch + 1)
        split = [len(b) for b in harness._batches(many, 1)]
        assert len(split) == 3 and sum(split) == len(many) and max(split) - min(split) <= 1
        assert sorted(i for b in harness._batches(cells, 2) for i in b) == list(range(len(cells)))

    @pytest.mark.parametrize("cap", [1, 100, 500, 10**6])
    @pytest.mark.parametrize("jobs", [1, 2, 3, 12, 60])
    def test_batches_keep_shape_order_cap_and_split(self, monkeypatch, cap, jobs):
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", cap)
        problems = {  # id -> problem; ids 1, 2 and 4 share K = 2 and D_u = 3
            1: MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("rastrigin", 2, 2))),
            2: MtoProblem(tasks=(make_task("ackley", 3, 3), make_task("griewank", 3, 4))),
            3: MtoProblem(tasks=(make_task("sphere", 4, 5), make_task("rastrigin", 4, 6))),
            4: MtoProblem(tasks=(make_task("weierstrass", 2, 7), make_task("schwefel", 3, 8))),
            5: MtoProblem(tasks=tuple(make_task("sphere", 3, 9 + t) for t in range(3))),
        }
        base = RunConfig(pop_per_task=4, max_gens=5)
        algorithms = [
            ("s1", base),
            ("s1@lp=2", replace(base, lp=2)),
            ("s2", replace(base, algorithm="samtpso-s2")),
            ("pso", replace(base, algorithm="pso")),
            ("s2@c1=1", replace(base, algorithm="samtpso-s2", c1=1.0)),
        ]
        cells = [
            (label, config, problems[pid], pid, run_index, False, False)
            for label, config in algorithms
            for pid in (4, 1, 3, 2, 5)
            for run_index in (1, 2)
        ]
        batches = harness._batches(cells, jobs)
        assert sorted(i for b in batches for i in b) == list(range(len(cells)))
        shape = lambda i: batch_key(cells[i][2], cells[i][1])  # noqa: E731
        groups = {}
        for batch in batches:
            assert len({shape(i) for i in batch}) == 1
            # problems ascend, each problem's cells adjacent and in grid order
            assert batch == sorted(batch, key=lambda i: (cells[i][3], i))
            k, d_u, config = shape(batch[0])
            assert len(batch) == 1 or len(batch) * k * config.pop_per_task * d_u <= cap
            groups.setdefault(shape(batch[0]), []).append(len(batch))
        # every worker gets a batch, and a group is cut past the cap only
        # while the grid has fewer batches than jobs
        assert len(batches) >= min(jobs, len(cells))
        for (k, d_u, config), lengths in groups.items():
            members = sum(lengths)
            assert max(lengths) - min(lengths) <= 1
            per_batch = max(1, cap // (k * config.pop_per_task * d_u))
            if len(lengths) > -(-members // per_batch):
                assert len(batches) <= jobs
        # S2 and PSO cells share a shape; S1 at two lp values does too
        assert shape(0) == shape(10) and shape(20) == shape(30) and shape(20) != shape(40)
        # three configs (S1 at both lp, S2 with PSO, S2 at c1 = 1) x three
        # shapes (K = 2 and D_u = 3 for problems 1, 2 and 4; D_u = 4; K = 3)
        assert len(groups) == 9

    def test_lp_sweep_artifacts_same_at_one_and_two_jobs(self, tiny_problems, tmp_path):
        outs = []
        for jobs in (1, 2):
            spec = parse_experiment(self.lp_sweep_config(tiny_problems, tmp_path / f"jobs{jobs}"))
            outs.append(run_experiment(spec, jobs=jobs))
        for name in ("results.csv", "convergence.csv", "transfer.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_one_particle_per_task_same_at_one_and_two_jobs(self):
        # one batch of both cells at one job, a batch per cell at two: with
        # N = 1 the rotations are (1, d) x (d, d) products of either
        spec = parse_experiment(
            {"suite": "suite1", "problem_ids": [2], "algorithms": ["samtpso-s2"], "runs": 2, "pop_per_task": 1,
             "max_gens": 30, "write_convergence": False, "write_transfer": False}
        )
        problems = resolve_problems(spec)
        one, two = (execute(spec, jobs=jobs, problems=problems) for jobs in (1, 2))
        for a, b in zip(one, two, strict=True):
            assert np.array_equal(a.final_fevs, b.final_fevs)

    def test_batched_cells_equal_cells_run_alone(self, tiny_problems, tmp_path):
        spec = parse_experiment(self.lp_sweep_config(tiny_problems, tmp_path / "out"))
        problems = dict(resolve_problems(spec))
        configs = dict(spec.algorithms)
        for cell in execute(spec, jobs=1):
            seed = derive_seed(spec.master_seed, cell.algorithm, cell.problem_id, cell.run_index)
            alone = run(problems[cell.problem_id], replace(configs[cell.algorithm], seed=seed))
            assert np.array_equal(cell.trace, alone.fev_trace)
            assert np.array_equal(cell.source_counts, alone.source_counts)


class TestWorkerCrash:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crashing base function is registered in this process, which workers must inherit",
    )
    def test_dead_worker_names_its_cells_and_exits_4(self, tmp_path, capsys):
        parent = os.getpid()

        def crash_in_worker(y):
            if os.getpid() != parent:
                os._exit(1)
            return np.sum(np.asarray(y, dtype=float) ** 2, axis=-1)

        benchmarks.register_base("crash-in-worker", crash_in_worker, -1, 1)
        problems = [
            MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("rastrigin", 3, 2))),
            MtoProblem(tasks=(make_task("sphere", 3, 3), make_task("crash-in-worker", 3, 4))),
        ]
        path = tmp_path / "problems.json"
        path.write_text(json.dumps({"problems": [problem_to_dict(p) for p in problems]}))
        config = tmp_path / "crash.json"
        config.write_text(json.dumps(tiny_config(str(path), tmp_path / "out", algorithms=["samtpso-s1"])))
        status = cli.main(["run", "--config", str(config), "--jobs", "2", "--quiet"])
        err = capsys.readouterr().err
        assert status == 4
        assert "worker process died" in err
        assert "(samtpso-s1, 2, 1)" in err and "(samtpso-s1, 2, 2)" in err


class TestJobsKey:
    def test_jobs_key_is_accepted_and_ignored(self, tiny_problems, tmp_path):
        """Older manifests record the worker count; they still parse, and a
        manifest no longer writes it (the count is ``--jobs``)."""
        cfg = tiny_config(tiny_problems, tmp_path / "out")
        assert parse_experiment({**cfg, "jobs": 3}) == parse_experiment(cfg)
        for value in ("lots", 2.5, True):
            with pytest.raises(ConfigError, match="'jobs'"):
                parse_experiment({**cfg, "jobs": value})
        out = run_experiment(parse_experiment(cfg), jobs=2)
        assert "jobs" not in json.loads((out / "manifest.json").read_text())


@pytest.fixture()
def pool_sizes(monkeypatch):
    """Stands in for the process pool: records each pool's ``max_workers``
    and runs what is submitted in this process, so no process starts. The
    harness imports the pool class from ``concurrent.futures`` only when a
    grid starts a pool, so the stand-in replaces it there."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return sizes


class TestPoolSize:
    """``execute`` starts no more workers than the grid has batches, runs a
    grid of one batch in this process, and rejects fewer than one job."""

    @pytest.mark.parametrize("runs, jobs, workers", [(1, 2, []), (1, 5, []), (2, 5, [2]), (2, 2, [2])])
    def test_workers_capped_by_batches(self, pool_sizes, tiny_problems, tmp_path, runs, jobs, workers):
        # S1 on one problem: one group of `runs` cells, split into
        # min(jobs, runs) batches
        cfg = tiny_config(tiny_problems, tmp_path / "out", algorithms=["samtpso-s1"], runs=runs, problem_ids=[1])
        cells = execute(parse_experiment(cfg), jobs=jobs)
        assert pool_sizes == workers
        assert [c.run_index for c in cells] == list(range(1, runs + 1))

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_fewer_than_one_job_rejected(self, pool_sizes, tiny_problems, tmp_path, jobs):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            execute(spec, jobs=jobs)
        with pytest.raises(ConfigError, match="jobs must be >= 1"):
            run_experiment(spec, jobs=jobs)
        assert not (tmp_path / "out").exists() and pool_sizes == []

    # (usable CPUs, runs, workers): S1 at two lp values on one problem is
    # one group of 2 x runs cells, split into min(CPUs, 2 x runs) batches
    @pytest.mark.parametrize("cpus, runs, workers", [(3, 1, [2]), (3, 3, [3]), (1, 3, [])])
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lp", "--values", "2"]])
    def test_cli_jobs_default_to_usable_cpus(self, pool_sizes, tiny_problems, tmp_path, monkeypatch,
                                             command, cpus, runs, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        algorithms = [{"algorithm": "samtpso-s1", "label": label, "lp": lp} for label, lp in (("a", 2), ("b", 5))]
        cfg = tiny_config(tiny_problems, tmp_path / "out", algorithms=algorithms, runs=runs, problem_ids=[1])
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main([command[0], "--config", str(cfg_path), "--quiet", *command[1:]]) == 0
        assert pool_sizes == workers
        assert cli.main([command[0], "--config", str(cfg_path), "--quiet", "--jobs", "1", *command[1:]]) == 0
        assert pool_sizes == workers

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_cli_jobs_zero_exits_2(self, pool_sizes, tiny_problems, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        extra = ["--param", "lp", "--values", "2"] if command == "sweep" else []
        assert cli.main([command, "--config", str(cfg_path), "--jobs", "0", "--quiet", *extra]) == 2
        assert "jobs must be >= 1" in capsys.readouterr().err
        assert pool_sizes == []


class TestTransferCsv:
    def test_rows_match_csv_writer(self, tmp_path):
        # labels that need quoting keep the csv writer's quoting, in the
        # transfer and the convergence file
        rng = np.random.default_rng(4)
        traces = rng.random((4, 4, 3)) * 10.0 ** rng.integers(-300, 300, (4, 4, 3))
        traces[0, 0] = [0.0, np.inf, 1e-5]
        cells = [
            harness.CellResult(label, 3, 2, 0, 3, 7, np.zeros(3), trace, rng.integers(0, 8, (4, 3, 3)))
            for label, trace in zip(("plain", "a,b", 'say "hi"', ""), traces)
        ]

        def write(path, header, rows):
            with open(path, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerow(header)
                for cell in cells:
                    rows(fh, cell)

        path = tmp_path / "transfer.csv"
        write(path, harness.TRANSFER_HEADER, harness._transfer_rows)
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(harness.TRANSFER_HEADER)
            for cell in cells:
                for g in range(4):
                    for task in range(3):
                        for source in range(3):
                            frac = cell.source_counts[g, task, source] / cell.pop_per_task
                            row = [cell.algorithm, 3, 2, g + 2, task + 1, source + 1, repr(float(frac))]
                            out.writerow(row)
        assert path.read_bytes() == expected.read_bytes()
        path = tmp_path / "convergence.csv"
        write(path, harness.CONVERGENCE_HEADER, harness._convergence_rows)
        with open(expected, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(harness.CONVERGENCE_HEADER)
            for cell in cells:
                for g in range(4):
                    for task in range(3):
                        out.writerow([cell.algorithm, 3, 2, g + 1, task + 1, repr(float(cell.trace[g, task]))])
        assert path.read_bytes() == expected.read_bytes()


class TestRunExperiment:
    def test_artifacts_written(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        out = run_experiment(spec)
        results = (out / "results.csv").read_text().splitlines()
        assert results[0] == "experiment,algorithm,problem,task,run,seed,final_fev"
        assert len(results) == 1 + 2 * 2 * 2 * 2  # header + algos*problems*runs*tasks
        convergence = (out / "convergence.csv").read_text().splitlines()
        assert len(convergence) == 1 + 2 * 2 * 2 * 12 * 2
        transfer = (out / "transfer.csv").read_text().splitlines()
        assert len(transfer) == 1 + 1 * 2 * 2 * 11 * 2 * 2  # only the adaptive algorithm
        assert (out / "manifest.json").exists()

    def test_manifest_reproduces_spec(self, tiny_problems, tmp_path):
        from dataclasses import replace

        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        run_experiment(spec)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        respec = parse_experiment(manifest)
        # the manifest carries the resolved problem ids; everything else
        # must round-trip exactly
        assert respec.problem_ids == (1, 2)
        assert respec == replace(spec, problem_ids=(1, 2))

    # a suite config with a label, per-algorithm overrides and one write
    # flag off, and its manifest's text, recorded before the manifest read
    # ExperimentSpec's type hints
    PINNED_CONFIG = {
        "name": "pinned", "suite": "suite2", "suite_seed": 7, "problem_ids": [3, 1], "runs": 4, "master_seed": 42,
        "output_dir": "results/pinned", "write_transfer": False, "max_gens": 300, "bp": 0.005,
        "algorithms": [{"algorithm": "samtpso-s1", "label": "s1-lp5", "lp": 5, "c3": 0.5},
                       {"algorithm": "pso", "eps": 0.01}],
    }
    PINNED_MANIFEST = """\
{
  "algorithms": [
    {
      "algorithm": "samtpso-s1",
      "bp": 0.005,
      "c1": 1.1,
      "c2": 1.1,
      "c3": 0.5,
      "eps": 0.001,
      "label": "s1-lp5",
      "lp": 5,
      "max_gens": 300,
      "pop_per_task": 50,
      "w_end": 0.4,
      "w_start": 0.9
    },
    {
      "algorithm": "pso",
      "bp": 0.005,
      "c1": 1.494,
      "c2": 1.494,
      "c3": 0.0,
      "eps": 0.01,
      "label": "pso",
      "lp": 10,
      "max_gens": 300,
      "pop_per_task": 50,
      "w_end": 0.4,
      "w_start": 0.9
    }
  ],
  "master_seed": 42,
  "name": "pinned",
  "output_dir": "results/pinned",
  "problem_ids": [
    3,
    1
  ],
  "runs": 4,
  "suite": "suite2",
  "suite_seed": 7,
  "write_convergence": true,
  "write_transfer": false
}
"""

    def test_manifest_bytes_are_pinned(self, tmp_path):
        path = tmp_path / "manifest.json"
        harness.write_manifest(path, parse_experiment(self.PINNED_CONFIG))
        assert path.read_text() == self.PINNED_MANIFEST

    def test_rerun_from_manifest_byte_identical(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "a"))
        out_a = run_experiment(spec)
        manifest = json.loads((out_a / "manifest.json").read_text())
        manifest["output_dir"] = str(tmp_path / "b")
        out_b = run_experiment(parse_experiment(manifest))
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
        assert (out_a / "convergence.csv").read_bytes() == (out_b / "convergence.csv").read_bytes()
        assert (out_a / "transfer.csv").read_bytes() == (out_b / "transfer.csv").read_bytes()

    def test_parallel_matches_serial(self, tiny_problems, tmp_path):
        spec1 = parse_experiment(tiny_config(tiny_problems, tmp_path / "serial"))
        spec2 = parse_experiment(tiny_config(tiny_problems, tmp_path / "parallel"))
        out_serial = run_experiment(spec1, jobs=1)
        out_parallel = run_experiment(spec2, jobs=2)
        assert (out_serial / "results.csv").read_bytes() == (out_parallel / "results.csv").read_bytes()
        assert (out_serial / "transfer.csv").read_bytes() == (out_parallel / "transfer.csv").read_bytes()


class TestMemory:
    """A grid holds what it writes and no more: a run records a trace or
    source counts only for a file that is written, a written cell is
    dropped, and the process pool is imported only when a grid starts one."""

    @staticmethod
    def traced_peak(fn) -> int:
        """Peak bytes that Python and numpy allocate while ``fn`` runs."""
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_import_loads_no_pool(self):
        src = Path(harness.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
        code = (
            "import sys, mtpso, mtpso.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_execute_without_records_does_not_grow_with_generations(self, tiny_problems, tmp_path):
        def peak(gens, record):
            cfg = tiny_config(
                tiny_problems, tmp_path / "out", algorithms=["samtpso-s1"], problem_ids=[1], max_gens=gens,
                write_convergence=record, write_transfer=record,
            )
            spec = parse_experiment(cfg)
            return self.traced_peak(lambda: execute(spec))

        peak(50, False)  # first-call allocations
        short = peak(50, False)
        assert peak(1000, False) <= short + 8192
        # recorded, the grid's two cells hold 1000 x 2 doubles of trace each
        assert peak(1000, True) >= short + 2 * 1000 * 2 * 8

    def test_window_does_not_grow_with_lp(self, tiny_problems, tmp_path):
        """A run commits at most max_gens - 1 generations, so a learning
        period past max_gens costs no memory and changes nothing."""

        def cell(lp):
            cfg = tiny_config(tiny_problems, tmp_path / "out", algorithms=["samtpso-s1"], problem_ids=[1],
                              runs=1, max_gens=5, lp=lp)
            spec = parse_experiment(cfg)
            problems = resolve_problems(spec)
            cells = []
            return self.traced_peak(lambda: cells.extend(execute(spec, problems=problems))), cells[0]

        _, short = cell(5)
        peak, long = cell(10**6)
        assert peak < 2**20
        for field in ("final_fevs", "trace", "source_counts"):
            np.testing.assert_array_equal(getattr(long, field), getattr(short, field))

    # (jobs, runs, cells of slack): a two-worker pool can finish a batch or
    # two while an earlier one is being written
    @pytest.mark.parametrize("jobs, runs, slack", [(1, 8, 1), (2, 12, 4)])
    def test_run_experiment_peak_does_not_grow_with_runs(self, tmp_path, monkeypatch, jobs, runs, slack):
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", 1)  # a batch of one cell each
        k, gens = 6, 300  # six tasks, so that a cell's records outweigh the grid's bookkeeping
        path = tmp_path / "problems.json"
        problem = MtoProblem(tasks=tuple(make_task("sphere", 3, t) for t in range(k)))
        path.write_text(json.dumps({"problems": [problem_to_dict(problem)]}))

        def peak(runs):
            out = tmp_path / f"runs{runs}"
            cfg = tiny_config(str(path), out, algorithms=["samtpso-s1"], runs=runs, max_gens=gens)
            return self.traced_peak(lambda: run_experiment(parse_experiment(cfg), jobs=jobs))

        peak(2)  # first-call allocations, and the first pool's imports
        # one cell's trace (G x K doubles) and source counts ((G - 1) x K x K bytes)
        cell = gens * k * 8 + (gens - 1) * k * k
        assert peak(runs) <= peak(2) + slack * cell

    def test_failed_grid_leaves_a_prefix_of_complete_cells_and_no_manifest(self, tmp_path):
        benchmarks.register_base("nan-in-last-problem", lambda y: np.full(np.shape(y)[:-1], np.nan), -1, 1)
        problems = [
            MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("rastrigin", 3, 2))),
            # another unified dimension, so other batches, which run after the first problem's
            MtoProblem(tasks=(make_task("sphere", 4, 3), make_task("nan-in-last-problem", 4, 4))),
        ]
        path = tmp_path / "problems.json"
        path.write_text(json.dumps({"problems": [problem_to_dict(p) for p in problems]}))
        cfg = tiny_config(str(path), tmp_path / "failed")
        with pytest.raises(NonFiniteFitnessError, match="nan-in-last-problem"):
            run_experiment(parse_experiment(cfg))
        # the grid's first cells: S1 on problem 1; S1 on problem 2 failed
        cfg.update(algorithms=["samtpso-s1"], problem_ids=[1], output_dir=str(tmp_path / "complete"))
        complete = run_experiment(parse_experiment(cfg))
        failed = tmp_path / "failed"
        assert sorted(f.name for f in failed.iterdir()) == ["convergence.csv", "results.csv", "transfer.csv"]
        for name in ("results.csv", "convergence.csv", "transfer.csv"):
            assert (failed / name).read_bytes() == (complete / name).read_bytes(), name


class TestScoring:
    def synthetic_results(self, tmp_path):
        path = tmp_path / "results.csv"
        rows = ["experiment,algorithm,problem,task,run,seed,final_fev"]
        for run_index, value in ((1, "0.0"), (2, "0.0")):
            rows.append(f"tiny,alg-a,1,1,{run_index},0,{value}")
        for run_index, value in ((1, "2.0"), (2, "2.0")):
            rows.append(f"tiny,alg-b,1,1,{run_index},0,{value}")
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_worked_example_through_files(self, tmp_path):
        path = self.synthetic_results(tmp_path)
        data = read_results_csv(path)
        algorithms, problems, tables = tabulate_fevs(data)
        assert algorithms == ["alg-a", "alg-b"]
        assert problems == [1]
        got = metrics.score(tables[1])
        assert np.allclose(got, [-2.0, 2.0], rtol=1e-12)

    def test_scores_roundtrip_results_csv(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        out = run_experiment(spec)
        rc = cli.main(["score", str(out / "results.csv")])
        assert rc == 0
        scores_path = out / "scores.csv"
        rows = scores_path.read_text().splitlines()
        assert rows[0] == "problem,algorithm,score"
        # recompute independently from the raw per-run values
        data = read_results_csv(out / "results.csv")
        algorithms, problems, tables = tabulate_fevs(data)
        recomputed = {
            (str(pid), algorithm): repr(float(metrics.score(tables[pid])[qi]))
            for pid in problems
            for qi, algorithm in enumerate(algorithms)
        }
        body = [r.split(",") for r in rows[1:] if not r.startswith("mean")]
        for pid, algorithm, value in body:
            assert recomputed[(pid, algorithm)] == value

    def test_mean_row_is_mean_of_problems(self, tiny_problems, tmp_path):
        spec = parse_experiment(tiny_config(tiny_problems, tmp_path / "out"))
        out = run_experiment(spec)
        assert cli.main(["score", str(out / "results.csv")]) == 0
        rows = [r.split(",") for r in (out / "scores.csv").read_text().splitlines()[1:]]
        per_problem = {}
        means = {}
        for pid, algorithm, value in rows:
            if pid == "mean":
                means[algorithm] = float(value)
            else:
                per_problem.setdefault(algorithm, []).append(float(value))
        for algorithm, values in per_problem.items():
            assert means[algorithm] == pytest.approx(np.mean(values), rel=1e-12)

    def test_mismatched_problem_sets_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        header = "experiment,algorithm,problem,task,run,seed,final_fev"
        a.write_text(f"{header}\nx,alg-a,1,1,1,0,1.0\n")
        b.write_text(f"{header}\nx,alg-b,2,1,1,0,1.0\n")
        with pytest.raises(ConfigError, match="problem sets differ"):
            tabulate_fevs(harness.merge_results([read_results_csv(a), read_results_csv(b)]))

    def test_duplicate_algorithm_across_files_rejected(self, tmp_path):
        path = self.synthetic_results(tmp_path)
        data = read_results_csv(path)
        with pytest.raises(ConfigError, match="more than one input"):
            harness.merge_results([data, data])

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError, match="expected header"):
            read_results_csv(bad)


class TestCli:
    def test_run_command(self, tiny_problems, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        rc = cli.main(["run", "--config", str(cfg_path), "--quiet"])
        assert rc == 0
        assert (tmp_path / "out" / "results.csv").exists()

    def test_progress_line_has_rate_and_eta(self, tiny_problems, tmp_path, capsys, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out", max_gens=4)))
        assert cli.main(["run", "--config", str(cfg_path), "--jobs", "1"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if "runs complete" in line]
        pattern = r"  \d+/8 runs complete, \d+:\d\d elapsed, \d+\.\d\d runs/s, ETA \d+:\d\d"
        assert lines and all(re.fullmatch(pattern, line) for line in lines), lines
        assert lines[-1].startswith("  8/8 ") and lines[-1].endswith(", ETA 0:00")
        assert cli.main(["run", "--config", str(cfg_path), "--jobs", "1", "--quiet"]) == 0
        assert "runs complete" not in capsys.readouterr().out
        # 12 of 24 runs in 41 s; a run of over an hour shows hours
        clock = iter([0.0, 41.0, 3 * 3600 + 0.4])
        monkeypatch.setattr(cli.time, "monotonic", lambda: next(clock))
        progress = cli._progress_printer(False)
        progress(12, 24)
        progress(24, 24)
        assert capsys.readouterr().out.splitlines() == [
            "  12/24 runs complete, 0:41 elapsed, 0.29 runs/s, ETA 0:41",
            "  24/24 runs complete, 3:00:00 elapsed, 0.00 runs/s, ETA 0:00",
        ]

    def test_out_override(self, tiny_problems, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        rc = cli.main(["run", "--config", str(cfg_path), "--quiet", "--out", str(tmp_path / "other")])
        assert rc == 0
        assert (tmp_path / "other" / "results.csv").exists()

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"runs": -3}))
        assert cli.main(["run", "--config", str(cfg_path)]) == 2
        assert "error:" in capsys.readouterr().err
        # a file that is not UTF-8 text, as a config and as results
        cfg_path.write_bytes(b'{"runs": 1, "name": "\xff\xfe"}')
        for command in (["run", "--config", str(cfg_path)], ["score", str(cfg_path)]):
            assert cli.main(command) == 2, command
            assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not UTF-8 text"), command

    def test_negative_suite_seed_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"suite_seed": -1, "problem_ids": [1], "runs": 1, "max_gens": 2}))
        assert cli.main(["run", "--config", str(cfg_path), "--quiet", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'suite_seed'" in err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_unwritable_output_exits_3(self, tiny_problems, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        cfg = tiny_config(tiny_problems, blocker / "out", runs=1, max_gens=2)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 3

    def test_env_seed_override(self, tiny_problems, tmp_path, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "31337")
        assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["master_seed"] == 31337

    def test_bad_env_seed_exits_2(self, tiny_problems, tmp_path, monkeypatch):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        monkeypatch.setenv(cli.SEED_ENV_VAR, "notanumber")
        assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 2

    def test_score_command_table_output(self, tiny_problems, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 0
        assert cli.main(["score", str(tmp_path / "out" / "results.csv")]) == 0
        printed = capsys.readouterr().out
        assert "mean(std)" in printed and "score" in printed
        assert "samtpso-s1" in printed

    def test_score_sample_std(self, tiny_problems, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 0
        assert cli.main(["score", str(tmp_path / "out" / "results.csv"), "--std", "sample"]) == 0

    def test_sweep_degenerate_single_value(self, tiny_problems, tmp_path):
        cfg = tiny_config(tiny_problems, tmp_path / "sweep", runs=1)
        cfg["algorithms"] = [{"algorithm": "samtpso-s1"}, {"algorithm": "pso"}]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["sweep", "--config", str(cfg_path), "--param", "bp",
                       "--values", "0.001", "--quiet"])
        assert rc == 0
        rows = (tmp_path / "sweep" / "results.csv").read_text().splitlines()
        assert any("samtpso-s1@bp=0.001" in r for r in rows)

    def test_sweep_grid_produces_column_per_value(self, tiny_problems, tmp_path):
        cfg = tiny_config(tiny_problems, tmp_path / "sweep", runs=1, max_gens=8)
        cfg["algorithms"] = [{"algorithm": "samtpso-s1"}]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main(["sweep", "--config", str(cfg_path), "--param", "lp",
                       "--values", "2,5,10", "--quiet"])
        assert rc == 0
        scores = (tmp_path / "sweep" / "scores.csv").read_text()
        for value in (2, 5, 10):
            assert f"samtpso-s1@lp={value}" in scores

    @pytest.mark.parametrize("param, value", [("lp", "0"), ("bp", "-0.5"), ("bp", "nan")])
    def test_sweep_out_of_range_value_exits_2(self, tiny_problems, tmp_path, capsys, param, value):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        assert cli.main(["sweep", "--config", str(cfg_path), "--param", param, f"--values={value}", "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_sweep_empty_values_exits_2(self, tiny_problems, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out")))
        assert cli.main(["sweep", "--config", str(cfg_path), "--param", "bp", "--values=", "--quiet"]) == 2
        assert "--values must be comma-separated" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def two_algorithm_results(tmp_path, a_rows):
        """A results file on problem 1, task 1: algorithm A's (run, value)
        rows, then two runs of algorithm B."""
        rows = ["experiment,algorithm,problem,task,run,seed,final_fev"]
        rows += [f"x,A,1,1,{run_index},0,{value}" for run_index, value in a_rows]
        rows += ["x,B,1,1,1,0,2.0", "x,B,1,1,2,0,3.0"]
        path = tmp_path / "results.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_score_non_finite_fev_exits_2(self, tmp_path, capsys, value):
        path = self.two_algorithm_results(tmp_path, [(1, "1.0"), (2, value)])
        assert cli.main(["score", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 3" in err and "finite" in err
        assert not (tmp_path / "scores.csv").exists()

    def test_score_accepts_slightly_negative_fev(self, tmp_path):
        # a Schwefel task evaluates to about -8e-13 at its shift
        path = self.two_algorithm_results(tmp_path, [(1, "-7.96e-13"), (2, "1.0")])
        assert cli.main(["score", str(path)]) == 0
        assert (tmp_path / "scores.csv").exists()

    def test_score_duplicate_row_exits_2(self, tmp_path, capsys):
        path = self.two_algorithm_results(tmp_path, [(1, "1.0"), (1, "9.0"), (2, "2.0")])
        assert cli.main(["score", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lines 2 and 3" in err
        assert not (tmp_path / "scores.csv").exists()

    @pytest.fixture()
    def one_task_file(self, tmp_path):
        path = tmp_path / "bad.json"
        task = problem_to_dict(MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("sphere", 3, 2))))["tasks"][0]
        path.write_text(json.dumps({"problems": [{"tasks": [task]}]}))
        return str(path)

    @staticmethod
    def set_fields(task, **fields):
        """A two-task file whose task ``task`` (1-based) has the given
        fields set, as the JSON text of its problem list."""
        problem = problem_to_dict(MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("sphere", 3, 2))))
        problem["tasks"][task - 1].update(fields)
        return json.dumps({"problems": [problem]})

    # (file text, what the error line must say after the file name)
    MALFORMED_TWO_TASK_FILES = [
        (set_fields(2, dim=True), "problem 1, task 2: 'dim' must be a positive integer"),
        (set_fields(1, fn=["sphere"]), "problem 1, task 1: unknown function ['sphere']"),
        (set_fields(2, rotation=[["x"]]), "problem 1, task 2: could not convert string to float: 'x'"),
        (set_fields(1, rotation=[[float("nan"), 0, 0], [0, 1, 0], [0, 0, 1]]),
         "problem 1, task 1: rotation is not orthogonal"),
        (set_fields(2, rotation=[[1, 0, 0], [0, float("inf"), 0], [0, 0, 1]]),
         "problem 1, task 2: rotation is not orthogonal"),
        (set_fields(1, rotation={"rows": 3}), "problem 1, task 1: float() argument must be"),
        (set_fields(2, upper=True), "problem 1, task 2: 'upper' must be a scalar or length-3 array"),
        (set_fields(1, lower=[[-1, -1, -1]]), "problem 1, task 1: 'lower' must be a scalar or length-3 array"),
        # json.dumps writes -Infinity, which json.load reads back
        (set_fields(2, lower=float("-inf")), "problem 1, task 2: box bounds must be finite"),
        (set_fields(1, lower=-1e308, upper=1e308), "problem 1, task 1: box width upper - lower must be finite"),
    ]

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "lp", "--values", "2"]])
    def test_malformed_task_file_exits_2(self, one_task_file, tmp_path, capsys, command):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(one_task_file, tmp_path / "out")))
        assert cli.main([command[0], "--config", str(cfg_path), *command[1:], "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "at least 2 tasks" in err
        assert not (tmp_path / "out").exists()
        for i, (text, expected) in enumerate(self.MALFORMED_TWO_TASK_FILES):
            path = tmp_path / f"malformed_{i}.json"
            path.write_text(text)
            cfg_path.write_text(json.dumps(tiny_config(str(path), tmp_path / "out")))
            assert cli.main([command[0], "--config", str(cfg_path), *command[1:], "--quiet"]) == 2, expected
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: {expected}"), err
            assert not (tmp_path / "out").exists()
        # a task-file directory whose file is not UTF-8 text
        (tmp_path / "tasks").mkdir()
        path = tmp_path / "tasks" / "p1.json"
        path.write_bytes(b"\xff" + self.set_fields(1).encode())
        cfg_path.write_text(json.dumps(tiny_config(str(tmp_path / "tasks"), tmp_path / "out")))
        assert cli.main([command[0], "--config", str(cfg_path), *command[1:], "--quiet"]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: not UTF-8 text")
        assert not (tmp_path / "out").exists()

    def test_non_finite_fitness_in_a_finite_box_exits_2(self, tmp_path, capsys):
        """Sphere on +-1e200 squares coordinates past the largest double;
        the box is valid, the fitness is not."""
        problem = problem_to_dict(MtoProblem(tasks=(make_task("sphere", 3, 1), make_task("sphere", 3, 2))))
        problem["tasks"][1].update(lower=-1e200, upper=1e200)
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps({"problems": [problem]}))
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(str(path), tmp_path / "out")))
        with np.errstate(over="ignore"):
            assert cli.main(["run", "--config", str(cfg_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: task index 1 (base function 'sphere') gave a non-finite fitness"), err
        assert not (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize(
        "command, expected",
        [
            (["run"], "2 algorithm(s) x 2 problem(s) x 1 run(s)"),
            (["sweep", "--param", "lp", "--values", "2,5"], "4 configuration(s) x 2 problem(s) x 1 run(s)"),
        ],
    )
    def test_task_file_suite_prints_resolved_problem_count(self, tiny_problems, tmp_path, capsys,
                                                           monkeypatch, command, expected):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(tiny_config(tiny_problems, tmp_path / "out", runs=1, max_gens=4)))
        loads = []
        load = harness.benchmarks.load_problem_files

        def counting_load(path):
            loads.append(path)
            return load(path)

        monkeypatch.setattr(harness.benchmarks, "load_problem_files", counting_load)
        assert cli.main([command[0], "--config", str(cfg_path), *command[1:], "--quiet"]) == 0
        assert expected in capsys.readouterr().out
        assert len(loads) == 1

    def test_sweep_default_grid_is_papers(self, tiny_problems, tmp_path):
        assert harness.SWEEP_GRIDS["bp"] == (0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1)
        assert harness.SWEEP_GRIDS["lp"] == (1, 2, 5, 10, 20, 50, 100)
