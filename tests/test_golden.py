"""Golden artifacts: a small fixed manifest must keep producing the same
bytes. A refactor of the optimizer or the harness that changes any draw,
any floating-point operation or any written digit changes a digest here.

The manifest runs S1, S2 and PSO, 2 runs x 150 generations, on suite-1 p4,
suite-1 p6 (a 25-D task in a 50-D unified space) and a 10-task problem of
mixed functions and dimensions; K >= 8 exercises numpy's unrolled row sums
in the probability update. It runs with the default batch cap (the S1
cells of both suite-1 problems share a batch, and S2 and PSO cells do) and
with a cap that leaves every cell alone, serially and on two workers; the
bytes are the same.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from mtpso import harness
from mtpso.benchmarks import build_suite, make_task, problem_to_dict
from mtpso.core import MtoProblem
from mtpso.harness import parse_experiment, run_experiment

# scripts/check_digests.py names the numeric environment the digests were
# pinned on, and this one
_path = Path(__file__).resolve().parent.parent / "scripts" / "check_digests.py"
_spec = importlib.util.spec_from_file_location("check_digests", _path)
check_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_digests)

MANYTASK = (
    ("sphere", 3),
    ("rastrigin", 10),
    ("ackley", 7),
    ("griewank", 5),
    ("weierstrass", 4),
    ("schwefel", 8),
    ("rosenbrock", 6),
    ("rastrigin", 2),
    ("ackley", 10),
    ("sphere", 9),
)

GOLDEN_SHA256 = {
    "results.csv": "e6dbde352da2956ff6e8986e2811a52acf3a2f6a0cf1f6f2fcbd6ba75fbee8d9",
    "convergence.csv": "4356f184205c5e915a8fdd7b069464193e57873277c8c0544e6493ec4456f300",
    "transfer.csv": "ed769c19a9d6cdf967f0d846dc5099fe7f606f85ddc5bd140beaca0718e304ef",
}


def golden_problems():
    suite = build_suite("suite1")
    manytask = MtoProblem(tasks=tuple(make_task(fn, d, 900 + i) for i, (fn, d) in enumerate(MANYTASK)))
    return [suite[3], suite[5], manytask]


@pytest.mark.parametrize(
    "one_cell_batches, jobs",
    [(False, 1), (False, 2), (True, 1), (True, 2)],
    ids=["batched-jobs1", "batched-jobs2", "alone-jobs1", "alone-jobs2"],
)
def test_golden_artifacts(tmp_path, monkeypatch, one_cell_batches, jobs):
    if one_cell_batches:
        monkeypatch.setattr(harness, "BATCH_ELEMENTS", 1)
    problem_file = tmp_path / "problems.json"
    problem_file.write_text(json.dumps({"problems": [problem_to_dict(p) for p in golden_problems()]}))
    spec = parse_experiment(
        {
            "name": "golden",
            "suite": str(problem_file),
            "algorithms": ["samtpso-s1", "samtpso-s2", "pso"],
            "runs": 2,
            "max_gens": 150,
            "master_seed": 5150,
            "output_dir": str(tmp_path / "out"),
        }
    )
    out_dir = run_experiment(spec, jobs=jobs)
    digests = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256, check_digests.environment_note()
