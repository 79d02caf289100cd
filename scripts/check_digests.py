"""Re-create the three full-length reference manifests and check their bytes.

    python3 scripts/check_digests.py [--keep DIR]

Each manifest runs through ``mtpso.cli.main`` in a temporary directory (or
under ``--keep DIR``), imported from this checkout's ``src/``, and the
SHA-256 of every artifact is compared with the digest recorded when the
optimizer was first stacked:

- ``s1p2``: suite-1 p2, S1/S2/PSO, 3 runs x 2,000 generations, master
  seed 424242;
- ``s2p7``: suite-2 p7, S1/S2, 2 runs x 2,000 generations, ``--jobs 2``,
  master seed 424243;
- ``mt``: ``mtpso sweep --param lp --values 2,5,10`` on the two 10-task
  files of the ``manytask-sweep`` benchmark workload at seed 1 (written by
  ``bench/workloads.py``), S1/S2, 2 runs x 1,000 generations, master seed
  424244.

Each manifest then runs again with ``write_convergence`` and
``write_transfer`` off, so that its runs record no trace or source counts;
its ``results.csv`` (and the sweep's ``scores.csv``) must match the same
digests.

A refactor that changes any draw, floating-point operation or written digit
changes a digest. Prints one line per artifact and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import mtpso.cli  # noqa: E402
import workloads  # noqa: E402

EXPECTED = {
    "s1p2": {
        "results.csv": "e5f73d90f6f95cdc65f7ec99b30df92fbc179b365e50f644d83a2b35fb2b9b5f",
        "convergence.csv": "f54ce0069eaf04e1685019f26f434518014297539020ca2c1aa8b6c9ad535bce",
        "transfer.csv": "1a1a1d25686d3acd9217e2f2bc75cf0b27c70492ff3758fbbd1ccc09064d6502",
    },
    "s2p7": {
        "results.csv": "ee17023d6c2c838252e5b8c7d252957afa74c7eebebb9f281ffd02d29d70bb94",
        "convergence.csv": "ebb515f724ce76df2d9f3dceddd66300d77aba2c0147b6c5fd19ed42d546f382",
        "transfer.csv": "a4451d726849dc9b7335f93e48d206f39f233534ec1bab06b2794ad1edaf750e",
    },
    "mt": {
        "results.csv": "1d5662a075db41e8846a4303ba4dca8164e8a0e97efe8e8710ec2004db4c7672",
        "convergence.csv": "0315e902d39e64bc18251f1ac2e3fc28ee38ce1b0875fd7c4189a91c955cf6da",
        "transfer.csv": "1510a516540f2e8eb49b123a91ca05dec367a27d5f4521fe71cb11a66e066a58",
        "scores.csv": "26587e39fc6aa2961a229bb052adf14c7dfc21fc66ff504aabaab0b9c5442d75",
    },
}


def manifests(work: Path) -> dict[str, tuple[dict, list[str]]]:
    """Each manifest's config and the command-line arguments after
    ``--config``; the config file's stem is the experiment name."""
    tasks = work / "mt-tasks"
    workloads.write_manytask_problems(tasks, np.random.default_rng([1, 2]), workloads.MANYTASK_PROBLEMS)
    return {
        "s1p2": (
            dict(suite="suite1", problem_ids=[2], algorithms=["samtpso-s1", "samtpso-s2", "pso"],
                 runs=3, max_gens=2000, master_seed=424242),
            ["run"],
        ),
        "s2p7": (
            dict(suite="suite2", problem_ids=[7], algorithms=["samtpso-s1", "samtpso-s2"],
                 runs=2, max_gens=2000, master_seed=424243),
            ["run", "--jobs", "2"],
        ),
        "mt": (
            dict(suite=str(tasks), algorithms=["samtpso-s1", "samtpso-s2"],
                 runs=2, max_gens=1000, master_seed=424244),
            ["sweep", "--param", "lp", "--values", "2,5,10"],
        ),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The second pass: the write flags off, and the artifacts still written.
NO_RECORDS = {"write_convergence": False, "write_transfer": False}
UNRECORDED = ("results.csv", "scores.csv")


def expected_artifacts(name: str, records: bool) -> dict[str, str]:
    return {a: d for a, d in EXPECTED[name].items() if records or a in UNRECORDED}


def check(work: Path) -> int:
    mismatches = 0
    runs = manifests(work)
    for records in (True, False):
        # the config file's stem names the experiment, so each pass has
        # its own directory
        where = work if records else work / "no-records"
        where.mkdir(exist_ok=True)
        for name, (config, command) in runs.items():
            config_path = where / f"{name}.json"
            config_path.write_text(json.dumps(config if records else {**config, **NO_RECORDS}))
            out = where / name
            label = name if records else f"{name} (records off)"
            expected = expected_artifacts(name, records)
            argv = [command[0], "--config", str(config_path), "--out", str(out), "--quiet", *command[1:]]
            with contextlib.redirect_stdout(io.StringIO()):
                status = mtpso.cli.main(argv)
            if status != 0:
                print(f"{label}: mtpso {command[0]} exited with status {status}")
                mismatches += len(expected)
                continue
            for artifact, digest in expected.items():
                got = sha256(out / artifact) if (out / artifact).is_file() else "missing"
                ok = got == digest
                mismatches += not ok
                print(f"{label}/{artifact}: {'ok' if ok else 'MISMATCH ' + got}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", default=None, help="write the manifests here and keep them")
    args = parser.parse_args(argv)
    if args.keep:
        Path(args.keep).mkdir(parents=True, exist_ok=True)
        mismatches = check(Path(args.keep))
    else:
        with tempfile.TemporaryDirectory() as tmp:
            mismatches = check(Path(tmp))
    total = sum(len(expected_artifacts(name, records)) for name in EXPECTED for records in (True, False))
    print(f"{total - mismatches} of {total} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
