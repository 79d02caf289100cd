"""Multi-task particle swarm optimization with self-adaptive inter-task
knowledge transfer, plus a reproducible benchmark harness."""

from .core import (
    ALGORITHMS,
    MtoProblem,
    RunConfig,
    TaskDef,
    decode,
    encode,
    evaluate_task,
)
from .benchmarks import (
    FromFiles,
    GeneratedSeeded,
    SuiteSpec,
    base_eval,
    build_suite,
    make_task,
)
from .adaptation import (
    MemoryWindow,
    choose_sources,
    focus_flags,
    update_probabilities,
)
from .optimizer import RunResult, SwarmState, init_swarm, run, run_batch
from .metrics import FevTable, TransferStats, format_cell, score, transfer_rates
from .harness import ExperimentSpec, derive_seed, execute, parse_experiment, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "ExperimentSpec",
    "FevTable",
    "FromFiles",
    "GeneratedSeeded",
    "MemoryWindow",
    "MtoProblem",
    "RunConfig",
    "RunResult",
    "SuiteSpec",
    "SwarmState",
    "TaskDef",
    "TransferStats",
    "base_eval",
    "build_suite",
    "choose_sources",
    "decode",
    "derive_seed",
    "encode",
    "evaluate_task",
    "execute",
    "focus_flags",
    "format_cell",
    "init_swarm",
    "make_task",
    "parse_experiment",
    "run",
    "run_batch",
    "run_experiment",
    "score",
    "transfer_rates",
    "update_probabilities",
]
