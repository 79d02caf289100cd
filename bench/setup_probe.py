"""Set-up time of one fresh process: import the package, parse the
experiment and build or load its suite, as a grid does before its first
cell. Prints the seconds taken.

    python3 bench/setup_probe.py <src dir> <experiment config>
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import mtpso.cli  # noqa: E402  (the sweep's entry point; imports the rest)
from mtpso import harness  # noqa: E402

spec = harness.parse_experiment(harness.load_config(sys.argv[2]))
harness.resolve_problems(spec)
print(time.perf_counter() - start)
