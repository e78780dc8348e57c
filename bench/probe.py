"""Set-up probe: import legkit, run one workload's warm-up op, say ready.

Usage: python3 bench/probe.py <workload>
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import legkit  # noqa: E402,F401  (the import is what is being timed)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].warmup()
print("ready", flush=True)
