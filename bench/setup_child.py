"""Set up one workload in a fresh interpreter, then print ``ready``.

run.py starts this once per set-up measurement and times it from process
start to the ``ready`` line: interpreter start, package import, building
the workload's inputs and filling the lazy caches it touches.

    python3 bench/setup_child.py <workload> <seed>
"""

import sys

import run
from workloads import FULL, WORKLOADS

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    WORKLOADS[workload].setup(run.load_hetcov(), seed, FULL, run.OUT_DIR)
    print("ready", flush=True)
