"""Time one cold set-up of a workload in this fresh process.

    python3 issrbench/setup_once.py paper-set 0 DIR

Imports the workload's module, then times its ``setup(seed, DIR)``
and prints its seconds at the nominal host speed
(:func:`harness.setup_at_nominal`). :func:`harness.cold_setups` runs it so every
set-up a run reports starts with nothing built or memoised.
"""

import importlib
import os
import sys
import time

import harness


def main(argv):
    workload, seed, directory = argv
    sys.path.insert(0, harness.SRC)
    os.chdir(harness.ROOT)
    module = importlib.import_module(harness.WORKLOADS[workload])
    t0 = time.perf_counter()
    module.setup(int(seed), directory)
    print(harness.setup_at_nominal(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
