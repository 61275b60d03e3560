"""Steadiness mode: repeat each workload and print each metric's spread.

    python3 issrbench/steady.py --runs 10 [--workload W ...] [--verbose]

Runs ``run.py`` untraced for ``run_seconds`` once per seed (``FIRST_SEED``
upwards) for every workload, or the ``--workload`` ones, and prints,
per end-to-end metric, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a
share of the median, beside the metric's bound in ``BENCHMARK.json``:
bounds should sit at three times the spread or more. Exits non-zero
when a run fails or a spread (``setup_s`` excepted) exceeds a third of
its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import harness

#: The seed of each workload's first run; the held-out seed of
#: ``meta.json`` lies outside the seeds a 10-run set uses.
FIRST_SEED = 1


def one_run(workload, seed, seconds):
    """The summary line of one untraced ``run.py`` invocation."""
    command = [sys.executable, os.path.join(harness.HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    """``(median, q1, q3, (q3 - q1) / median)`` of ``values``."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else 0.0


def main(argv=None):
    spec = harness.load_json(harness.SPEC_PATH)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--verbose", action="store_true",
                        help="also print every run's value")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workload or names:
        t0 = time.perf_counter()
        summaries = [one_run(workload, FIRST_SEED + i, spec["run_seconds"])
                     for i in range(args.runs)]
        wall = (time.perf_counter() - t0) / args.runs
        if not all(s["correct"] and s["failed"] == 0 for s in summaries):
            steady = False
        print(f"== {workload}: {args.runs} runs, seeds "
              f"{FIRST_SEED}..{FIRST_SEED + args.runs - 1}, "
              f"{wall:.1f} s wall per run")
        for name in summaries[0]["metrics"]:
            values = [s["metrics"][name]["value"] for s in summaries]
            mid, q1, q3, share = spread(values)
            bound = bounds[name]
            ok = name == "setup_s" or share <= bound / 3
            steady = steady and ok
            print(f"{name:20s} median {mid:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                  f"  spread {share:.4f}  bound {bound}  "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
            if args.verbose:
                print("    " + " ".join(f"{v:.6g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
