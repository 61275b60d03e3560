"""The repository benchmark: one workload run, one result line.

    python3 issrbench/run.py --workload paper-set --seed 0 --seconds 10 --trace 0

Runs from the root of a checkout with the sources under ``src/``.
Untraced runs (``--trace 0``) print every end-to-end metric of
``BENCHMARK.json``; traced runs (``--trace 1``) print every per-layer
metric and write the run's spans as Chrome-trace JSON under
``.issrbench-work/traces/``. The second-to-last line of standard
output is the full record (``{"record": ...}``: units, sample counts,
floors, checks, seed, ``git describe``); the last line is the summary
``{"correct", "attempted", "failed", "metrics"}``. The exit code is
non-zero, with no result printed, when the sources are missing or the
run cannot complete.

Host times in the end-to-end metrics (``setup_s``, ``ops_per_s``,
``latency_*``) are at the nominal host speed: each timed interval is
rescaled by a fixed reference loop timed right beside it
(:func:`harness.at_nominal`), because the shared host's speed drifts
by up to 1.5x within a minute. The record's ``notes.host`` keeps the
measured host seconds and the run's speed relative to nominal.
"""

import argparse
import json
import os
import shutil
import sys
import time

import harness

def main(argv=None):
    spec = harness.load_json(harness.SPEC_PATH)
    meta = harness.load_json(harness.META_PATH)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, default=meta["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"no program sources under {harness.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, harness.SRC)
    os.chdir(harness.ROOT)

    import importlib

    from repro.eval.parallel import code_version

    module = importlib.import_module(harness.WORKLOADS[args.workload])
    spans = harness.Spans(enabled=bool(args.trace))
    result = harness.Result()
    run_dir = harness.work_dir(f"run-{os.getpid()}")
    try:
        module.run(args.seed, args.seconds, bool(args.trace), spans, result,
                   time.perf_counter, run_dir=run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.trace:
        trace_path = os.path.join(
            harness.work_dir("traces"),
            f"{args.workload}-seed{args.seed}.json")
        spans.write(trace_path)
        result.notes["trace_file"] = trace_path
    record, summary = harness.build_record(
        result, spec, args.workload, args.seed, args.seconds, args.trace,
        code_version())
    print(json.dumps({"record": record}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
