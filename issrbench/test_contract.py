"""Self-test of the benchmark's output contract.

    python3 -m pytest issrbench/test_contract.py -q

Validates ``BENCHMARK.json`` against the benchmark contract, then runs
every workload briefly, untraced and traced, and checks the record and
the summary line against it: exactly the declared metrics with their
units, sample counts, a non-zero value for every end-to-end metric, a
measured value for every per-layer metric that applies to the
workload, and the seed and ``git describe``. Finally it checks that a
checkout holding only the benchmark fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

SPEC = harness.load_json(harness.SPEC_PATH)
META = harness.load_json(harness.META_PATH)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
SHORT_SECONDS = 1


def _run(workload, trace, cwd=harness.ROOT, seed=None):
    seed = META["default_seed"] if seed is None else seed
    script = os.path.join(cwd, "issrbench", "run.py")
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SHORT_SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(SPEC["paths"]) <= 16
    for path in SPEC["paths"]:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert os.path.isdir(os.path.join(harness.ROOT, path))
    assert 1 <= len(SPEC["command"]) <= 32
    assert all(len(arg) <= 200 for arg in SPEC["command"])
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = {m["name"]: m for m in SPEC["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len(json.dumps(SPEC)) <= 64 * 1024


def test_meta_names_declared_metrics():
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert set(META["applies"]) == set(WORKLOADS)
    for metrics in META["applies"].values():
        assert set(metrics) <= per_layer
    for group in META["layer_map"]:
        assert set(group["metrics"]) <= per_layer
    assert META["held_out_seed"] != META["default_seed"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_matches_contract(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]

    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert isinstance(summary["attempted"], int) and summary["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(summary["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = summary["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        full = record["metrics"][metric["name"]]
        assert full["value"] == entry["value"]
        assert full["unit"] == entry["unit"]
        assert isinstance(full["samples"], int)
        if not trace:
            assert entry["value"] != 0, metric["name"]
            assert full["samples"] >= 1, metric["name"]

    if not trace:
        assert record["metrics"]["setup_s"]["samples"] == \
            harness.SETUP_REPEATS
    if trace:
        for name in META["applies"][workload]:
            assert record["metrics"][name]["samples"] >= 1, name
    assert record["workload"] == workload
    assert record["seed"] == META["default_seed"]
    assert record["git_describe"]
    assert record["error_rate"] == 0
    assert all(record["checks"].values()), record["checks"]


def test_sim_figures_at_default_seed():
    summary = json.loads(_run("paper-set", 0).stdout.strip().splitlines()[-1])
    metrics = summary["metrics"]
    assert metrics["sim_issr_speedup"]["value"] == pytest.approx(6.26,
                                                                 abs=0.01)
    assert metrics["sim_fpu_util"]["value"] <= 0.80


def test_fails_without_the_program(tmp_path):
    shutil.copy(harness.SPEC_PATH, tmp_path / "BENCHMARK.json")
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(harness.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
