"""Shared machinery of the repository benchmark.

Timing, the in-memory span recorder, seed derivation, peak-RSS
sampling and the output record live here; the workload modules
(:mod:`paper_set`, :mod:`stream_webgraph`, :mod:`serve_load`) only
drive the program and hand back measured numbers.

Every layer is measured from outside the program: spans wrap calls
into public functions of :mod:`repro`, and counters are read from the
objects the program already exposes. Nothing inside ``src/`` knows it
is being measured.
"""

import contextlib
import json
import os
import resource
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch area for generated inputs, caches, sockets and traces
#: (ignored by git; relative to the checkout root, the run's cwd).
WORK = ".issrbench-work"
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
META_PATH = os.path.join(HERE, "meta.json")

#: Workload name -> the module that runs it.
WORKLOADS = {
    "paper-set": "paper_set",
    "stream-webgraph": "stream_webgraph",
    "serve-cold": "serve_load",
}

#: Cold set-ups timed per run: the run's own, then the rest each in a
#: fresh process (:func:`cold_setups`; ``serve-cold`` starts a fresh
#: service for each instead). ``setup_s`` is their median, so work moved
#: into set-up shows without one slow start deciding it.
SETUP_REPEATS = 3
#: Ceiling on one set-up in its own process.
SETUP_WAIT_S = 120

#: Seconds one iteration of the host-speed reference loop takes at the
#: nominal host speed.
REFERENCE_NOMINAL_S = 5e-6
#: Reference time spent beside each timed interval, as a share of it.
REFERENCE_SHARE = 0.1
#: Fewest iterations a reference run makes (about 1.5 ms).
REFERENCE_MIN_LOOPS = 300
#: The reference loop's operands: fixed, and small enough to stay in
#: cache, so an iteration costs what NumPy's per-call path costs.
_REF_RNG = np.random.default_rng(0)
_REF_VALUES = _REF_RNG.random(1000)
_REF_INDEX = _REF_RNG.integers(0, 1000, 1000)


def reference_s(seconds):
    """Seconds per iteration of the host-speed reference loop, now.

    The shared host's speed drifts by up to 1.5x within a minute. An
    iteration is a small NumPy gather, multiply and sum: the program
    spends its time in many such calls, and the drift moves this loop
    the way it moves the program (a pure-Python loop or a large
    streaming NumPy call moves less). The loop is fixed and runs no
    program code, so it moves with the host and never with a change to
    the program. It runs for about ``REFERENCE_SHARE`` of ``seconds``,
    the interval it stands beside, so a long interval gets a reference
    that spans as many of the host's speed changes.
    """
    loops = max(REFERENCE_MIN_LOOPS,
                int(seconds * REFERENCE_SHARE / REFERENCE_NOMINAL_S))
    t0 = time.perf_counter()
    for _ in range(loops):
        (_REF_VALUES[_REF_INDEX] * 2.0).sum()
    return (time.perf_counter() - t0) / loops


def at_nominal(seconds, ref_s):
    """``seconds`` of host time, rescaled to the nominal host speed.

    ``ref_s`` is :func:`reference_s` measured right beside the interval,
    so a stretch of slow host stretches both and cancels out. Every
    host time the benchmark gates goes through this.
    """
    return seconds * REFERENCE_NOMINAL_S / ref_s


def setup_at_nominal(seconds):
    """A set-up's ``seconds`` at the nominal host speed."""
    return at_nominal(seconds, reference_s(seconds))


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def derive_seed(seed, *keys):
    """A 31-bit seed derived from the benchmark seed and ``keys``."""
    state = np.random.SeedSequence([int(seed), *map(int, keys)])
    return int(state.generate_state(1)[0] & 0x7FFFFFFF)


def median(values):
    return float(np.median(np.asarray(values, dtype=np.float64)))


def cold_setups(workload, seed, run_dir):
    """Seconds of ``SETUP_REPEATS - 1`` set-ups, each in a new process.

    Each runs ``setup_once.py`` with its own directory, so nothing a
    set-up builds or memoises (lowered programs, replay closures, the
    persistent kernel cache, written inputs) is there for the next.
    The seconds are at the nominal host speed (:func:`setup_at_nominal`).
    """
    times = []
    for index in range(1, SETUP_REPEATS):
        directory = os.path.join(run_dir, f"setup{index}")
        os.makedirs(directory)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_once.py"), workload,
             str(seed), directory],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_WAIT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def work_dir(*parts):
    """A directory under the scratch area (created)."""
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def _vm_hwm_mb(pid):
    """Peak resident set (VmHWM) of ``pid`` in MiB, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def descendants(pid):
    """``pid`` and every live descendant process id."""
    out, todo = [], [pid]
    while todo:
        current = todo.pop()
        out.append(current)
        # a child is listed under the thread that forked it
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    todo.extend(int(c) for c in fh.read().split())
            except OSError:
                pass
    return out


def peak_rss_mb(extra_pids=()):
    """Peak RSS of this process plus the peaks of ``extra_pids``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_vm_hwm_mb(pid) for pid in extra_pids)


class Spans:
    """In-memory span recorder, written out as Chrome-trace JSON.

    A span has a name, start, end, parent span and request id. Parents
    come from a per-thread stack, so nested ``span()`` blocks (an
    ``api.run`` call around the lowering, replay and model calls it
    makes) link up without the program's help. Disabled recorders
    cost one attribute test per span.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.events = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1
        self._t0 = time.perf_counter()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, rid=None):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.record(name, start, end, parent=parent, rid=rid,
                        span_id=span_id)

    def record(self, name, start, end, parent=None, rid=None, span_id=None):
        """Record one finished span (times from ``perf_counter``)."""
        if not self.enabled:
            return
        with self._lock:
            if span_id is None:
                span_id = self._next_id
                self._next_id += 1
            self.events.append((span_id, name, start, end, parent, rid,
                                threading.get_ident()))

    def total(self, name):
        """Summed duration (s) and count of the spans called ``name``."""
        durations = [e[3] - e[2] for e in self.events if e[1] == name]
        return float(sum(durations)), len(durations)

    def write(self, path):
        """Write the spans as Chrome-trace JSON (``chrome://tracing``)."""
        from repro.telemetry.trace import TraceRecorder

        recorder = TraceRecorder()
        pid = recorder.process("issrbench")
        tids = {}
        for span_id, name, start, end, parent, rid, thread in self.events:
            if thread not in tids:
                tids[thread] = recorder.thread(pid, f"thread-{len(tids) + 1}")
            recorder.complete(pid, tids[thread], "issrbench", name,
                              (start - self._t0) * 1e6, (end - start) * 1e6,
                              {"id": span_id, "parent": parent, "rid": rid})
        recorder.write(path)


#: The recorder the untraced sweeps and passes of a traced run use.
UNTRACED = Spans(enabled=False)


class Result:
    """What one workload run measured, checked and attempted."""

    def __init__(self):
        self.metrics = {}     # name -> (value, samples)
        self.floors = {}      # layer -> record with value/floor/base
        self.checks = {}      # check name -> bool
        self.attempted = 0
        self.failed = 0
        self.notes = {}

    def put(self, name, value, samples):
        self.metrics[name] = (float(value), int(samples))

    def floor(self, layer, value, floor, base):
        """Report a layer beside the floor it cannot beat."""
        self.floors[layer] = {
            "value": float(value), "floor": float(floor), "base": base,
            "ratio": float(value) / float(floor) if floor else None}

    def host_speed(self, host_s, nominal_s):
        """Note the measured host seconds behind ``nominal_s``.

        ``speed`` is the host's speed in the run relative to the nominal
        speed (below 1: slower); the gated metrics are at nominal speed.
        """
        self.notes["host"] = {"seconds": float(host_s),
                              "nominal_seconds": float(nominal_s),
                              "speed": float(nominal_s) / float(host_s)}

    def check(self, name, ok):
        self.checks[name] = bool(self.checks.get(name, True) and ok)


def build_record(result, spec, workload, seed, seconds, trace, describe):
    """The full machine-readable record and the one-line summary.

    The record carries every metric of the run's kind (end-to-end
    untraced, per-layer traced) with unit, value and sample count; a
    per-layer metric whose layer a workload does not pass through is
    reported as 0 with 0 samples. Raises ``KeyError`` if a workload
    forgot an end-to-end metric, so a malformed run never prints a
    result.
    """
    kind = "per_layer" if trace else "end_to_end"
    attempted = max(int(result.attempted), 1)
    failed = int(result.failed)
    if not trace:
        result.put("ok_rate", 1.0 - failed / attempted, attempted)
    metrics = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name in result.metrics:
            value, samples = result.metrics[name]
        elif trace:
            value, samples = 0.0, 0
        else:
            raise KeyError(f"workload {workload!r} did not measure "
                           f"end-to-end metric {name!r}")
        metrics[name] = {"value": value, "unit": entry["unit"],
                         "samples": samples}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "git_describe": describe,
        "metrics": metrics,
        "error_rate": failed / attempted,
        "floors": result.floors, "checks": result.checks,
        "attempted": attempted, "failed": failed, "notes": result.notes,
    }
    summary = {
        "correct": failed == 0 and all(result.checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    return record, summary
