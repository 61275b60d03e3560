"""``paper-set``: compiled CsrMV through ``repro.api.run``, closed loop.

One op is one ``api.run`` call. A sweep runs the 12 stand-ins of the
paper's Fig. 4b-d SuiteSparse envelope (7k-680k nonzeros; uniform,
banded, block and power-law rows) as (base,32), (ssr,32), (issr,32)
and (issr,16) on one thread. The replay closures of
``compiler.vectorize`` do nearly all the work here, so this workload
measures per-nonzero replay cost; the serve and stream workloads do
little of it.

The sparsity structure is the catalog's (``MatrixSpec.generate`` with
its per-name seed), as a fixed matrix collection's would be: the sim
figures then repeat exactly on every seed and match the figures the
repository reproduces. The benchmark seed draws the ``x`` vectors and,
for every seed but 0, fresh nonzero values.
"""

import os
import time

import numpy as np

import instrument
from harness import (UNTRACED, at_nominal, cold_setups, derive_seed, median,
                     peak_rss_mb, percentile, reference_s, setup_at_nominal)

from repro import api
from repro.compiler import diskcache
from repro.formats.csr import CsrMatrix
from repro.kernels.common import PROGRAM_CACHE
from repro.workloads import collection, random_dense_vector

VARIANTS = (("base", 32), ("ssr", 32), ("issr", 32), ("issr", 16))
#: Sweeps measured at least, however short ``--seconds`` is.
MIN_SWEEPS = 3
#: Relative tolerance against the ``np.add.reduceat`` floor, scaled by
#: each row's sum of |products|: the kernels only reorder the sum.
RTOL = 1e-10
#: Scale of the matrix checked bit for bit against the cycle backend.
CYCLE_CHECK_SCALE = 0.1


def _matrix(spec, seed, index, scale=1.0):
    """The stand-in's structure, with seed-drawn values off seed 0."""
    m = spec.generate(scale=scale)
    if seed == 0:
        return m
    vals = random_dense_vector(m.nnz, seed=derive_seed(seed, 1, index))
    return CsrMatrix(m.ptr, m.idcs, vals, m.shape)


def setup(seed, run_dir):
    """Inputs of the run, with all four programs lowered once.

    The persistent kernel cache goes under ``run_dir``, so lowering
    starts cold in every set-up rather than from an earlier run's hints.
    """
    os.environ[diskcache.DIR_ENV] = os.path.join(run_dir, "kernels")
    specs = collection.paper_set()
    mats = [_matrix(spec, seed, i) for i, spec in enumerate(specs)]
    xs = [random_dense_vector(spec.ncols, seed=derive_seed(seed, 2, i))
          for i, spec in enumerate(specs)]
    # lower all four programs once, so no sweep pays the first lowering
    for variant, bits in VARIANTS:
        api.run("csrmv", backend="compiled", variant=variant,
                index_bits=bits, matrix=mats[0], x=xs[0])
    return specs, mats, xs


def _reduceat(products, ptr):
    """Row sums by ``np.add.reduceat``: the NumPy floor for replay."""
    lengths = np.diff(ptr)
    out = np.zeros(len(lengths), dtype=np.float64)
    live = lengths > 0
    if live.any():
        out[live] = np.add.reduceat(products, ptr[:-1][live])
    return out


def _sweep(mats, xs, spans, traced, floor_times):
    """One timed sweep.

    Returns per-op latencies at the nominal host speed (each op against
    a reference run right after it), the host seconds of the sweep's
    ops, and per-op outputs.
    """
    latencies, outputs = [], []
    host = 0.0
    op = 0
    for m, x in zip(mats, xs):
        for variant, bits in VARIANTS:
            with spans.span("op", rid=op):
                t0 = time.perf_counter()
                stats, y = api.run("csrmv", backend="compiled",
                                   variant=variant, index_bits=bits,
                                   matrix=m, x=x)
                elapsed = time.perf_counter() - t0
            host += elapsed
            latencies.append(at_nominal(elapsed, reference_s(elapsed)))
            outputs.append((int(stats.cycles), int(stats.fpu_compute_ops), y))
            if traced:
                # floors on the same products, outside the op's time
                t0 = time.perf_counter()
                products = m.vals * x[m.idcs]
                t1 = time.perf_counter()
                _reduceat(products, m.ptr)
                t2 = time.perf_counter()
                floor_times.append((t1 - t0, t2 - t1))
            op += 1
    return latencies, host, outputs


def _check(outputs, refs, first, result):
    """Outputs against the floor, and sim figures against round one."""
    for op, (cycles, fpu, y) in enumerate(outputs):
        ref, scale = refs[op // len(VARIANTS)]
        ok = bool(np.all(np.abs(y - ref) <= RTOL * scale))
        result.check("within_tolerance_of_reduceat", ok)
        if first is not None:
            same_sim = (cycles, fpu) == first[op][:2]
            same_bits = y.tobytes() == first[op][2].tobytes()
            result.check("sim_identical_across_rounds", same_sim)
            result.check("bit_identical_across_rounds", same_bits)
            ok = ok and same_sim and same_bits
        result.attempted += 1
        result.failed += 0 if ok else 1


def _cycle_backend_check(specs, seed, result):
    """Compiled == cycle backend, bit for bit, on one small stand-in."""
    spec = specs[0]
    m = _matrix(spec, seed, 0, scale=CYCLE_CHECK_SCALE)
    x = random_dense_vector(spec.ncols, seed=derive_seed(seed, 3))
    for variant, bits in VARIANTS:
        _s, y_cycle = api.run("csrmv", backend="cycle", variant=variant,
                              index_bits=bits, matrix=m, x=x)
        _s, y = api.run("csrmv", backend="compiled", variant=variant,
                        index_bits=bits, matrix=m, x=x)
        result.check("bit_identical_to_cycle_backend",
                     y.tobytes() == y_cycle.tobytes())


def _sim_metrics(outputs, result):
    by_variant = {v: [] for v in VARIANTS}
    for op, (cycles, fpu, _y) in enumerate(outputs):
        by_variant[VARIANTS[op % len(VARIANTS)]].append((cycles, fpu))
    issr16 = by_variant[("issr", 16)]
    issr16_cycles = sum(c for c, _f in issr16)
    result.put("sim_cycles", sum(c for c, _f, _y in outputs), len(outputs))
    result.put("sim_fpu_util", sum(f for _c, f in issr16) / issr16_cycles,
               len(issr16))
    result.put("sim_issr_speedup",
               sum(c for c, _f in by_variant[("base", 32)]) / issr16_cycles,
               len(issr16))
    result.notes["sim_fpu_util_peak"] = max(f / c for c, f in issr16)


def run(seed, seconds, traced, spans, result, clock, run_dir):
    t0 = clock()
    specs, mats, xs = setup(seed, run_dir)
    setups = [setup_at_nominal(clock() - t0)] + \
        cold_setups("paper-set", seed, run_dir)

    refs = []
    for m, x in zip(mats, xs):
        products = m.vals * x[m.idcs]
        refs.append((_reduceat(products, m.ptr),
                     _reduceat(np.abs(products), m.ptr)))

    # traced? -> summed nominal op time per sweep
    sweeps = {False: [], True: []}
    host = []   # host seconds of each untraced sweep's ops
    per_op = []
    first = None
    floor_times = []
    cache0 = (PROGRAM_CACHE.hits, PROGRAM_CACHE.misses)
    deadline = clock() + seconds
    k = 0
    while True:
        # a traced run alternates untraced and traced sweeps, so the
        # tracing overhead is measured on the same inputs and machine
        traced_sweep = traced and k % 2 == 1
        if traced_sweep:
            with instrument.compiled_layers(spans):
                latencies, _host, outputs = _sweep(mats, xs, spans, True,
                                                   floor_times)
        else:
            latencies, seconds_on_host, outputs = _sweep(
                mats, xs, UNTRACED, False, floor_times)
            host.append(seconds_on_host)
        _check(outputs, refs, first, result)
        first = first or outputs
        sweeps[traced_sweep].append(sum(latencies))
        if not traced_sweep:
            per_op.append(latencies)
        k += 1
        done = len(sweeps[False]) >= MIN_SWEEPS and \
            (not traced or len(sweeps[True]) >= MIN_SWEEPS)
        if done and clock() >= deadline:
            break
    cache1 = (PROGRAM_CACHE.hits, PROGRAM_CACHE.misses)
    result.put("peak_rss_mb", peak_rss_mb(), 1)
    _cycle_backend_check(specs, seed, result)

    # totals and means of nominal times: every intermittent cost counts,
    # and the reference beside each op takes out the host's drift
    n_ops = len(mats) * len(VARIANTS)
    untraced = sweeps[False]
    op_means = np.mean(np.asarray(per_op), axis=0)
    samples = n_ops * len(untraced)
    result.put("setup_s", median(setups), len(setups))
    result.put("ops_per_s", samples / sum(untraced), len(untraced))
    result.host_speed(sum(host), sum(untraced))
    result.put("latency_p50_ms", percentile(op_means, 50) * 1e3, samples)
    result.put("latency_p99_ms", percentile(op_means, 99) * 1e3, samples)
    result.notes["latency"] = ("percentiles over the per-op means of "
                               f"{n_ops} distinct ops x {len(untraced)} "
                               "sweeps")
    _sim_metrics(first, result)
    if traced:
        _layers(spans, specs, sweeps, floor_times, cache0, cache1, result)


def _layers(spans, specs, sweeps, floor_times, cache0, cache1, result):
    ops = instrument.child_totals(spans, "op")
    n = len(ops)
    lower = vectorize = model = 0.0
    skewed, regular = [], []
    for rid, _dur, children in ops:
        lower += children.get(instrument.LOWER, 0.0)
        model += children.get(instrument.MODEL, 0.0)
        replay = children.get(instrument.VECTORIZE, 0.0)
        vectorize += replay
        spec = specs[rid // len(VARIANTS)]
        (skewed if spec.distribution == "powerlaw" else regular).append(
            replay)
    op_total = sum(d for _r, d, _c in ops)
    gather = sum(g for g, _r in floor_times)
    reduceat = sum(r for _g, r in floor_times)
    dispatch = op_total - lower - vectorize - model - gather
    result.put("compiler.vectorize.s", vectorize / n, n)
    result.put("compiler.vectorize.skewed_s",
               sum(skewed) / max(len(skewed), 1), len(skewed))
    result.put("compiler.vectorize.regular_s",
               sum(regular) / max(len(regular), 1), len(regular))
    result.put("compiler.vectorize.floor_ratio", vectorize / reduceat, n)
    result.floor("compiler.vectorize", vectorize / n, reduceat / n,
                 "np.add.reduceat over the same products, per op")
    result.put("compiler.lower.s", lower / n, n)
    hits, misses = cache1[0] - cache0[0], cache1[1] - cache0[1]
    result.put("program_cache.hit_rate", hits / max(hits + misses, 1),
               hits + misses)
    result.put("backends.model.s", model / n, n)
    result.put("backends.gather_floor.s", gather / n, n)
    result.put("backends.dispatch.s", dispatch / n, n)
    result.put("trace.overhead_share",
               median(sweeps[True]) / median(sweeps[False]) - 1.0,
               len(sweeps[True]))
    result.put("unattributed.share", (dispatch + gather) / op_total, n)
    result.notes["unattributed"] = (
        "op time outside the lowering, replay and model spans: the "
        "operand gather plus registry dispatch")
