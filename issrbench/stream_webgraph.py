"""``stream-webgraph``: compiled ISSR ``stream_csrmv`` over an mmap cache.

One op is one full streamed pass: ``open_csr_cache`` on a 200k-row,
~1.6M-nonzero ``webgraph_cache`` ``.csrbin`` written during set-up,
then ``stream_csrmv`` under a main-memory budget that yields about 50
row-block tiles (plan, per-tile kernel calls, page release). The same
replay layer as ``paper-set`` runs here as ~50 small calls per pass,
so per-call cost dominates where ``paper-set`` measures per-nonzero
cost: a per-shape cache that helps one and taxes every call would show.
"""

import hashlib
import os
import time

import numpy as np

import instrument
from harness import (UNTRACED, at_nominal, cold_setups, derive_seed, median,
                     peak_rss_mb, percentile, reference_s, setup_at_nominal)

import repro.stream.executor as executor
from repro import api
from repro.compiler import diskcache
from repro.backends.model import csrmv_stats
from repro.formats.external import open_csr_cache
from repro.kernels.common import PROGRAM_CACHE
from repro.stream import plan_row_tiles, stream_csrmv
from repro.workloads import random_dense_vector
from repro.workloads.disk import webgraph_cache

NROWS = 200_000
AVG_DEGREE = 8
#: Main-memory budget: half of it bounds a tile, so ~52 tiles a pass.
BUDGET_BYTES = 1 << 20
VARIANT, INDEX_BITS = "issr", 32
#: Passes measured at least, however short ``--seconds`` is.
MIN_PASSES = 5

OPEN = "formats.external.open"
PLAN = "stream.plan"
PASS = "stream.pass"


def setup(seed, run_dir):
    """Write the cache, open and plan it, and stream it once.

    Returns the cache's path and ``x``. The persistent kernel cache goes
    under ``run_dir``, so lowering starts cold in every set-up.
    """
    os.environ[diskcache.DIR_ENV] = os.path.join(run_dir, "kernels")
    path = os.path.join(run_dir, "webgraph.csrbin")
    webgraph_cache(path, NROWS, avg_degree=AVG_DEGREE, seed=seed)
    x = random_dense_vector(NROWS, seed=derive_seed(seed, 4))
    matrix = open_csr_cache(path)
    plan_row_tiles(matrix.ptr, matrix.nrows, BUDGET_BYTES)
    stream_csrmv(matrix, x, budget_bytes=BUDGET_BYTES, backend="compiled",
                 variant=VARIANT, index_bits=INDEX_BITS)
    return path, x


def _pass(path, x, spans, backend, tile_latencies):
    """One op: open the cache and stream it once.

    ``tile_latencies`` receives each tile's latency, from the previous
    tile's end (or the pass start) to the end of its kernel call, via
    the executor's public ``on_tile`` hook.
    """
    last = [time.perf_counter()]

    def on_tile(_index, _r0, _r1):
        now = time.perf_counter()
        tile_latencies.append(now - last[0])
        last[0] = now

    with spans.span(OPEN):
        matrix = open_csr_cache(path)
    with spans.span(PASS):
        stats, y = stream_csrmv(matrix, x, budget_bytes=BUDGET_BYTES,
                                backend=backend, variant=VARIANT,
                                index_bits=INDEX_BITS, on_tile=on_tile)
    return stats, y


def _floors(path, x, tiles):
    """Gather and ``reduceat`` floors over one pass's tile products."""
    matrix = open_csr_cache(path)
    gather = reduceat = 0.0
    for r0, r1 in tiles:
        tile = matrix.row_block(r0, r1)
        t0 = time.perf_counter()
        products = tile.vals * x[tile.idcs]
        t1 = time.perf_counter()
        lengths = np.diff(tile.ptr)
        live = lengths > 0
        np.add.reduceat(products, tile.ptr[:-1][live])
        t2 = time.perf_counter()
        gather += t1 - t0
        reduceat += t2 - t1
    return gather, reduceat


def run(seed, seconds, traced, spans, result, clock, run_dir):
    t0 = clock()
    path, x = setup(seed, run_dir)
    setups = [setup_at_nominal(clock() - t0)] + \
        cold_setups("stream-webgraph", seed, run_dir)

    # traced? -> nominal seconds of each pass (against a reference run
    # right after it); host seconds of the untraced passes
    passes = {False: [], True: []}
    host = []
    tile_latencies = []
    digests = []
    first = None
    floors = []
    timed_backend = instrument.TimedCompiledBackend(spans)
    plan_original = executor.plan_row_tiles
    cache0 = (PROGRAM_CACHE.hits, PROGRAM_CACHE.misses)
    deadline = clock() + seconds
    k = 0
    while True:
        # a traced run alternates untraced and traced passes, so the
        # tracing overhead is measured on the same inputs and machine
        traced_pass = traced and k % 2 == 1
        t0 = clock()
        if traced_pass:
            executor.plan_row_tiles = instrument.timed(spans, PLAN,
                                                      plan_original)
            try:
                with spans.span("op", rid=k), \
                        instrument.compiled_layers(spans):
                    stats, y = _pass(path, x, spans, timed_backend, [])
            finally:
                executor.plan_row_tiles = plan_original
        else:
            tile_times = []
            stats, y = _pass(path, x, UNTRACED, "compiled", tile_times)
        elapsed = clock() - t0
        ref = reference_s(elapsed)
        passes[traced_pass].append(at_nominal(elapsed, ref))
        if not traced_pass:
            host.append(elapsed)
            tile_latencies.append([at_nominal(t, ref) for t in tile_times])
        digests.append((hashlib.sha256(y.tobytes()).digest(), stats.cycles,
                        stats.tiles))
        if first is None:
            first = stats
        if traced_pass:
            floors.append(_floors(path, x, stats.tile_bounds))
        k += 1
        done = len(passes[False]) >= MIN_PASSES and \
            (not traced or len(passes[True]) >= MIN_PASSES)
        if done and clock() >= deadline:
            break
    cache1 = (PROGRAM_CACHE.hits, PROGRAM_CACHE.misses)
    result.put("peak_rss_mb", peak_rss_mb(), 1)

    # checks, after the clock and the RSS sample: every pass against a
    # resident run, and the sim figures against the first pass
    resident = open_csr_cache(path).materialize()
    ref_stats, ref = api.run("csrmv", backend="compiled", variant=VARIANT,
                             index_bits=INDEX_BITS, matrix=resident, x=x)
    ref_digest = hashlib.sha256(ref.tobytes()).digest()
    for digest, cycles, tiles in digests:
        ok = digest == ref_digest
        same_sim = (cycles, tiles) == (first.cycles, first.tiles)
        result.check("bit_identical_to_resident", ok)
        result.check("sim_identical_across_rounds", same_sim)
        result.attempted += 1
        result.failed += 0 if ok and same_sim else 1

    # totals and means of nominal times, as in paper-set
    untraced = passes[False]
    tiles = np.asarray(tile_latencies)
    tile_means = np.mean(tiles, axis=0)
    result.put("setup_s", median(setups), len(setups))
    result.put("ops_per_s", len(untraced) / sum(untraced), len(untraced))
    result.host_speed(sum(host), sum(untraced))
    result.put("latency_p50_ms", percentile(tile_means, 50) * 1e3,
               tiles.size)
    result.put("latency_p99_ms", percentile(tile_means, 99) * 1e3,
               tiles.size)
    result.notes["latency"] = (
        f"per tile kernel call: percentiles over the per-tile means of "
        f"{tiles.shape[1]} tiles x {len(untraced)} passes")
    lengths = resident.row_lengths()
    base = csrmv_stats(lengths, "base", 32).cycles
    result.put("sim_cycles", first.cycles, len(untraced))
    result.put("sim_fpu_util", ref_stats.fpu_compute_ops / ref_stats.cycles,
               1)
    result.put("sim_issr_speedup", base / ref_stats.cycles, 1)
    result.notes["tiles"] = first.tiles
    if traced:
        _layers(spans, first, passes, floors, cache0, cache1, result)


def _layers(spans, stats, passes, floors, cache0, cache1, result):
    n = len(passes[True])
    per = {name: spans.total(name)[0] / n for name in (
        OPEN, PLAN, PASS, instrument.TILE, instrument.LOWER,
        instrument.VECTORIZE, instrument.MODEL)}
    op = spans.total("op")[0] / n
    gather = sum(g for g, _r in floors) / n
    reduceat = sum(r for _g, r in floors) / n
    replay = per[instrument.VECTORIZE]
    tiles = stats.tiles * n
    result.put("formats.external.open.s", per[OPEN], n)
    result.put("stream.plan.s", per[PLAN], n)
    result.put("stream.tiles", stats.tiles, n)
    result.put("stream.tile_kernel.s", per[instrument.TILE], tiles)
    result.put("stream.tile_overhead.s", per[PASS] - per[instrument.TILE], n)
    result.put("stream.bytes_in", stats.bytes_in, n)
    result.put("compiler.vectorize.s", replay, tiles)
    result.put("compiler.vectorize.skewed_s", replay, tiles)
    result.put("compiler.vectorize.floor_ratio", replay / reduceat, tiles)
    result.floor("compiler.vectorize", replay, reduceat,
                 "np.add.reduceat over the same tile products, per pass")
    result.put("compiler.lower.s", per[instrument.LOWER], tiles)
    hits, misses = cache1[0] - cache0[0], cache1[1] - cache0[1]
    result.put("program_cache.hit_rate", hits / max(hits + misses, 1),
               hits + misses)
    result.put("backends.model.s", per[instrument.MODEL], tiles)
    result.put("backends.gather_floor.s", gather, tiles)
    result.put("backends.dispatch.s",
               per[instrument.TILE] - per[instrument.LOWER] - replay
               - per[instrument.MODEL] - gather, tiles)
    result.put("trace.overhead_share",
               median(passes[True]) / median(passes[False]) - 1.0, n)
    leaves = per[OPEN] + per[PLAN] + per[instrument.LOWER] + replay \
        + per[instrument.MODEL]
    result.put("unattributed.share", (op - leaves) / op, n)
    result.notes["unattributed"] = (
        "pass time outside the open, plan, lowering, replay and model "
        "spans: tile slicing, gathers, dispatch and page release")
