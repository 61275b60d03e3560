"""``serve-cold``: closed-loop load over the service's UNIX socket.

The service is ``python -m repro.serve`` with its defaults (2 workers,
compiled and fast backends, shared-memory data plane) on a UNIX
socket, started as its own process. The load is a closed loop over
``CONNECTIONS`` :class:`~repro.serve.SocketClient` connections, each
keeping ``DEPTH`` requests in flight and sending the next one when the
oldest reply arrives; latency runs from send to that reply. An
untraced run measures in windows of ``WINDOW_S`` seconds: between two
windows the in-flight requests drain and the load generator times the
host-speed reference (:func:`harness.reference_s`) on an idle machine.

Every request is an E2-point ``csrmv`` (96x2048, 128 nonzeros a row)
given as generator specs: one shared matrix spec (the fixed E2 matrix,
seed ``MATRIX_SEED``), a distinct ``x`` seed per request, drawn from
the benchmark seed. Every request is new, so each crosses the
scheduler, the shm data plane, a warm worker (which builds the
operands) and the result segment; the kernel itself is ~1 ms of it.

The traced run ends with a cached replay: requests the run already
computed are sent again, so every reply takes the point-cache fast
path and the client encode, socket, JSON handling, admission and
``PointCache.load`` take the time while the workers idle. That phase
gives the cached-path layers and floors (the client-vs-server gap).
"""

import collections
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from harness import (SETUP_REPEATS, SRC, at_nominal, derive_seed,
                     descendants, median, peak_rss_mb, percentile,
                     reference_s, setup_at_nominal)

from repro import api
from repro.backends.model import csrmv_stats
from repro.errors import ServeError
from repro.eval.parallel import PointCache
from repro.serve import SocketClient, protocol
from repro.workloads import random_dense_vector

NROWS, NCOLS, NNZ = 96, 2048, 96 * 128
MATRIX_SEED = 0
CONNECTIONS = 2
#: Requests each connection keeps in flight.
DEPTH = 8
#: Most distinct requests behind the traced run's cached replay.
REPLAY_DISTINCT = 400
#: Ceiling on any blocking wait; a lost reply fails the run.
WAIT_S = 60
#: Repetitions of each floor timed beside the serve layers.
FLOOR_REPS = 200
#: Seconds of load between the pauses of an untraced run. In each
#: pause, with no request in flight, the load generator times the
#: host-speed reference.
WINDOW_S = 2.0


class Server:
    """``python -m repro.serve`` as a child process on a UNIX socket."""

    def __init__(self, directory):
        self.socket = os.path.join(directory, "serve.sock")
        self.cache_dir = os.path.join(directory, "cache")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, env.get("PYTHONPATH")) if p)
        self._log = open(os.path.join(directory, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--socket", self.socket,
             "--cache-dir", self.cache_dir],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True)

    def wait_ready(self):
        deadline = time.perf_counter() + WAIT_S
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise ServeError(f"server exited with {self.proc.returncode}"
                                 f"; see {self._log.name}")
            if os.path.exists(self.socket):
                try:
                    with SocketClient(self.socket, timeout=WAIT_S) as client:
                        client.ping()
                    return
                except OSError:
                    pass
            time.sleep(0.005)
        raise ServeError(f"server not ready after {WAIT_S}s")

    def pids(self):
        return descendants(self.proc.pid)

    def stop(self):
        """SIGTERM, wait; kill the whole process group if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(WAIT_S)
                except subprocess.TimeoutExpired:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                    self.proc.wait(WAIT_S)
        finally:
            self._log.close()


def _request(x_seed):
    return {"kernel": "csrmv", "backend": "compiled", "workload": {
        "matrix": {"gen": "random_csr", "nrows": NROWS, "ncols": NCOLS,
                   "nnz": NNZ, "seed": MATRIX_SEED},
        "x": {"gen": "random_dense_vector", "dim": NCOLS, "seed": x_seed}}}


class Load:
    """A request stream and its direct-run oracle.

    New requests (``x`` seeds counting up from a seed-derived base), or,
    with ``replay``, the given ``x`` seeds over and over in a
    seed-shuffled order.
    """

    def __init__(self, seed, replay=None):
        self._base = derive_seed(seed, 6)
        self.warm_seed = self._base + 10 ** 9   # never a measured request
        self.replay = None
        if replay is not None:
            order = np.random.default_rng(derive_seed(seed, 7)).permutation(
                len(replay))
            self.replay = [replay[i] for i in order]
        self._next = 0
        self._lock = threading.Lock()
        self.template = protocol.validate_request(_request(0))
        self.matrix = protocol.build_operands(self.template)["matrix"]
        self._digests = {}

    def next(self):
        """``(x_seed, request)`` of the next request to send."""
        with self._lock:
            i = self._next
            self._next += 1
        if self.replay is None:
            x_seed = self._base + i
        else:
            x_seed = self.replay[i % len(self.replay)]
        return x_seed, _request(x_seed)

    def direct(self, x_seed):
        """``(stats, y)`` of a direct ``api.run`` of the same request."""
        req = self.template
        return api.run(req["kernel"], backend=req["backend"],
                       variant=req["variant"], index_bits=req["index_bits"],
                       check=req["check"], matrix=self.matrix,
                       x=random_dense_vector(NCOLS, seed=x_seed))

    def digest(self, x_seed):
        if x_seed not in self._digests:
            _stats, y = self.direct(x_seed)
            self._digests[x_seed] = protocol.result_digest("vector", y)
        return self._digests[x_seed]


def _summary(reply):
    """What the checks need of a reply, so the rows stay small."""
    if reply.get("ok") is not True:
        return ServeError(f"reply not ok: {reply!r}")
    stats = reply["stats"]
    return (reply["digest"], reply["cached"], stats["cycles"],
            stats["fpu_compute_ops"])


def drive(socket_path, load, seconds, spans=None):
    """The closed loop; returns ``(t_send, t_reply, x_seed, reply)`` rows.

    One thread per connection keeps ``DEPTH`` requests in flight,
    sending the next request when the oldest reply arrives. ``reply``
    is the :func:`_summary` of the reply message, or the
    :class:`ServeError` the client raised for it.
    """
    start = time.perf_counter()
    deadline = start + seconds
    rows = [None] * CONNECTIONS
    errors = []

    def connection(index):
        out = []
        try:
            with SocketClient(socket_path, timeout=WAIT_S) as client:
                pending = collections.deque()

                def send():
                    x_seed, request = load.next()
                    sent = time.perf_counter()
                    pending.append((client.submit(request), x_seed, sent))

                for _ in range(DEPTH):
                    send()
                while pending:
                    client_id, x_seed, sent = pending.popleft()
                    try:
                        reply = _summary(client.wait(client_id))
                    except ServeError as exc:
                        reply = exc
                    done = time.perf_counter()
                    out.append((sent, done, x_seed, reply))
                    if spans is not None:
                        spans.record("serve.request", sent, done, rid=x_seed)
                    if done < deadline:
                        send()
        except Exception as exc:  # the run fails below, naming it
            errors.append(exc)
        rows[index] = out

    threads = [threading.Thread(target=connection, args=(i,), daemon=True)
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + WAIT_S)
    if errors or any(thread.is_alive() for thread in threads):
        raise ServeError(f"load connection failed: {errors!r}")
    return [row for out in rows for row in out], start


def _check(rows, load, result):
    """Every reply against a direct ``api.run``; sim figures constant.

    Returns the ``(cycles, fpu_compute_ops)`` every reply reported.
    """
    sims = set()
    for _sent, _done, x_seed, reply in rows:
        ok = isinstance(reply, tuple)
        if ok:
            digest, cached, cycles, fpu = reply
            ok = digest == load.digest(x_seed)
            result.check("digest_equals_direct_run", ok)
            sims.add((cycles, fpu))
            if load.replay is not None:
                result.check("every_replay_cached", cached)
        else:
            result.check("every_request_answered", False)
        result.attempted += 1
        result.failed += 0 if ok else 1
    result.check("sim_identical_across_rounds", len(sims) == 1)
    return sims.pop() if len(sims) == 1 else None


def _setup(run_dir, index, load):
    """Start a fresh service and send it one warm-up request."""
    directory = os.path.join(run_dir, f"serve{index}")
    os.makedirs(directory)
    server = Server(directory)
    try:
        server.wait_ready()
        with SocketClient(server.socket, timeout=WAIT_S) as client:
            client.request(_request(load.warm_seed))
    except BaseException:
        server.stop()
        raise
    return server


def run(seed, seconds, traced, spans, result, clock, run_dir):
    load = Load(seed)
    setups = []
    server = None
    for index in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
        t0 = clock()
        server = _setup(run_dir, index, load)
        setups.append(setup_at_nominal(clock() - t0))
    try:
        if traced:
            _traced(server, load, seed, seconds, spans, result)
        else:
            windows = _windows(server.socket, load, seconds)
            result.put("peak_rss_mb", peak_rss_mb(server.pids()), 1)
            _end_to_end(windows, load, setups, result)
    finally:
        server.stop()


def _windows(socket_path, load, seconds):
    """The untraced load as windows with reference pauses between them.

    Returns ``(rows, start, window_s, ref_s)`` per window, where
    ``ref_s`` is the mean of the references on both sides of it.
    """
    windows = []
    ref = reference_s(WINDOW_S)
    left = seconds
    while left > 1e-9:
        window = min(WINDOW_S, left)
        rows, start = drive(socket_path, load, window)
        after = reference_s(window)
        windows.append((rows, start, window, (ref + after) / 2))
        ref = after
        left -= window
    return windows


def _end_to_end(windows, load, setups, result):
    rows = [row for out, _start, _w, _ref in windows for row in out]
    sim = _check(rows, load, result)
    result.put("setup_s", median(setups), len(setups))
    completed = host = nominal = 0
    latencies, notes = [], []
    for out, start, window, ref in windows:
        in_window = sum(1 for _s, done, _x, _r in out
                        if done < start + window)
        completed += in_window
        host += window
        nominal += at_nominal(window, ref)
        latencies += [at_nominal(done - sent, ref)
                      for sent, done, _x, _r in out]
        notes.append({"seconds": window, "completed": in_window,
                      "speed": at_nominal(1.0, ref)})
    result.put("ops_per_s", completed / nominal, completed)
    result.host_speed(host, nominal)
    result.notes["windows"] = notes
    result.put("latency_p50_ms", percentile(latencies, 50) * 1e3, len(rows))
    result.put("latency_p99_ms", percentile(latencies, 99) * 1e3, len(rows))
    if len(rows) < 1000:
        result.notes["latency_p99_ms"] = (
            f"only {len(rows)} requests: p99 is below the 1000-request "
            "support a p99 needs")
    cycles, fpu = sim if sim else (1, 0)
    base = csrmv_stats(load.matrix.row_lengths(), "base", 32).cycles
    result.put("sim_cycles", cycles, len(rows))
    result.put("sim_fpu_util", fpu / cycles, len(rows))
    result.put("sim_issr_speedup", base / cycles, len(rows))


def _counters(client):
    """The service's stats, batches dispatched and tickets batched."""
    stats = client.stats()
    snapshot = client.metrics()["snapshot"]["metrics"]
    series = snapshot.get("repro_serve_batch_size", {}).get("series", [])
    batches = sum(s["count"] for s in series)
    tickets = sum(s["sum"] for s in series)
    return stats, batches, tickets


def _floor(fn, reps):
    """Median seconds of ``reps`` calls of ``fn``."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _client_p50_ms(rows):
    return percentile([d - s for s, d, _x, _r in rows], 50) * 1e3


def _traced(server, load, seed, seconds, spans, result):
    """Cold phases (untraced and traced in turn), then a cached replay."""
    put = result.put
    with SocketClient(server.socket, timeout=WAIT_S) as client:
        stats0, batches0, tickets0 = _counters(client)
        # untraced and traced phases alternate, so drift in the machine
        # or the service lands on both sides of the overhead ratio
        phase = seconds / 5
        rows, done = [], {False: 0, True: 0}
        for traced_phase in (False, True, False, True):
            out, start = drive(server.socket, load, phase,
                               spans if traced_phase else None)
            rows += out
            done[traced_phase] += sum(1 for r in out if r[1] < start + phase)
        stats1, batches1, tickets1 = _counters(client)
        _check(rows, load, result)
        replay = Load(seed, replay=[r[2] for r in rows[:REPLAY_DISTINCT]])
        cached_rows, _start = drive(server.socket, replay, phase, spans)
        stats2, _b, _t = _counters(client)
        _check(cached_rows, replay, result)
        ping_ms = _floor(client.ping, FLOOR_REPS) * 1e3
        reply = client.request(_request(rows[0][2]))
    requests = len(rows)

    def delta(a, b, *path):
        for key in path:
            a, b = a[key], b[key]
        return b - a

    # cold path: scheduler, pool and shm counters over the cold phases
    latency = stats1["latency"]
    client_ms = _client_p50_ms(rows)
    computed_ms = latency["request_computed"]["p50_ms"]
    put("serve.client_p50_ms", client_ms, requests)
    put("serve.queued_p50_ms", latency["queued"]["p50_ms"],
        latency["queued"]["count"])
    put("serve.server_computed_p50_ms", computed_ms,
        latency["request_computed"]["count"])
    put("serve.batch_size_mean",
        (tickets1 - tickets0) / max(batches1 - batches0, 1),
        batches1 - batches0)
    put("serve.coalesced", delta(stats0, stats1, "scheduler", "coalesced"),
        requests)
    put("serve.retried_batches",
        delta(stats0, stats1, "pool", "retried_batches"), requests)
    put("serve.respawns", delta(stats0, stats1, "pool", "respawns"),
        requests)
    pipe = delta(stats0, stats1, "pool", "pipe_bytes", "out") \
        + delta(stats0, stats1, "pool", "pipe_bytes", "in")
    put("serve.pipe_bytes_per_req", pipe / requests, requests)
    shm = delta(stats0, stats1, "shm", "bytes") \
        + delta(stats0, stats1, "shm", "result_bytes")
    put("serve.shm_bytes_per_req", shm / requests, requests)

    # cached path: the replay phase
    replayed = len(cached_rows)
    hits = delta(stats1, stats2, "cache", "hits")
    misses = delta(stats1, stats2, "cache", "misses")
    cached_client_ms = _client_p50_ms(cached_rows)
    cached_ms = stats2["latency"]["request_cached"]["p50_ms"]
    outside_ms = cached_client_ms - cached_ms
    put("serve.cache_hit_rate", hits / max(hits + misses, 1), hits + misses)
    put("serve.cached_client_p50_ms", cached_client_ms, replayed)
    put("serve.server_cached_p50_ms", cached_ms,
        stats2["latency"]["request_cached"]["count"])
    put("serve.outside_server_p50_ms", outside_ms, replayed)

    # floors, timed on this run's own frames and operands
    request = _request(rows[0][2])
    submit = {"op": "submit", "id": "c0", "request": request}
    reply_frame = protocol.encode_message(reply)
    encode_us = _floor(lambda: protocol.encode_message(submit),
                       FLOOR_REPS) * 1e6
    decode_us = _floor(lambda: protocol.decode_message(reply_frame),
                       FLOOR_REPS) * 1e6
    validated = protocol.validate_request(request)
    build_ms = _floor(lambda: protocol.build_operands(validated), 20) * 1e3
    operands = protocol.build_operands(validated)
    kernel_ms = _floor(lambda: api.run(
        "csrmv", backend=validated["backend"], variant=validated["variant"],
        index_bits=validated["index_bits"], check=validated["check"],
        **operands), 20) * 1e3
    _stats, y = load.direct(rows[0][2])
    digest_ms = _floor(lambda: protocol.result_digest("vector", y),
                       FLOOR_REPS) * 1e3
    cache = PointCache(cache_dir=server.cache_dir)
    key = protocol.request_key(validated)
    load_ms = _floor(lambda: cache.load(key), FLOOR_REPS) * 1e3
    put("protocol.encode_us", encode_us, FLOOR_REPS)
    put("protocol.decode_us", decode_us, FLOOR_REPS)
    put("protocol.build_operands_ms", build_ms, 20)
    put("serve.kernel_ms", kernel_ms, 20)
    put("protocol.digest_ms", digest_ms, FLOOR_REPS)
    put("eval.point_cache.load_ms", load_ms, FLOOR_REPS)
    put("serve.ping_p50_ms", ping_ms, FLOOR_REPS)

    # layers beside their floors
    codec_ms = (encode_us + decode_us) / 1e3
    compute_floor = build_ms + kernel_ms + digest_ms
    put("serve.outside_server.ping_ratio", outside_ms / ping_ms, replayed)
    put("serve.outside_server.codec_ratio", outside_ms / codec_ms, replayed)
    put("serve.server_cached.load_ratio", cached_ms / load_ms, replayed)
    put("serve.server_computed.floor_ratio", computed_ms / compute_floor,
        latency["request_computed"]["count"])
    result.floor("serve.outside_server", outside_ms, ping_ms,
                 "socket echo (SocketClient.ping) p50, ms")
    result.floor("serve.outside_server.codec", outside_ms, codec_ms,
                 "encode_message + decode_message of the same frames, ms")
    result.floor("serve.server_cached", cached_ms, load_ms,
                 "PointCache.load of the same entry, ms")
    result.floor("serve.server_computed", computed_ms, compute_floor,
                 "build_operands + api.run + result_digest in one "
                 "process, ms")

    put("trace.overhead_share", done[False] / done[True] - 1.0, requests)
    unattributed = client_ms - computed_ms - ping_ms - codec_ms
    put("unattributed.share", unattributed / client_ms, requests)
    result.notes["unattributed"] = (
        "cold-path client p50 not covered by the server's computed p50, "
        "the socket echo and the frame encode/decode floors")
    result.notes["phases"] = (
        f"4 cold phases of {phase} s (2 traced), then a {phase} s cached "
        f"replay of {len(replay.replay)} distinct requests")
