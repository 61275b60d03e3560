"""Span wrappers around the compiled backend's public entry points.

Installed only for the traced sweeps/passes of a traced run: they
replace, for the duration of a ``with`` block, the names the compiled
backend looks up at call time — ``repro.backends.compiled.lower``
(lowering), ``CompiledKernel.row_reducer`` (the replay closures of
``compiler.vectorize``) and ``repro.backends.compiled.csrmv_stats``
(the analytic cycle model) — with versions that record a span around
each call. The originals are restored on exit.
"""

import contextlib

import repro.backends.compiled as compiled_backend
from repro.backends.compiled import CompiledBackend
from repro.compiler.templates import CompiledKernel

LOWER = "compiler.lower"
VECTORIZE = "compiler.vectorize"
MODEL = "backends.model"
TILE = "stream.tile_kernel"


def timed(spans, name, fn):
    """``fn`` with a span called ``name`` around every call."""

    def wrapper(*args, **kwargs):
        with spans.span(name):
            return fn(*args, **kwargs)

    return wrapper


@contextlib.contextmanager
def compiled_layers(spans):
    """Record lowering, replay-closure and model spans while active."""
    original_lower = compiled_backend.lower
    original_stats = compiled_backend.csrmv_stats
    original_reducer = CompiledKernel.row_reducer

    def row_reducer(kernel, shape_class):
        return timed(spans, VECTORIZE, original_reducer(kernel, shape_class))

    compiled_backend.lower = timed(spans, LOWER, original_lower)
    compiled_backend.csrmv_stats = timed(spans, MODEL, original_stats)
    CompiledKernel.row_reducer = row_reducer
    try:
        yield
    finally:
        compiled_backend.lower = original_lower
        compiled_backend.csrmv_stats = original_stats
        CompiledKernel.row_reducer = original_reducer


class TimedCompiledBackend(CompiledBackend):
    """The compiled backend with a span around every kernel call.

    Passed as ``backend=`` to :func:`repro.stream.stream_csrmv`, it
    times each tile's kernel from outside the streaming executor.
    """

    def __init__(self, spans):
        super().__init__()
        self.spans = spans

    def run(self, kernel, **kwargs):
        with self.spans.span(TILE):
            return super().run(kernel, **kwargs)


def child_totals(spans, parent_name):
    """Each ``parent_name`` span with the summed time of its children.

    Returns ``[(rid, duration, {child_name: seconds})]`` in recording
    order. Only direct children are summed: lowering, replay and model
    run side by side under one ``api.run`` call.
    """
    parents = {}
    for span_id, name, start, end, _parent, rid, _tid in spans.events:
        if name == parent_name:
            parents[span_id] = (rid, end - start, {})
    for _id, name, start, end, parent, _rid, _tid in spans.events:
        if parent in parents:
            children = parents[parent][2]
            children[name] = children.get(name, 0.0) + (end - start)
    return list(parents.values())
