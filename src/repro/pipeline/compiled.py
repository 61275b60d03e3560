"""Compiled pipeline execution: lowered stage kernels, shared model.

The compiled executor is the fast executor with one substitution: the
CsrMV stages run through the *lowered* program — the pipeline's
``(variant, index_bits)`` CsrMV program is pushed through
:mod:`repro.compiler` once, and every matrix stage replays through
its row replay closure. Glue stages, the coordination model,
DMA traffic, and the scalar table are the shared implementation in
:mod:`repro.pipeline.fast`, so results and recorded histories stay
bit-identical to both other executors and cycles carry the same
``CYCLE_TOLERANCE["pipeline"]`` contract.
"""

from repro.compiler.templates import lower
from repro.pipeline.fast import run_pipeline_fast


def run_pipeline_compiled(pipeline, partition, shards, n_iters, hbm,
                          tcdm_bytes=256 * 1024):
    """Execute one pipeline through lowered stage kernels."""
    from repro.kernels.csrmv import build_csrmv

    program, _meta = build_csrmv(pipeline.variant, pipeline.index_bits)
    kernel = lower(program, family_hint="csrmv")

    def csrmv_reduce(mat, products):
        return kernel.row_reducer(mat.ptr)(products)

    return run_pipeline_fast(pipeline, partition, shards, n_iters, hbm,
                             tcdm_bytes=tcdm_bytes,
                             backend_label="compiled",
                             csrmv_reduce=csrmv_reduce)
