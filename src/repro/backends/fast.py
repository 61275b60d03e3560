"""Fast functional backend: vectorized NumPy compute + analytic timing.

Results are **bit-identical** to the cycle backend; the replay
primitives live in :mod:`repro.compiler.vectorize` (shared with the
compiled backend's fused closures) and reproduce each kernel's exact
accumulation order — the staggered ISSR accumulators and balanced
reduction tree of §III-B/Listing 1 included. Cycle counts and
performance counters come from :mod:`repro.backends.model` (the
§IV-A issue rates). Kernels are implemented as ``_exec_*``
methods and dispatched through
:meth:`~repro.backends.base.Backend.run`.
"""

import numpy as np

from repro.backends.base import Backend
from repro.backends.model import (
    cluster_csrmv_stats,
    csrmm_stats,
    csrmv_stats,
    masked_csrmv_stats,
    masked_spvv_stats,
    spgemm_stats,
    spvv_stats,
)
from repro.compiler.vectorize import (
    RowPlan,
    accumulate_rows as _accumulate_rows,
    chain_from_zero as _chain_from_zero,
    masked_products as _masked_products,
    replay_rows,
    spgemm_numeric,
    spvv_value as _spvv_value,
)
from repro.core.intersect import merge_profile
from repro.errors import ConfigError, FormatError
from repro.formats.builder import spgemm_pattern
from repro.formats.csf import CsfTensor
from repro.formats.csr import CsrMatrix
from repro.kernels.common import ISSR, check_index_bits, check_variant
from repro.kernels.ttv import _nonleaf_coords

__all__ = [
    "FastBackend",
    # re-exported replay helpers (historical home; implementations
    # moved to repro.compiler.vectorize)
    "_accumulate_rows",
    "_chain_from_zero",
    "_masked_products",
    "_spvv_value",
]


class FastBackend(Backend):
    """Functional NumPy execution with analytic cycle prediction."""

    name = "fast"

    def _exec_spvv(self, fiber, x, variant, index_bits=32, check=True):
        """Replay the §III-B SpVV accumulation order; model cycles."""
        check_variant(variant)
        check_index_bits(index_bits)
        x = np.asarray(x, dtype=np.float64)
        products = np.asarray(fiber.values, dtype=np.float64) \
            * x[np.asarray(fiber.indices, dtype=np.int64)]
        result = _spvv_value(products, variant, index_bits)
        return spvv_stats(fiber.nnz, variant, index_bits), result

    def _exec_csrmv(self, matrix, x, variant, index_bits=32, check=True):
        """Replay the §III-B CsrMV row loop; model cycles per row."""
        check_variant(variant)
        check_index_bits(index_bits)
        x = np.asarray(x, dtype=np.float64)
        products = matrix.vals * x[matrix.idcs]
        y = _accumulate_rows(products, matrix.ptr, variant, index_bits)
        stats = csrmv_stats(matrix.row_lengths(), variant, index_bits)
        return stats, y

    def _exec_csrmm(self, matrix, dense, variant, index_bits=32,
                    check=True):
        """Replay the §III-B CsrMM kernel (CsrMV per dense column).

        The rows are sorted by length once (one
        :class:`~repro.compiler.vectorize.RowPlan`) for all ``k``
        columns.
        """
        check_variant(variant)
        check_index_bits(index_bits)
        dense = np.asarray(dense, dtype=np.float64)
        k = dense.shape[1]
        if k & (k - 1):
            raise ValueError(f"dense column count {k} must be a power of two")
        gathered = dense[matrix.idcs]          # (nnz, k)
        plan = RowPlan(matrix.ptr)
        out = np.empty((matrix.nrows, k), dtype=np.float64)
        for c in range(k):                     # kernel iterates columns outer
            out[:, c] = replay_rows(matrix.vals * gathered[:, c], plan,
                                    variant, index_bits)
        stats = csrmm_stats(matrix.row_lengths(), k, variant, index_bits)
        return stats, out

    def _exec_ttv(self, tensor, vector, index_bits=32, check=True):
        """Replay the §III-B TTV leaf-fiber reductions (ISSR order)."""
        if not isinstance(tensor, CsfTensor):
            raise FormatError("ttv expects a CsfTensor")
        vector = np.asarray(vector, dtype=np.float64)
        if len(vector) < tensor.shape[-1]:
            raise FormatError("vector shorter than the tensor's leaf mode")
        leaf_ptr = np.asarray(tensor.ptrs[-1], dtype=np.int64)
        products = np.asarray(tensor.vals, dtype=np.float64) \
            * vector[np.asarray(tensor.idcs[-1], dtype=np.int64)]
        fiber_results = _accumulate_rows(products, leaf_ptr, ISSR, index_bits)
        out = np.zeros(tensor.shape[:-1], dtype=np.float64)
        for node, coord in enumerate(_nonleaf_coords(tensor)):
            out[coord] = fiber_results[node]
        lengths = np.diff(leaf_ptr)
        stats = csrmv_stats(lengths, ISSR, index_bits)
        return stats, out

    def _exec_masked_spvv(self, fiber_a, fiber_b, variant, index_bits=32,
                          check=True):
        """Replay the masked dot's merge-order chain; model cycles."""
        check_variant(variant)
        check_index_bits(index_bits)
        products = _masked_products(fiber_a.indices, fiber_a.values,
                                    fiber_b.indices, fiber_b.values)
        result = _chain_from_zero(products)
        profile = merge_profile(fiber_a.indices, fiber_b.indices)
        stats = masked_spvv_stats(profile, fiber_a.nnz, fiber_b.nnz,
                                  variant, index_bits)
        return stats, result

    def _exec_masked_csrmv(self, matrix, x_fiber, variant, index_bits=32,
                           check=True):
        """Replay the per-row masked dots; model cycles per row."""
        check_variant(variant)
        check_index_bits(index_bits)
        y = np.zeros(matrix.nrows, dtype=np.float64)
        profiles = []
        if x_fiber.nnz:
            for r in range(matrix.nrows):
                lo, hi = int(matrix.ptr[r]), int(matrix.ptr[r + 1])
                if hi == lo:
                    continue
                products = _masked_products(
                    matrix.idcs[lo:hi], matrix.vals[lo:hi],
                    x_fiber.indices, x_fiber.values)
                y[r] = _chain_from_zero(products)
                profiles.append(merge_profile(matrix.idcs[lo:hi],
                                              x_fiber.indices))
        stats = masked_csrmv_stats(profiles, matrix.row_lengths(),
                                   x_fiber.nnz, variant, index_bits)
        return stats, y

    def _exec_spgemm(self, a, b, variant, index_bits=32, check=True,
                     pattern=None):
        """Replay Gustavson's k-major scatter order; model cycles.

        ``pattern`` optionally supplies a precomputed symbolic phase
        ``(ptr, idcs)`` (the multicluster path computes it per shard
        for the DMA model and passes it here to avoid a second pass).
        """
        check_variant(variant)
        check_index_bits(index_bits)
        if a.ncols != b.nrows:
            raise FormatError(
                f"spgemm shape mismatch: {a.shape} @ {b.shape}")
        ptr, idcs = pattern if pattern is not None else spgemm_pattern(a, b)
        vals, counters = spgemm_numeric(a, b, ptr, idcs)
        c = CsrMatrix(ptr, idcs, vals, (a.nrows, b.ncols))
        stats = spgemm_stats(counters["n_pattern"], counters["n_skip"],
                             int(ptr[-1]), counters["n_a"], counters["n_k"],
                             counters["flops"], variant, index_bits)
        return stats, c

    def _exec_cluster_csrmv(self, matrix, x, variant="issr", index_bits=16,
                            check=True, cluster=None, max_cycles=None,
                            **kwargs):
        """Predict the §IV-B cluster schedule; replay the row results."""
        if kwargs:
            raise ConfigError(
                f"FastBackend.cluster_csrmv does not model {sorted(kwargs)}"
            )
        check_variant(variant)
        check_index_bits(index_bits)
        x = np.asarray(x, dtype=np.float64)
        # Workers run the same single-CC kernel per row, so the result
        # is identical to the single-CC functional path.
        products = matrix.vals * x[matrix.idcs]
        y = _accumulate_rows(products, matrix.ptr, variant, index_bits)
        model_kwargs = {}
        if cluster is not None:  # honor a custom cluster configuration
            model_kwargs["n_workers"] = cluster.n_workers
            model_kwargs["tcdm_words"] = cluster.tcdm.storage.size // 8
        stats = cluster_csrmv_stats(matrix, variant, index_bits,
                                    **model_kwargs)
        return stats, y
