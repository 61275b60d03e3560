"""CSR matrix-matrix product (CsrMM) kernels: BASE / SSR / ISSR.

§III-B: "We multiply a CSR matrix with a power-of-two-column, dense
row-major matrix to produce a dense row-major output. We reuse our
CsrMV kernels, iterating on the dense matrix and result along their
columns." The ISSR's programmable index shifter handles the
power-of-two row stride of B (extra shift = log2(k)); each column
relaunches the whole-fiber stream jobs, and the result walks its
column with stride ``8 * k``.

Arguments: a0=A_vals, a1=A_idcs, a2=A_ptr, a3=B (row-major, k columns,
k a power of two), a4=C (row-major), a5=nrows, a6=k, a7=total nnz;
s4 = log2(k) (precomputed by the harness/runtime).
"""

import numpy as np

from repro.core import config as cfg
from repro.isa.isa import CSR_SSR
from repro.isa.program import ProgramBuilder
from repro.kernels.common import (
    BASE,
    ISSR,
    N_ACCUMULATORS,
    PROGRAM_CACHE,
    SSR,
    KernelMeta,
    check_index_bits,
    check_row_sums,
    check_variant,
)
from repro.kernels.csrmv import _idx_load, emit_issr_row_loop, place_csr
from repro.sim.harness import SingleCC


def build_csrmm(variant, index_bits=32):
    """Build (and cache) the CsrMM program for a variant/index width."""
    check_variant(variant)
    check_index_bits(index_bits)

    def build():
        if variant == BASE:
            return (_build_dense_loop(index_bits, use_ssr=False),
                    KernelMeta("csrmm", BASE, index_bits))
        if variant == SSR:
            return (_build_dense_loop(index_bits, use_ssr=True),
                    KernelMeta("csrmm", SSR, index_bits))
        n_acc = N_ACCUMULATORS[index_bits]
        return (_build_issr(index_bits, n_acc),
                KernelMeta("csrmm", ISSR, index_bits, n_acc))

    return PROGRAM_CACHE.get_or_build(("csrmm", variant, index_bits), build)


def _build_dense_loop(index_bits, use_ssr):
    """BASE and SSR variants: CsrMV column loop with register shifts."""
    idx_bytes = index_bits // 8
    ptr_shift = idx_bytes.bit_length() - 1
    tag = "ssr" if use_ssr else "base"
    b = ProgramBuilder(f"csrmm_{tag}_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.mv("s7", "a2")            # ptr base
    b.mv("s10", "a4")           # C base
    b.mv("s11", "a1")           # idcs base
    b.mv("tp", "a0")            # vals base
    b.slli("s6", "a6", 3)       # C row stride (8k bytes)
    b.addi("s8", "s4", 3)       # x-index shift: idx * 8k
    if use_ssr:
        b.scfgw("a7", cfg.cfg_addr(0, cfg.REG_BOUND_0))
        b.li("t1", 8)
        b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
        b.csrsi(CSR_SSR, 1)
    b.li("s5", 0)               # column counter
    b.label("col")
    b.mv("a2", "s7")
    b.lw("t0", "a2", 0)
    b.li("s3", 0)
    b.mv("a1", "s11")
    b.mv("a0", "tp")
    b.slli("t3", "s5", 3)
    b.add("s9", "a3", "t3")     # B column base: B + 8c
    b.add("a4", "s10", "t3")    # C column base: C + 8c
    if use_ssr:
        b.beqz("a7", "outer")
        b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))  # relaunch values
    b.label("outer")
    b.lw("t1", "a2", 4)
    b.addi("a2", "a2", 4)
    b.fmv_d("fa0", "ft11")
    b.sub("t2", "t1", "t0")
    b.beqz("t2", "store")
    b.slli("t6", "t1", ptr_shift)
    b.add("t6", "t6", "s11")
    b.label("inner")
    _idx_load(b, "t0", "a1", index_bits)
    if not use_ssr:
        b.fld("ft0", "a0", 0)
    b.addi("a1", "a1", idx_bytes)
    b.sll("t0", "t0", "s8")     # idx * 8k
    b.add("t0", "t0", "s9")
    b.fld("ft3", "t0", 0)       # B[idx, c]
    if not use_ssr:
        b.addi("a0", "a0", 8)
        b.fmadd_d("fa0", "ft0", "ft3", "fa0")
    else:
        b.fmadd_d("fa0", "ft0", "ft3", "fa0")  # ft0 = SSR value stream
    b.bne("a1", "t6", "inner")
    b.label("store")
    b.fsd("fa0", "a4", 0)
    b.add("a4", "a4", "s6")
    b.mv("t0", "t1")
    b.addi("s3", "s3", 1)
    b.bne("s3", "a5", "outer")
    b.addi("s5", "s5", 1)
    b.bne("s5", "a6", "col")
    if use_ssr:
        b.csrci(CSR_SSR, 1)
    b.halt()
    return b.build()


def _build_issr(index_bits, n_acc):
    b = ProgramBuilder(f"csrmm_issr_{index_bits}")
    b.fcvt_d_w("ft11", "zero")
    b.li("s2", n_acc)
    b.mv("s7", "a2")            # ptr base
    b.mv("s10", "a4")           # C base
    b.slli("s6", "a6", 3)       # C row stride (8k)
    # lane 0 (SSR): whole-fiber job over A_vals (relaunched per column)
    b.scfgw("a7", cfg.cfg_addr(0, cfg.REG_BOUND_0))
    b.li("t1", 8)
    b.scfgw("t1", cfg.cfg_addr(0, cfg.REG_STRIDE_0))
    # lane 1 (ISSR): idx cfg with extra shift log2(k) for B's row stride
    b.scfgw("a7", cfg.cfg_addr(1, cfg.REG_BOUND_0))
    b.li("t1", cfg.idx_cfg_value(index_bits))
    b.slli("t3", "s4", 4)       # extra-shift field of REG_IDX_CFG
    b.or_("t1", "t1", "t3")
    b.scfgw("t1", cfg.cfg_addr(1, cfg.REG_IDX_CFG))
    b.csrsi(CSR_SSR, 1)
    b.li("s5", 0)               # column counter
    b.label("col")
    b.slli("t3", "s5", 3)
    b.add("a4", "s10", "t3")    # C + 8c
    b.beqz("a7", "nojobs")
    b.add("t4", "a3", "t3")     # B + 8c
    b.scfgw("t4", cfg.cfg_addr(1, cfg.REG_DATA_BASE))
    b.scfgw("a0", cfg.cfg_addr(0, cfg.REG_RPTR_0))
    b.scfgw("a1", cfg.cfg_addr(1, cfg.REG_IRPTR))
    b.label("nojobs")
    b.mv("a2", "s7")
    b.lw("t0", "a2", 0)
    b.li("s3", 0)
    emit_issr_row_loop(b, n_acc, prefix="mm",
                       y_advance=lambda bb: bb.add("a4", "a4", "s6"))
    b.addi("s5", "s5", 1)
    b.bne("s5", "a6", "col")
    b.csrci(CSR_SSR, 1)
    b.halt()
    return b.build()


def run_csrmm(matrix, dense, variant, index_bits=32, sim=None, check=True):
    """Execute a CsrMM kernel on a single CC; returns (stats, C).

    ``dense`` is a row-major (ncols x k) array with k a power of two.
    """
    dense = np.asarray(dense, dtype=np.float64)
    k = dense.shape[1]
    if k & (k - 1):
        raise ValueError(f"dense column count {k} must be a power of two")
    program, meta = build_csrmm(variant, index_bits)
    if sim is None:
        sim = SingleCC()
    mem = place_csr(sim, matrix, index_bits)
    bbase = sim.alloc_floats(dense.reshape(-1), name="B")
    cbase = sim.alloc_zeros(max(matrix.nrows * k, 1), name="C")
    stats, _ = sim.run(program, args={
        "a0": mem["vals"], "a1": mem["idcs"], "a2": mem["ptr"],
        "a3": bbase, "a4": cbase, "a5": matrix.nrows,
        "a6": k, "a7": matrix.nnz, "s4": k.bit_length() - 1,
    })
    out = np.array(sim.read_floats(cbase, matrix.nrows * k)).reshape(matrix.nrows, k)
    if check:
        with np.errstate(invalid="ignore", over="ignore"):
            products = matrix.vals[:, None] * dense[matrix.idcs]
        check_row_sums(out, matrix.spmm(dense), products, matrix.ptr,
                       f"CsrMM {variant}/{index_bits}")
    return stats, out
