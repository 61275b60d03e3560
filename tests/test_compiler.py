"""The lowering pipeline: decode, structure recovery, template match.

The compiler's soundness argument (docs/ARCHITECTURE.md): decode and
structure recovery only *prune* the template search; the gate to
execution is exact equality of the normalized instruction stream
against a canonical builder's output. These tests pin each pass —
every assembled kernel program must lower back to its own identity,
foreign programs must fail loudly, and the replay closures must
reproduce the kernels' exact FP order — checked against an
independent pure-Python per-row replay of Listing 1.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler import (
    CompiledKernel,
    LoweringError,
    decode_program,
    lower,
    recover_structure,
)
from repro.compiler.vectorize import RowPlan, accumulate_rows
from repro.isa.introspect import fingerprint, normalize_program
from repro.isa.program import ProgramBuilder
from repro.kernels.common import N_ACCUMULATORS, PROGRAM_CACHE
from repro.kernels.csrmv import build_csrmv
from repro.kernels.csrmm import build_csrmm
from repro.kernels.masked import build_masked_csrmv, build_masked_spvv
from repro.kernels.spgemm import build_spgemm
from repro.kernels.spvv import build_spvv

ALL_VARIANTS = [("base", 32), ("base", 16), ("ssr", 32), ("ssr", 16),
                ("issr", 32), ("issr", 16)]

BUILDERS = {
    "spvv": build_spvv,
    "csrmv": build_csrmv,
    "csrmm": build_csrmm,
    "masked_spvv": build_masked_spvv,
    "masked_csrmv": build_masked_csrmv,
    "spgemm": build_spgemm,
}


class TestDecode:
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_issr_programs_recover_their_index_width(self, variant, bits):
        program, _ = build_csrmv(variant, bits)
        decoded = decode_program(program)
        structure = recover_structure(decoded)
        assert structure.variant_class == variant
        if variant == "issr":
            assert structure.index_bits == bits
            assert structure.uses_indirection
        if variant == "base":
            assert not decoded.lanes

    def test_intersection_evidence(self):
        program, _ = build_masked_spvv("issr", 32)
        structure = recover_structure(decode_program(program))
        assert structure.uses_intersection
        assert structure.variant_class == "issr"

    def test_fingerprint_is_deterministic(self):
        program, _ = build_spvv("issr", 16)
        assert fingerprint(program) == fingerprint(program)
        assert fingerprint(program) == tuple(normalize_program(program))


class TestLowering:
    @pytest.mark.parametrize("family", sorted(BUILDERS))
    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_every_program_lowers_to_its_own_identity(self, family,
                                                      variant, bits):
        """The exhaustive round trip: 6 families x 3 variants x 2 widths."""
        program, _ = BUILDERS[family](variant, bits)
        kernel = lower(program)
        assert isinstance(kernel, CompiledKernel)
        assert kernel.family == family
        assert kernel.variant == variant
        assert kernel.index_bits == bits

    def test_family_hint_is_only_a_priority(self):
        program, _ = build_spvv("ssr", 32)
        kernel = lower(program, family_hint="csrmv")  # wrong hint
        assert kernel.family == "spvv"

    def test_lowered_kernels_are_cached(self):
        PROGRAM_CACHE.clear()
        program, _ = build_csrmv("issr", 16)
        assert lower(program) is lower(program)

    def test_foreign_program_fails_loudly(self):
        b = ProgramBuilder()
        b.li(10, 0)
        b.fadd_d(2, 0, 1)
        b.halt()
        with pytest.raises(LoweringError, match="matches no op template"):
            lower(b.build())

    def test_tampered_kernel_program_fails_loudly(self):
        """One extra instruction must break the exact-match gate."""
        program, _ = build_spvv("base", 32)
        b = ProgramBuilder()
        b.li(10, 0)  # harmless-looking prelude the template lacks
        for ins in program.instrs:
            b.emit(ins.op, ins.rd, ins.rs1, ins.rs2, ins.rs3, ins.imm,
                   ins.aux)
        with pytest.raises(LoweringError):
            lower(b.build())


def listing1_rows(products, ptr, variant, index_bits):
    """Pure-Python per-row replay of the CsrMV kernels (§III-B, Listing 1).

    One row at a time, one Python float operation per FPU operation:
    BASE/SSR chain from ``+0.0``; ISSR rows shorter than ``n_acc`` start
    from their first product (``fmul``) and chain; longer rows seed
    ``n_acc`` accumulators, stagger product ``j`` onto accumulator
    ``j % n_acc`` and combine them with the balanced fadd tree. Shares
    no code with :mod:`repro.compiler.vectorize`.
    """
    n_acc = N_ACCUMULATORS[index_bits] if variant == "issr" else 0
    out = []
    for r in range(len(ptr) - 1):
        row = [float(p) for p in products[int(ptr[r]):int(ptr[r + 1])]]
        if not row:
            out.append(0.0)
        elif not n_acc or len(row) < n_acc:
            acc = 0.0 if not n_acc else row.pop(0)
            for p in row:
                acc = p + acc
            out.append(acc)
        else:
            acc = row[:n_acc]
            for j in range(n_acc, len(row)):
                acc[j % n_acc] = row[j] + acc[j % n_acc]
            stride = 1
            while stride < n_acc:
                for i in range(0, n_acc - stride, 2 * stride):
                    acc[i] = acc[i] + acc[i + stride]
                stride *= 2
            out.append(acc[0])
    return np.array(out, dtype=np.float64)


class TestShapeClasses:
    def test_uniform_vs_general(self):
        """Equal lengths keep the identity order; ragged rows sort."""
        uniform = RowPlan(np.array([0, 4, 8, 12], dtype=np.int64))
        assert uniform.order is None
        assert uniform.live.tolist() == [3, 3, 3, 3]
        ragged = RowPlan(np.array([0, 3, 8, 8, 13], dtype=np.int64))
        # longest first, stable among equal lengths
        assert ragged.order.tolist() == [1, 3, 0, 2]
        assert ragged.live.tolist() == [3, 3, 3, 2, 2]
        assert ragged.lanes == [8] * 5
        assert ragged.starts[:4].tolist() == [3, 8, 0, 8]
        empty = RowPlan(np.array([0, 0, 0], dtype=np.int64))
        assert empty.live.tolist() == []
        assert RowPlan(np.array([0], dtype=np.int64)).nrows == 0

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    @pytest.mark.parametrize("shape", ["uniform_short", "uniform_long",
                                       "ragged", "empty"])
    def test_closures_replay_the_exact_fp_order(self, variant, bits, shape):
        """Every lowered closure == the pure-Python Listing-1 replay."""
        rng = np.random.default_rng(hash((variant, bits, shape)) % 2**32)
        if shape == "uniform_short":
            ptr = np.arange(0, 5 * 3, 3, dtype=np.int64)
        elif shape == "uniform_long":
            ptr = np.arange(0, 5 * 24, 24, dtype=np.int64)
        elif shape == "ragged":
            lengths = rng.integers(0, 30, size=6)
            ptr = np.concatenate(([0], np.cumsum(lengths)))
        else:
            ptr = np.zeros(5, dtype=np.int64)
        products = rng.standard_normal(int(ptr[-1]))

        program, _ = build_csrmv(variant, bits)
        kernel = lower(program)
        got = kernel.row_reducer(ptr)(products)
        want = listing1_rows(products, ptr, variant, bits)
        assert got.tobytes() == want.tobytes()

    def test_closure_plans_once_per_partition(self, monkeypatch):
        """One closure sorts its partition once for every replay (CsrMM)."""
        import repro.compiler.templates as templates

        plans = []

        class CountingPlan(RowPlan):
            __slots__ = ()

            def __init__(self, ptr):
                plans.append(ptr)
                super().__init__(ptr)

        monkeypatch.setattr(templates, "RowPlan", CountingPlan)
        program, _ = build_csrmv("issr", 16)
        ptr = np.array([0, 2, 9, 9, 30], dtype=np.int64)
        reducer = lower(program).row_reducer(ptr)
        rng = np.random.default_rng(3)
        for _ in range(4):
            products = rng.standard_normal(30)
            got = reducer(products)
            want = listing1_rows(products, ptr, "issr", 16)
            assert got.tobytes() == want.tobytes()
        assert len(plans) == 1


#: Products the replay battery draws from, beside ordinary floats:
#: signed zeros, infinities, the smallest and a large subnormal, and
#: values whose sums overflow.
SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072e-309, 1e308, -1e308]


@st.composite
def ragged_rows(draw, nan=False):
    """(products, ptr, variant, bits) over a ragged CSR partition.

    Row lengths mix empty rows, lengths around the accumulator count
    (``n_acc - 1``, ``n_acc``, ``n_acc + 1``) and free lengths; up to
    40 rows give live prefixes on both sides of every multiple of 8.
    Products are drawn from a seed: half special values, half floats
    over a wide range of magnitudes.
    """
    variant, bits = draw(st.sampled_from(ALL_VARIANTS))
    n_acc = N_ACCUMULATORS[bits]
    length = st.one_of(st.sampled_from([0, n_acc - 1, n_acc, n_acc + 1]),
                       st.integers(0, 40))
    lengths = draw(st.lists(length, max_size=40))
    ptr = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    nnz = int(ptr[-1])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(SPECIAL + [math.nan] * nan)
    plain = rng.standard_normal(nnz) * 10.0 ** rng.integers(-30, 30, nnz)
    products = np.where(rng.random(nnz) < 0.5, rng.choice(pool, nnz), plain)
    return products, ptr, variant, bits


class TestReplayOracle:
    """The vectorized replay against the pure-Python Listing-1 replay."""

    @given(ragged_rows())
    @settings(max_examples=150, deadline=None)
    @example((np.zeros(0), np.zeros(1, dtype=np.int64), "issr", 16))
    @example((np.zeros(0), np.zeros(12, dtype=np.int64), "base", 32))
    def test_bits_match_listing1(self, case):
        products, ptr, variant, bits = case
        with np.errstate(invalid="ignore", over="ignore"):
            got = accumulate_rows(products, ptr, variant, bits)
            want = listing1_rows(products, ptr, variant, bits)
        assert got.tobytes() == want.tobytes()

    @given(ragged_rows(nan=True))
    @settings(max_examples=100, deadline=None)
    def test_nan_positions_match_listing1(self, case):
        """NaN inputs: same NaN rows, same bits everywhere else.

        Python's ``+`` picks between two NaN operands differently from
        NumPy, so NaN payloads are checked across backends instead
        (``tests/test_backends.py``).
        """
        products, ptr, variant, bits = case
        with np.errstate(invalid="ignore", over="ignore"):
            got = accumulate_rows(products, ptr, variant, bits)
            want = listing1_rows(products, ptr, variant, bits)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("variant,bits", ALL_VARIANTS)
    def test_one_long_row_amid_short_ones(self, variant, bits):
        """A 3000-long row beside short and empty rows (power-law skew)."""
        rng = np.random.default_rng(7)
        lengths = rng.integers(0, 12, size=60)
        lengths[17] = 3000
        ptr = np.concatenate(([0], np.cumsum(lengths)))
        products = rng.standard_normal(int(ptr[-1]))
        products[rng.integers(0, len(products), 40)] = -0.0
        got = accumulate_rows(products, ptr, variant, bits)
        want = listing1_rows(products, ptr, variant, bits)
        assert got.tobytes() == want.tobytes()
