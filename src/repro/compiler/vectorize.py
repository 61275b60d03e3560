"""Vectorized bit-exact replay primitives for the lowered closures.

These are the NumPy bodies the template matcher fuses into compiled
kernels (and that :class:`~repro.backends.fast.FastBackend` shares).
Results are **bit-identical** to the cycle engine: the simulator's FPU
evaluates ``fmadd.d`` as the Python expression ``a * b + c`` (two
roundings), so replaying each kernel's exact accumulation order with
IEEE-754 double operations reproduces its output to the last bit. The
orders differ per variant (§III-B, Listing 1):

- BASE/SSR accumulate each row left to right from ``+0.0``;
- ISSR short rows start from the first product (``fmul``) and chain;
- ISSR long rows initialize ``n_acc`` accumulators with the first
  ``n_acc`` products, stagger the remaining products round-robin
  (product ``j`` lands on accumulator ``j % n_acc``), then combine
  with the same balanced fadd tree the kernel emits.

CSR rows are replayed as one jagged diagonal (:class:`RowPlan`): rows
sorted by length, longest first, so the rows still running at position
``j`` are a prefix of that order and every step updates a prefix of
the accumulators without a mask. Total work is ``nnz`` element-ops
plus one vector step per position (one per ``n_acc`` positions while
ISSR rows stagger), for any mix of row lengths.

Every vector add runs over a multiple of 8 lanes. NumPy's AVX-512
contiguous ``add`` returns the *second* operand's NaN in the remainder
lanes of a length that is not a multiple of 8 (the full lanes and the
FPU return the first's), so a dead lane is padded with ``-0.0``
instead: ``-0.0 + x`` is ``x`` bit for bit, for every ``x``.
"""

import numpy as np

from repro.kernels.common import BASE, ISSR, N_ACCUMULATORS, SSR

#: Vector adds are padded to a multiple of this many lanes (see the
#: module docstring).
LANES = 8


def tree_reduce(acc):
    """The kernel's balanced fadd tree over the accumulators.

    ``acc`` has the accumulators on its first axis; reduces into
    ``acc[0]`` (returned) with the exact pairing of
    ``emit_tree_reduction``.
    """
    count = acc.shape[0]
    stride = 1
    while stride < count:
        for i in range(0, count, 2 * stride):
            j = i + stride
            if j < count:
                acc[i] = acc[i] + acc[j]
        stride *= 2
    return acc[0]


def _lanes(n, lo=0):
    """``n`` rounded up so that lanes ``[lo, n)`` are a multiple of 8."""
    return n + (lo - n) % LANES


class RowPlan:
    """The jagged-diagonal replay schedule of one CSR row partition.

    ``order`` sorts the rows by length, longest first and stable
    (``None`` when every row has the same length: the identity).
    ``starts[i]`` is the first product of the ``i``-th row in that
    order (zero-padded by ``LANES``), ``live[j]`` the number of rows
    holding a product at position ``j`` and ``lanes[j]`` that count
    rounded up to a multiple of ``LANES``. One plan serves every
    replay over the same ``ptr`` (CsrMM replays one dense column at a
    time).
    """

    __slots__ = ("nrows", "order", "starts", "live", "lanes")

    def __init__(self, ptr):
        ptr = np.asarray(ptr, dtype=np.int64)
        lengths = np.diff(ptr)
        self.nrows = nrows = len(lengths)
        max_len = int(lengths.max()) if nrows else 0
        if nrows and lengths.min() < max_len:
            # small unsigned keys take NumPy's O(n) radix sort
            key = (max_len - lengths).astype(np.min_scalar_type(max_len))
            self.order = np.argsort(key, kind="stable")
            starts = ptr[:-1][self.order]
            live = nrows - np.cumsum(np.bincount(lengths)[:max_len])
        else:
            self.order = None
            starts = ptr[:-1]
            live = np.full(max_len, nrows, dtype=np.int64)
        self.starts = np.concatenate([starts, np.zeros(LANES, np.int64)])
        self.live = live
        self.lanes = (-(-live // LANES) * LANES).tolist()


def accumulate_rows(products, ptr, variant, index_bits):
    """Per-row reduction of ``products`` in the kernel's exact order."""
    return replay_rows(products, RowPlan(ptr), variant, index_bits)


def replay_rows(products, plan, variant, index_bits):
    """Per-row reduction of ``products`` over ``plan`` (a :class:`RowPlan`).

    Accumulators live in sorted-row order, one row of lanes per
    accumulator: BASE/SSR keep one from ``+0.0``; ISSR keeps
    ``n_acc`` from ``-0.0``, so the lanes a short row never uses add
    nothing in the tree. Positions are gathered position-major in
    blocks of at least one cache line per row (``LANES`` positions),
    more while the block fits one accumulator row; ``n_acc``
    consecutive staggered positions (one per accumulator) step in one
    add.
    """
    y = np.zeros(plan.nrows, dtype=np.float64)
    live, lanes, starts = plan.live, plan.lanes, plan.starts
    max_len = len(lanes)
    if not max_len:
        return y
    n_acc = N_ACCUMULATORS[index_bits] if variant == ISSR else 0
    m = max(n_acc, 1)
    width = plan.nrows + LANES
    acc = np.full((m, width), -0.0 if n_acc else 0.0)
    pos = n_long = 0
    if n_acc:
        pos, n_long = _issr_head(products, plan, acc, n_acc)
    while pos < max_len:
        # pos is a multiple of m, so every block but the last holds
        # whole groups of m positions
        hi = lanes[pos]
        end = min(pos + max(width // hi, LANES) // m * m, max_len)
        block = products.take(starts[:hi] + np.arange(pos, end)[:, None],
                              mode="clip")
        n = live[pos]
        if live[end - 1] < n:
            np.copyto(block, -0.0, where=np.arange(hi) >= live[pos:end, None])
        elif n < hi:
            block[:, n:] = -0.0
        j = pos
        while j < end:
            h = lanes[j]
            k = j % m
            step = m if k == 0 and j + m <= end else 1
            rows = acc[k:k + step, :h]
            np.add(block[j - pos:j - pos + step, :h], rows, out=rows)
            j += step
        pos = end
    if n_acc:
        tree_reduce(acc[:, :_lanes(n_long)])
    n = live[0]
    if plan.order is None:
        y[:n] = acc[0, :n]
    else:
        y[plan.order[:n]] = acc[0, :n]
    return y


def _issr_head(products, plan, acc, n_acc):
    """ISSR positions below ``n_acc``; returns ``(next position, n_long)``.

    Long rows (at least ``n_acc`` products, the first ``n_long`` of the
    order) seed accumulator ``j`` with product ``j`` (the unrolled
    init); short rows start accumulator 0 from their first product
    (``fmul``) and chain the rest onto it.
    """
    live, starts = plan.live, plan.starts
    first = min(n_acc, len(live))
    n_long = int(live[n_acc - 1]) if len(live) >= n_acc else 0
    if n_long:
        acc[:, :n_long] = products.take(
            starts[:n_long] + np.arange(n_acc)[:, None])
    n = int(live[0])
    if n > n_long:
        acc[0, n_long:n] = products.take(starts[n_long:n])
    for j in range(1, first):
        n = int(live[j])
        if n <= n_long:
            break
        hi = _lanes(n, n_long)
        p = products.take(starts[n_long:hi] + j, mode="clip")
        p[n - n_long:] = -0.0
        lanes = acc[0, n_long:hi]
        np.add(p, lanes, out=lanes)
    return first, n_long


def masked_products(a_idcs, a_vals, b_idcs, b_vals):
    """Products of matched value pairs, in merge (index) order.

    The vectorized form of the lane's functional contract
    (:func:`repro.core.intersect.intersect_indices`): fiber indices
    are sorted and unique, so ``np.intersect1d`` yields exactly the
    merge's matched positions, in order.
    """
    _, pa, pb = np.intersect1d(np.asarray(a_idcs, dtype=np.int64),
                               np.asarray(b_idcs, dtype=np.int64),
                               assume_unique=True, return_indices=True)
    return np.asarray(a_vals, dtype=np.float64)[pa] \
        * np.asarray(b_vals, dtype=np.float64)[pb]


def chain_from_zero(products):
    """Left-to-right accumulation from +0.0 — the masked kernels' order
    (identical across BASE/SSR/ISSR, see :mod:`repro.kernels.masked`)."""
    acc = 0.0
    for p in products:
        acc = p + acc
    return float(acc)


def spgemm_numeric(a, b, ptr, idcs):
    """Gustavson's numeric phase in the kernel's k-major order.

    ``(ptr, idcs)`` is the symbolic pattern of ``C = A @ B``. Returns
    ``(vals, counters)`` where ``counters`` carries the loop-trip
    counts the analytic model charges: rows with a nonempty pattern,
    skipped rows, A elements walked, nonempty B rows, and flops.
    """
    vals = np.zeros(int(ptr[-1]), dtype=np.float64)
    acc = np.zeros(b.ncols, dtype=np.float64)
    n_pattern = n_skip = n_a = n_k = flops = 0
    for r in range(a.nrows):
        plo, phi = int(ptr[r]), int(ptr[r + 1])
        if phi == plo:
            n_skip += 1
            continue
        n_pattern += 1
        pat = idcs[plo:phi]
        acc[pat] = 0.0
        for e in range(int(a.ptr[r]), int(a.ptr[r + 1])):
            n_a += 1
            k = int(a.idcs[e])
            blo, bhi = int(b.ptr[k]), int(b.ptr[k + 1])
            if bhi == blo:
                continue
            n_k += 1
            flops += bhi - blo
            cols = b.idcs[blo:bhi]
            # column indices are unique within a B row, so the fancy
            # update reproduces the kernel's sequential fmadd order
            # (two roundings: multiply, then add)
            acc[cols] = a.vals[e] * b.vals[blo:bhi] + acc[cols]
        vals[plo:phi] = acc[pat]
    counters = {"n_pattern": n_pattern, "n_skip": n_skip, "n_a": n_a,
                "n_k": n_k, "flops": flops}
    return vals, counters


def spvv_value(products, variant, index_bits):
    """Whole-fiber reduction in the SpVV kernel's order."""
    nnz = len(products)
    if variant in (BASE, SSR):
        acc = 0.0
        for p in products:
            acc = p + acc
        return float(acc)
    n_acc = N_ACCUMULATORS[index_bits]
    acc = np.zeros(n_acc, dtype=np.float64)
    # chunked round-robin: element i lands on accumulator i % n_acc
    for c in range(0, nnz, n_acc):
        chunk = products[c:c + n_acc]
        acc[:len(chunk)] = chunk + acc[:len(chunk)]
    return float(tree_reduce(acc))
