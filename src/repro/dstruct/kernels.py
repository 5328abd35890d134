"""Vectorized offline dominance-counting kernels.

The paper's Algorithms 1-2 count dominance factors with per-element
tree operations (an order-statistic AVL, rendered faithfully in
:mod:`repro.dstruct.avl`).  In pure Python those inner loops dominate
AppRI build time, so this module provides *offline* replacements that
touch every element with whole-array NumPy primitives instead:

:func:`count_smaller_before`
    The sweep's order-statistic tree, restructured as offline merge
    counting: ``argsort`` + rank compression + a bottom-up batched
    merge whose per-level bookkeeping is a handful of array ops.
    ``O(n log^2 n)`` total, ``O(log n)`` Python-level iterations.

:func:`count_dominators_merge2d`
    Algorithm 1 (d = 2) on top of :func:`count_smaller_before`: one
    lexicographic sort arranges the rows so that strict 2-D dominance
    reduces to "strictly smaller earlier value", ties included.

:func:`count_dominators_bitset`
    Arbitrary dimensionality via packed dominance bitsets: for every
    attribute, a *prefix bit matrix* over the sorted order (built
    word by word as step functions, one ``np.repeat`` per matrix)
    materializes "who is strictly below whom" 64 elements per machine
    word; an AND across attributes of each tuple's gathered bitsets
    and one popcount yield every tuple's count.
    ``O(d n^2 / 64)`` word operations — at the data sizes the paper
    studies this outruns both the tree sweeps and the O(n^2) blocked
    comparisons by an order of magnitude, and it is exact under ties.

All kernels compare the *original float values* (sorting never
rounds), so their counts are bit-identical to the reference
``count_dominators_naive`` on any input, including heavy ties.  The
property suite in ``tests/dstruct/test_kernels.py`` locks that in.

The bitset helpers (:func:`sort_and_rank`, :func:`prefix_bit_matrix`,
:func:`and_prefix_rows`, :func:`chunk_buffers`, :func:`bit_chunks`,
:func:`popcount_rows`) are shared with the fused AppRI kernel in
:mod:`repro.core.kernels`.  They work word-major: a ``(words, n)``
array whose column ``t`` is tuple ``t``'s bitset, so gathers and
ANDs stream contiguous memory.  Buffers are local to each call, so
builds may run in concurrent threads.
"""

from __future__ import annotations

import numpy as np

from .. import obs

__all__ = [
    "count_smaller_before",
    "count_dominators_merge2d",
    "count_dominators_bitset",
    "prefix_bit_matrix",
    "and_prefix_rows",
    "chunk_buffers",
    "sort_and_rank",
    "bit_chunks",
    "popcount_rows",
    "MATRIX_BYTES_BUDGET",
]

#: Soft cap on one packed prefix matrix; larger inputs are processed in
#: bit-space chunks of at most this many bytes so peak memory stays flat
#: while total word work is unchanged.
MATRIX_BYTES_BUDGET = 48 << 20

_ONE = np.uint64(1)


# ---------------------------------------------------------------------------
# Offline merge counting (the AVL/Fenwick sweep, vectorized)
# ---------------------------------------------------------------------------


def count_smaller_before(values: np.ndarray) -> np.ndarray:
    """For every position ``i``: ``#{j < i : values[j] < values[i]}``.

    This is exactly what the paper's modified AVL answers one query at
    a time during the d=2 sweep.  Here the whole sequence is resolved
    offline with bottom-up merge counting: values are rank-compressed,
    padded to a power of two, and merged level by level; at each level
    every adjacent run pair is merged with one batched ``argsort``
    whose composite key (``2*rank + is_left_run``) makes equal values
    from the left run sort *after* right-run elements, so ties are
    never counted (strict semantics).  A right-run element's merged
    position minus its within-run position is precisely the number of
    strictly smaller left-run elements before it.

    ``O(n log^2 n)`` work in ``O(log n)`` Python iterations.
    """
    v = np.asarray(values)
    n = v.shape[0]
    counts = np.zeros(n, dtype=np.int64)
    if n <= 1:
        return counts
    # Dense ranks: equal values share a rank, so strict comparisons on
    # ranks match strict comparisons on the raw values.
    _, ranks = np.unique(v, return_inverse=True)
    m = 1 << int(n - 1).bit_length()
    # Padding gets rank n (strictly above every real rank): it settles
    # at run tails and never disturbs a real element's count.
    keys = np.full(m, n, dtype=np.int64)
    keys[:n] = ranks
    idx = np.arange(m, dtype=np.int64)
    width = 1
    while width < m:
        span = 2 * width
        k2 = keys.reshape(-1, span)
        i2 = idx.reshape(-1, span)
        rows = k2.shape[0]
        # Composite key: right-run elements win ties against left-run
        # elements, so "left elements strictly before me" is strict <.
        composite = k2 * 2
        composite[:, :width] += 1
        order = np.argsort(composite, axis=1, kind="stable")
        pos = np.empty_like(order)
        np.put_along_axis(
            pos,
            order,
            np.broadcast_to(np.arange(span), (rows, span)),
            axis=1,
        )
        smaller = pos[:, width:] - np.arange(width)
        target = i2[:, width:]
        real = target < n
        # Each original index occurs once per level, so plain fancy
        # indexing accumulates without collisions.
        counts[target[real]] += smaller[real]
        keys = np.take_along_axis(k2, order, axis=1).ravel()
        idx = np.take_along_axis(i2, order, axis=1).ravel()
        width = span
    return counts


def count_dominators_merge2d(points: np.ndarray) -> np.ndarray:
    """Strict 2-D dominance counts by offline merge counting.

    Rows are arranged by ``(A1 ascending, A2 descending)``; in that
    order every earlier row has a strictly smaller ``A1`` — or an equal
    ``A1`` with an ``A2`` that can never satisfy the strict ``A2``
    comparison — so ``DF(t)`` is exactly
    :func:`count_smaller_before` over the arranged ``A2`` column.
    Handles duplicate values in either column exactly.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    if d != 2:
        raise ValueError(f"merge2d requires d=2; got d={d}")
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.lexsort((-pts[:, 1], pts[:, 0]))
    counts = np.empty(n, dtype=np.intp)
    counts[order] = count_smaller_before(pts[order, 1])
    return counts


# ---------------------------------------------------------------------------
# Packed dominance bitsets (arbitrary d)
# ---------------------------------------------------------------------------


def bit_chunks(
    n: int,
    budget_bytes: int = MATRIX_BYTES_BUDGET,
    lo: int = 0,
    hi: int | None = None,
):
    """Split the bit space ``[lo, hi)`` of ``n``-row matrices into ranges.

    The space defaults to all ``n`` element ids.  Each range packs into
    a prefix matrix of at most ``budget_bytes`` (floored at one 64-bit
    word per row), so kernels stay within a fixed memory envelope at
    any ``n``.  Ranges start at ``lo`` plus whole words, so a
    word-aligned ``lo`` keeps every range word-aligned.
    """
    hi = n if hi is None else hi
    if hi <= lo:
        return []
    words_per_chunk = max(1, int(budget_bytes) // (8 * n))
    bits = words_per_chunk << 6
    return [(start, min(start + bits, hi)) for start in range(lo, hi, bits)]


def chunk_buffers(n: int, chunks, count: int):
    """Yield ``(lo, hi, buffers)`` per chunk, reusing one set of memory.

    ``buffers`` are ``count`` uninitialized, C-contiguous
    ``(words, n)`` arrays for the chunk (word-major, the layout the
    kernels work in; see :func:`prefix_bit_matrix`).  Each is a prefix
    of one flat array sized for the widest chunk, so a kernel
    allocates (and faults in) its accumulators and gather scratch once
    per call, not once per column.
    """
    size = n * max(((hi - lo + 63) >> 6 for lo, hi in chunks), default=0)
    flat = [np.empty(size, dtype=np.uint64) for _ in range(count)]
    for lo, hi in chunks:
        shape = ((hi - lo + 63) >> 6, n)
        size = shape[0] * shape[1]
        yield lo, hi, [buf[:size].reshape(shape) for buf in flat]


def prefix_bit_matrix(
    order: np.ndarray, n: int, lo: int, hi: int
) -> np.ndarray:
    """Packed prefix matrix over a sorted order, restricted to one chunk.

    Row ``r`` holds — as bits, at in-chunk positions ``lo..hi-1`` of
    the original element ids — the set ``{order[0], ..., order[r-1]}``:
    the ``r`` smallest elements of the sorted column.  Indexing row
    ``g[t]`` (the number of values strictly below ``t``'s) yields
    ``t``'s strict-dominators bitset for this column.

    The ``(n, words)`` result is the transpose of a C-contiguous
    ``(words, n)`` array: down the rows, a word only changes where one
    of its 64 elements enters the prefix, so each word's column is a
    step function with at most 65 steps.  One ``np.repeat`` of those
    step values writes it in a single pass over the output, where a
    cumulative sum of one-hot rows takes several.  Each call adds
    ``n * words`` to the ``counting.prefix_words`` counter.
    """
    words = (hi - lo + 63) >> 6
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    # Sorted positions of each word's elements; padding sorts last.
    slots = np.full(words << 6, n, dtype=np.intp)
    slots[: hi - lo] = position[lo:hi]
    slots = slots.reshape(words, 64)
    bit = np.argsort(slots, axis=1)
    entry = np.take_along_axis(slots, bit, axis=1)
    # Step k of a word holds its k first-entering bits (each bit is
    # added once, so a running sum is a running OR) and covers the
    # rows from its k-th element's entry to the next one's; padding
    # and the largest element enter past the last row.
    steps = np.zeros((words, 65), dtype=np.uint64)
    np.cumsum(_ONE << bit.astype(np.uint64), axis=1, out=steps[:, 1:])
    edges = np.empty((words, 66), dtype=np.intp)
    edges[:, 0] = 0
    np.minimum(entry + 1, n, out=edges[:, 1:65])
    edges[:, 65] = n
    lengths = np.diff(edges, axis=1)
    obs.inc("counting.prefix_words", n * words)
    return np.repeat(steps.ravel(), lengths.ravel()).reshape(words, n).T


def and_prefix_rows(ranked, lo, hi, out, gather):
    """AND of the chunk-restricted dominator bitsets of ``ranked`` columns.

    ``ranked`` holds :func:`sort_and_rank` pairs.  Works word-major:
    ``out`` and the scratch ``gather`` are ``(words, n)`` buffers of
    the chunk, and column ``t`` of ``out`` receives tuple ``t``'s
    bitset.  Returns ``out``.
    """
    n = out.shape[1]
    for i, (order, g) in enumerate(ranked):
        matrix = prefix_bit_matrix(order, n, lo, hi).T
        # Every row index is valid, so ``clip`` changes nothing; it
        # lets ``take`` write straight into ``out`` without a buffer.
        np.take(matrix, g, axis=1, out=gather if i else out, mode="clip")
        if i:
            out &= gather
    return out


def popcount_rows(packed: np.ndarray) -> np.ndarray:
    """Total set bits per row of a packed ``uint64`` matrix.

    Rows of fewer than 1024 words hold at most ``64 * 1023`` bits, so
    their sums run in ``uint16`` — about a third faster than ``int64``
    and exact; wider rows sum in ``int64``.
    """
    dtype = np.uint16 if packed.shape[1] < 1024 else np.int64
    return np.bitwise_count(packed).sum(axis=1, dtype=dtype)


def sort_and_rank(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(argsort order, strictly-smaller counts)`` for one column.

    ``g[t]`` is the number of values strictly below ``column[t]`` —
    the prefix-matrix row holding ``t``'s dominator bitset for this
    attribute.  In sorted order that count is the position where
    ``t``'s run of equal values starts, so one ``O(n)`` running
    maximum over the run starts replaces a second binary search.
    Both arrays are chunk-independent, so callers compute them once
    and reuse them across bit-space chunks.
    """
    order = np.argsort(column, kind="stable")
    ordered = column[order]
    starts = np.arange(ordered.size)
    starts[1:][ordered[1:] == ordered[:-1]] = 0
    g = np.empty_like(starts)
    g[order] = np.maximum.accumulate(starts)
    return order, g


def count_dominators_bitset(
    points: np.ndarray, budget_bytes: int = MATRIX_BYTES_BUDGET
) -> np.ndarray:
    """Strict dominance counts for any ``d`` via packed bitsets.

    For each attribute the sorted order induces nested "strictly
    below" sets, packed 64 per word by :func:`prefix_bit_matrix`; the
    AND across attributes of each tuple's per-attribute bitset is its
    dominator set, and one popcount finishes the job.  Exact under
    ties and duplicate columns (equal values are in nobody's
    strict-prefix), ``O(d n^2 / 64)`` word operations, processed in
    bit-space chunks of at most ``budget_bytes``.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    counts = np.zeros(n, dtype=np.intp)
    if n == 0 or d == 0:
        return counts
    ranked = [sort_and_rank(pts[:, j]) for j in range(d)]
    chunks = bit_chunks(n, budget_bytes)
    for lo, hi, (acc, gather) in chunk_buffers(n, chunks, 2):
        counts += popcount_rows(and_prefix_rows(ranked, lo, hi, acc, gather).T)
    return counts
