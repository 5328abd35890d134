"""Shared level-region counting for the AppRI build.

The paper's schedule runs one full dominance pass per gamma level per
side — ``2B`` transformed-space passes per pair system — and each pass
re-sorts every transformed column from scratch.  This module collapses
the passes of *every* pair system into one kernel built on the
packed-bitset machinery of :mod:`repro.dstruct.kernels`.  Each
coordinate of every transformed space is one of two kinds of column:

* a **signed attribute** ``x_j`` or ``-x_j`` (shared-below
  dimensions, the negated above-dimensions that lead each side's
  region, and the plain attributes that close the full-subspace
  passes) — at most ``2d`` of them, none depending on gamma;
* a **bilinear column** ``gamma_p * x_i + x_j`` for ``(i, j) in
  J2 x J1`` — one per level and distinct ``(i, j)``, shared by both
  sides of a system *and* by every system whose sides contain that
  ``(i, j)``.

So the kernel works level-major over all systems at once.  Per
bit-space chunk it gathers each signed attribute's dominator bitset
once, ANDs every system's two lead accumulators out of them and
counts the two full-subspace regions; the AND of the ``d`` plain
attributes ``+x_j`` is each tuple's strict-dominator set, so the
dominance factor is counted from the same bitsets.  Then, per level,
it gathers that level's distinct bilinear columns once and ANDs /
popcounts them into every system that uses them.  Every distinct
column is sorted once per call and packed once per chunk, so a build
packs ``2d + pairs * (B - 1)`` prefix matrices, the dominance factor
included, instead of the per-system schedule's sum over systems plus
a dominance-factor pass of its own (89 instead of 276 at d=4, B=10;
the ``counting.prefix_words`` counter).

Every comparison is made on the *exact float values* the per-level
transforms produce (the same ``gamma * pts[:, i] + pts[:, j]`` /
``-pts[:, j]`` expressions), so the level sizes are bit-identical to
one dominance pass per transformed space on any input, ties included
— ``tests/core/test_kernels.py`` checks this against the per-level
reference schedule in ``tests/core/appri_reference.py`` under every
named dominance engine.  Peak memory is bounded by processing the
dominator bitsets in bit-space chunks
(:func:`repro.dstruct.kernels.bit_chunks`) sized so that every bitset
live at once — the per-system accumulators, one column family and the
scratch — fits the bytes of four accumulators plus one prefix matrix
of :data:`~repro.dstruct.kernels.MATRIX_BYTES_BUDGET` each, the
envelope of one per-system pass.  Each call allocates its buffers once
(:func:`repro.dstruct.kernels.chunk_buffers`) and keeps them local,
so builds may run in concurrent threads.

:func:`systems_level_data` is the entry point; the build pipeline
(:mod:`repro.core.pipeline`) runs it once over all tuple ids, or once
per tuple-id range (``lo``, ``hi``) when it fans out over a process
pool.  A range restricts the bit space — which tuples count as
dominators — exactly like one of the memory-bounding bit chunks, so
every schedule builds the same words, reuses the same code and stays
identical by construction.  :func:`pair_level_data` is its one-system
call, returning only that system's level sizes.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..dstruct.kernels import (
    MATRIX_BYTES_BUDGET,
    bit_chunks,
    chunk_buffers,
    popcount_rows,
    prefix_bit_matrix,
    sort_and_rank,
)
from ..geometry.weights import gamma_levels
from .partitioning import SubspacePair

__all__ = [
    "systems_level_data",
    "pair_level_data",
    "suffix_smaller_counts",
    "crossing_partners",
]

#: Live bitsets per chunk, in matrices of at most ``budget_bytes``:
#: what one system counted alone needs (four accumulators and one
#: prefix matrix).
_ENVELOPE_MATRICES = 5


def systems_level_data(
    points: np.ndarray,
    systems: list[SubspacePair],
    n_partitions: int,
    lo: int = 0,
    hi: int | None = None,
    budget_bytes: int = MATRIX_BYTES_BUDGET,
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The dominance factor and all level-region sizes of every pair
    system, in one shared kernel.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    systems:
        The pair systems whose nested regions are counted.
    n_partitions:
        The paper's B.
    lo, hi:
        The tuple ids ``[lo, hi)`` that may count as dominators
        (default: all ``n``).  Every tuple still gets a row, counting
        only its dominators in the range, so the results of disjoint
        ranges covering ``[0, n)`` sum to the full call — the pool
        schedule relies on this.
    budget_bytes:
        Bit-space chunking budget (see
        :data:`repro.dstruct.kernels.MATRIX_BYTES_BUDGET`); the live
        bitsets of a chunk stay within ``5 * budget_bytes``.

    Returns
    -------
    ``(dominators, levels)``.  ``dominators`` is the ``(n,)`` int64
    count of each tuple's strict dominators (smaller on every
    attribute) in the id range.  ``levels`` holds one ``(a_levels,
    b_levels)`` pair per system, in ``systems`` order: two ``(n, B +
    1)`` int64 arrays with ``a_levels[:, p] = |a_p|`` and
    ``b_levels[:, p] = |b_p|`` — columns ``1..B-1`` from the interior
    gamma levels, ``a_levels[:, B]`` and ``b_levels[:, 0]`` from the
    pair of full-subspace passes, the always-empty ``b_levels[:, B]``
    / ``a_levels[:, 0]`` zero.
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    b = int(n_partitions)
    hi = n if hi is None else hi
    if not 0 <= lo <= hi <= n:
        raise ValueError(
            f"id range must satisfy 0 <= lo <= hi <= {n}; got [{lo}, {hi})"
        )
    dominators = np.zeros(n, dtype=np.int64)
    levels = [
        (np.zeros((n, b + 1), dtype=np.int64),
         np.zeros((n, b + 1), dtype=np.int64))
        for _ in systems
    ]
    if lo == hi:
        return dominators, levels

    # Catalogue the distinct columns: signed attributes keyed by
    # ``(sign, j)``, bilinear columns by their ``(i, j)`` pair; each
    # system refers to them by slot.
    singles: dict[tuple[int, int], int] = {}
    pairs: dict[tuple[int, int], int] = {}

    def slots(table, keys):
        return [table.setdefault(key, len(table)) for key in keys]

    plans = []
    for pair in systems:
        j1, j2 = pair.side_a_above, pair.side_b_above
        shared = [(1, i) for i in pair.shared_below]
        plans.append((
            slots(singles, shared + [(-1, j) for j in j1]),  # lead of a
            slots(singles, shared + [(-1, i) for i in j2]),  # lead of b
            slots(singles, [(1, i) for i in j2]),  # closes a's subspace
            slots(singles, [(1, j) for j in j1]),  # closes b's subspace
            slots(pairs, [(i, j) for i in j2 for j in j1]),
        ))
    # The dominance factor ANDs every plain attribute; for d >= 2 the
    # systems already use each one.
    dominance = slots(singles, [(1, j) for j in range(d)])

    gammas = gamma_levels(b)
    with obs.timed("counting.kernel"):
        # Column ranks are chunk-independent: one sort per column.
        ranked_singles = [
            sort_and_rank(pts[:, j] if sign > 0 else -pts[:, j])
            for sign, j in singles
        ]
        ranked_levels = [
            [
                sort_and_rank(float(gammas[p - 1]) * pts[:, i] + pts[:, j])
                for i, j in pairs
            ]
            for p in range(1, b)
        ]
        obs.inc("counting.fused_levels", (b + 1) * len(systems))

        # Live per chunk: two accumulators per system, one column
        # family (the signed attributes, then one level's bilinear
        # columns, in the same slots), two scratch buffers and the
        # prefix matrix being gathered.
        n_columns = max(len(singles), len(pairs))
        live = 2 * len(systems) + n_columns + 3
        words = (hi - lo + 63) >> 6
        envelope = _ENVELOPE_MATRICES * 8 * n * min(
            words, max(1, int(budget_bytes) // (8 * n))
        )
        chunks = bit_chunks(n, envelope // live, lo, hi)
        for c_lo, c_hi, buffers in chunk_buffers(n, chunks, live - 1):
            columns = buffers[:n_columns]
            scratch, bil = buffers[n_columns:n_columns + 2]
            accumulators = buffers[n_columns + 2:]
            acc_a, acc_b = accumulators[0::2], accumulators[1::2]

            _gather(ranked_singles, columns, n, c_lo, c_hi)
            _and_columns(columns, dominance, scratch)
            dominators += popcount_rows(scratch.T)
            for s, (lead_a, lead_b, sub_a, sub_b, _) in enumerate(plans):
                a_levels, b_levels = levels[s]
                _and_columns(columns, lead_a, acc_a[s])
                _and_columns(columns, lead_b, acc_b[s])
                _and_columns(columns, sub_a, scratch)
                scratch &= acc_a[s]
                a_levels[:, b] += popcount_rows(scratch.T)
                _and_columns(columns, sub_b, scratch)
                scratch &= acc_b[s]
                b_levels[:, 0] += popcount_rows(scratch.T)

            for p, ranked in enumerate(ranked_levels, start=1):
                _gather(ranked, columns, n, c_lo, c_hi)
                for s, (*_, bilinear) in enumerate(plans):
                    a_levels, b_levels = levels[s]
                    _and_columns(columns, bilinear, bil)
                    np.bitwise_and(bil, acc_a[s], out=scratch)
                    a_levels[:, p] += popcount_rows(scratch.T)
                    bil &= acc_b[s]
                    b_levels[:, p] += popcount_rows(bil.T)
    return dominators, levels


def _gather(ranked, columns, n, lo, hi):
    """Gather every ranked column's chunk bitsets into ``columns``.

    Column ``t`` of ``columns[k]`` receives tuple ``t``'s strict
    dominators on ranked column ``k``, restricted to ids ``[lo, hi)``.
    """
    for (order, g), out in zip(ranked, columns):
        matrix = prefix_bit_matrix(order, n, lo, hi).T
        # Every row index is valid, so ``clip`` changes nothing; it
        # lets ``take`` write straight into ``out`` without a buffer.
        np.take(matrix, g, axis=1, out=out, mode="clip")


def _and_columns(columns, slots, out):
    """``out`` = AND of the gathered ``columns`` at ``slots``."""
    if len(slots) == 1:
        np.copyto(out, columns[slots[0]])
    else:
        np.bitwise_and(columns[slots[0]], columns[slots[1]], out=out)
        for k in slots[2:]:
            out &= columns[k]


def pair_level_data(
    points: np.ndarray,
    pair: SubspacePair,
    n_partitions: int,
    lo: int = 0,
    hi: int | None = None,
    budget_bytes: int = MATRIX_BYTES_BUDGET,
):
    """One pair system's ``(a_levels, b_levels)``: the one-system call
    of :func:`systems_level_data`."""
    return systems_level_data(
        points, [pair], n_partitions, lo, hi, budget_bytes
    )[1][0]


def _kernel_buffer(scratch: dict, name, size: int, dtype) -> np.ndarray:
    """A reusable flat array of at least ``size`` entries.

    The exact-engine kernels below run once per sweep window; reusing
    grown buffers keeps their hot loops in warm, already-faulted
    memory instead of paying the allocator's page-fault tax per call.
    """
    buf = scratch.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(max(size, 1), dtype=dtype)
        scratch[name] = buf
    return buf[:size]


def suffix_smaller_counts(
    perm: np.ndarray, scratch: dict | None = None
) -> np.ndarray:
    """Per-element inversion counts of a permutation.

    ``perm`` maps rank positions of one total order to ranks in a
    second order (a permutation of ``0..n-1``).  Returns ``out`` with
    ``out[p] = #{q > p : perm[q] < perm[p]}`` — how many elements
    behind position ``p`` in the first order sit ahead of it in the
    second.  For the kinetic d=2 sweep this is exactly the number of
    score-crossing events a tuple participates in inside one probe
    window (in the rank-increasing direction), which bounds how far
    its rank trajectory can drop between the window's edges.

    Runs in ``O(n * sqrt(n))`` flat numpy work: positions are
    processed in ``~sqrt(n)`` chunks, each resolved against a running
    presence prefix-sum over the value domain (suffix contribution)
    plus one small triangular block comparison (intra-chunk
    contribution).  No Python-level per-element work.
    """
    a = np.asarray(perm)
    n = a.size
    out = np.empty(n, dtype=np.int64)
    if n == 0:
        return out
    if scratch is None:
        scratch = {}
    chunk = max(64, int(1.6 * np.sqrt(n)))
    present = _kernel_buffer(scratch, "ssc.present", n, np.int64)
    present[:] = 1
    cum = _kernel_buffer(scratch, "ssc.cum", n, np.int64)
    mask = scratch.get(("ssc.mask", chunk))
    if mask is None:
        # Strict upper triangle: within-chunk pairs (i, j) with j > i.
        mask = np.tri(chunk, k=-1, dtype=bool).T.copy()
        scratch[("ssc.mask", chunk)] = mask
    cmp = _kernel_buffer(scratch, "ssc.cmp", chunk * chunk, np.bool_)
    for p0 in range(0, n, chunk):
        p1 = min(p0 + chunk, n)
        blk = a[p0:p1]
        width = p1 - p0
        # Drop this chunk first so ``present`` flags exactly the strict
        # suffix [p1:); the prefix-sum then answers "how many suffix
        # values are < v" for every v in the chunk at once (the chunk's
        # own slots are zero, so inclusive cumsum is exclusive in v).
        present[blk] = 0
        np.cumsum(present, out=cum)
        out[p0:p1] = cum[blk]
        block_cmp = cmp[: width * width].reshape(width, width)
        np.less(blk[None, :], blk[:, None], out=block_cmp)
        block_cmp &= mask[:width, :width]
        out[p0:p1] += block_cmp.sum(axis=1)
    return out


def crossing_partners(
    perm: np.ndarray,
    query_pos: np.ndarray,
    block: int = 256,
    scratch: dict | None = None,
):
    """Report every order-crossing partner of the queried positions.

    With ``perm`` as in :func:`suffix_smaller_counts` (first-order
    position -> second-order rank), element ``s`` at position ``q``
    *crosses* the query element at position ``p`` when their relative
    order differs between the two orders.  For each entry of
    ``query_pos`` this reports all crossing positions, split by
    direction:

    Returns ``(owner, partner_pos, rising)`` — parallel arrays with
    one row per crossing; ``owner`` indexes into ``query_pos``,
    ``partner_pos`` is the partner's first-order position, and
    ``rising`` is True where the partner moves ahead of the owner
    (``q > p`` and ``perm[q] < perm[p]``), False where it falls behind
    (``q < p`` and ``perm[q] > perm[p]``).

    The cost is output-sensitive: blocks of the position axis are
    value-sorted once, each query counts full blocks by binary search
    and materializes only its actual partners (plus one small
    comparison against its own block), so sparse crossing sets never
    pay an ``O(n)`` scan per query.
    """
    a = np.asarray(perm)
    n = a.size
    query_pos = np.asarray(query_pos, dtype=np.intp)
    m = query_pos.size
    empty = (
        np.zeros(0, dtype=np.intp),
        np.zeros(0, dtype=np.intp),
        np.zeros(0, dtype=np.bool_),
    )
    if n == 0 or m == 0:
        return empty
    if scratch is None:
        scratch = {}
    n_blocks = -(-n // block)
    padded = n_blocks * block
    # Sentinel n sorts after every real rank and never compares as
    # "smaller"; the before-own-position scan can never reach a
    # sentinel column (they only trail the last real position).
    vals = _kernel_buffer(scratch, "cp.vals", padded, np.int64)
    vals[n:] = n
    vals[:n] = a
    vals2d = vals.reshape(n_blocks, block)
    order2d = np.argsort(vals2d, axis=1, kind="stable")
    sorted2d = np.take_along_axis(vals2d, order2d, axis=1)
    lengths = np.minimum(n - block * np.arange(n_blocks), block)

    qorder = np.argsort(query_pos, kind="stable")
    ps = query_pos[qorder]
    vs = a[ps]
    qblock = ps // block

    owners: list[np.ndarray] = []
    partners: list[np.ndarray] = []
    rising: list[np.ndarray] = []

    def _emit(owner_idx, counts, slot_base, block_id, rise):
        total = int(counts.sum())
        if not total:
            return
        offsets = np.cumsum(counts) - counts
        rep = np.repeat(np.arange(owner_idx.size), counts)
        slot = np.arange(total) - offsets[rep] + slot_base[rep]
        owners.append(qorder[owner_idx[rep]])
        partners.append(block_id * block + order2d[block_id, slot])
        rising.append(np.full(total, rise, dtype=np.bool_))

    zeros = np.zeros(m, dtype=np.int64)
    for b in range(n_blocks):
        row = sorted2d[b, : lengths[b]]
        # Rising partners live in blocks strictly after the owner's.
        k = int(np.searchsorted(qblock, b, side="left"))
        if k:
            counts = np.searchsorted(row, vs[:k], side="left")
            _emit(np.arange(k), counts, zeros[:k], b, True)
        # Falling partners live in blocks strictly before the owner's.
        k2 = int(np.searchsorted(qblock, b, side="right"))
        if k2 < m:
            high = np.searchsorted(row, vs[k2:], side="right")
            counts = lengths[b] - high
            _emit(np.arange(k2, m), counts, high, b, False)

    # Own-block partners: one dense comparison per query row.
    col = np.arange(block)
    own_vals = vals2d[qblock]
    within = ps - qblock * block
    rise_mask = (own_vals < vs[:, None]) & (col[None, :] > within[:, None])
    fall_mask = (own_vals > vs[:, None]) & (col[None, :] < within[:, None])
    for mask_arr, rise in ((rise_mask, True), (fall_mask, False)):
        qi, ci = np.nonzero(mask_arr)
        if qi.size:
            owners.append(qorder[qi])
            partners.append(qblock[qi] * block + ci)
            rising.append(np.full(qi.size, rise, dtype=np.bool_))

    if not owners:
        return empty
    return (
        np.concatenate(owners),
        np.concatenate(partners),
        np.concatenate(rising),
    )
