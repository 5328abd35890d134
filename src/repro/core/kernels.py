"""Fused level-region counting for the AppRI build.

The paper's schedule runs one full dominance pass per gamma level per
side — ``2B`` transformed-space passes per pair system — and each pass
re-sorts every transformed column from scratch.  This module collapses
all of a system's passes into one fused kernel built on the
packed-bitset machinery of :mod:`repro.dstruct.kernels`, exploiting
two kinds of sharing the per-level schedule cannot see:

* **Across sides.**  :func:`repro.core.partitioning.level_transform`
  gives side a and side b the *same* bilinear columns
  ``gamma * x_i + x_j`` for ``(i, j) in J2 x J1`` — only the lead
  columns differ.  The fused kernel computes each bilinear dominator
  bitset once per level and ANDs it against both sides' lead bitsets,
  halving the dominant cost.
* **Across levels.**  The lead columns (shared-below attributes and
  the negated above-attributes) do not depend on gamma, so their
  combined bitsets are built once per call and reused for every
  level, including the two full-subspace passes.

Every comparison is made on the *exact float values* the per-level
transforms produce (the same ``gamma * pts[:, i] + pts[:, j]`` /
``-pts[:, j]`` expressions), so the level sizes are bit-identical to
one dominance pass per transformed space on any input, ties included
— ``tests/core/test_kernels.py`` checks this against the per-level
reference schedule in ``tests/core/appri_reference.py`` under every
named dominance engine.  Peak memory is bounded by processing the
dominator bitsets in bit-space chunks
(:func:`repro.dstruct.kernels.bit_chunks`).

:func:`pair_level_data` is the entry point; the build pipeline
(:mod:`repro.core.pipeline`) runs it once per system, or on
per-level subsets (``levels=``) when it fans out over a process pool,
so every schedule reuses the same code and stays identical by
construction.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..dstruct.kernels import (
    MATRIX_BYTES_BUDGET,
    bit_chunks,
    popcount_rows,
    prefix_bit_matrix,
    sort_and_rank,
)
from ..geometry.weights import gamma_levels
from .partitioning import SubspacePair

__all__ = [
    "pair_level_data",
    "suffix_smaller_counts",
    "crossing_partners",
]


def _acc(ranked, n, lo, hi, gather):
    """AND of the chunk-restricted dominator bitsets of ``ranked`` columns."""
    acc = None
    for order, g in ranked:
        matrix = prefix_bit_matrix(order, n, lo, hi)
        if acc is None:
            acc = matrix[g]
        else:
            np.take(matrix, g, axis=0, out=gather)
            acc &= gather
    return acc


def pair_level_data(
    points: np.ndarray,
    pair: SubspacePair,
    n_partitions: int,
    levels=None,
    budget_bytes: int = MATRIX_BYTES_BUDGET,
):
    """All level-region sizes of one pair system, in one fused kernel.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    pair:
        The system whose nested regions are counted.
    n_partitions:
        The paper's B.
    levels:
        Which passes to run: integers in ``1..B`` where ``p < B`` is
        the interior gamma level ``gamma_p`` (filling columns
        ``a_levels[:, p]`` and ``b_levels[:, p]``) and ``p == B`` is
        the pair of full-subspace passes (filling ``a_levels[:, B]``
        and ``b_levels[:, 0]``).  ``None`` runs them all.  The pool
        schedule passes subsets; summed over a cover of ``1..B`` the
        results are identical to one full call.
    budget_bytes:
        Bit-space chunking budget (see
        :data:`repro.dstruct.kernels.MATRIX_BYTES_BUDGET`).

    Returns
    -------
    ``(a_levels, b_levels)`` — two ``(n, B + 1)`` int64 arrays with
    ``a_levels[:, p] = |a_p|`` and ``b_levels[:, p] = |b_p|``;
    unrequested columns (and the always-empty ``b_levels[:, B]`` /
    ``a_levels[:, 0]``) are zero.
    """
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    b = int(n_partitions)
    a_levels = np.zeros((n, b + 1), dtype=np.int64)
    b_levels = np.zeros((n, b + 1), dtype=np.int64)
    wanted = sorted(
        {int(p) for p in levels} if levels is not None else range(1, b + 1)
    )
    if n == 0 or not wanted:
        return a_levels, b_levels
    if wanted[0] < 1 or wanted[-1] > b:
        raise ValueError(f"levels must lie in 1..{b}; got {wanted}")

    gammas = gamma_levels(b)
    j1 = list(pair.side_a_above)
    j2 = list(pair.side_b_above)
    shared = [pts[:, i] for i in pair.shared_below]

    with obs.timed("counting.kernel"):
        # Gamma-independent column families, ranked once and reused
        # across every bit-space chunk and every level.
        lead_a = [sort_and_rank(c) for c in shared + [-pts[:, j] for j in j1]]
        lead_b = [sort_and_rank(c) for c in shared + [-pts[:, i] for i in j2]]
        run_subspace = wanted[-1] == b
        interior = [p for p in wanted if p < b]
        if run_subspace:
            # The remaining columns of the two subspace transforms: the
            # side's full region adds "strictly below on the *other*
            # side's above-dimensions" to its lead constraints.
            sub_a = [sort_and_rank(pts[:, i]) for i in j2]
            sub_b = [sort_and_rank(pts[:, j]) for j in j1]
        ranked_bilinear = [
            [
                sort_and_rank(float(gammas[p - 1]) * pts[:, i] + pts[:, j])
                for i in j2
                for j in j1
            ]
            for p in interior
        ]
        obs.inc("counting.fused_levels", len(interior) + 2 * run_subspace)

        for lo, hi in bit_chunks(n, budget_bytes):
            words = (hi - lo + 63) >> 6
            gather = np.empty((n, words), dtype=np.uint64)
            combine = np.empty((n, words), dtype=np.uint64)
            acc_a = _acc(lead_a, n, lo, hi, gather)
            acc_b = _acc(lead_b, n, lo, hi, gather)
            if run_subspace:
                np.bitwise_and(acc_a, _acc(sub_a, n, lo, hi, gather),
                               out=combine)
                a_levels[:, b] += popcount_rows(combine)
                np.bitwise_and(acc_b, _acc(sub_b, n, lo, hi, gather),
                               out=combine)
                b_levels[:, 0] += popcount_rows(combine)
            for p, ranked in zip(interior, ranked_bilinear):
                bil = _acc(ranked, n, lo, hi, gather)
                np.bitwise_and(bil, acc_a, out=combine)
                a_levels[:, p] += popcount_rows(combine)
                np.bitwise_and(bil, acc_b, out=combine)
                b_levels[:, p] += popcount_rows(combine)
    return a_levels, b_levels


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
