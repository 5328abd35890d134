"""Dominance-factor counting (paper Section 5.2).

For every tuple ``t`` of a relation, the *dominance factor* ``DF(t)`` is
the number of tuples that dominate ``t``.  This module counts **strict**
dominators: ``u`` dominates ``t`` when ``u[j] < t[j]`` on *every*
coordinate.  Under the paper's no-duplicate-values assumption strict
and weak dominance coincide; with ties, strict counting undercounts,
which keeps the robust-layer bound a valid lower bound (tuples are only
ever placed in *shallower* layers, never deeper — soundness of the
layered index is preserved).

:func:`count_dominators` is the one entry point the library builds on:
a searchsorted short-cut for d = 1 and the vectorized offline kernels
of :mod:`repro.dstruct.kernels` (offline merge counting for d = 2,
packed dominance bitsets for d >= 3) otherwise — exact under ties and
duplicate columns, and the fastest engine by an order of magnitude at
the paper's data sizes.  Which path served a pass and the kernel time
are observable via the ``counting.*`` counters/timers (see
:mod:`repro.obs`).

The paper's engines stay available as named functions, used as
references by the tests and compared by the counting ablation
benchmark:

``count_dominators_naive``
    O(n^2 d) reference loop; ground truth for tests.
``count_dominators_blocked``
    Vectorized NumPy O(n^2 d) with a sorted-prefix pruning that halves
    the comparisons.  Works for any input, ties included.
``count_dominators_sweep``
    The paper's Algorithm 1 for d=2: sort by the first attribute, keep
    an order-statistic structure over the second.  O(n log n).
``count_dominators_divide_conquer``
    The paper's Algorithm 2 for d>=3: recursive partition/merge with a
    two-dimensional sort-merge base case.  O(n (log n)^{d-1}).  The
    partition step splits at attribute *values* (three-way), so tied
    and duplicate-column data are handled exactly — the paper's
    duplicate-free assumption is not required.
``count_dominators_kernel``
    The vectorized kernels behind :func:`count_dominators`.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from .fenwick import FenwickTree, compress_values
from .kernels import count_dominators_bitset, count_dominators_merge2d

__all__ = [
    "count_dominators",
    "count_dominators_naive",
    "count_dominators_blocked",
    "count_dominators_sweep",
    "count_dominators_divide_conquer",
    "count_dominators_kernel",
    "columns_duplicate_free",
]


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array; got shape {pts.shape}")
    return pts


def columns_duplicate_free(points: np.ndarray) -> bool:
    """True when no attribute holds a repeated value (paper's assumption)."""
    pts = _as_points(points)
    return all(
        np.unique(pts[:, j]).size == pts.shape[0] for j in range(pts.shape[1])
    )


def count_dominators(points: np.ndarray) -> np.ndarray:
    """``DF(t)`` for every row ``t``: the number of strict dominators.

    One path per dimensionality: a searchsorted short-cut for 1-D
    inputs, the vectorized kernel (:func:`count_dominators_kernel`)
    otherwise.  Ties and duplicate columns are handled exactly, so
    there is no data-shape fallback.

    Parameters
    ----------
    points:
        ``(n, d)`` array of tuples.

    Returns
    -------
    ``(n,)`` array of non-negative counts.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    engine = "one_dim" if d == 1 else "kernel"
    obs.inc("df.passes")
    obs.inc("df.tuples", n)
    obs.inc(f"counting.engine.{engine}")
    with obs.timed(f"df.{engine}"):
        if d == 1:
            return _count_one_dim(pts)
        with obs.timed("counting.kernel"):
            return count_dominators_kernel(pts)


def count_dominators_kernel(points: np.ndarray) -> np.ndarray:
    """Vectorized engine: merge counting (d=2) or packed bitsets (d>=3).

    Dispatches to :mod:`repro.dstruct.kernels`; 1-D inputs use the
    searchsorted short-cut.  Exact on ties and duplicate columns.
    """
    pts = _as_points(points)
    if pts.shape[1] < 2:
        return _count_one_dim(pts) if pts.shape[1] else np.zeros(
            pts.shape[0], dtype=np.intp
        )
    if pts.shape[1] == 2:
        return count_dominators_merge2d(pts)
    return count_dominators_bitset(pts)


def _count_one_dim(pts: np.ndarray) -> np.ndarray:
    """Strict dominators in 1-D: the number of strictly smaller values."""
    values = pts[:, 0]
    sorted_vals = np.sort(values)
    return np.searchsorted(sorted_vals, values, side="left").astype(np.intp)


def count_dominators_naive(points: np.ndarray) -> np.ndarray:
    """Reference O(n^2) count; use only on small inputs."""
    pts = _as_points(points)
    n = pts.shape[0]
    counts = np.zeros(n, dtype=np.intp)
    for i in range(n):
        counts[i] = int(np.all(pts < pts[i], axis=1).sum())
    return counts


def count_dominators_blocked(
    points: np.ndarray, block_bytes: int = 4 << 20
) -> np.ndarray:
    """Vectorized strict-dominator count with sorted-prefix pruning.

    Rows are processed in first-coordinate order; a row's dominators
    must have a strictly smaller first coordinate, so each block of
    queries is compared only against the prefix that precedes it.
    ``block_bytes`` caps the comparison scratch buffer.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    order = np.argsort(pts[:, 0], kind="stable")
    spts = pts[order]
    counts_sorted = np.zeros(n, dtype=np.intp)
    block = max(1, block_bytes // max(1, n * d))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # Prefix includes the block itself: same-first-coordinate rows
        # inside it are rejected by the strict comparison below.
        candidates = spts[:hi]
        queries = spts[lo:hi]
        dominated = (candidates[None, :, :] < queries[:, None, :]).all(axis=2)
        counts_sorted[lo:hi] = dominated.sum(axis=1)
    counts = np.empty(n, dtype=np.intp)
    counts[order] = counts_sorted
    return counts


def count_dominators_sweep(points: np.ndarray) -> np.ndarray:
    """Paper Algorithm 1 (d=2): sort by A1, order-statistic tree on A2.

    Rows are visited in ascending A1 order; before a row's A2 value is
    inserted, the tree is queried for how many previously-inserted A2
    values are strictly smaller.  Rows sharing an A1 value are grouped
    so they never count each other (strict semantics).
    """
    pts = _as_points(points)
    n, d = pts.shape
    if d != 2:
        raise ValueError(f"sweep requires d=2; got d={d}")
    order = np.argsort(pts[:, 0], kind="stable")
    x = pts[order, 0]
    y_ranks, universe = compress_values(pts[order, 1])
    tree = FenwickTree(universe)
    counts_sorted = np.zeros(n, dtype=np.intp)
    i = 0
    while i < n:
        j = i
        while j < n and x[j] == x[i]:
            j += 1
        # Query the whole equal-A1 group before inserting any of it.
        for g in range(i, j):
            counts_sorted[g] = tree.prefix_count(int(y_ranks[g]) - 1)
        for g in range(i, j):
            tree.add(int(y_ranks[g]))
        i = j
    counts = np.empty(n, dtype=np.intp)
    counts[order] = counts_sorted
    return counts


def count_dominators_divide_conquer(points: np.ndarray) -> np.ndarray:
    """Paper Algorithm 2 (d>=2): recursive partition/merge counting.

    The paper assumes duplicate-free coordinates; this rendition lifts
    that restriction by partitioning at attribute *values* (three-way)
    instead of at positions, so it is exact on tied data too.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if d < 2:
        return _count_one_dim(pts)
    counts = np.zeros(n, dtype=np.intp)
    order = np.argsort(pts[:, 0], kind="stable")
    _dc_partition(pts, counts, order, 0)
    return counts


def _dc_partition(pts, counts, idx, s) -> None:
    """Paper's ``Partition``, made tie-safe: idx is sorted by dim ``s``.

    Splitting three ways at the median *value* keeps the merge
    invariant (every left row strictly below every right row on
    ``s``) under duplicates: rows equal to the pivot form a middle
    group that is never recursed on — equal-on-``s`` rows cannot
    strictly dominate one another — and merges only across groups
    whose ``s`` values are strictly ordered.
    """
    if len(idx) <= 1:
        return
    vals = pts[idx, s]
    pivot = vals[len(idx) // 2]
    lo = int(np.searchsorted(vals, pivot, side="left"))
    hi = int(np.searchsorted(vals, pivot, side="right"))
    left, mid, right = idx[:lo], idx[lo:hi], idx[hi:]
    _dc_partition(pts, counts, left, s)
    _dc_partition(pts, counts, right, s)
    # Dimension s is strictly resolved across the groups, so the
    # merges start at dimension s + 1.
    if len(left):
        _dc_merge(pts, counts, left, np.concatenate([mid, right]), s + 1)
    if len(right):
        _dc_merge(pts, counts, mid, right, s + 1)


def _dc_merge(pts, counts, p1, p2, s) -> None:
    """Count dominators of ``p2`` rows among ``p1`` rows.

    Invariant: every ``p1`` row is strictly below every ``p2`` row on
    dimensions ``< s``; only dimensions ``s..d-1`` remain unresolved.
    """
    n1, n2 = len(p1), len(p2)
    if n1 == 0 or n2 == 0:
        return
    d = pts.shape[1]
    if s == d:
        counts[p2] += n1
        return
    if n1 == 1:
        u = pts[p1[0], s:]
        dominated = (pts[p2][:, s:] > u).all(axis=1)
        counts[p2[dominated]] += 1
        return
    if n2 == 1:
        t = pts[p2[0], s:]
        counts[p2[0]] += int((pts[p1][:, s:] < t).all(axis=1).sum())
        return
    if s == d - 1:
        vals1 = np.sort(pts[p1, s])
        counts[p2] += np.searchsorted(vals1, pts[p2, s], side="left")
        return
    if s == d - 2:
        _dc_merge_two_dims(pts, counts, p1, p2, s)
        return
    # Split p2 at its median on dimension s; route p1 accordingly.
    order2 = np.argsort(pts[p2, s], kind="stable")
    half = n2 // 2
    p21, p22 = p2[order2[:half]], p2[order2[half:]]
    split_val = pts[p22, s].min()
    below = pts[p1, s] < split_val
    p11, p12 = p1[below], p1[~below]
    _dc_merge(pts, counts, p11, p21, s)   # both sides below the split
    _dc_merge(pts, counts, p12, p22, s)   # both sides at/above the split
    _dc_merge(pts, counts, p11, p22, s + 1)  # dimension s resolved
    # (p12, p21) cannot dominate: p12 sits strictly above p21 on dim s.


def _dc_merge_two_dims(pts, counts, p1, p2, s) -> None:
    """Two-dimensional base case: sort-merge on dim s, tree on dim s+1.

    This mirrors Algorithm 1 but inserts only ``p1`` rows and queries
    only ``p2`` rows (paper Section 5.2.2, case 2).  At equal ``s``
    values, queries are ordered *before* inserts (event type 0 < 1) so
    an equal-on-``s`` candidate is never counted — dominance is
    strict.
    """
    y_all = np.concatenate([pts[p1, s + 1], pts[p2, s + 1]])
    y_ranks, universe = compress_values(y_all)
    n1 = len(p1)
    events = sorted(
        [(pts[i, s], 1, int(y_ranks[k])) for k, i in enumerate(p1)]
        + [(pts[i, s], 0, int(y_ranks[n1 + k]), i) for k, i in enumerate(p2)]
    )
    tree = FenwickTree(universe)
    for event in events:
        if event[1] == 1:
            tree.add(event[2])
        else:
            counts[event[3]] += tree.prefix_count(event[2] - 1)
