"""Vectorized top-k selection kernels for the query-serving path.

Every ranked answer in this library is ordered by ascending
``(score, tid)`` — the paper's tie rule (no duplicate attribute values
assumed, remaining ties broken by tuple id).  The reference
realization is a full ``np.lexsort((tids, scores))`` over the whole
candidate set.  The kernels here produce *bit-identical* answers by
sorting only the head of the ranking.

The selection rule (both kernels):

1. **Head.**  Take the positions of the k + 1 smallest scores in score
   order.  At or below :data:`_ARGSORT_MAX` candidates the head is a
   prefix of NumPy's default (SIMD, unstable) ``argsort``; above it,
   ``argpartition(scores, k)[:k + 1]`` isolates the k + 1 cheapest in
   ``O(C)`` and only those are argsorted.
2. **Audit.**  If the k + 1 head scores are strictly increasing, no
   tie touches the top k or its boundary, so the unstable order is
   the only order: ``tids[head[:k]]`` is the lexsort's answer.  (NaN
   compares false, so a NaN in a head of two or more fails the audit,
   and a passing head's top k lie strictly below every other score,
   infinite or not: no separate finiteness check is needed.)
3. **Tie-exact fallback.**  Otherwise (equal scores, ``-0.0 == 0.0``
   or a NaN in the head) the k-th order statistic ``kth`` decides:
   the lexsort's top k are exactly all candidates with ``score < kth``
   (provably fewer than k) plus the smallest-tid candidates with
   ``score == kth`` filling the remainder (a NaN ``kth`` counts every
   number as below and every NaN as tied, where the lexsort puts
   them).  Two ``O(C)`` scans and a sort of those k finish the call;
   on tied data with ``k < C`` the whole candidate set is never
   sorted.

:func:`topk_select` applies the rule to one score vector.
:func:`batch_topk` applies it row-parallel to a ``(Q, C)`` score
matrix — one argsort (or argpartition plus head argsort) across the
batch, an O(Q k) audit — and sends only the rows that fail the audit
through the fallback.  With a caller-held ``scratch`` dict
and a large candidate set it instead runs a *masked* schedule that
sidesteps the per-row partition: each row's k-th score over a small
probe window bounds the true k-th score from above, a boolean
threshold mask shrinks the problem to the few candidates at or below
that bound, and one composite-key argsort orders every survivor of
every row at once.  ``scratch`` persists the working buffers across
calls, so repeated batches touch warm, already-faulted memory.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["topk_select", "batch_topk"]

#: Candidate counts at or below this take the head from a full
#: ``argsort``; larger ones from ``argpartition`` plus an argsort of
#: the k + 1 survivors.  Measured with NumPy 2.4 on a 2-vCPU AVX-512
#: host, k in {10, 20, 50, 100}: per row of a 64- or 256-row batch,
#: the argsort head costs about 3 us up to C = 256 and 5-7 us at
#: C = 320, where the partition head costs 4-5 us; the scalar kernel
#: breaks even between C = 320 and 450, and at C = 1024 the partition
#: head wins 10-11 us to 16-19 us.  One crossover serves both kernels.
_ARGSORT_MAX = 256

#: Leading score columns used by the masked batch path to bound each
#: row's k-th score.  Because candidate columns arrive in layer order
#: (best tuples first), the k-th smallest of this window is a tight
#: upper bound on the true k-th score, and the threshold mask keeps
#: only a few multiples of k survivors per row.
_PROBE = 256


def topk_select(scores: np.ndarray, tids: np.ndarray, k: int) -> np.ndarray:
    """Top-k ``tids`` by ascending ``(score, tid)``.

    Exactly ``tids[np.lexsort((tids, scores))[:k]]``, computed by the
    module's head + audit rule.  ``k`` larger than the candidate count
    returns the full ranking; ``k <= 0`` returns an empty array.
    """
    scores = np.asarray(scores, dtype=float)
    tids = np.asarray(tids, dtype=np.intp)
    n = scores.size
    if k <= 0 or n == 0:
        return np.zeros(0, dtype=np.intp)
    k = min(int(k), n)
    # Method calls and count_nonzero: at serving-sized C the kernel is
    # a handful of microseconds, and the np.* wrappers add about one each.
    if n <= _ARGSORT_MAX or k == n:
        head = scores.argsort()[: k + 1]
    else:
        head = scores.argpartition(k)[: k + 1]
        head = head[scores[head].argsort()]
    ordered = scores[head]
    if np.count_nonzero(ordered[1:] > ordered[:-1]) == ordered.size - 1:
        return tids[head[:k]]
    return _tied_topk(scores, tids, k, ordered[k - 1])


def _tied_topk(
    scores: np.ndarray, tids: np.ndarray, k: int, kth: float
) -> np.ndarray:
    """The lexsort's top k given its k-th order statistic ``kth``:
    every score below ``kth``, then the smallest tids tied at it."""
    if math.isnan(kth):  # the lexsort ranks NaN after every number
        tied_mask = np.isnan(scores)
        below = np.flatnonzero(~tied_mask)
        tied = np.flatnonzero(tied_mask)
    else:
        below = np.flatnonzero(scores < kth)
        tied = np.flatnonzero(scores == kth)
    need = k - below.size  # >= 1: fewer than k scores lie below kth
    if tied.size > need:
        tied = tied[np.argpartition(tids[tied], need - 1)[:need]]
    sel = np.concatenate([below, tied])
    return tids[sel][np.lexsort((tids[sel], scores[sel]))]


def _scratch_buffer(scratch: dict, name: str, size: int, dtype) -> np.ndarray:
    """A flat reusable array of at least ``size`` entries of ``dtype``.

    Grown (never shrunk) in ``scratch`` so repeated batches of similar
    shape touch warm, already-faulted memory instead of paying the
    allocator's page-fault tax on every multi-megabyte temporary.
    """
    buf = scratch.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = np.empty(max(size, 1), dtype=dtype)
        scratch[name] = buf
    return buf[:size]


def _masked_batch_topk(
    scores: np.ndarray, tids: np.ndarray, k: int, scratch: dict
) -> np.ndarray:
    """The large-C batch path: threshold mask + one composite argsort.

    Exactness argument, step by step:

    * ``tau[q]`` is the k-th smallest score among the first ``_PROBE``
      columns — the k-th order statistic of a subset, hence an upper
      bound on row q's true k-th score.
    * The mask ``scores <= tau`` therefore contains the whole true
      top k *including every candidate tied at the k-th score* (those
      sit exactly at the true k-th value, which is ``<= tau``), and at
      least k entries per row (the probe window's own k smallest).
    * Survivors are ordered by a composite key
      ``row + 0.5 * rescale(score)``: a per-row monotone
      non-decreasing float map, so sorting keys sorts scores — the
      only risk is *collapses* (distinct scores rounding to one key)
      and genuine score ties, both of which surface as equal adjacent
      keys and route that row to the exact scalar kernel.
    * A row whose bound is not finite (NaN or ``+inf`` among its probe
      head) or whose survivors hold ``-inf`` has no finite rescale; it
      is split off to the scalar kernel before the key sort, so it
      cannot disturb the other rows' key ranges.
    """
    n_queries, n_candidates = scores.shape
    probe = _PROBE
    # Per-row score bound from the probe window (in-place partition on
    # a reused buffer).
    pbuf = _scratch_buffer(
        scratch, "probe", n_queries * probe, np.float64
    ).reshape(n_queries, probe)
    np.copyto(pbuf, scores[:, :probe])
    pbuf.partition(k - 1, axis=1)
    tau = pbuf[:, k - 1]
    odd = ~np.isfinite(tau)
    if odd.any():
        return _split_batch_topk(scores, tids, k, scratch, odd)
    # Threshold mask, padded to a whole number of 64-bit words so the
    # survivor scan can test 64 candidates per comparison.
    size = n_queries * n_candidates
    padded = size + (-size) % 8
    mbuf = _scratch_buffer(scratch, "mask", padded, np.bool_)
    mbuf[size:] = False
    mask = mbuf[:size].reshape(n_queries, n_candidates)
    np.less_equal(scores, tau[:, None], out=mask)
    words = np.flatnonzero(mbuf.view(np.uint64))
    sub = np.flatnonzero(mbuf.reshape(-1, 8)[words])
    flat = words[sub >> 3] * 8 + (sub & 7)
    rows = flat // n_candidates
    svals = scores.ravel()[flat]
    counts = np.bincount(rows, minlength=n_queries)
    starts = np.zeros(n_queries, dtype=np.intp)
    np.cumsum(counts[:-1], out=starts[1:])
    # Composite key: integer row index plus the row-rescaled score in
    # [0, 0.5].  One quicksort over all survivors replaces a per-row
    # (or 3-key lexsort) ordering pass.
    rowmin = np.minimum.reduceat(svals, starts)
    span = np.maximum.reduceat(svals, starts) - rowmin
    odd = ~np.isfinite(span)
    if odd.any():
        return _split_batch_topk(scores, tids, k, scratch, odd)
    span[span == 0] = 1.0
    key = rows + (svals - rowmin[rows]) / span[rows] * 0.5
    order = np.argsort(key)
    flat_sorted = flat[order]
    key_sorted = key[order]
    take = starts[:, None] + np.arange(k)
    head_keys = key_sorted[take]
    out = tids[flat_sorted[take] % n_candidates]
    # Ambiguity audit: equal adjacent keys inside a row's top k, or a
    # row whose k-th key equals its (k+1)-th (a tie straddling the
    # cut), mean the quicksort's arbitrary order may disagree with the
    # tid tie rule — re-answer those rows exactly.
    suspect = (head_keys[:, 1:] == head_keys[:, :-1]).any(axis=1)
    over = counts > k
    if over.any():
        boundary = key_sorted[np.where(over, starts + k, starts)]
        suspect |= over & (boundary == head_keys[:, -1])
    for row in np.flatnonzero(suspect):
        out[row] = topk_select(scores[row], tids, k)
    return out


def _split_batch_topk(
    scores: np.ndarray, tids: np.ndarray, k: int, scratch: dict, odd
) -> np.ndarray:
    """The masked path over the rows outside ``odd``; the ``odd`` rows
    (no finite rescale) through :func:`topk_select`."""
    out = np.empty((scores.shape[0], k), dtype=np.intp)
    for row in np.flatnonzero(odd):
        out[row] = topk_select(scores[row], tids, k)
    rest = np.flatnonzero(~odd)
    if rest.size:
        out[rest] = _masked_batch_topk(scores[rest], tids, k, scratch)
    return out


def batch_topk(
    scores: np.ndarray,
    tids: np.ndarray,
    k: int,
    scratch: dict | None = None,
) -> np.ndarray:
    """Row-wise top-k over a ``(Q, C)`` score matrix.

    ``scores[q, c]`` is query q's score for candidate ``tids[c]``; the
    result is a ``(Q, k)`` matrix whose row q equals
    ``topk_select(scores[q], tids, k)``.  All heavy passes run across
    the whole batch inside numpy; rows that fail the head audit take
    the tie-exact fallback.

    Passing a ``scratch`` dict (the same one on every call) enables
    the masked large-C path and persists its working buffers between
    batches; the dict is owned by the caller and is not thread-safe —
    concurrent callers should each hold their own.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 2:
        raise ValueError(f"scores must be (Q, C); got shape {scores.shape}")
    tids = np.asarray(tids, dtype=np.intp)
    n_queries, n_candidates = scores.shape
    if tids.shape != (n_candidates,):
        raise ValueError(
            f"tids must have one entry per score column; got {tids.shape}"
        )
    if k <= 0 or n_candidates == 0:
        return np.zeros((n_queries, 0), dtype=np.intp)
    k = min(int(k), n_candidates)
    # The masked schedule pays off when the probe window's bound leaves
    # few survivors per row: a large candidate set and k well below it.
    if (
        scratch is not None
        and k <= _PROBE
        and n_candidates >= 2 * _PROBE
        and 4 * k < n_candidates
    ):
        if not scores.flags.c_contiguous:
            scores = np.ascontiguousarray(scores)
        return _masked_batch_topk(scores, tids, k, scratch)
    if n_candidates <= _ARGSORT_MAX or k == n_candidates:
        head = np.argsort(scores, axis=1)[:, : k + 1]
    else:
        head = np.argpartition(scores, k, axis=1)[:, : k + 1]
        by_score = np.take_along_axis(scores, head, axis=1).argsort(axis=1)
        head = np.take_along_axis(head, by_score, axis=1)
    ordered = np.take_along_axis(scores, head, axis=1)
    clean = (ordered[:, 1:] > ordered[:, :-1]).all(axis=1)
    out = tids[head[:, :k]]
    for row in np.flatnonzero(~clean):
        out[row] = _tied_topk(scores[row], tids, k, ordered[row, k - 1])
    return out
