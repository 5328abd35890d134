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
through the fallback.  That is the only batch schedule.  A schedule
that bounded each row's k-th score from a probe window and sorted the
survivors of a threshold mask won only for batches of 128 or more rows
at k <= 20 (by about a quarter) and lost up to 2x on the ~14-row
groups per k an executor batch makes, so it is gone.

A caller whose batch scores only approximate the scores that rank (a
GEMM rounds unlike the per-query GEMV) passes each row's error bound
and a way to compute its exact scores: the audit then also demands a
margin of twice the bound between head scores, and rows without it
are answered from their exact scores.
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


def batch_topk(
    scores: np.ndarray,
    tids: np.ndarray,
    k: int,
    slack: np.ndarray | None = None,
    rescore=None,
) -> np.ndarray:
    """Row-wise top-k over a ``(Q, C)`` score matrix.

    ``scores[q, c]`` is query q's score for candidate ``tids[c]``; the
    result is a ``(Q, k)`` matrix whose row q equals
    ``topk_select(scores[q], tids, k)``.  The head of every row comes
    from one argsort (or argpartition plus head argsort) across the
    batch and is audited at once; rows that fail the audit take the
    tie-exact fallback.

    ``slack`` and ``rescore`` are given together when ``scores`` only
    approximate the scores that rank: row q of the exact scores is
    ``rescore(q)`` (a ``(C,)`` vector) and differs from ``scores[q]``
    by at most ``slack[q]`` anywhere.  A row then passes the audit only
    if its head scores climb by more than ``2 * slack[q]`` at every
    step — no rounding within the slack can reorder such a head or let
    another candidate into it — and any other row (every row whose
    slack is NaN) is answered by ``topk_select(rescore(q), tids, k)``,
    so every row equals the exact scores' answer.
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
    # Gathers by flat index (row offset plus column): cheaper than
    # take_along_axis or 2-D fancy indexing at these sizes.
    rows = np.arange(n_queries)[:, None]
    if n_candidates <= _ARGSORT_MAX or k == n_candidates:
        head = scores.argsort(axis=1)[:, : k + 1]
        ordered = scores.take(head + rows * n_candidates)
    else:
        head = scores.argpartition(k, axis=1)[:, : k + 1]
        ordered = scores.take(head + rows * n_candidates)
        by_score = ordered.argsort(axis=1)
        by_score += rows * (k + 1)
        head = head.take(by_score)
        ordered = ordered.take(by_score)
    below = ordered[:, :-1]
    if slack is not None:  # NaN slack: no row passes
        below = below + 2 * np.asarray(slack)[:, None]
    clean = (ordered[:, 1:] > below).all(axis=1)
    out = tids[head[:, :k]]
    if clean.all():
        return out
    for row in np.flatnonzero(~clean).tolist():
        if rescore is None:
            out[row] = _tied_topk(scores[row], tids, k, ordered[row, k - 1])
        else:
            out[row] = topk_select(rescore(row), tids, k)
    return out
