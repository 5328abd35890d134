"""Distributive (sorted-lists) indexing: Fagin's Threshold Algorithm.

The paper's related-work Section 2 contrasts sequential indexing with
*distributive indexing*: sort each attribute separately; at query time
merge the lists under the monotone scoring function with a threshold
test for early termination.  This module implements the classic TA for
linear minimization queries so the comparison can be run, including
the paper's observation that distributive indexing "does not exploit
attribute correlation" — its cost is driven by how quickly the
per-attribute lists agree, not by domination structure.

Cost accounting follows the TA literature: *sorted accesses* walk the
per-attribute lists in score order; each newly seen tuple triggers
*random accesses* to fetch its remaining attributes.  For
comparability with the sequential indexes, ``QueryResult.retrieved``
reports the number of **distinct tuples touched**; the exact
sorted/random access counts are in ``QueryResult.extra``.
"""

from __future__ import annotations

import time

import numpy as np

from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, check_query, rank_candidates

__all__ = ["ThresholdIndex"]


class ThresholdIndex(RankedIndex):
    """Per-attribute sorted lists queried with the Threshold Algorithm.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(4)
    >>> data = rng.random((200, 3))
    >>> idx = ThresholdIndex(data)
    >>> q = LinearQuery([1, 2, 1])
    >>> list(idx.query(q, 5).tids) == list(q.top_k(data, 5))
    True
    """

    name = "TA"

    def __init__(self, points: np.ndarray):
        super().__init__(points)
        started = time.perf_counter()
        # One ascending tid list per attribute (minimization: best
        # values first), plus the value sequences for threshold math.
        self._lists = [
            np.argsort(self._points[:, j], kind="stable")
            for j in range(self.dimensions)
        ]
        self._build_seconds = time.perf_counter() - started

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        k = check_query(query, k, self._points.shape)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        w = query.weights
        n, d = self.size, self.dimensions
        # Zero-weight attributes contribute nothing to scores or the
        # threshold; walking their lists would only waste accesses.
        active = [j for j in range(d) if w[j] > 0]
        seen: set[int] = set()
        scores: dict[int, float] = {}
        sorted_accesses = 0
        random_accesses = 0
        depth = 0
        stopped = False
        while depth < n and not stopped:
            frontier = np.empty(d)
            for j in active:
                tid = int(self._lists[j][depth])
                sorted_accesses += 1
                frontier[j] = self._points[tid, j]
                if tid not in seen:
                    seen.add(tid)
                    random_accesses += d - 1
                    scores[tid] = float(w @ self._points[tid])
            depth += 1
            if len(scores) >= k:
                threshold = float(
                    sum(w[j] * frontier[j] for j in active)
                )
                kth_best = sorted(scores.values())[k - 1]
                # Unseen tuples score at least the threshold; strict
                # comparison keeps tid tie-breaking sound.
                if kth_best < threshold:
                    stopped = True
        candidates = np.fromiter(seen, dtype=np.intp)
        tids = rank_candidates(self._points, candidates, query, k)
        return QueryResult(
            tids,
            retrieved=len(seen),
            layers_scanned=0,
            extra={
                "sorted_accesses": sorted_accesses,
                "random_accesses": random_accesses,
                "depth": depth,
            },
        )

    def build_info(self) -> dict:
        return {
            "method": "threshold-algorithm",
            "n_lists": self.dimensions,
            "build_seconds": self._build_seconds,
        }
