"""PREFER-style ranked-view index (Hristidis et al., paper Section 1/6).

PREFER materializes the relation sorted by a *seed* linear order
``f_V(t) = v . t`` and answers a query ``f_Q(t) = w . t`` by scanning
that view sequentially.  After reading a prefix, every unseen tuple is
known to satisfy ``f_V >= V0`` (the next view score); combined with
the attributes' bounding box this yields a *watermark* — the smallest
``f_Q`` any unseen tuple could still achieve.  The scan stops once the
current k-th best seen score is strictly below the watermark.

The watermark here is the exact optimum of

    minimize  w . x   subject to  v . x >= V0,  lo <= x <= hi,

solved in closed form by a fractional-knapsack greedy (raise the
coordinates with the smallest ``w_i / v_i`` cost first).  That is the
tightest sound bound given only (V0, box), so this implementation is
at least as strong as the original system; its weight sensitivity —
the behaviour the paper criticizes — is intrinsic, not an artefact.
"""

from __future__ import annotations

import time

import numpy as np

from ..geometry.weights import normalize_weights
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, check_query, rank_candidates

__all__ = ["PreferIndex", "watermark_min_score"]


def watermark_min_score(
    weights: np.ndarray,
    view_weights: np.ndarray,
    view_floor: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> float:
    """Minimum of ``w . x`` over ``v . x >= view_floor``, ``lo<=x<=hi``.

    Returns ``+inf`` when the constraint is infeasible inside the box
    (no unseen tuple can exist).  Exact via greedy exchange: starting
    from ``x = lo``, raise coordinates in increasing ``w_i / v_i``
    order until the view constraint is met; coordinates with
    ``v_i = 0`` are never raised (they cost but do not help).
    """
    w = np.asarray(weights, dtype=float)
    v = np.asarray(view_weights, dtype=float)
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    base = float(w @ lo)
    deficit = float(view_floor - v @ lo)
    if deficit <= 0:
        return base
    useful = v > 0
    if not useful.any():
        return float("inf")
    ratio = np.full(w.size, np.inf)
    ratio[useful] = w[useful] / v[useful]
    cost = base
    for i in np.argsort(ratio, kind="stable"):
        if not useful[i]:
            break
        gain_capacity = v[i] * (hi[i] - lo[i])
        if gain_capacity <= 0:
            continue
        if gain_capacity >= deficit:
            cost += ratio[i] * deficit
            return cost
        cost += ratio[i] * gain_capacity
        deficit -= gain_capacity
    return float("inf")


class PreferIndex(RankedIndex):
    """One materialized ranked view with watermark-based early stop.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.
    view_weights:
        Seed weights of the materialized order; defaults to the uniform
        vector (the paper's running example sorts by ``x + y``).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(11)
    >>> data = rng.random((150, 3))
    >>> idx = PreferIndex(data)
    >>> q = LinearQuery([4, 1, 1])
    >>> res = idx.query(q, 10)
    >>> list(res.tids) == list(q.top_k(data, 10))
    True
    """

    name = "PREFER"

    def __init__(self, points: np.ndarray, view_weights=None):
        super().__init__(points)
        started = time.perf_counter()
        if view_weights is None:
            view_weights = np.ones(self.dimensions)
        self._view_weights = normalize_weights(view_weights)
        view_scores = self._points @ self._view_weights
        self._order = np.lexsort((np.arange(self.size), view_scores))
        self._view_scores = view_scores[self._order]
        self._lower = (
            self._points.min(axis=0) if self.size else np.zeros(self.dimensions)
        )
        self._upper = (
            self._points.max(axis=0) if self.size else np.zeros(self.dimensions)
        )
        self._build_seconds = time.perf_counter() - started

    @property
    def view_weights(self) -> np.ndarray:
        return self._view_weights

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        k = check_query(query, k, self._points.shape)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        w = query.weights
        n = self.size
        retrieved = 0
        best: np.ndarray | None = None
        while retrieved < n:
            # Read the view in small sequential chunks; the watermark
            # is re-evaluated after each chunk, so the retrieved count
            # is within one chunk of the per-tuple-optimal stop.
            chunk = self._order[retrieved : min(retrieved + _CHUNK, n)]
            retrieved += chunk.size
            pool = chunk if best is None else np.concatenate([best, chunk])
            best = rank_candidates(self._points, pool, query, k)
            if best.size >= k and retrieved < n:
                kth_score = float(query.scores(self._points[[best[k - 1]]])[0])
                floor = float(self._view_scores[retrieved])
                watermark = watermark_min_score(
                    w, self._view_weights, floor, self._lower, self._upper
                )
                if kth_score < watermark:
                    break
        tids = best if best is not None else np.zeros(0, dtype=np.intp)
        return QueryResult(tids[:k], retrieved, 0)

    def build_info(self) -> dict:
        return {
            "method": "prefer",
            "view_weights": self._view_weights.tolist(),
            "build_seconds": self._build_seconds,
        }


#: Sequential read granularity of the view scan.
_CHUNK = 8
