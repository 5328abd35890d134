"""Multi-view variants of PREFER and AppRI (paper Section 6.4).

PREFER's original proposal keeps several materialized views and routes
each query to the view whose seed weights are closest; the paper shows
the same trick applies to the robust index.  Its construction for d
views (one per dimension) classifies queries by their *minimum* weight
``w_m`` and rewrites

    f(t) = sum_i w_i A_i
         = w_m * S + sum_{i != m} (w_i - w_m) A_i,    S = sum_i A_i,

so the rewritten weights are again non-negative and the view for class
``m`` is simply a robust index over the transformed attributes
``(A_1, ..., A_{m-1}, S, A_{m+1}, ...)`` (paper Eqn 3 for d = 3).
"""

from __future__ import annotations

import numpy as np

from ..geometry.weights import normalize_weights, simplex_corners
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, rank_candidates
from .prefer import PreferIndex
from .robust import RobustIndex

__all__ = ["PreferMultiView", "RobustMultiView", "default_prefer_seeds"]


def default_prefer_seeds(dimensions: int, n_views: int) -> np.ndarray:
    """Seed weight vectors spreading over the simplex.

    One view: the uniform center.  d views: blends leaning toward each
    axis (the centroids of the "w_m is the minimum" query classes lie
    near these).  Other counts interpolate center-corner blends.
    """
    if n_views < 1:
        raise ValueError("need at least one view")
    center = np.full(dimensions, 1.0 / dimensions)
    if n_views == 1:
        return center[None, :]
    corners = simplex_corners(dimensions)
    seeds = [center]
    # Lean away from each corner in turn: the class "w_m minimal" has
    # its mass opposite corner m.
    for m in range(dimensions):
        away = (1.0 - corners[m]) / (dimensions - 1)
        seeds.append(0.5 * center + 0.5 * away)
    seeds = np.asarray(seeds)
    if n_views <= dimensions:
        return seeds[1 : n_views + 1]
    return seeds[:n_views]


class PreferMultiView(RankedIndex):
    """Several PREFER views; queries route to the angularly closest.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(5)
    >>> data = rng.random((120, 3))
    >>> idx = PreferMultiView(data, n_views=3)
    >>> q = LinearQuery([1, 2, 4])
    >>> list(idx.query(q, 8).tids) == list(q.top_k(data, 8))
    True
    """

    name = "PREFER-mv"

    def __init__(self, points: np.ndarray, n_views: int = 3, seeds=None):
        super().__init__(points)
        if seeds is None:
            seeds = default_prefer_seeds(self.dimensions, n_views)
        seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
        self._views = [PreferIndex(self._points, row) for row in seeds]

    @property
    def n_views(self) -> int:
        return len(self._views)

    def route(self, query: LinearQuery) -> int:
        """Index of the view with the highest cosine similarity."""
        w = normalize_weights(query.weights)
        w = w / np.linalg.norm(w)
        sims = [
            float(w @ (v.view_weights / np.linalg.norm(v.view_weights)))
            for v in self._views
        ]
        return int(np.argmax(sims))

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        view = self._views[self.route(query)]
        return view.query(query, k)

    def build_info(self) -> dict:
        return {"method": "prefer-multiview", "n_views": self.n_views}


class RobustMultiView(RankedIndex):
    """d AppRI views over min-weight-rewritten attributes (Section 6.4).

    View ``m`` indexes the matrix with column ``m`` replaced by the
    row sum ``S``; a query whose minimum weight sits at position ``m``
    is rewritten to the monotone weights
    ``(w_0 - w_m, ..., w_m, ..., w_{d-1} - w_m)`` over that view.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(6)
    >>> data = rng.random((150, 3))
    >>> idx = RobustMultiView(data, n_partitions=5)
    >>> q = LinearQuery([3, 1, 2])
    >>> list(idx.query(q, 8).tids) == list(q.top_k(data, 8))
    True
    """

    name = "AppRI-mv"

    def __init__(self, points: np.ndarray, n_partitions: int = 10):
        super().__init__(points)
        d = self.dimensions
        row_sum = self._points.sum(axis=1, keepdims=True)
        self._views = []
        for m in range(d):
            transformed = self._points.copy()
            transformed[:, m] = row_sum[:, 0]
            self._views.append(
                RobustIndex(transformed, n_partitions=n_partitions)
            )

    @property
    def n_views(self) -> int:
        """Number of rewritten views (one per attribute)."""
        return len(self._views)

    def route(self, query: LinearQuery) -> tuple[int, LinearQuery]:
        """Class of the query (argmin weight) plus rewritten weights."""
        w = np.asarray(query.weights, dtype=float)
        m = int(np.argmin(w))
        rewritten = w - w[m]
        rewritten[m] = w[m]
        if not rewritten.any():
            # All weights equal: the rewrite collapses to w_m * S.
            rewritten[m] = w[m] if w[m] > 0 else 1.0
        return m, LinearQuery(rewritten)

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Top-k from the first k layers of the query's routed view."""
        k = self._check_query(query, k)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        m, rewritten = self.route(query)
        view = self._views[m]
        # The rewrite preserves every tuple's score, so the view's
        # first k layers contain the original query's top k; re-rank
        # those candidates with the *original* weights so float
        # round-off in the rewrite cannot perturb tie-breaking.
        candidates = view.candidates_for_k(k)
        tids = rank_candidates(self._points, candidates, query, k)
        layers_scanned = (
            int(view.layers[candidates].max()) if candidates.size else 0
        )
        return QueryResult(tids, int(candidates.size), layers_scanned)

    def build_info(self) -> dict:
        """Method tag plus the view count."""
        return {"method": "appri-multiview", "n_views": self.n_views}
