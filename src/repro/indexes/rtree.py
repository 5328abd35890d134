"""Spatial (R-tree) ranked-query baseline.

The paper's related-work category 2: keep the points in an R-tree and
answer top-k by pruning subtrees whose bounding boxes cannot beat the
current k-th best score.  The original systems the paper cites work by
range-restricting with a guessed threshold (and restart on a bad
guess); this implementation uses the stronger best-first traversal
(Hjaltason & Samet style), so the baseline is, if anything, favoured.

Cost accounting: ``QueryResult.retrieved`` counts the tuples whose
exact scores were evaluated (the analogue of tuples read); node visits
are reported in ``extra``.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from ..dstruct.rtree import RTree
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, check_query, rank_candidates

__all__ = ["RTreeIndex"]


class RTreeIndex(RankedIndex):
    """Best-first top-k over an STR-bulk-loaded R-tree.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(9)
    >>> data = rng.random((300, 3))
    >>> idx = RTreeIndex(data, leaf_size=16)
    >>> q = LinearQuery([1, 1, 2])
    >>> list(idx.query(q, 7).tids) == list(q.top_k(data, 7))
    True
    """

    name = "R-tree"

    def __init__(self, points: np.ndarray, leaf_size: int = 32):
        super().__init__(points)
        started = time.perf_counter()
        self._tree = RTree(self._points, leaf_size=leaf_size)
        self._build_seconds = time.perf_counter() - started

    @property
    def tree(self) -> RTree:
        return self._tree

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        k = check_query(query, k, self._points.shape)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        w = query.weights
        counter = 0  # tie-break for the heap, never compares nodes
        heap: list[tuple[float, int, object]] = []
        root = self._tree.root
        heapq.heappush(heap, (root.mindist(w), counter, root))
        candidates: list[int] = []
        candidate_scores: list[float] = []
        nodes_visited = 0
        evaluated = 0
        kth_best = np.inf
        while heap:
            mindist, _, node = heapq.heappop(heap)
            # Nothing left in the heap can beat the current top-k; the
            # <= keeps score ties alive so tid tie-breaking stays exact.
            if len(candidates) >= k and mindist > kth_best:
                break
            nodes_visited += 1
            if node.is_leaf:
                scores = self._points[node.tids] @ w
                evaluated += int(node.tids.size)
                candidates.extend(int(t) for t in node.tids)
                candidate_scores.extend(float(s) for s in scores)
                if len(candidates) >= k:
                    kth_best = float(
                        np.partition(np.asarray(candidate_scores), k - 1)[k - 1]
                    )
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(heap, (child.mindist(w), counter, child))
        tids = rank_candidates(
            self._points, np.asarray(candidates, dtype=np.intp), query, k
        )
        return QueryResult(
            tids,
            retrieved=evaluated,
            layers_scanned=0,
            extra={"nodes_visited": nodes_visited},
        )

    def build_info(self) -> dict:
        return {
            "method": "rtree",
            "height": self._tree.height,
            "n_leaves": len(self._tree.leaves()),
            "build_seconds": self._build_seconds,
        }
