"""Non-monotone extension (paper Section 7).

AppRI assumes non-negative weights.  A general linear query with a
fixed sign pattern ``s`` (``s_i`` in {+1, -1}) becomes monotone after
negating every attribute with ``s_i = -1``.  Building one robust
layering per sign pattern therefore extends the index to *all* linear
queries, at a ``2^d`` space/build factor — practical for the small
dimensionalities layered indexes target (the paper's experiments use
d = 3, i.e. 8 layerings).

Weights equal to zero are compatible with either sign, so queries with
zero weights are routed to the all-positive-compatible pattern.
"""

from __future__ import annotations

import numpy as np

from ..queries.ranking import LinearQuery
from .appri import appri_layers

__all__ = ["SignedRobustLayers", "sign_pattern_of"]


def sign_pattern_of(weights: np.ndarray) -> tuple[int, ...]:
    """Sign pattern of a weight vector; zeros count as positive."""
    w = np.asarray(weights, dtype=float)
    return tuple(1 if x >= 0 else -1 for x in w)


class SignedRobustLayers:
    """Per-orthant AppRI layerings answering arbitrary linear queries.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = rng.random((50, 2))
    >>> idx = SignedRobustLayers(data, n_partitions=4)
    >>> q = LinearQuery([1.0, -1.0], require_monotone=False)
    >>> layers = idx.layers_for(q)
    >>> bool(np.all(layers[q.top_k(data, 5)] <= 5))
    True
    """

    def __init__(self, points: np.ndarray, n_partitions: int = 10):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        self._points = pts
        d = pts.shape[1]
        self._layerings: dict[tuple[int, ...], np.ndarray] = {}
        for mask in range(1 << d):
            signs = tuple(-1 if mask & (1 << j) else 1 for j in range(d))
            flipped = pts * np.asarray(signs, dtype=float)
            self._layerings[signs] = appri_layers(
                flipped, n_partitions=n_partitions
            )

    @property
    def dimensions(self) -> int:
        """Attribute count of the indexed relation."""
        return self._points.shape[1]

    @property
    def sign_patterns(self) -> list[tuple[int, ...]]:
        """The ``2^d`` weight-sign orthants, one layering each."""
        return list(self._layerings)

    def layers_for(self, query: LinearQuery) -> np.ndarray:
        """The layering that is sound for this query's sign pattern."""
        if query.dimensions != self.dimensions:
            raise ValueError("query dimensionality mismatch")
        return self._layerings[sign_pattern_of(query.weights)]

    def query(self, query: LinearQuery, k: int) -> tuple[np.ndarray, int]:
        """Top-k tids plus the number of tuples retrieved.

        Retrieves the first k layers of the pattern-matched layering
        and ranks them exactly; sound because the sign-flipped data is
        monotone for the sign-flipped (non-negative) weights.
        """
        layers = self.layers_for(query)
        candidates = np.flatnonzero(layers <= k)
        scores = query.scores(self._points[candidates])
        order = np.lexsort((candidates, scores))
        return candidates[order[:k]], int(candidates.size)
