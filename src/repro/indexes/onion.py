"""Onion and Shell layered indexes (Chang et al., paper Section 2/6).

Onion peels full convex hulls: layer 1 is the hull of all tuples,
layer 2 the hull of the rest, and so on.  The variant the paper
benchmarks against, *Shell*, peels convex shells instead — only the
hull facets a monotone minimization query can touch — producing
thinner layers at the cost of supporting only non-negative weights.

Both share the progressive query algorithm: scan layers in order,
keeping the best k scores seen; because the minimum score over all
deeper layers is attained on the *current* layer's hull (shell), the
scan may stop as soon as the k-th best seen score is strictly below
the current layer's minimum.
"""

from __future__ import annotations

import time

import numpy as np

from ..geometry.convex import hull_vertices, shell_vertices
from ..geometry.peeling import peel_layers
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, check_query, rank_candidates
from .robust import LayeredSlab

__all__ = ["OnionIndex", "ShellIndex", "peel_layers"]


class _PeeledIndex(RankedIndex):
    """Shared machinery for hull/shell peeling indexes."""

    _extractor = staticmethod(hull_vertices)

    def __init__(self, points: np.ndarray):
        super().__init__(points)
        started = time.perf_counter()
        layers = peel_layers(self._points, self._extractor)
        self._build_seconds = time.perf_counter() - started
        # Layer-packed storage: the progressive scan reads each layer
        # as one contiguous slab slice (the hull layers here are
        # k-indexed too: the top-k of any linear query lies within the
        # first k peels).
        self._layered = LayeredSlab.from_layers(self._points, layers)

    @property
    def layers(self) -> np.ndarray:
        """1-based layer number per tuple."""
        return self._layered.layers

    def export_state(self) -> tuple[dict, dict]:
        """Serializable ``(arrays, meta)``: the slab's buffers."""
        return self._layered.arrays(), {}

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "_PeeledIndex":
        """Restore from :meth:`export_state` output without re-peeling."""
        index = cls.__new__(cls)
        index._layered = LayeredSlab.from_arrays(arrays)
        index._points = index._layered.points
        index._build_seconds = 0.0
        return index

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Progressive layer scan with the domination stop rule.

        After finishing layer c, every unseen tuple scores at least the
        minimum score within layer c, so once the k-th best seen score
        is strictly below that minimum no deeper tuple can enter the
        top k.
        """
        k = check_query(query, k, self._points.shape)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        layered = self._layered
        retrieved = 0
        layers_scanned = 0
        best: np.ndarray | None = None
        for c in range(1, layered.n_layers + 1):
            lo, hi = int(layered.offsets[c - 1]), int(layered.offsets[c])
            if lo == hi:
                continue
            members = layered.order[lo:hi]
            retrieved += members.size
            layers_scanned = c
            pool = members if best is None else np.concatenate([best, members])
            best = rank_candidates(self._points, pool, query, k)
            if best.size >= k:
                kth_score = float(query.scores(self._points[[best[k - 1]]])[0])
                layer_min = float(query.scores(layered.slab[lo:hi]).min())
                if kth_score < layer_min:
                    break
        tids = best if best is not None else np.zeros(0, dtype=np.intp)
        return QueryResult(tids[:k], retrieved, layers_scanned)

    def build_info(self) -> dict:
        return {
            "method": self.name.lower(),
            "n_layers": self._layered.n_layers,
            "build_seconds": self._build_seconds,
        }


class OnionIndex(_PeeledIndex):
    """Full convex-hull peeling; answers arbitrary linear queries.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> data = rng.random((100, 2))
    >>> idx = OnionIndex(data)
    >>> q = LinearQuery([1, 3])
    >>> list(idx.query(q, 5).tids) == list(q.top_k(data, 5))
    True
    """

    name = "Onion"
    _extractor = staticmethod(hull_vertices)


class ShellIndex(_PeeledIndex):
    """Convex-shell peeling; thinner layers, monotone queries only."""

    name = "Shell"
    _extractor = staticmethod(shell_vertices)
