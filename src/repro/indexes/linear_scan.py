"""Naive full-scan baseline.

The paper's strawman: score every tuple, sort, return k.  Retrieval
cost is always n; it anchors the benchmark plots and doubles as the
ground truth the other indexes' answers are compared against.
"""

from __future__ import annotations

import numpy as np

from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex, check_query

__all__ = ["LinearScanIndex"]


class LinearScanIndex(RankedIndex):
    """No index at all: every query reads the whole relation."""

    name = "Scan"

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        k = check_query(query, k, self._points.shape)
        tids = query.top_k(self._points, k)
        return QueryResult(tids, self.size, 0)

    def build_info(self) -> dict:
        return {"method": "scan"}
