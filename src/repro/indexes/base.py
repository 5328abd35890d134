"""Common interface for ranked-query indexes.

Every index answers a monotone top-k query and reports its *retrieval
cost* — the number of tuples it had to read from the (sequentially
stored) indexed database.  That count is the paper's evaluation metric
throughout Section 6, so it is a first-class part of the result.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..core.qkernel import topk_select
from ..queries.ranking import LinearQuery

__all__ = [
    "K_MAX",
    "QueryResult",
    "RankedIndex",
    "check_batch_k",
    "check_query",
    "rank_candidates",
]

#: The deepest k a batch carries per row (the ``intp`` maximum); a
#: larger ``TOP`` literal asks for the same full ranking.
K_MAX = int(np.iinfo(np.intp).max)


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Outcome of one top-k query against an index.

    Attributes
    ----------
    tids:
        The top-k tuple ids in rank order (ascending score, tid
        tie-break) — always identical to a full scan's answer.
    retrieved:
        Tuples read from the indexed store to produce the answer.
    layers_scanned:
        Layers touched, for layered indexes; 0 where not meaningful.
    """

    tids: np.ndarray
    retrieved: int
    layers_scanned: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tids", np.asarray(self.tids, dtype=np.intp))


_new_result = object.__new__
_set_tids, _set_retrieved, _set_layers, _set_extra = (
    QueryResult.__dict__[name].__set__
    for name in ("tids", "retrieved", "layers_scanned", "extra")
)


def prefix_results(
    top, retrieved: int, layers_scanned: int
) -> list[QueryResult]:
    """One :class:`QueryResult` per answer in ``top`` (rows of intp
    tids, e.g. a kernel's ``(q, k)`` block), all read from one prefix.

    The results are built through their slots, without ``__init__``
    and ``__post_init__`` (a third of the cost per row).  Each holds
    its own copy of its row, so a caller keeping one answer does not
    keep the whole block alive.
    """
    results = []
    for tids in top:
        result = _new_result(QueryResult)
        _set_tids(result, tids.copy())
        _set_retrieved(result, retrieved)
        _set_layers(result, layers_scanned)
        _set_extra(result, {})
        results.append(result)
    return results


class RankedIndex(ABC):
    """A pre-built structure answering monotone top-k queries."""

    #: Short display name used by the experiment harness.
    name: str = "index"

    def __init__(self, points: np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D; got shape {pts.shape}")
        self._points = pts

    @property
    def points(self) -> np.ndarray:
        """The indexed data matrix (n, d)."""
        return self._points

    @property
    def size(self) -> int:
        """Number of indexed tuples."""
        return self.points.shape[0]

    @property
    def dimensions(self) -> int:
        """Number of ranked attributes."""
        return self.points.shape[1]

    @abstractmethod
    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Answer a monotone top-k query."""

    def query_batch(self, queries, k) -> list[QueryResult]:
        """Answer many top-k queries.

        ``queries`` is an iterable of :class:`LinearQuery` or a
        ``(q, d)`` weight matrix holding one monotone query per row;
        ``k`` is one int for every row or a ``(q,)`` integer array of
        per-row k (see :func:`check_batch_k`).  The default loops over
        :meth:`query`; indexes whose candidates are a query-independent
        prefix (the robust and dynamic indexes) override this with one
        vectorized scoring pass per distinct k.
        """
        if isinstance(queries, np.ndarray):
            queries = [LinearQuery(w) for w in queries]
        else:
            queries = list(queries)
        ks = check_batch_k(k, len(queries)).tolist()
        return [self.query(q, kj) for q, kj in zip(queries, ks)]

    def build_info(self) -> dict:
        """Implementation-specific build statistics (layer counts...)."""
        return {}


def check_query(query: LinearQuery, k: int, shape: tuple[int, int]) -> int:
    """``min(k, n)`` for a top-k ``query`` over an ``(n, d)`` relation.

    Raises ``ValueError`` when ``query`` does not score d attributes or
    ``k`` is negative.
    """
    n, d = shape
    if query.dimensions != d:
        raise ValueError(
            f"query has {query.dimensions} weights; "
            f"index covers {d} attributes"
        )
    if k < 0:
        raise ValueError("k must be non-negative")
    return min(k, n)


def check_batch_k(k, rows: int) -> np.ndarray:
    """Per-row k of a ``rows``-query batch as a ``(rows,)`` integer array.

    ``k`` is one integer for every row or one per row.  Raises
    ``ValueError`` for a wrong length, a non-integer dtype or a
    negative entry.  One integer beyond the ``intp`` range is clamped
    to its maximum: no relation holds that many tuples, so either way
    the answer is the full ranking.
    """
    if isinstance(k, (int, np.integer)):
        if k < 0:
            raise ValueError("k must be non-negative")
        return np.full(rows, min(k, K_MAX), dtype=np.intp)
    ks = np.asarray(k)
    if ks.dtype.kind not in "iu":
        raise ValueError(f"k must be an integer or integer array; got {k!r}")
    if ks.shape != (rows,):
        raise ValueError(
            f"k must be an integer or one per query ({rows},); "
            f"got shape {ks.shape}"
        )
    if (ks < 0).any():
        raise ValueError("k must be non-negative")
    return ks


def rank_candidates(
    points: np.ndarray, candidates: np.ndarray, query: LinearQuery, k: int
) -> np.ndarray:
    """Exact top-k among ``candidates`` under the library tie rule.

    Identical to the full ``np.lexsort((candidates, scores))`` ranking
    truncated to k, computed by :func:`~repro.core.qkernel.topk_select`:
    only the k+1 smallest scores are sorted (an argsort head up to the
    kernel's crossover, an argpartition head above it), and a head
    with tied scores falls back to the tie-exact selection.
    """
    candidates = np.asarray(candidates, dtype=np.intp)
    scores = query.scores(points[candidates])
    return topk_select(scores, candidates, k)
