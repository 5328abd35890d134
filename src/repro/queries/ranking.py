"""Linear ranked-query model.

The paper studies queries whose evaluation function is a linear
combination ``f(t) = sum_i w_i * t[i]`` with non-negative weights
(monotone queries) under *minimization* semantics: the top-k answer is
the k tuples with the smallest scores.

Tuples are rows of a ``(n, d)`` float array; the row index acts as the
tuple identifier (*tid*).  The paper assumes no duplicate values per
attribute and breaks the remaining ties by tid; we implement exactly
that: the ranking order is ascending by ``(score, tid)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LinearQuery", "check_weights", "rank_of", "top_k_tids", "ranking_order"
]


def check_weights(weights: np.ndarray, require_monotone: bool = True) -> None:
    """Raise ``ValueError`` unless each weight vector (1-D, or each row
    of a 2-D array) is finite, not all zero and, if ``require_monotone``,
    non-negative: the one rule :class:`LinearQuery` and weight matrices
    share."""
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if require_monotone and (weights < 0).any():
        raise ValueError(
            "monotone queries require non-negative weights; "
            "pass require_monotone=False for general linear queries"
        )
    if not weights.any(axis=-1).all():
        raise ValueError("at least one weight must be non-zero")


class LinearQuery:
    """A linear scoring function ``f(t) = w . t`` with top-k semantics.

    Parameters
    ----------
    weights:
        Sequence of ``d`` weights.  For a *monotone* query all weights
        must be non-negative (checked when ``require_monotone=True``).
    require_monotone:
        When true (the default, matching the paper's setting), negative
        weights raise ``ValueError``.

    Examples
    --------
    >>> import numpy as np
    >>> data = np.array([[1.0, 4.0], [2.0, 1.0], [3.0, 3.0]])
    >>> q = LinearQuery([1, 1])
    >>> q.top_k(data, 2)
    array([1, 0])
    """

    def __init__(self, weights, require_monotone: bool = True):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if w.size == 0:
            raise ValueError("weights must be non-empty")
        check_weights(w, require_monotone)
        self._weights = w

    @property
    def weights(self) -> np.ndarray:
        """The raw weight vector (read-only view)."""
        w = self._weights.view()
        w.flags.writeable = False
        return w

    @property
    def dimensions(self) -> int:
        """Number of attributes the query scores."""
        return self._weights.size

    @property
    def is_monotone(self) -> bool:
        """True when every weight is non-negative."""
        return bool(np.all(self._weights >= 0))

    def normalized(self) -> "LinearQuery":
        """Return an equivalent query with weights summing to one.

        Normalization rescales every score by the same positive factor,
        so the induced ranking is unchanged.  Only defined for monotone
        queries (the paper normalizes onto the weight simplex).
        """
        if not self.is_monotone:
            raise ValueError("only monotone queries can be simplex-normalized")
        total = float(self._weights.sum())
        return LinearQuery(self._weights / total)

    def scores(self, data: np.ndarray) -> np.ndarray:
        """Score every row of ``data``; lower is better."""
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] != self.dimensions:
            raise ValueError(
                f"data must be (n, {self.dimensions}); got shape {data.shape}"
            )
        return data @ self._weights

    def top_k(self, data: np.ndarray, k: int) -> np.ndarray:
        """Return the tids of the ``k`` best (lowest-scoring) tuples.

        Results are ordered by ascending ``(score, tid)``; when
        ``k >= n`` the full ranking is returned.
        """
        return top_k_tids(self.scores(data), k)

    def rank_of(self, data: np.ndarray, tid: int) -> int:
        """1-based rank of tuple ``tid`` under this query."""
        return rank_of(self.scores(data), tid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LinearQuery({self._weights.tolist()})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearQuery):
            return NotImplemented
        return np.array_equal(self._weights, other._weights)

    def __hash__(self) -> int:
        return hash(self._weights.tobytes())


def ranking_order(scores: np.ndarray) -> np.ndarray:
    """Full ranking as an array of tids, ascending ``(score, tid)``.

    ``np.argsort`` with ``kind='stable'`` realizes the tid tie-break
    because equal scores keep their original (tid) order.
    """
    scores = np.asarray(scores, dtype=float)
    return np.argsort(scores, kind="stable")


def top_k_tids(scores: np.ndarray, k: int) -> np.ndarray:
    """Tids of the ``k`` lowest scores, ties broken by tid."""
    if k < 0:
        raise ValueError("k must be non-negative")
    order = ranking_order(scores)
    return order[:k]


def rank_of(scores: np.ndarray, tid: int) -> int:
    """1-based rank of ``tid``: 1 + #tuples strictly before it.

    A tuple ``s`` precedes ``t`` when ``score(s) < score(t)`` or the
    scores tie and ``s`` has the smaller tid.
    """
    scores = np.asarray(scores, dtype=float)
    mine = scores[tid]
    before = int(np.count_nonzero(scores < mine))
    ties_before = int(np.count_nonzero(scores[:tid] == mine))
    return 1 + before + ties_before
