"""Tests for the shared index interface."""

import numpy as np
import pytest

from repro.indexes.base import QueryResult, RankedIndex, rank_candidates
from repro.indexes.linear_scan import LinearScanIndex
from repro.queries.ranking import LinearQuery


class TestQueryResult:
    def test_tids_coerced_to_array(self):
        r = QueryResult([3, 1], retrieved=5)
        assert isinstance(r.tids, np.ndarray)
        assert r.tids.tolist() == [3, 1]

    def test_defaults(self):
        r = QueryResult(np.array([0]), retrieved=1)
        assert r.layers_scanned == 0
        assert r.extra == {}


class TestRankedIndexValidation:
    def test_rejects_1d_points(self):
        with pytest.raises(ValueError):
            LinearScanIndex(np.ones(4))

    def test_query_dimension_mismatch(self):
        idx = LinearScanIndex(np.ones((4, 2)))
        with pytest.raises(ValueError, match="weights"):
            idx.query(LinearQuery([1, 1, 1]), 2)

    def test_negative_k(self):
        idx = LinearScanIndex(np.ones((4, 2)))
        with pytest.raises(ValueError, match="k"):
            idx.query(LinearQuery([1, 1]), -1)

    def test_size_and_dimensions(self):
        idx = LinearScanIndex(np.ones((4, 2)))
        assert idx.size == 4
        assert idx.dimensions == 2


class TestRankCandidates:
    def test_exact_order_with_tid_ties(self):
        pts = np.array([[1.0, 1.0], [0.5, 1.5], [2.0, 0.0]])
        q = LinearQuery([1, 1])  # all tie at 2.0
        out = rank_candidates(pts, np.array([2, 0, 1]), q, 3)
        assert out.tolist() == [0, 1, 2]

    def test_subset_of_candidates(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        q = LinearQuery([1.0])
        out = rank_candidates(pts, np.array([0, 2]), q, 1)
        assert out.tolist() == [2]


def old_rank_candidates(points, candidates, query, k):
    """The pre-kernel implementation: full lexsort over all candidates."""
    candidates = np.asarray(candidates, dtype=np.intp)
    scores = query.scores(points[candidates])
    order = np.lexsort((candidates, scores))
    return candidates[order[:k]]


class TestRankCandidatesPartitionRegression:
    """The head-and-audit selection must match the old full-lexsort path
    bit-for-bit, especially on tied scores at the k-th boundary."""

    def test_tied_scores_small_k(self, rng):
        # Many duplicate score values so the k-th boundary is almost
        # always tied; small k forces the partition fast path.
        values = rng.random(5)
        pts = rng.choice(values, size=(400, 1))
        q = LinearQuery([1.0])
        candidates = rng.permutation(400).astype(np.intp)
        for k in (1, 2, 7, 25, 60):
            assert (
                rank_candidates(pts, candidates, q, k).tolist()
                == old_rank_candidates(pts, candidates, q, k).tolist()
            )

    def test_generic_scores_all_k(self, rng):
        pts = rng.random((300, 3))
        q = LinearQuery([1.0, 0.5, 2.0])
        candidates = rng.choice(300, size=200, replace=False).astype(np.intp)
        for k in (1, 5, 49, 50, 51, 199, 200, 250):
            assert (
                rank_candidates(pts, candidates, q, k).tolist()
                == old_rank_candidates(pts, candidates, q, k).tolist()
            )

    def test_exact_global_tie_at_boundary(self):
        # Symmetric points: score 3.0 appears four times; with k=2 the
        # boundary cut runs through the tie and must keep smaller tids.
        pts = np.array(
            [[1.0, 2.0], [2.0, 1.0], [0.5, 2.5], [2.5, 0.5], [0.0, 0.1]]
        )
        q = LinearQuery([1, 1])
        candidates = np.array([3, 1, 4, 0, 2])
        for k in range(6):
            assert (
                rank_candidates(pts, candidates, q, k).tolist()
                == old_rank_candidates(pts, candidates, q, k).tolist()
            )
