"""Targeted tests for exact-solver internals and corner regimes."""

import numpy as np
import pytest

from repro.core.exact import (
    exact_robust_layers,
    minimal_rank,
    minimal_rank_sampled,
)


class TestDeterminism:
    def test_3d_solver_is_deterministic(self):
        pts = np.random.default_rng(0).random((25, 3))
        a = exact_robust_layers(pts)
        b = exact_robust_layers(pts)
        assert a.tolist() == b.tolist()

    def test_2d_solver_is_deterministic(self):
        pts = np.random.default_rng(1).random((40, 2))
        assert (
            exact_robust_layers(pts).tolist()
            == exact_robust_layers(pts).tolist()
        )


class TestTinyInstances:
    def test_two_points_3d(self):
        pts = np.array([[0.1, 0.9, 0.5], [0.9, 0.1, 0.5]])
        assert exact_robust_layers(pts).tolist() == [1, 1]

    def test_two_points_3d_dominated(self):
        pts = np.array([[0.9, 0.9, 0.9], [0.1, 0.1, 0.1]])
        assert exact_robust_layers(pts).tolist() == [2, 1]

    def test_three_identical_3d(self):
        pts = np.tile([[0.3, 0.3, 0.3]], (3, 1))
        assert exact_robust_layers(pts).tolist() == [1, 2, 3]

    def test_single_point_3d(self):
        assert exact_robust_layers(np.array([[0.1, 0.2, 0.3]])).tolist() == [1]


class TestScaleInvariance:
    """Minimal ranks are invariant under positive per-column scaling
    *of the weight space*, i.e. under global positive scaling and
    translation of the data."""

    def test_translation_2d(self):
        rng = np.random.default_rng(2)
        pts = rng.random((30, 2))
        shifted = pts + np.array([100.0, -50.0])
        assert (
            exact_robust_layers(pts).tolist()
            == exact_robust_layers(shifted).tolist()
        )

    def test_global_scaling_3d(self):
        rng = np.random.default_rng(3)
        pts = rng.random((15, 3))
        assert (
            exact_robust_layers(pts * 1000.0).tolist()
            == exact_robust_layers(pts).tolist()
        )


class TestSampledBound:
    def test_grid_only(self):
        pts = np.random.default_rng(4).random((20, 2))
        for t in range(0, 20, 5):
            ub = minimal_rank_sampled(
                pts, t, n_samples=0, grid_resolution=32
            )
            assert ub >= minimal_rank(pts, t)

    def test_corner_queries_always_included(self):
        # A tuple best on one axis must get a sampled bound of 1 even
        # with zero random samples.
        pts = np.array([[0.0, 0.9], [0.5, 0.5], [0.9, 0.0]])
        assert minimal_rank_sampled(pts, 0, n_samples=0) == 1
        assert minimal_rank_sampled(pts, 2, n_samples=0) == 1

    def test_high_dimensional_bound_valid(self):
        pts = np.random.default_rng(5).random((30, 5))
        for t in (0, 29):
            ub = minimal_rank_sampled(pts, t, n_samples=200, seed=1)
            assert 1 <= ub <= 30


class TestMonotonicityOfRanks:
    def test_adding_points_never_lowers_minimal_rank(self):
        rng = np.random.default_rng(6)
        pts = rng.random((25, 2))
        base = exact_robust_layers(pts)
        extended = np.vstack([pts, rng.random((10, 2))])
        grown = exact_robust_layers(extended)[:25]
        assert np.all(grown >= base)

    def test_adding_points_never_lowers_minimal_rank_3d(self):
        rng = np.random.default_rng(7)
        pts = rng.random((12, 3))
        base = exact_robust_layers(pts)
        extended = np.vstack([pts, rng.random((6, 3))])
        grown = exact_robust_layers(extended)[:12]
        assert np.all(grown >= base)


def _grid_rank_minimum(pts: np.ndarray, max_total: int) -> np.ndarray:
    """Smallest tie-aware rank of every tuple over integer weight grids.

    Weights are the nonnegative integer triples summing to 1..max_total,
    so on integer data every score comparison is exact; each value is
    a rank some monotone query attains, hence an upper bound on the
    minimal rank.
    """
    n = pts.shape[0]
    data = pts.astype(np.int64)
    tids = np.arange(n)
    best = np.full(n, n, dtype=np.int64)
    for total in range(1, max_total + 1):
        for a in range(total + 1):
            for b in range(total + 1 - a):
                s = data @ np.array([a, b, total - a - b])
                before = (s[:, None] < s[None, :]) | (
                    (s[:, None] == s[None, :]) & (tids[:, None] < tids[None, :])
                )
                np.minimum(best, 1 + before.sum(axis=0), out=best)
    return best


class TestAttainedRanks:
    @pytest.mark.parametrize("seed", [278, 8322])
    def test_never_above_a_rank_some_query_attains(self, seed):
        # Tiny integer value sets put ties on whole arrangement edges,
        # including edges on the simplex boundary: there a tie with a
        # larger tid ranks the tuple strictly better than at the edge's
        # endpoints or in either neighbouring cell.
        pts = np.random.default_rng(seed).integers(0, 3, (28, 3)).astype(float)
        attained = _grid_rank_minimum(pts, 12)
        per_tuple = np.array([minimal_rank(pts, t) for t in range(28)])
        assert np.all(per_tuple <= attained)
        assert exact_robust_layers(pts).tolist() == per_tuple.tolist()
