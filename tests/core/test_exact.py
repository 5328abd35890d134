"""Tests for the exact robust-layer solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import (
    exact_robust_layers,
    minimal_rank,
    minimal_rank_sampled,
)
from repro.queries.ranking import LinearQuery

from ..conftest import points_strategy


def sampled_upper_bounds(pts, **kw):
    return np.array(
        [minimal_rank_sampled(pts, t, **kw) for t in range(pts.shape[0])]
    )


def crossing_aware_upper_bounds_2d(pts):
    """Sampled ranks at every pairwise crossing lam and the midpoints
    between consecutive crossings — the only places a d=2 minimal rank
    can live, so this reference finds optima that sit on arbitrarily
    narrow intervals a uniform grid would skip."""
    n = pts.shape[0]
    lams = {0.0, 0.5, 1.0}
    for i in range(n):
        for j in range(i + 1, n):
            d = pts[j] - pts[i]
            if (d[0] < 0 < d[1]) or (d[1] < 0 < d[0]):
                lams.add(float(d[1] / (d[1] - d[0])))
    lams = np.array(sorted(lams))
    cand = np.concatenate([lams, (lams[1:] + lams[:-1]) / 2.0])
    scores = pts @ np.column_stack([cand, 1.0 - cand]).T  # (n, q)
    best = np.full(n, n, dtype=np.intp)
    tids = np.arange(n)
    for q in range(scores.shape[1]):
        s = scores[:, q]
        order = np.lexsort((tids, s))
        pos = np.empty(n, dtype=np.intp)
        pos[order] = tids
        np.minimum(best, pos, out=best)
    return best + 1


class TestOneDimension:
    def test_full_ranking(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert exact_robust_layers(pts).tolist() == [3, 1, 2]

    def test_ties_broken_by_tid(self):
        pts = np.array([[1.0], [1.0]])
        assert exact_robust_layers(pts).tolist() == [1, 2]

    def test_minimal_rank_matches(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert minimal_rank(pts, 0) == 3


class TestTwoDimensions:
    def test_single_point(self):
        assert exact_robust_layers(np.array([[0.3, 0.7]])).tolist() == [1]

    def test_skyline_of_two(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert exact_robust_layers(pts).tolist() == [1, 1]

    def test_dominated_point_is_layer_two(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert exact_robust_layers(pts).tolist() == [1, 2]

    def test_convexly_dominated_point(self):
        # (1,1) sits above the segment from (0, 1.5) to (1.5, 0): some
        # convex combination dominates it, so it is never top-1.
        pts = np.array([[0.0, 1.5], [1.5, 0.0], [1.0, 1.0]])
        layers = exact_robust_layers(pts)
        assert layers.tolist() == [1, 1, 2]

    def test_point_on_hull_but_inside_staircase(self):
        # (0.9, 0.9) is dominated by (0.1, 0.1), and under any weights
        # one of the two corners also precedes it: minimal rank 3.
        pts = np.array([[0.1, 0.1], [0.9, 0.9], [0.0, 1.0], [1.0, 0.0]])
        layers = exact_robust_layers(pts)
        assert layers[1] == 3
        assert layers[0] == 1

    @given(points_strategy(min_rows=2, max_rows=35, min_dims=2, max_dims=2))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_sampling(self, pts):
        exact = exact_robust_layers(pts)
        ub = np.minimum(
            sampled_upper_bounds(pts, n_samples=300, grid_resolution=64),
            crossing_aware_upper_bounds_2d(pts),
        )
        assert np.all(exact <= ub)
        # With the crossing structure in the sample set the optimum is
        # almost always found (a uniform grid alone can miss minima
        # that live only on arbitrarily narrow inter-event intervals).
        assert (exact == ub).mean() >= 0.9

    def test_tie_exactly_at_event(self):
        # Two points symmetric around t: both cross t's score at the
        # same lambda = 0.5.  At that query t ranks behind only the
        # smaller-tid one of its ties... both others tie with t at 1.5.
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]])
        # At w = (0.5, 0.5) all score 1.5; t = tid 2 ranks 3rd there.
        # Away from the event one of the others always beats t.
        assert minimal_rank(pts, 2) == 2
        assert minimal_rank(pts, 0) == 1
        assert minimal_rank(pts, 1) == 1

    def test_duplicate_points_rank_by_tid(self):
        pts = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert exact_robust_layers(pts).tolist() == [1, 2]


class TestThreeDimensions:
    def test_small_known_case(self):
        pts = np.array(
            [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.5, 0.2, 0.9]]
        )
        layers = exact_robust_layers(pts)
        assert layers[0] == 1  # dominates everything
        assert layers[1] == 3  # dominated by both
        assert layers[2] == 2

    @given(points_strategy(min_rows=2, max_rows=25, min_dims=3, max_dims=3))
    @settings(max_examples=15, deadline=None)
    def test_sandwiched_by_sampling(self, pts):
        exact = exact_robust_layers(pts)
        ub = sampled_upper_bounds(pts, n_samples=600, grid_resolution=20)
        assert np.all(exact <= ub)
        # Sampling only bounds the layers from above; the per-tuple
        # solver pins them exactly.
        expected = [minimal_rank(pts, t) for t in range(pts.shape[0])]
        assert np.array_equal(exact, expected)

    def test_corner_queries_covered(self):
        # The minimum over the *closed* simplex includes corner
        # queries w = e_i; a tuple best on one attribute only must
        # still get layer 1.
        pts = np.array(
            [[0.0, 0.9, 0.9], [0.9, 0.0, 0.9], [0.9, 0.9, 0.0],
             [0.5, 0.5, 0.5]]
        )
        layers = exact_robust_layers(pts)
        assert layers[0] == layers[1] == layers[2] == 1


class TestSoundnessProperty:
    @given(points_strategy(min_rows=2, max_rows=30, min_dims=2, max_dims=3),
           st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_layering_answers_every_query(self, pts, wseed):
        layers = exact_robust_layers(pts)
        rng = np.random.default_rng(wseed)
        w = rng.dirichlet(np.ones(pts.shape[1]))
        q = LinearQuery(w)
        for k in (1, 2, pts.shape[0] // 2 + 1):
            top = q.top_k(pts, k)
            assert np.all(layers[top] <= k)


class TestErrorsAndBounds:
    def test_rejects_high_dimensions(self):
        with pytest.raises(ValueError, match="d <= 3"):
            exact_robust_layers(np.ones((5, 4)))
        with pytest.raises(ValueError):
            minimal_rank(np.ones((5, 4)), 0)

    def test_minimal_rank_bad_tid(self):
        with pytest.raises(IndexError):
            minimal_rank(np.ones((3, 2)), 5)

    def test_rejects_nan_and_inf(self):
        pts = np.ones((4, 2))
        pts[0, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            exact_robust_layers(pts)
        pts[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            minimal_rank(pts, 0)

    def test_empty_relation(self):
        assert exact_robust_layers(np.zeros((0, 2))).size == 0

    def test_sampled_bound_is_valid_rank(self):
        pts = np.random.default_rng(0).random((40, 4))
        for t in (0, 17, 39):
            ub = minimal_rank_sampled(pts, t, n_samples=100)
            assert 1 <= ub <= 40
