"""Tests for dominance-factor counting: all engines must agree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.dstruct.dominance import (
    columns_duplicate_free,
    count_dominators,
    count_dominators_blocked,
    count_dominators_divide_conquer,
    count_dominators_kernel,
    count_dominators_naive,
    count_dominators_sweep,
)

from ..conftest import points_strategy

#: Every engine, by name: the library entry point and the paper's
#: named engines (``sweep`` is d = 2 only).
ENGINES = {
    "count_dominators": count_dominators,
    "naive": count_dominators_naive,
    "blocked": count_dominators_blocked,
    "kernel": count_dominators_kernel,
    "sweep": count_dominators_sweep,
    "divide_conquer": count_dominators_divide_conquer,
}


def tied_points_strategy(max_rows=40, min_dims=1, max_dims=5):
    """Matrices drawn from a tiny value alphabet: ties everywhere."""
    return st.integers(min_value=0, max_value=2**32 - 1).map(
        lambda seed: _tied_matrix(seed, max_rows, min_dims, max_dims)
    )


def _tied_matrix(seed, max_rows, min_dims, max_dims):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, max_rows + 1))
    d = int(rng.integers(min_dims, max_dims + 1))
    return rng.integers(0, 4, size=(n, d)).astype(float)


def brute(pts):
    pts = np.asarray(pts, dtype=float)
    return np.array(
        [int(np.all(pts < row, axis=1).sum()) for row in pts], dtype=np.intp
    )


class TestReferenceSemantics:
    def test_simple_chain(self):
        pts = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        assert count_dominators_naive(pts).tolist() == [0, 1, 2]

    def test_incomparable_points(self):
        pts = np.array([[1.0, 3.0], [3.0, 1.0]])
        assert count_dominators_naive(pts).tolist() == [0, 0]

    def test_strictness_on_shared_coordinate(self):
        pts = np.array([[1.0, 1.0], [1.0, 2.0]])
        # Equal first coordinate: no strict domination either way.
        assert count_dominators_naive(pts).tolist() == [0, 0]

    def test_identical_rows_do_not_dominate(self):
        pts = np.array([[2.0, 2.0], [2.0, 2.0]])
        assert count_dominators_naive(pts).tolist() == [0, 0]

    def test_empty_input(self):
        assert count_dominators(np.zeros((0, 3))).size == 0

    def test_one_dimension(self):
        pts = np.array([[5.0], [1.0], [3.0]])
        assert count_dominators(pts).tolist() == [2, 0, 1]

    def test_rejects_1d_array(self):
        with pytest.raises(ValueError):
            count_dominators(np.array([1.0, 2.0]))

    def test_rejects_unknown_method(self):
        # One path per dimensionality; engines are picked by name.
        with pytest.raises(TypeError, match="method"):
            count_dominators(np.ones((2, 2)), method="magic")


class TestEngineAgreement:
    @given(points_strategy(min_rows=1, max_rows=60, min_dims=2, max_dims=2))
    @settings(max_examples=50, deadline=None)
    def test_sweep_matches_naive(self, pts):
        assert count_dominators_sweep(pts).tolist() == brute(pts).tolist()

    @given(points_strategy(min_rows=1, max_rows=60, min_dims=1, max_dims=4))
    @settings(max_examples=50, deadline=None)
    def test_blocked_matches_naive(self, pts):
        assert count_dominators_blocked(pts).tolist() == brute(pts).tolist()

    @given(points_strategy(min_rows=1, max_rows=60, min_dims=2, max_dims=5))
    @settings(max_examples=50, deadline=None)
    def test_divide_conquer_matches_naive(self, pts):
        assert (
            count_dominators_divide_conquer(pts).tolist() == brute(pts).tolist()
        )

    def test_all_engines_on_larger_input(self):
        pts = np.random.default_rng(3).random((500, 3))
        expected = count_dominators_naive(pts)
        for method in ("count_dominators", "blocked", "divide_conquer"):
            assert ENGINES[method](pts).tolist() == expected.tolist()

    def test_auto_dispatch_2d(self):
        pts = np.random.default_rng(4).random((100, 2))
        assert (
            count_dominators(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )


class TestTiesAndEdgeCases:
    def test_blocked_handles_ties_exactly(self):
        pts = np.array(
            [[1.0, 2.0], [1.0, 1.0], [2.0, 2.0], [0.5, 0.5], [1.0, 2.0]]
        )
        assert (
            count_dominators_blocked(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )

    def test_divide_conquer_handles_duplicate_columns(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [0.5, 1.0], [1.0, 3.0]])
        assert (
            count_dominators_divide_conquer(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )

    def test_sweep_requires_two_dims(self):
        with pytest.raises(ValueError, match="d=2"):
            count_dominators_sweep(np.ones((3, 3)))

    def test_sweep_with_tied_first_coordinate(self):
        pts = np.array([[1.0, 1.0], [1.0, 2.0], [0.0, 0.5], [2.0, 3.0]])
        assert (
            count_dominators_sweep(pts).tolist()
            == count_dominators_naive(pts).tolist()
        )

    def test_columns_duplicate_free(self):
        assert columns_duplicate_free(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not columns_duplicate_free(np.array([[1.0, 2.0], [1.0, 1.0]]))

    def test_auto_stays_on_kernel_for_ties(self):
        pts = np.array([[1.0, 2.0], [1.0, 3.0], [0.0, 1.0]])
        metrics = obs.Metrics()
        with obs.collect(metrics):
            got = count_dominators(pts)
        assert got.tolist() == count_dominators_naive(pts).tolist()
        # Ties no longer force the O(n^2) blocked path.
        assert metrics.counters.get("counting.engine.kernel") == 1
        assert "counting.engine.blocked" not in metrics.counters

    def test_blocked_small_block_size(self):
        pts = np.random.default_rng(6).random((64, 3))
        assert (
            count_dominators_blocked(pts, block_bytes=256).tolist()
            == count_dominators_naive(pts).tolist()
        )


class TestAdversarialAgreement:
    """Every engine, every nasty shape: counts must match ``naive``."""

    def engines_for(self, pts):
        d = pts.shape[1]
        methods = ["count_dominators", "naive", "blocked", "kernel"]
        if d == 2:
            methods.append("sweep")
        if d >= 2:
            methods.append("divide_conquer")
        return methods

    def assert_all_agree(self, pts):
        expected = count_dominators_naive(pts).tolist()
        for method in self.engines_for(pts):
            got = ENGINES[method](pts).tolist()
            assert got == expected, f"method={method}"

    def test_all_duplicate_rows(self):
        for n in (1, 2, 7):
            for d in (1, 2, 3, 4):
                self.assert_all_agree(np.ones((n, d)))

    def test_single_column_tied(self):
        rng = np.random.default_rng(11)
        pts = rng.random((30, 3))
        pts[:, 1] = 0.5
        self.assert_all_agree(pts)

    def test_one_dimension_with_ties(self):
        pts = np.array([[1.0], [0.0], [1.0], [2.0], [0.0]])
        expected = count_dominators_naive(pts).tolist()
        for method in ("count_dominators", "naive", "blocked", "kernel"):
            assert ENGINES[method](pts).tolist() == expected

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_tiny_inputs(self, n, d):
        pts = np.arange(n * d, dtype=float).reshape(n, d)
        if n == 0:
            for method, engine in ENGINES.items():
                if method != "sweep" or d == 2:
                    assert engine(pts).size == 0, method
        else:
            self.assert_all_agree(pts)

    @given(tied_points_strategy())
    @settings(max_examples=80, deadline=None)
    def test_hypothesis_tied_matrices(self, pts):
        if pts.shape[0]:
            self.assert_all_agree(pts)

    @given(points_strategy(min_rows=1, max_rows=40, min_dims=2, max_dims=5))
    @settings(max_examples=50, deadline=None)
    def test_kernel_matches_naive_untied(self, pts):
        assert count_dominators_kernel(pts).tolist() == brute(pts).tolist()
