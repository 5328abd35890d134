"""Tests for the RobustIndex (AppRI) query structure."""

import numpy as np
import pytest

from repro.core.index import layer_offsets
from repro.indexes.linear_scan import LinearScanIndex
from repro.indexes.robust import ExactRobustIndex, RobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import corner_workload, simplex_workload


class TestQueries:
    def test_matches_full_scan(self, small_3d):
        idx = RobustIndex(small_3d, n_partitions=5)
        scan = LinearScanIndex(small_3d)
        for q in simplex_workload(3, 15, seed=0) + corner_workload(3):
            for k in (1, 5, 25, 60):
                assert (
                    idx.query(q, k).tids.tolist()
                    == scan.query(q, k).tids.tolist()
                )

    def test_retrieval_cost_is_query_independent(self, small_3d):
        """The paper's robustness headline: cost depends only on k."""
        idx = RobustIndex(small_3d, n_partitions=5)
        costs = {
            idx.query(q, 10).retrieved for q in simplex_workload(3, 10, seed=1)
        }
        assert len(costs) == 1

    def test_retrieval_cost_matches_layer_mass(self, small_3d):
        idx = RobustIndex(small_3d, n_partitions=5)
        offsets = layer_offsets(idx.layers)
        for k in (1, 3, 10):
            expected = int(offsets[min(k, offsets.size - 1)])
            assert idx.retrieval_cost(k) == expected
            assert idx.query(LinearQuery([1, 1, 1]), k).retrieved == expected

    def test_candidates_for_k_prefix_of_order(self, small_3d):
        idx = RobustIndex(small_3d, n_partitions=4)
        c5 = set(idx.candidates_for_k(5).tolist())
        c10 = set(idx.candidates_for_k(10).tolist())
        assert c5 <= c10
        assert np.all(idx.layers[list(c5)] <= 5)

    def test_k_zero(self, small_2d):
        idx = RobustIndex(small_2d, n_partitions=3)
        res = idx.query(LinearQuery([1, 1]), 0)
        assert res.tids.size == 0
        assert res.retrieved == 0

    def test_extension_modes_match_scan(self, small_3d):
        idx = RobustIndex(
            small_3d, n_partitions=4, systems="families", refine="peel"
        )
        scan = LinearScanIndex(small_3d)
        for q in simplex_workload(3, 8, seed=3):
            assert (
                idx.query(q, 12).tids.tolist()
                == scan.query(q, 12).tids.tolist()
            )

    def test_extension_never_retrieves_more(self, small_3d):
        base = RobustIndex(small_3d, n_partitions=4)
        plus = RobustIndex(
            small_3d, n_partitions=4, systems="families", refine="peel"
        )
        for k in (1, 5, 10, 30):
            assert plus.retrieval_cost(k) <= base.retrieval_cost(k)

    def test_build_info(self, small_2d):
        info = RobustIndex(small_2d, n_partitions=7).build_info()
        assert info["method"] == "appri"
        assert info["n_partitions"] == 7
        assert info["systems"] == "complementary"
        assert info["n_layers"] >= 1
        assert info["workers"] == 1
        assert "build.total" in info["build_metrics"]["timers"]

    def test_parallel_build_matches_serial(self, small_3d):
        serial = RobustIndex(small_3d, n_partitions=6)
        parallel = RobustIndex(small_3d, n_partitions=6, workers=3)
        assert np.array_equal(serial.layers, parallel.layers)
        assert parallel.build_info()["workers"] == 3
        assert parallel.build_metrics["counters"]["build.workers"] == 3


class TestExactRobustIndex:
    def test_layers_match_exact_solver(self, small_2d):
        from repro.core.exact import exact_robust_layers

        idx = ExactRobustIndex(small_2d)
        assert idx.layers.tolist() == exact_robust_layers(small_2d).tolist()

    def test_exact_dominates_appri(self, small_2d):
        exact = ExactRobustIndex(small_2d)
        approx = RobustIndex(small_2d, n_partitions=6)
        for k in (1, 5, 20):
            assert exact.retrieval_cost(k) <= approx.retrieval_cost(k)

    def test_queries_match_scan(self, small_2d):
        idx = ExactRobustIndex(small_2d)
        scan = LinearScanIndex(small_2d)
        for q in simplex_workload(2, 10, seed=5):
            assert (
                idx.query(q, 9).tids.tolist() == scan.query(q, 9).tids.tolist()
            )

    def test_build_info_method(self, small_2d):
        assert ExactRobustIndex(small_2d).build_info()["method"] == "exact"
