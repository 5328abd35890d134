"""DynamicRobustIndex: exactness through update streams, view swaps."""

import numpy as np
import pytest

from repro.core.validate import audit_layering
from repro.indexes.dynamic import DynamicRobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import simplex_workload


@pytest.fixture
def index(rng):
    return DynamicRobustIndex(rng.random((80, 3)), n_partitions=5)


def _assert_exact(index, k=10, seed=0):
    for query in simplex_workload(index.dimensions, 6, seed=seed):
        got = list(index.query(query, k).tids)
        want = list(query.top_k(index.points, k))
        assert got == want


class TestExactness:
    def test_fresh_build_is_exact_and_tight(self, index):
        assert index.tight is True
        assert index.staleness == 0
        _assert_exact(index)

    def test_exact_through_an_insert_stream(self, index, rng):
        for i, row in enumerate(rng.random((15, 3))):
            tid = index.insert(row)
            assert 0 <= tid < index.size
            _assert_exact(index, seed=i)
        assert index.staleness == 15
        assert index.tight is False

    def test_exact_through_a_delete_stream(self, index, rng):
        for i in range(10):
            index.delete(int(rng.integers(index.size)))
            _assert_exact(index, seed=i)
        assert index.size == 70

    def test_exact_through_mixed_stream_and_rebuild(self, index, rng):
        for i in range(25):
            if rng.random() < 0.6:
                index.insert(rng.random(3))
            else:
                index.delete(int(rng.integers(index.size)))
            if i % 10 == 9:
                assert index.rebuild() is True
                assert index.staleness == 0
            _assert_exact(index, seed=i)

    def test_layering_stays_sound_under_updates(self, index, rng):
        for _ in range(12):
            index.insert(rng.random(3))
        for _ in range(6):
            index.delete(int(rng.integers(index.size)))
        report = audit_layering(
            index.points, index.layers, n_queries=50, seed=1
        )
        assert report.sound


class TestViewSemantics:
    def test_generation_is_monotone(self, index, rng):
        generations = [index.generation]
        index.insert(rng.random(3))
        generations.append(index.generation)
        index.delete(0)
        generations.append(index.generation)
        assert generations == sorted(set(generations))

    def test_old_view_keeps_serving_after_updates(self, index, rng):
        view = index._view
        points_before = view.slab.points.copy()
        index.insert(rng.random(3))
        # The captured view is immutable: same object, same answers.
        assert np.array_equal(view.slab.points, points_before)
        assert index._view is not view

    def test_retrieval_cost_matches_offsets(self, index):
        assert index.retrieval_cost(0) == 0
        cost = index.retrieval_cost(5)
        result = index.query(LinearQuery([1.0, 1.0, 1.0]), 5)
        assert result.retrieved == cost

    def test_build_info_reports_dynamic_state(self, index, rng):
        index.insert(rng.random(3))
        info = index.build_info()
        assert info["method"] == "dynamic-appri"
        assert info["staleness"] == 1
        assert info["tight"] is False
        assert info["generation"] == 1
        assert info["n_layers"] >= 1


class TestValidation:
    def test_dimension_mismatch_is_rejected(self, index):
        with pytest.raises(ValueError, match="weights"):
            index.query(LinearQuery([1.0, 2.0]), 5)

    def test_negative_k_is_rejected(self, index):
        with pytest.raises(ValueError, match="non-negative"):
            index.query(LinearQuery([1.0, 1.0, 1.0]), -1)

    def test_k_zero_and_k_beyond_n(self, index):
        query = LinearQuery([1.0, 2.0, 3.0])
        assert len(index.query(query, 0).tids) == 0
        result = index.query(query, index.size + 50)
        assert len(result.tids) == index.size
        assert list(result.tids) == list(query.top_k(index.points, index.size))
