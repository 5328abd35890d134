"""Tests for the batch-query API."""

import functools
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.snapshot import load_snapshot, save_snapshot
from repro.experiments.harness import INDEX_BUILDERS
from repro.indexes.dynamic import DynamicRobustIndex
from repro.indexes.linear_scan import LinearScanIndex
from repro.indexes.onion import ShellIndex
from repro.indexes.robust import ExactRobustIndex, RobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import grid_weight_workload, simplex_workload


class TestBatchDefault:
    def test_loop_default_matches_single(self, small_3d):
        index = ShellIndex(small_3d)
        queries = simplex_workload(3, 6, seed=0)
        batch = index.query_batch(queries, 8)
        for q, result in zip(queries, batch):
            single = index.query(q, 8)
            assert result.tids.tolist() == single.tids.tolist()
            assert result.retrieved == single.retrieved


class TestRobustBatch:
    def test_vectorized_matches_single(self, small_3d):
        index = RobustIndex(small_3d, n_partitions=5)
        queries = grid_weight_workload(3, 12, seed=1)
        batch = index.query_batch(queries, 10)
        assert len(batch) == 12
        for q, result in zip(queries, batch):
            single = index.query(q, 10)
            assert result.tids.tolist() == single.tids.tolist()
            assert result.retrieved == single.retrieved
            assert result.layers_scanned == single.layers_scanned

    def test_matches_scan_answers(self, small_3d):
        index = RobustIndex(small_3d, n_partitions=4)
        scan = LinearScanIndex(small_3d)
        queries = simplex_workload(3, 8, seed=2)
        for q, result in zip(queries, index.query_batch(queries, 15)):
            assert result.tids.tolist() == scan.query(q, 15).tids.tolist()

    def test_empty_batch(self, small_2d):
        assert RobustIndex(small_2d, n_partitions=3).query_batch([], 5) == []

    @pytest.mark.parametrize("index_cls", [RobustIndex, ShellIndex])
    def test_weight_matrix_equals_query_list(self, small_3d, index_cls):
        index = index_cls(small_3d)
        queries = simplex_workload(3, 7, seed=4)
        weights = np.array([q.weights for q in queries])
        for k in (0, 6, 100):
            by_matrix = index.query_batch(weights, k)
            by_list = index.query_batch(queries, k)
            assert [r.tids.tolist() for r in by_matrix] == [
                r.tids.tolist() for r in by_list
            ]
            assert [r.retrieved for r in by_matrix] == [
                r.retrieved for r in by_list
            ]

    def test_query_matrix_rejects_wrong_width(self, small_3d):
        index = RobustIndex(small_3d, n_partitions=4)
        with pytest.raises(ValueError, match="weights must be"):
            index.query_batch(np.ones((2, 2)), 5)
        with pytest.raises(ValueError, match="non-negative"):
            index.query_batch(np.ones((2, 3)), -1)

    @pytest.mark.parametrize("index_cls", [RobustIndex, DynamicRobustIndex])
    @pytest.mark.parametrize(
        "row, message",
        [
            ([-1.0, 2.0, 3.0], "non-negative"),
            ([np.nan, 1.0, 1.0], "finite"),
            ([0.0, 0.0, 0.0], "non-zero"),
        ],
    )
    def test_weight_matrix_rejects_invalid_rows(self, index_cls, row, message):
        points = np.random.default_rng(3).random((500, 3))
        index = index_cls(points, n_partitions=6)
        with pytest.raises(ValueError, match=message):
            LinearQuery(row)
        for weights in ([row], [[1.0, 2.0, 3.0], row]):
            with pytest.raises(ValueError, match=message):
                index.query_batch(np.array(weights), 5)

    @pytest.mark.parametrize("index_cls", [RobustIndex, DynamicRobustIndex])
    def test_concurrent_batches_equal_single_queries(self, index_cls):
        # Threads with differently shaped batches on one index: any
        # shared batch working memory tears answers or raises.
        points = np.random.default_rng(11).random((4000, 3))
        index = index_cls(points, n_partitions=8)
        weights = np.random.default_rng(12).dirichlet(np.ones(3), size=64)
        shapes = [(k, m) for k in (10, 20, 50, 100) for m in (8, 24, 64)]
        expected = {
            k: [index.query(LinearQuery(w), k).tids for w in weights]
            for k in (10, 20, 50, 100)
        }
        errors = []
        start = threading.Barrier(4)

        def client(offset):
            start.wait()
            try:
                for i in range(200):
                    k, m = shapes[(offset + i) % len(shapes)]
                    batch = index.query_batch(weights[:m], k)
                    for j, result in enumerate(batch):
                        assert np.array_equal(result.tids, expected[k][j])
            except Exception as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]

    def test_k_zero_batch(self, small_2d):
        index = RobustIndex(small_2d, n_partitions=3)
        results = index.query_batch([LinearQuery([1, 1])], 0)
        assert results[0].tids.size == 0
        assert results[0].retrieved == 0

    def test_tie_behaviour_preserved(self):
        pts = np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 2.5], [2.5, 0.5]])
        index = RobustIndex(pts, n_partitions=3)
        q = LinearQuery([1, 1])  # global score ties
        batch = index.query_batch([q, q], 3)
        assert batch[0].tids.tolist() == q.top_k(pts, 3).tolist()
        assert batch[1].tids.tolist() == batch[0].tids.tolist()

    def test_dimension_mismatch_raises(self, small_2d):
        index = RobustIndex(small_2d, n_partitions=3)
        with pytest.raises(ValueError):
            index.query_batch([LinearQuery([1, 2, 3])], 4)

    def test_exact_robust_inherits_kernel(self, small_2d):
        index = ExactRobustIndex(small_2d[:30])
        queries = simplex_workload(2, 5, seed=5)
        for q, result in zip(queries, index.query_batch(queries, 6)):
            assert result.tids.tolist() == index.query(q, 6).tids.tolist()

    def test_batch_after_load_uses_slab(self, small_3d, tmp_path):
        index = RobustIndex(small_3d, n_partitions=4)
        save_snapshot(index, tmp_path / "idx.snap")
        loaded = load_snapshot(tmp_path / "idx.snap")
        queries = grid_weight_workload(3, 5, seed=6)
        fresh = index.query_batch(queries, 7)
        reloaded = loaded.query_batch(queries, 7)
        for a, b in zip(fresh, reloaded):
            assert a.tids.tolist() == b.tids.tolist()


# Shared data/build cache so every registered index type is built once
# for the whole module (some builders are quadratic in n).
_DATA = np.random.default_rng(71).random((48, 3))


@functools.lru_cache(maxsize=None)
def _built(name):
    return _BUILDERS[name](_DATA)


# The registered index types plus the exact and dynamic robust indexes.
_BUILDERS = {
    **INDEX_BUILDERS,
    "ExactRI": lambda data: ExactRobustIndex(data),
    "DynAppRI": lambda data: DynamicRobustIndex(data, n_partitions=10),
}


class TestBatchEveryIndexType:
    """``query_batch == [query(q) for q in queries] == LinearQuery.top_k``
    for every index type, vectorized overrides and one-row batches
    included."""

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_batch_matches_loop(self, name):
        index = _built(name)
        queries = grid_weight_workload(3, 5, seed=3) + simplex_workload(
            3, 5, seed=4
        )
        batch = index.query_batch(queries, 9)
        assert len(batch) == len(queries)
        for q, result in zip(queries, batch):
            single = index.query(q, 9)
            (one_row,) = index.query_batch(np.array([q.weights]), 9)
            for r in (result, one_row):
                assert r.tids.tolist() == single.tids.tolist()
                assert r.retrieved == single.retrieved
                assert r.layers_scanned == single.layers_scanned
            assert single.tids.tolist() == q.top_k(_DATA, 9).tolist()

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @settings(deadline=None, max_examples=10)
    @given(
        rows=st.lists(
            st.lists(
                st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                min_size=3,
                max_size=3,
            ).filter(lambda w: sum(w) > 1e-9),
            min_size=1,
            max_size=4,
        ),
        k=st.integers(0, 60),
    )
    def test_batch_matches_loop_hypothesis(self, name, rows, k):
        index = _built(name)
        queries = [LinearQuery(np.asarray(w)) for w in rows]
        batch = index.query_batch(queries, k)
        for q, result in zip(queries, batch):
            single = index.query(q, k)
            assert result.tids.tolist() == single.tids.tolist()


def _assert_rows_equal_single(index, weights, ks):
    batch = index.query_batch(weights, ks)
    assert len(batch) == len(weights)
    for w, k, result in zip(weights, np.broadcast_to(ks, len(weights)), batch):
        single = index.query(LinearQuery(w), int(k))
        assert result.tids.tolist() == single.tids.tolist()
        assert result.retrieved == single.retrieved
        assert result.layers_scanned == single.layers_scanned


class TestPerRowK:
    """``query_batch(W, ks)`` row j == ``query(W[j], ks[j])`` (tids,
    ``retrieved``, ``layers_scanned``) for every index type."""

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    def test_mixed_k_matches_single(self, name):
        index = _built(name)
        weights = np.array(
            [q.weights for q in simplex_workload(3, 9, seed=8)]
        )
        n = len(_DATA)
        # k = 0, k > n, repeated k in and out of input order, one row
        # alone at its k.
        ks = np.array([5, 0, 12, 5, n + 7, 1, 12, 5, 0])
        _assert_rows_equal_single(index, weights, ks)
        _assert_rows_equal_single(index, weights[:1], np.array([3]))
        _assert_rows_equal_single(index, weights[:3], np.zeros(3, dtype=int))

    @pytest.mark.parametrize("name", sorted(_BUILDERS))
    @settings(deadline=None, max_examples=10)
    @given(
        rows=st.lists(
            st.tuples(
                st.lists(
                    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
                    min_size=3,
                    max_size=3,
                ).filter(lambda w: sum(w) > 1e-9),
                st.integers(0, 60),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_mixed_k_matches_single_hypothesis(self, name, rows):
        weights = np.array([w for w, _ in rows])
        ks = np.array([k for _, k in rows])
        _assert_rows_equal_single(_built(name), weights, ks)

    @pytest.mark.parametrize("index_cls", [RobustIndex, ShellIndex])
    def test_query_list_takes_per_row_k(self, small_3d, index_cls):
        index = index_cls(small_3d)
        queries = simplex_workload(3, 4, seed=9)
        batch = index.query_batch(queries, np.array([4, 9, 0, 4]))
        for q, k, result in zip(queries, (4, 9, 0, 4), batch):
            assert result.tids.tolist() == index.query(q, k).tids.tolist()

    def test_counts_only_rows_that_read(self, small_3d):
        from repro import obs

        index = RobustIndex(small_3d, n_partitions=4)
        weights = np.array([q.weights for q in simplex_workload(3, 4, seed=2)])
        ks = np.array([3, 0, 8, 3])
        local = obs.Metrics()
        with obs.collect(local):
            batch = index.query_batch(weights, ks)
        counters = local.counters
        assert counters["index.batch.count"] == 1
        assert counters["index.batch.queries"] == 3
        assert counters["index.batch.candidates"] == sum(
            r.retrieved for r in batch
        )

    @pytest.mark.parametrize(
        "index_cls", [RobustIndex, DynamicRobustIndex, ShellIndex]
    )
    @pytest.mark.parametrize(
        "ks, message",
        [
            (np.array([3, 4]), "one per query"),
            (np.array([[3, 4, 5]]), "one per query"),
            (np.array([3, -1, 5]), "non-negative"),
            (np.array([3.0, 4.0, 5.0]), "integer"),
        ],
    )
    def test_rejects_bad_per_row_k(self, small_3d, index_cls, ks, message):
        index = index_cls(small_3d)
        with pytest.raises(ValueError, match=message):
            index.query_batch(np.ones((3, 3)), ks)

    @pytest.mark.parametrize("index_cls", [RobustIndex, DynamicRobustIndex])
    def test_concurrent_mixed_k_batches_equal_single_queries(self, index_cls):
        # Threads sending batches that mix k: every distinct k reuses
        # the calling thread's scratch, so a shared buffer would tear
        # answers across threads or across the k runs of one call.
        points = np.random.default_rng(13).random((4000, 3))
        index = index_cls(points, n_partitions=8)
        weights = np.random.default_rng(14).dirichlet(np.ones(3), size=64)
        ks = np.random.default_rng(15).choice([10, 20, 50, 100], size=64)
        expected = [
            index.query(LinearQuery(w), int(k)).tids
            for w, k in zip(weights, ks)
        ]
        errors = []
        start = threading.Barrier(4)

        def client(offset):
            start.wait()
            try:
                for i in range(60):
                    m = (8, 24, 64)[(offset + i) % 3]
                    lo = (offset * 7 + i) % (64 - m + 1)
                    batch = index.query_batch(
                        weights[lo:lo + m], ks[lo:lo + m]
                    )
                    for j, result in enumerate(batch):
                        assert np.array_equal(result.tids, expected[lo + j])
            except Exception as exc:  # re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(t,)) for t in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads densely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
