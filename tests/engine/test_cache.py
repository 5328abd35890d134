"""Prefix-closed result cache: truncation soundness and invalidation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.cache import (
    ResultCache,
    cached_query,
    canonical_weight_key,
    canonical_weight_keys,
)
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor
from repro.engine.relation import Relation
from repro.indexes.linear_scan import LinearScanIndex
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import simplex_workload


class TestCanonicalKey:
    def test_scaling_invariant(self):
        assert canonical_weight_key([1.0, 3.0]) == canonical_weight_key(
            [0.5, 1.5]
        )

    def test_distinct_directions_differ(self):
        assert canonical_weight_key([1.0, 2.0]) != canonical_weight_key(
            [2.0, 1.0]
        )

    def test_rejects_negative_and_zero(self):
        with pytest.raises(ValueError):
            canonical_weight_key([1.0, -1.0])
        with pytest.raises(ValueError):
            canonical_weight_key([0.0, 0.0])


class TestBatchedKeys:
    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(min_value=1e-9, max_value=1e9),
                    min_size=d,
                    max_size=d,
                ),
                min_size=1,
                max_size=8,
            )
        )
    )
    def test_rows_equal_scalar_keys_byte_for_byte(self, rows):
        matrix = np.array(rows)
        keys = canonical_weight_keys(matrix)
        assert keys == [canonical_weight_key(row) for row in matrix]

    def test_rescaled_rows_share_a_key(self):
        keys = canonical_weight_keys(np.array([[1.0, 3.0], [2.0, 6.0]]))
        assert keys[0] == keys[1]

    def test_rejects_negative_and_zero_rows(self):
        with pytest.raises(ValueError):
            canonical_weight_keys(np.array([[1.0, 1.0], [1.0, -1.0]]))
        with pytest.raises(ValueError):
            canonical_weight_keys(np.array([[0.0, 0.0]]))


class TestBatchedLookupStore:
    def test_matches_scalar_calls(self, rng):
        """lookup_many / store_many == the same scalar calls in order:
        answers, counters and LRU evictions alike."""
        weights = rng.random((12, 3))
        weights[5] = 2 * weights[1]  # rescaled duplicate
        weights[7] = weights[3]  # exact duplicate
        batched, scalar = ResultCache(capacity=6), ResultCache(capacity=6)
        for cache in (batched, scalar):
            cache.store("t", weights[1], 4, np.arange(4))
            cache.store("t", weights[2], 2, np.arange(2))
        answers = [np.arange(j, j + 5) for j in range(12)]
        for k in (3, 5):
            got = batched.lookup_many("t", weights, k)
            want = [scalar.lookup("t", w, k) for w in weights]
            assert [None if a is None else a.tolist() for a in got] == [
                None if a is None else a.tolist() for a in want
            ]
            batched.store_many("t", weights, k, answers)
            for w, tids in zip(weights, answers):
                scalar.store("t", w, k, tids)
            assert batched.metrics.counters == scalar.metrics.counters
            assert len(batched) == len(scalar)
        for w in weights:
            a, b = batched.lookup("t", w, 1), scalar.lookup("t", w, 1)
            assert (a is None) == (b is None)

    def test_store_many_checks_answer_count(self):
        cache = ResultCache(capacity=4)
        with pytest.raises(ValueError, match="answers"):
            cache.store_many("t", np.ones((2, 2)), 1, [np.array([0])])


class TestResultCachePrefixClosedness:
    def test_deep_hit_serves_every_shallower_k(self, small_3d):
        index = RobustIndex(small_3d, n_partitions=4)
        cache = ResultCache(capacity=16)
        q = LinearQuery([1, 2, 1])
        deep = index.query(q, 25)
        cache.store("t", q.weights, 25, deep.tids)
        for k in range(26):
            served = cache.lookup("t", q.weights, k)
            assert served is not None
            assert served.tolist() == index.query(q, k).tids.tolist()

    def test_scaled_weights_hit_same_entry(self):
        cache = ResultCache(capacity=4)
        cache.store("t", [1.0, 1.0], 2, np.array([5, 3]))
        assert cache.lookup("t", [7.0, 7.0], 2).tolist() == [5, 3]

    def test_deeper_k_misses_and_counts_deepening(self):
        cache = ResultCache(capacity=4)
        cache.store("t", [1.0], 2, np.array([5, 3]))
        assert cache.lookup("t", [1.0], 3) is None
        assert cache.metrics.counters["cache.deepenings"] == 1

    def test_complete_answer_serves_any_k(self):
        cache = ResultCache(capacity=4)
        # Only 3 tuples exist: a top-10 request returned them all.
        cache.store("t", [1.0], 10, np.array([2, 0, 1]))
        assert cache.lookup("t", [1.0], 50).tolist() == [2, 0, 1]

    def test_store_only_deepens(self):
        cache = ResultCache(capacity=4)
        cache.store("t", [1.0], 3, np.array([1, 2, 3]))
        cache.store("t", [1.0], 2, np.array([9, 9]))  # shallower: ignored
        assert cache.lookup("t", [1.0], 3).tolist() == [1, 2, 3]

    def test_truncation_counter(self):
        cache = ResultCache(capacity=4)
        cache.store("t", [1.0], 3, np.array([1, 2, 3]))
        cache.lookup("t", [1.0], 2)
        assert cache.metrics.counters["cache.truncations"] == 1
        assert cache.metrics.counters["cache.hits"] == 1


class TestResultCacheLRU:
    def test_capacity_zero_disables(self):
        cache = ResultCache(capacity=0)
        cache.store("t", [1.0], 1, np.array([0]))
        assert len(cache) == 0
        assert cache.lookup("t", [1.0], 1) is None

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.store("t", [1.0, 0.0], 1, np.array([0]))
        cache.store("t", [0.0, 1.0], 1, np.array([1]))
        cache.lookup("t", [1.0, 0.0], 1)  # refresh the older entry
        cache.store("t", [1.0, 1.0], 1, np.array([2]))  # evicts [0, 1]
        assert cache.lookup("t", [1.0, 0.0], 1) is not None
        assert cache.lookup("t", [0.0, 1.0], 1) is None
        assert cache.metrics.counters["cache.evictions"] == 1

    def test_invalidate_scope(self):
        cache = ResultCache(capacity=8)
        cache.store("a", [1.0], 1, np.array([0]))
        cache.store("b", [1.0], 1, np.array([1]))
        assert cache.invalidate("a") == 1
        assert cache.lookup("a", [1.0], 1) is None
        assert cache.lookup("b", [1.0], 1).tolist() == [1]

    def test_counters_reach_active_collector(self):
        cache = ResultCache(capacity=4)
        with obs.collect() as metrics:
            cache.lookup("t", [1.0], 1)
            cache.store("t", [1.0], 1, np.array([0]))
            cache.lookup("t", [1.0], 1)
        assert metrics.counters["cache.misses"] == 1
        assert metrics.counters["cache.hits"] == 1
        assert metrics.counters["cache.insertions"] == 1


class TestCachedQuery:
    def test_hit_and_miss_return_identical_tids(self, small_3d):
        index = RobustIndex(small_3d, n_partitions=4)
        cache = ResultCache(capacity=64)
        for q in simplex_workload(3, 6, seed=9):
            miss = cached_query(cache, index, q, 12)
            hit = cached_query(cache, index, q, 12)
            assert miss.tids.tolist() == hit.tids.tolist()
            assert miss.tids.tolist() == index.query(q, 12).tids.tolist()
            assert hit.retrieved == 0
            assert hit.extra["cache"] == "hit"

    def test_shallow_after_deep_never_queries_index(self, small_2d):
        calls = []
        index = LinearScanIndex(small_2d)
        original = index.query

        def counting_query(q, k):
            calls.append(k)
            return original(q, k)

        index.query = counting_query
        cache = ResultCache(capacity=8)
        q = LinearQuery([1, 2])
        cached_query(cache, index, q, 20)
        cached_query(cache, index, q, 5)
        cached_query(cache, index, q, 1)
        assert calls == [20]


@pytest.fixture
def catalog_with_index(rng):
    data = rng.random((70, 3))
    catalog = Catalog()
    catalog.create_table(
        Relation.from_matrix("items", ["a", "b", "c"], data)
    )
    catalog.attach_index("items", "ri", RobustIndex(data, n_partitions=4))
    return catalog, data


STATEMENT = "SELECT TOP 8 FROM items USING INDEX ri ORDER BY a + 2*b + c"


class TestExecutorCache:
    def test_cache_never_changes_tids(self, catalog_with_index):
        catalog, _ = catalog_with_index
        plain = TopKExecutor(catalog)
        cached = TopKExecutor(catalog, cache_size=64)
        expected = plain.execute(STATEMENT).tids.tolist()
        assert cached.execute(STATEMENT).tids.tolist() == expected
        # Second run serves from the cache but answers identically.
        again = cached.execute(STATEMENT)
        assert again.tids.tolist() == expected
        assert again.extra["cache"] == "hit"
        assert again.retrieved == 0

    def test_deep_then_shallow_truncates(self, catalog_with_index):
        catalog, _ = catalog_with_index
        executor = TopKExecutor(catalog, cache_size=64)
        deep = executor.execute(
            "SELECT TOP 20 FROM items USING INDEX ri ORDER BY a + b"
        )
        shallow = executor.execute(
            "SELECT TOP 4 FROM items USING INDEX ri ORDER BY a + b"
        )
        assert shallow.extra["cache"] == "hit"
        assert shallow.tids.tolist() == deep.tids[:4].tolist()
        assert executor.cache.metrics.counters["cache.truncations"] == 1

    def test_replace_table_invalidates(self, catalog_with_index, rng):
        catalog, data = catalog_with_index
        executor = TopKExecutor(catalog, cache_size=64)
        executor.execute(STATEMENT)
        assert executor.execute(STATEMENT).extra["cache"] == "hit"
        # Replace the table contents (same rows, new relation object):
        # the version bump must force a fresh index read.
        catalog.replace_table(
            Relation.from_matrix("items", ["a", "b", "c"], data)
        )
        after = executor.execute(STATEMENT)
        assert after.extra["cache"] == "miss"
        assert after.retrieved > 0

    def test_disabled_cache_has_no_extra(self, catalog_with_index):
        catalog, _ = catalog_with_index
        executor = TopKExecutor(catalog)
        result = executor.execute(STATEMENT)
        assert executor.cache is None
        assert "cache" not in result.extra
