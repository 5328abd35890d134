"""Batched execution: execute_many == per-statement execution."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.cache import ResultCache
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.engine.sql import parse
from repro.indexes.linear_scan import LinearScanIndex
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery


@pytest.fixture
def setup(rng):
    data = rng.random((80, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", ["x", "y", "z"], data))
    catalog.attach_index("t", "ri", RobustIndex(data, n_partitions=4))
    return catalog, data


WORKLOAD = [
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY x + 2*y + z",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY 3*x + y",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY x + y + 4*z",
    "SELECT TOP 6 FROM t USING INDEX ri ORDER BY 2*x + 2*y + z",
]


class TestExecuteMany:
    def test_matches_per_statement_execution(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        batched = executor.execute_many(WORKLOAD)
        solo = TopKExecutor(catalog)
        for statement, result in zip(WORKLOAD, batched):
            expected = solo.execute(statement)
            assert result.tids.tolist() == expected.tids.tolist()
            assert result.retrieved == expected.retrieved
            assert result.plan == expected.plan

    def test_batched_results_carry_batch_metrics(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        results = executor.execute_many(WORKLOAD)
        for result in results:
            assert result.extra["batch_size"] == len(WORKLOAD)
            counters = result.metrics["counters"]
            assert counters["query.count"] == len(WORKLOAD)
            assert counters["query.batches"] == 1
            assert counters["index.batch.queries"] == len(WORKLOAD)
            assert "query.index" in result.metrics["timers"]
        assert executor.metrics.counters["query.count"] == len(WORKLOAD)

    def test_mixed_plans_fall_back(self, setup):
        catalog, data = setup
        layers = appri_layers(data, n_partitions=4)
        materialize_layers(catalog, "t", layers)
        executor = TopKExecutor(catalog)
        mixed = WORKLOAD + [
            "SELECT TOP 6 FROM t WHERE layer <= 6 ORDER BY x + y + z",
            "SELECT TOP 6 FROM t ORDER BY x - y",  # negative weight: scan
        ]
        results = executor.execute_many(mixed)
        solo = TopKExecutor(catalog)
        for statement, result in zip(mixed, results):
            assert (
                result.tids.tolist()
                == solo.execute_auto(statement).tids.tolist()
            )
        assert results[-2].plan.startswith("layer-prefix")
        assert results[-1].plan == "scan"

    def test_unhinted_statements_route_through_planner(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        plain = ["SELECT TOP 5 FROM t ORDER BY x + y + z"] * 3
        results = executor.execute_many(plain)
        solo = TopKExecutor(catalog)
        for statement, result in zip(plain, results):
            assert (
                result.tids.tolist()
                == solo.execute_auto(statement).tids.tolist()
            )

    def test_cache_warm_second_round(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog, cache_size=64)
        cold = executor.execute_many(WORKLOAD)
        warm = executor.execute_many(WORKLOAD)
        for a, b in zip(cold, warm):
            assert a.tids.tolist() == b.tids.tolist()
            assert b.extra["cache"] == "hit"
            assert b.retrieved == 0
        counters = executor.cache.metrics.counters
        assert counters["cache.hits"] == len(WORKLOAD)
        assert counters["cache.misses"] == len(WORKLOAD)

    def test_empty_and_explain(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        assert executor.execute_many([]) == []
        results = executor.execute_many(
            ["EXPLAIN SELECT TOP 5 FROM t ORDER BY x + y"]
        )
        assert results[0].plan == "explain"

    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_mixed_k_group_matches_execute_auto(self, setup, cache_size):
        """Statements on one (table, index) form one group whatever
        their k; each answer equals single-statement execution."""
        catalog, data = setup
        exprs = ["x + 2*y + z", "3*x + y", "y + 4*z", "2*x + 4*y + 2*z"]
        ks = [3, 12, 0, 25, 3, 100, 12, 7]
        statements = [
            f"SELECT TOP {k} FROM t USING INDEX ri ORDER BY {exprs[j % 4]}"
            for j, k in enumerate(ks)
        ] + [f"SELECT TOP {k} FROM t ORDER BY x + y" for k in (4, 9)]
        executor = TopKExecutor(catalog, cache_size=cache_size)
        solo = TopKExecutor(catalog)
        for _ in range(2):  # cold, then (with a cache) warm
            results = executor.execute_many(statements)
            for statement, result in zip(statements, results):
                expected = solo.execute_auto(statement)
                assert result.tids.tolist() == expected.tids.tolist()
                assert result.plan == expected.plan
                assert result.rows.matrix().tolist() == (
                    expected.rows.matrix().tolist()
                )
                if result.extra.get("cache") != "hit":
                    assert result.retrieved == expected.retrieved
                    assert result.extra["layers_scanned"] == (
                        expected.extra["layers_scanned"]
                    )
            assert {r.extra["batch_size"] for r in results} == {len(statements)}
            assert results[0].metrics["counters"]["query.batches"] == 1
        if cache_size:
            assert all(r.extra["cache"] == "hit" for r in results)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_weights_do_not_share_cache_entries(self, setup):
        """Weight sums that overflow to inf must not collapse distinct
        directions onto one cache key."""
        catalog, data = setup
        big, bigger = f"{1e308:f}", f"{1.7e308:f}"  # 309-digit literals
        orders = [
            (f"{big}*x + {big}*y", [1e308, 1e308, 0.0]),
            (f"{big}*x + {bigger}*y", [1e308, 1.7e308, 0.0]),
            (f"{bigger}*x + {big}*y", [1.7e308, 1e308, 0.0]),
        ]
        statements = [
            f"SELECT TOP 5 FROM t USING INDEX ri ORDER BY {expr}"
            for expr, _ in orders
        ]
        executor = TopKExecutor(catalog, cache_size=16)
        # One call per statement: each probe sees the earlier stores.
        cached = [executor.execute_many([s])[0] for s in statements]
        plain = TopKExecutor(catalog).execute_many(statements)
        for (_, weights), a, b in zip(orders, cached, plain):
            expected = LinearQuery(weights).top_k(data, 5).tolist()
            assert a.tids.tolist() == b.tids.tolist() == expected

    def test_distinct_k_groups_still_exact(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        mixed_k = [
            f"SELECT TOP {k} FROM t USING INDEX ri ORDER BY x + 2*y + z"
            for k in (3, 12, 3, 25)
        ]
        results = executor.execute_many(mixed_k)
        solo = TopKExecutor(catalog)
        for statement, result in zip(mixed_k, results):
            assert (
                result.tids.tolist() == solo.execute(statement).tids.tolist()
            )


@pytest.fixture
def two_tables(rng):
    """``t``: AppRI index ``ri`` and no layer column (the planner routes
    unhinted statements to the index).  ``u``: the same data with a
    materialized layer column (layer-prefix plans)."""
    data = rng.random((120, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", ["x", "y", "z"], data))
    catalog.attach_index("t", "ri", RobustIndex(data, n_partitions=4))
    catalog.create_table(Relation.from_matrix("u", ["x", "y", "z"], data))
    materialize_layers(catalog, "u", appri_layers(data, n_partitions=4))
    return catalog


HINT = "SELECT TOP {k} FROM t USING INDEX ri ORDER BY {expr}"
WARM = [
    HINT.format(k=20, expr="x + 2*y + z"),  # A at depth 20
    HINT.format(k=5, expr="3*x + y"),  # C at depth 5
]
MIXED = [
    HINT.format(k=10, expr="x + 2*y + z"),  # A: truncation hit
    HINT.format(k=20, expr="x + 2*y + z"),  # A: exact-depth hit
    HINT.format(k=10, expr="3*x + y"),  # C: deepening miss
    HINT.format(k=10, expr="y + 4*z"),  # B: miss
    HINT.format(k=10, expr="y + 4*z"),  # B again: miss (same group)
    HINT.format(k=10, expr="2*y + 8*z"),  # 2B: rescaled, miss
    HINT.format(k=0, expr="x + y"),  # k = 0
    "SELECT TOP 10 FROM t ORDER BY x + z",  # planner -> index group
    "SELECT TOP 10 FROM t ORDER BY 2*x - z",  # negative: scan
    "SELECT TOP 10 FROM u WHERE layer <= 10 ORDER BY x + y",
    "SELECT TOP 7 FROM u ORDER BY x + y + z",  # planner -> layer-prefix
    HINT.format(k=10, expr="x + 2*y + z"),  # A again: hit
]


def _expected_cache_states(batches):
    """Replay ``batches`` on a bare cache under lookup-then-store
    semantics: all of table ``t``'s index rows form one group, whatever
    their k, and every row is looked up before the misses are stored.
    Returns the last batch's per-statement 'hit' / 'miss' (index-plan
    statements only) and the cache."""
    cache = ResultCache(capacity=64)
    for statements in batches:
        members = []
        for i, text in enumerate(statements):
            query = parse(text)
            if query.table == "t" and min(query.order_by.values()) >= 0:
                weights = [query.order_by.get(a, 0.0) for a in ("x", "y", "z")]
                members.append((i, weights, query.k))
        states = {}
        for i, weights, k in members:
            hit = cache.lookup("t", weights, k) is not None
            states[i] = "hit" if hit else "miss"
        for i, weights, k in members:
            if states[i] == "miss":
                cache.store("t", weights, k, np.arange(min(k, 120)))
    return states, cache


class TestSetAtATime:
    def test_mixed_batch_matches_single_statement_execution(self, two_tables):
        catalog = two_tables
        executor = TopKExecutor(catalog, cache_size=64)
        solo = TopKExecutor(catalog)
        executor.execute_many(WARM)
        results = executor.execute_many(MIXED)
        states, reference = _expected_cache_states([WARM, MIXED])
        for i, (text, result) in enumerate(zip(MIXED, results)):
            expected = solo.execute_auto(text)
            assert result.tids.tolist() == expected.tids.tolist(), text
            assert result.plan == expected.plan, text
            assert result.rows.n_rows == len(expected.tids)
            if i in states:
                assert result.extra["cache"] == states[i], text
                want = 0 if states[i] == "hit" else expected.retrieved
                assert result.retrieved == want, text
            else:
                assert "cache" not in result.extra
                assert result.retrieved == expected.retrieved, text
        assert [results[i].extra["cache"] for i in range(6)] == [
            "hit", "hit", "miss", "miss", "miss", "miss",
        ]
        assert [r.plan for r in results[8:11]] == [
            "scan", "layer-prefix(<= 10)", "layer-prefix(<= 7)",
        ]
        assert results[6].tids.size == 0
        assert executor.cache.metrics.counters == reference.metrics.counters
        assert executor.cache.metrics.counters["cache.deepenings"] == 1
        assert executor.cache.metrics.counters["cache.truncations"] == 2
        assert len(executor.cache) == len(reference)

    def test_non_robust_index_group_matches_execute(self, two_tables, rng):
        catalog = two_tables
        data = np.column_stack(
            [catalog.table("t").column(a) for a in ("x", "y", "z")]
        )
        catalog.attach_index("t", "scan", LinearScanIndex(data))
        statements = [
            f"SELECT TOP {k} FROM t USING INDEX scan ORDER BY {expr}"
            for k, expr in [(4, "x + y"), (4, "2*z + y"), (9, "x")]
        ]
        executor = TopKExecutor(catalog, cache_size=8)
        results = executor.execute_many(statements)
        solo = TopKExecutor(catalog)
        for statement, result in zip(statements, results):
            expected = solo.execute(statement)
            assert result.tids.tolist() == expected.tids.tolist()
            assert result.retrieved == expected.retrieved == 120
            assert result.plan == "index(scan)"

    def test_scan_and_layer_prefix_break_ties_by_tid(self, rng):
        """The partial-selection ranking of scans and layer prefixes
        equals the full (score, tid) sort, ties included."""
        data = rng.integers(0, 3, size=(400, 2)).astype(float)
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix("d", ["a", "b"], data))
        materialize_layers(catalog, "d", np.repeat([1, 2, 3, 4], 100))
        executor = TopKExecutor(catalog)
        for k in (1, 5, 40, 500):
            scan = executor.execute(f"SELECT TOP {k} FROM d ORDER BY a - b")
            expected = LinearQuery([1, -1], require_monotone=False).top_k(data, k)
            assert scan.tids.tolist() == expected.tolist()
            prefix = executor.execute(
                f"SELECT TOP {k} FROM d WHERE layer <= 3 ORDER BY a + b"
            )
            scores = data[:300] @ np.array([1.0, 1.0])
            assert prefix.tids.tolist() == np.lexsort(
                (np.arange(300), scores)
            )[:k].tolist()

    def test_batch_metrics_count_only_batched_rows(self, two_tables):
        catalog = two_tables
        executor = TopKExecutor(catalog)
        statements = [
            HINT.format(k=5, expr="x + y"),
            "SELECT TOP 5 FROM t ORDER BY x - y",  # scanned, not batched
            HINT.format(k=5, expr="y + z"),
        ]
        results = executor.execute_many(statements)
        assert results[1].plan == "scan"
        for result in (results[0], results[2]):
            assert result.extra["batch_size"] == 2
            assert result.metrics["counters"]["query.count"] == 2
        assert executor.metrics.counters["query.count"] == 3


class TestErrorParity:
    @pytest.mark.parametrize(
        "statement",
        [
            "SELECT TOP 5 FROM t USING INDEX ri ORDER BY x + nope",
            "SELECT TOP 5 FROM t ORDER BY x + nope",
            "SELECT TOP 5 FROM t ORDER BY x - nope",
        ],
    )
    def test_unknown_attribute_raises_key_error(self, two_tables, statement):
        catalog = two_tables
        executor = TopKExecutor(catalog, cache_size=8)
        with pytest.raises(KeyError, match="unknown attribute 'nope'") as single:
            executor.execute_auto(statement)
        with pytest.raises(KeyError, match="unknown attribute 'nope'") as many:
            executor.execute_many([HINT.format(k=5, expr="x"), statement])
        assert many.value.args == single.value.args

    def test_non_float_attribute_keeps_value_error(self, two_tables):
        catalog = two_tables
        catalog.attach_index(
            "u", "ri", catalog.index("t", "ri")
        )
        statement = "SELECT TOP 5 FROM u USING INDEX ri ORDER BY x + layer"
        executor = TopKExecutor(catalog)
        with pytest.raises(ValueError, match="does not cover") as single:
            executor.execute(statement)
        with pytest.raises(ValueError, match="does not cover") as many:
            executor.execute_many([statement])
        assert many.value.args == single.value.args

    @pytest.mark.parametrize(
        "expr, message",
        [("0*x", "non-zero"), ("x - y", "negative weights")],
    )
    def test_unservable_weights_raise_like_execute(self, two_tables, expr, message):
        catalog = two_tables
        statement = HINT.format(k=5, expr=expr)
        executor = TopKExecutor(catalog)
        with pytest.raises(ValueError, match=message):
            executor.execute(statement)
        with pytest.raises(ValueError, match=message):
            executor.execute_many([statement])
