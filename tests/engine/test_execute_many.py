"""Batched execution: execute_many == per-statement execution."""

import dataclasses

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.cache import ResultCache
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.planner import CostBasedPlanner
from repro.engine.relation import Relation
from repro.engine.sql import parse
from repro.indexes.linear_scan import LinearScanIndex
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery

from .sql_reference import reference_parse


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


#: One statement of each kind ``execute_many`` routes, on the
#: ``two_tables`` catalog (120 rows).  Every index-plan statement ranks
#: its own direction, so no two share a result-cache entry (answers then
#: do not depend on whether a batch looks up before it stores).
MIXED_STREAM = [
    HINT.format(k=6, expr="x + 2*y + z"),
    HINT.format(k=0, expr="3*x + y"),  # k = 0
    HINT.format(k=500, expr="y + 4*z"),  # k > n
    HINT.format(k=9, expr="0*x + y"),  # a zero weight
    "SELECT TOP 8 FROM t ORDER BY x + 3*z",  # planner -> index
    "SELECT TOP 130 FROM t ORDER BY 2*x + 5*y",  # planner at k > n
    "SELECT TOP 8 FROM t ORDER BY x - y",  # negative weight: scan
    "SELECT TOP 4 FROM t ORDER BY -0*x + y + 2*z",  # -0*x is servable
    "EXPLAIN SELECT TOP 5 FROM t ORDER BY x + y",
    "SELECT TOP 10 FROM u WHERE layer <= 10 ORDER BY x + y",
    "SELECT TOP 7 FROM u ORDER BY x + y + z",  # planner -> layer-prefix
    "SELECT TOP 7 FROM u ORDER BY 2*x - z",  # scan with a layer column
]

#: Statements no plan can serve; each must raise in ``execute_many``
#: exactly what it raises alone.
FAILING = [
    HINT.format(k=5, expr="x + nope"),  # unknown attribute
    "SELECT TOP 5 FROM t ORDER BY nope",
    HINT.format(k=5, expr="0*x"),  # all-zero weights
    "SELECT TOP 5 FROM t ORDER BY 0*x + 0*y",
    HINT.format(k=5, expr="x - y"),  # hinted negative weights
    HINT.format(k=5, expr="1" + "0" * 400 + "*x + y"),  # infinite weight
    "SELECT TOP 5 FROM t ORDER BY " + "1" + "0" * 400 + "*x",
    "SELECT TOP 5 FROM u USING INDEX ri ORDER BY x + layer",
    "SELECT TOP 5 FROM nowhere ORDER BY x",
]


def _columns(relation):
    return {
        name: relation.column(name).tolist()
        for name in relation.schema.names
    }


def _same_result(batched, single, statement):
    assert batched.tids.dtype == single.tids.dtype, statement
    assert batched.tids.tolist() == single.tids.tolist(), statement
    assert batched.retrieved == single.retrieved, statement
    assert batched.blocks_read == single.blocks_read, statement
    assert batched.plan == single.plan, statement
    assert batched.extra.get("cache") == single.extra.get("cache"), statement
    assert batched.rows.schema.names == single.rows.schema.names, statement
    assert _columns(batched.rows) == _columns(single.rows), statement
    if batched.plan == "explain":
        assert batched.extra["text"] == single.extra["text"]


class TestMixedStreamEquivalence:
    @pytest.fixture
    def catalog(self, two_tables):
        catalog = two_tables
        # ``u`` also carries the index, for the non-float-attribute error.
        catalog.attach_index("u", "ri", catalog.index("t", "ri"))
        return catalog

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cache_size", [0, 8])
    def test_every_result_equals_execute_auto(self, catalog, cache_size):
        batched = TopKExecutor(catalog, cache_size=cache_size)
        single = TopKExecutor(catalog, cache_size=cache_size)
        for _ in range(2):  # cold, then (with a cache) warm
            results = batched.execute_many(MIXED_STREAM)
            for statement, result in zip(MIXED_STREAM, results):
                _same_result(result, single.execute_auto(statement), statement)
        states = [r.extra.get("cache") for r in results]
        assert results[5].plan == "scan"  # k > n: the scan costs no more
        if cache_size:
            assert states.count("hit") == 6
        else:
            assert states == [None] * len(MIXED_STREAM)

    @pytest.mark.parametrize(
        "expr",
        ["{a}*x + {b}*y + {c}*z", "{c}*z + {a}*x + {b}*y", "{a}*y + {b}*x"],
    )
    def test_one_shape_batches(self, catalog, rng, expr):
        """A batch of one statement shape (one scatter of its values),
        in column order or not."""
        statements = [
            HINT.format(
                k=int(k),
                expr=expr.format(**dict(zip("abc", np.round(w, 4).tolist()))),
            )
            for k, w in zip(
                rng.integers(0, 30, size=12), rng.random((12, 3)) + 0.01
            )
        ]
        results = TopKExecutor(catalog).execute_many(statements)
        single = TopKExecutor(catalog)
        for statement, result in zip(statements, results):
            _same_result(result, single.execute_auto(statement), statement)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cache_size", [0, 8])
    @pytest.mark.parametrize("statement", FAILING)
    def test_errors_are_execute_autos(self, catalog, cache_size, statement):
        with pytest.raises(Exception) as single:
            TopKExecutor(catalog, cache_size=cache_size).execute_auto(
                statement
            )
        with pytest.raises(Exception) as batched:
            TopKExecutor(catalog, cache_size=cache_size).execute_many(
                MIXED_STREAM[:3] + [statement]
            )
        assert type(batched.value) is type(single.value)
        assert batched.value.args == single.value.args


#: The plan of each ``MIXED_STREAM`` statement under ``execute`` (no
#: planner: unhinted statements scan) and under ``execute_auto`` /
#: ``execute_many`` (the planner routes unhinted monotone statements).
MIXED_STREAM_PLANS = [
    ("index(ri)", "index(ri)"),
    ("index(ri)", "index(ri)"),
    ("index(ri)", "index(ri)"),
    ("index(ri)", "index(ri)"),
    ("scan", "index(ri)"),
    ("scan", "scan"),
    ("scan", "scan"),
    ("scan", "index(ri)"),
    ("explain", "explain"),
    ("layer-prefix(<= 10)", "layer-prefix(<= 10)"),
    ("scan", "layer-prefix(<= 7)"),
    ("scan", "scan"),
]

#: What each ``FAILING`` statement raises, whichever entry point runs it.
FAILING_RAISES = [
    (KeyError, ("ORDER BY references unknown attribute 'nope' on table 't'",)),
    (KeyError, ("ORDER BY references unknown attribute 'nope' on table 't'",)),
    (ValueError, ("at least one weight must be non-zero",)),
    (ValueError, ("at least one weight must be non-zero",)),
    (
        ValueError,
        (
            "monotone layered indexes cannot serve negative weights; "
            "drop the USING INDEX hint to fall back to a scan",
        ),
    ),
    (ValueError, ("weights must be finite",)),
    (ValueError, ("weights must be finite",)),
    (ValueError, ("index 'ri' does not cover ['layer']",)),
    (KeyError, ("no table 'nowhere'; known: ['t', 'u']",)),
]


def _brute_force_tids(catalog, statement):
    """The statement's answer by a full ``(score, tid)`` lexsort over the
    relation's columns (rows past a ``WHERE layer <= c`` bound dropped),
    parsed by the reference parser."""
    query = reference_parse(statement)
    if query.explain:
        return []
    relation = catalog.table(query.table)
    scores = np.zeros(relation.n_rows)
    for name, weight in query.order_by.items():
        scores += weight * relation.column(name)
    tids = np.arange(relation.n_rows)
    if query.layer_bound is not None:
        tids = tids[relation.column("layer") <= query.layer_bound]
    order = np.lexsort((tids, scores[tids]))
    return tids[order][: query.k].tolist()


class TestPinnedExpectations:
    """Plans, answers and errors of every entry point against literal
    expectations and brute force, not against another entry point."""

    @pytest.fixture
    def catalog(self, two_tables):
        catalog = two_tables
        catalog.attach_index("u", "ri", catalog.index("t", "ri"))
        return catalog

    @pytest.mark.parametrize("cache_size", [0, 8])
    @pytest.mark.parametrize("entry", ["execute", "execute_auto", "execute_many"])
    def test_mixed_stream_plans_and_tids(self, catalog, cache_size, entry):
        executor = TopKExecutor(catalog, cache_size=cache_size)
        plans = [
            solo if entry == "execute" else planned
            for solo, planned in MIXED_STREAM_PLANS
        ]
        expected = [_brute_force_tids(catalog, s) for s in MIXED_STREAM]
        for _ in range(2):  # cold, then (with a cache) warm
            if entry == "execute_many":
                results = executor.execute_many(MIXED_STREAM)
            else:
                run = getattr(executor, entry)
                results = [run(statement) for statement in MIXED_STREAM]
            assert [r.plan for r in results] == plans
            for statement, result, tids in zip(MIXED_STREAM, results, expected):
                assert result.tids.tolist() == tids, statement
                assert result.rows.n_rows == len(tids), statement

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("cache_size", [0, 8])
    @pytest.mark.parametrize("entry", ["execute", "execute_auto", "execute_many"])
    @pytest.mark.parametrize(
        "statement, raises", list(zip(FAILING, FAILING_RAISES))
    )
    def test_failing_statements_raise_literally(
        self, catalog, cache_size, entry, statement, raises
    ):
        executor = TopKExecutor(catalog, cache_size=cache_size)
        run = getattr(executor, entry)
        with pytest.raises(Exception) as caught:
            run([statement] if entry == "execute_many" else statement)
        assert (type(caught.value), caught.value.args) == raises


class TestRouting:
    def test_planner_is_asked_once_per_table_and_k(self, two_tables, monkeypatch):
        calls = []
        choose = CostBasedPlanner.choose

        def counting(self, table_name, k):
            calls.append((table_name, k))
            return choose(self, table_name, k)

        monkeypatch.setattr(CostBasedPlanner, "choose", counting)
        statements = [
            "SELECT TOP 8 FROM t ORDER BY x + 3*z",  # index
            "SELECT TOP 8 FROM t ORDER BY y + z",
            "SELECT TOP 8 FROM t ORDER BY x - y",  # index route, scanned
            "SELECT TOP 130 FROM t ORDER BY x",  # scan
            "SELECT TOP 130 FROM t ORDER BY y",
            "SELECT TOP 7 FROM u ORDER BY x + y + z",  # layer prefix
            "SELECT TOP 7 FROM u ORDER BY 2*x - z",  # layer route, scanned
            "SELECT TOP 7 FROM u ORDER BY y",
            HINT.format(k=8, expr="x + y"),
            "SELECT TOP 7 FROM u WHERE layer <= 7 ORDER BY x",
            "EXPLAIN SELECT TOP 8 FROM t ORDER BY x",
        ]
        executor = TopKExecutor(two_tables)
        results = executor.execute_many(statements)
        assert [r.plan for r in results] == [
            "index(ri)", "index(ri)", "scan", "scan", "scan",
            "layer-prefix(<= 7)", "scan", "layer-prefix(<= 7)",
            "index(ri)", "layer-prefix(<= 7)", "explain",
        ]
        assert sorted(calls) == [("t", 8), ("t", 130), ("u", 7)]
        calls.clear()
        for statement in statements:
            executor.execute_auto(statement)
        assert len(calls) == 8  # one per unhinted statement
        calls.clear()
        for statement in statements:
            executor.execute(statement)
        assert calls == []

    def test_index_hint_wins_over_layer_bound(self, two_tables):
        catalog = two_tables
        catalog.attach_index("u", "ri", catalog.index("t", "ri"))
        statement = (
            "SELECT TOP 5 FROM u USING INDEX ri WHERE layer <= 2 ORDER BY x + y"
        )
        executor = TopKExecutor(catalog)
        for result in (
            executor.execute(statement),
            executor.execute_auto(statement),
            executor.execute_many([statement])[0],
        ):
            assert result.plan == "index(ri)"
            assert result.tids.tolist() == _brute_force_tids(
                catalog, "SELECT TOP 5 FROM u ORDER BY x + y"
            )


class TestLazyRows:
    def test_rows_are_gathered_once_on_first_read(self, setup, monkeypatch):
        catalog, data = setup
        gathers = []
        take_many = Relation.take_many

        def counting(self, tid_arrays):
            gathers.append(len(tid_arrays))
            return take_many(self, tid_arrays)

        monkeypatch.setattr(Relation, "take_many", counting)
        monkeypatch.setattr(Relation, "take", lambda *a: pytest.fail("take"))
        results = TopKExecutor(catalog).execute_many(WORKLOAD)
        assert gathers == []
        first = results[2].rows
        assert gathers == [len(WORKLOAD)]
        assert results[2].rows is first
        for result in results:
            assert result.rows.matrix().tolist() == (
                data[result.tids].tolist()
            )
        assert gathers == [len(WORKLOAD)]

    def test_replace_keeps_rows_and_fields(self, setup):
        catalog, _ = setup
        result = TopKExecutor(catalog).execute_many(WORKLOAD)[1]
        copy = dataclasses.replace(result, extra={"note": 1})
        assert copy.extra == {"note": 1}
        assert copy.tids is result.tids
        assert copy.rows is result.rows
        assert (copy.retrieved, copy.blocks_read, copy.plan) == (
            result.retrieved, result.blocks_read, result.plan,
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.rows = copy.rows
        assert [f.name for f in dataclasses.fields(result)] == [
            "tids", "rows", "retrieved", "blocks_read", "plan", "extra",
        ]


#: A TOP literal beyond the int64 range.
HUGE = 10**20


class TestHugeTop:
    """``TOP`` beyond int64 answers the full ranking on every entry
    point, as ``RobustIndex.query`` and the scan do, and is cached."""

    @pytest.mark.parametrize("cache_size", [0, 8])
    @pytest.mark.parametrize("entry", ["execute", "execute_auto", "execute_many"])
    @pytest.mark.parametrize(
        "statement, plan",
        [
            (f"SELECT TOP {HUGE} FROM t USING INDEX ri ORDER BY x + 2*y", "index(ri)"),
            (f"SELECT TOP {HUGE} FROM t ORDER BY x + 2*y", "scan"),
        ],
    )
    def test_entry_points_answer_the_full_ranking(
        self, setup, cache_size, entry, statement, plan
    ):
        catalog, data = setup
        executor = TopKExecutor(catalog, cache_size=cache_size)
        expected = LinearQuery([1.0, 2.0, 0.0]).top_k(data, len(data)).tolist()
        run = getattr(executor, entry)
        for attempt in ("cold", "warm"):
            if entry == "execute_many":
                (result,) = run([statement])
            else:
                result = run(statement)
            assert result.plan == plan
            assert result.tids.tolist() == expected
            assert result.rows.n_rows == len(data)
            if cache_size and plan != "scan":
                assert result.extra["cache"] == (
                    "miss" if attempt == "cold" else "hit"
                )

    def test_index_and_cache_calls(self, setup):
        catalog, data = setup
        index = catalog.index("t", "ri")
        weights = np.array([[1.0, 2.0, 0.5], [0.5, 0.5, 3.0]])
        full = [index.query(LinearQuery(w), HUGE).tids.tolist() for w in weights]
        assert all(len(tids) == len(data) for tids in full)
        batch = index.query_batch(weights, HUGE)
        assert [r.tids.tolist() for r in batch] == full
        assert [r.retrieved for r in batch] == [len(data)] * 2

        cache = ResultCache(8)
        cache.store("s", weights[0], HUGE, np.array(full[0]))
        assert cache.lookup("s", weights[0], HUGE).tolist() == full[0]
        assert cache.lookup_many("s", weights, HUGE)[1] is None
        cache.store_many("s", weights, HUGE, [np.array(t) for t in full])
        hits = cache.lookup_many("s", weights, HUGE)
        assert [tids.tolist() for tids in hits] == full
        assert cache.lookup("s", weights[1], 5).tolist() == full[1][:5]
