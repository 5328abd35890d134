"""Query-path observability: metrics on ExecutionResult and executor."""

import numpy as np
import pytest

from repro import obs
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.indexes.robust import RobustIndex


@pytest.fixture
def setup(rng):
    data = rng.random((60, 3))
    catalog = Catalog()
    relation = Relation.from_matrix(
        "houses", ["price", "distance", "age"], data
    )
    catalog.create_table(relation)
    return catalog, data


ORDER = "ORDER BY price + 2*distance + age"
STATEMENT = f"SELECT TOP 5 FROM houses {ORDER}"


class TestExecutionResultMetrics:
    def test_scan_result_carries_metrics(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        result = executor.execute(STATEMENT)
        assert result.plan == "scan"
        counters = result.metrics["counters"]
        assert counters["query.count"] == 1
        assert counters["query.retrieved"] == result.retrieved == 60
        assert counters["query.blocks_read"] == result.blocks_read
        assert "query.scan" in result.metrics["timers"]

    def test_index_plan_includes_index_counters(self, setup):
        catalog, data = setup
        catalog.attach_index("houses", "ri", RobustIndex(data, n_partitions=4))
        executor = TopKExecutor(catalog)
        result = executor.execute(
            f"SELECT TOP 5 FROM houses USING INDEX ri {ORDER}"
        )
        counters = result.metrics["counters"]
        assert result.plan == "index(ri)"
        assert "query.index" in result.metrics["timers"]
        assert counters["index.queries"] == 1
        assert counters["index.candidates"] == result.retrieved

    def test_layer_prefix_plan_timer(self, setup):
        catalog, data = setup
        executor = TopKExecutor(catalog)
        from repro.core.appri import appri_layers

        layers = appri_layers(data, n_partitions=4)
        materialize_layers(catalog, "houses", layers)
        result = executor.execute(
            f"SELECT TOP 5 FROM houses WHERE layer <= 5 {ORDER}"
        )
        assert result.plan.startswith("layer-prefix")
        assert "query.layer-prefix" in result.metrics["timers"]

    def test_explain_result_has_no_metrics(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        result = executor.execute("EXPLAIN " + STATEMENT)
        assert result.plan == "explain"
        assert result.metrics == {}


class TestCumulativeExecutorMetrics:
    def test_metrics_accumulate_across_queries(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        for _ in range(3):
            executor.execute(STATEMENT)
        assert executor.metrics.counters["query.count"] == 3
        assert executor.metrics.counters["query.retrieved"] == 180

    def test_enclosing_collector_sees_query_metrics(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        with obs.collect() as metrics:
            executor.execute(STATEMENT)
        assert metrics.counters["query.count"] == 1
