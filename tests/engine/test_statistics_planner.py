"""Tests for the cost-based planner and ``execute_auto``."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.planner import CostBasedPlanner
from repro.engine.relation import Relation
from repro.engine.schema import Attribute
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery


@pytest.fixture
def planned_world(rng):
    data = rng.random((300, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("d", ["a", "b", "c"], data))
    layers = appri_layers(data, n_partitions=5)
    materialize_layers(catalog, "d", layers)
    index = RobustIndex(data, n_partitions=5)
    catalog.attach_index("d", "robust", index)
    executor = TopKExecutor(catalog, block_size=32)
    return data, catalog, executor, index


class TestPlanner:
    def test_candidates_cover_all_plans(self, planned_world):
        _, catalog, executor, _ = planned_world
        plans = executor.planner.candidates("d", 10)
        kinds = {p.kind for p in plans}
        assert kinds == {"scan", "layer-prefix", "index"}

    def test_chooses_cheapest_for_small_k(self, planned_world):
        _, catalog, executor, index = planned_world
        chosen = executor.planner.choose("d", 5)
        assert chosen.kind in ("layer-prefix", "index")
        assert chosen.est_blocks < 300 // 32 + 1

    def test_scan_wins_for_huge_k(self, planned_world):
        _, catalog, executor, _ = planned_world
        chosen = executor.planner.choose("d", 300)
        # At k = n every plan reads everything; scan ties and blocks
        # are equal, so any plan is acceptable but estimates must agree.
        assert chosen.est_tuples >= 290

    def test_index_estimate_is_exact(self, planned_world):
        _, catalog, executor, index = planned_world
        plans = executor.planner.candidates("d", 10)
        index_plan = next(p for p in plans if p.kind == "index")
        assert index_plan.est_tuples == index.retrieval_cost(10)

    def test_explain_output(self, planned_world):
        _, _, executor, _ = planned_world
        text = executor.explain("SELECT TOP 10 FROM d ORDER BY a + b + c")
        assert "->" in text
        assert "scan" in text and "index" in text

    def test_layer_prefix_estimate_is_exact(self, planned_world):
        _, catalog, executor, _ = planned_world
        layers = catalog.table("d").column("layer")
        for k in (0, 1, 10, 300):
            plans = executor.planner.candidates("d", k)
            prefix = next(p for p in plans if p.kind == "layer-prefix")
            assert prefix.est_tuples == int(np.count_nonzero(layers <= k))
            assert prefix.est_blocks == -(-prefix.est_tuples // 32)

    def test_same_length_layer_replacement_refreshes_layering(self):
        """The layering follows the catalog's table version, not the
        row count: a new same-length layer column is re-read by the
        next statement and by EXPLAIN."""
        n = 400
        data = np.random.default_rng(3).random((n, 2))
        base = Relation.from_matrix("t", ["a", "b"], data)
        catalog = Catalog()
        catalog.create_table(
            base.with_column(Attribute("layer", "int"), np.ones(n, int))
        )
        executor = TopKExecutor(catalog)
        statement = "SELECT TOP 5 FROM t ORDER BY a + b"
        assert executor.execute_auto(statement).plan == "scan"  # all layer 1
        catalog.replace_table(
            base.with_column(Attribute("layer", "int"), np.arange(1, n + 1))
        )
        result = executor.execute_auto(statement)
        assert result.plan == "layer-prefix(<= 5)"
        assert result.retrieved < 20
        assert sorted(result.tids.tolist()) == list(range(5))  # layers 1..5
        chosen = executor.planner.choose("t", 5)
        assert chosen == CostBasedPlanner(catalog).choose("t", 5)
        assert chosen.kind == "layer-prefix"
        assert chosen.est_tuples < 20
        first = executor.explain(statement).splitlines()[1]
        assert first.strip().startswith("-> layer-prefix")


class TestExecuteAuto:
    def test_auto_matches_scan_answer(self, planned_world):
        data, _, executor, _ = planned_world
        result = executor.execute_auto(
            "SELECT TOP 10 FROM d ORDER BY a + 2*b + c"
        )
        expected = LinearQuery([1, 2, 1]).top_k(data, 10)
        assert result.tids.tolist() == expected.tolist()
        assert result.plan != "scan"  # a cheaper plan existed
        assert result.retrieved < 300

    def test_auto_respects_explicit_hint(self, planned_world):
        _, _, executor, _ = planned_world
        result = executor.execute_auto(
            "SELECT TOP 5 FROM d USING INDEX robust ORDER BY a"
        )
        assert result.plan == "index(robust)"

    def test_auto_falls_back_to_scan_for_negative_weights(self, planned_world):
        data, _, executor, _ = planned_world
        result = executor.execute_auto("SELECT TOP 5 FROM d ORDER BY a - b")
        assert result.plan == "scan"
        expected = LinearQuery([1, -1, 0], require_monotone=False).top_k(data, 5)
        assert result.tids.tolist() == expected.tolist()

    def test_auto_without_any_index(self, rng):
        data = rng.random((40, 2))
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix("t", ["a", "b"], data))
        executor = TopKExecutor(catalog)
        result = executor.execute_auto("SELECT TOP 3 FROM t ORDER BY a + b")
        assert result.plan == "scan"
