"""Tests for column statistics and the cost-based planner."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.planner import CostBasedPlanner
from repro.engine.relation import Relation
from repro.engine.schema import Attribute
from repro.engine.statistics import analyze, build_histogram
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery


class TestHistogram:
    def test_equi_depth_quantiles(self):
        values = np.arange(100, dtype=float)
        hist = build_histogram(values, n_buckets=4)
        assert hist.n_buckets == 4
        assert hist.selectivity_le(-1) == 0.0
        assert hist.selectivity_le(1000) == 1.0
        assert hist.selectivity_le(49.5) == pytest.approx(0.5, abs=0.03)

    def test_estimate_count(self):
        values = np.arange(200, dtype=float)
        hist = build_histogram(values, n_buckets=8)
        assert hist.estimate_count_le(99.5) == pytest.approx(100, abs=6)

    def test_skewed_distribution(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(1.0, size=2000)
        hist = build_histogram(values, n_buckets=16)
        median = float(np.median(values))
        assert hist.selectivity_le(median) == pytest.approx(0.5, abs=0.05)

    def test_empty_column(self):
        hist = build_histogram(np.array([]))
        assert hist.selectivity_le(0.0) == 0.0
        assert hist.estimate_count_le(5.0) == 0

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            build_histogram(np.ones(3), n_buckets=0)


class TestAnalyze:
    def test_per_column_summaries(self, rng):
        rel = Relation.from_matrix("t", ["a", "b"], rng.random((50, 2)) * 10)
        stats = analyze(rel)
        assert stats.n_rows == 50
        col = stats.column("a")
        assert col.minimum <= col.mean <= col.maximum
        assert col.n_distinct == 50

    def test_unknown_column(self, rng):
        rel = Relation.from_matrix("t", ["a"], rng.random((5, 1)))
        with pytest.raises(KeyError):
            analyze(rel).column("zzz")


@pytest.fixture
def planned_world(rng):
    data = rng.random((300, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("d", ["a", "b", "c"], data))
    layers = appri_layers(data, n_partitions=5)
    store = materialize_layers(catalog, "d", layers, block_size=32)
    index = RobustIndex(data, n_partitions=5)
    catalog.attach_index("d", "robust", index)
    executor = TopKExecutor(catalog, block_size=32)
    executor.register_store("d", store)
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

    def test_statistics_cached_and_invalidated(self, planned_world):
        _, catalog, executor, _ = planned_world
        planner = executor.planner
        first = planner.statistics("d")
        assert planner.statistics("d") is first
        planner.invalidate("d")
        assert planner.statistics("d") is not first

    def test_same_length_layer_replacement_refreshes_statistics(self):
        """Statistics follow the catalog's table version, not the row
        count: a new same-length layer column must be re-analyzed."""
        n = 400
        data = np.random.default_rng(3).random((n, 2))
        base = Relation.from_matrix("t", ["a", "b"], data)
        catalog = Catalog()
        catalog.create_table(
            base.with_column(Attribute("layer", "int"), np.ones(n, int))
        )
        planner = CostBasedPlanner(catalog)
        assert planner.choose("t", 5).kind == "scan"  # every tuple at layer 1
        catalog.replace_table(
            base.with_column(Attribute("layer", "int"), np.arange(1, n + 1))
        )
        chosen = planner.choose("t", 5)
        fresh = CostBasedPlanner(catalog).choose("t", 5)
        assert chosen == fresh
        assert chosen.kind == "layer-prefix"
        assert chosen.est_tuples < 20


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
