"""Tests for the EXPLAIN statement path."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.engine.sql import parse
from repro.indexes.robust import RobustIndex


@pytest.fixture
def world(rng):
    data = rng.random((200, 3))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("d", ["a", "b", "c"], data))
    executor = TopKExecutor(catalog, block_size=32)
    return data, catalog, executor


class TestParseExplain:
    def test_flag_set(self):
        assert parse("EXPLAIN SELECT TOP 5 FROM t ORDER BY a").explain
        assert not parse("SELECT TOP 5 FROM t ORDER BY a").explain

    def test_case_insensitive(self):
        assert parse("explain select top 1 from t order by a").explain

    def test_explain_with_hint(self):
        q = parse("EXPLAIN SELECT TOP 2 FROM t USING INDEX r ORDER BY a")
        assert q.explain and q.index_hint == "r"


class TestExecuteExplain:
    def test_scan_only_world(self, world):
        _, _, executor = world
        result = executor.execute("EXPLAIN SELECT TOP 5 FROM d ORDER BY a")
        assert result.plan == "explain"
        assert result.tids.size == 0
        assert "scan" in result.extra["text"]
        assert "index" not in result.extra["text"]

    def test_lists_all_plans_when_available(self, world):
        data, catalog, executor = world
        layers = appri_layers(data, n_partitions=4)
        materialize_layers(catalog, "d", layers)
        catalog.attach_index("d", "robust", RobustIndex(data, n_partitions=4))
        result = executor.execute(
            "EXPLAIN SELECT TOP 10 FROM d ORDER BY a + b + c"
        )
        text = result.extra["text"]
        assert "scan" in text
        assert "layer-prefix" in text
        assert "index(robust)" in text
        # The chosen (arrow) plan must be first and non-scan for small k.
        first = text.splitlines()[1]
        assert first.strip().startswith("->")
        assert "scan" not in first

    def test_execute_auto_short_circuits(self, world):
        _, _, executor = world
        result = executor.execute_auto(
            "EXPLAIN SELECT TOP 5 FROM d ORDER BY a"
        )
        assert result.plan == "explain"

    def test_retrieval_cost_is_zero(self, world):
        _, _, executor = world
        result = executor.execute("EXPLAIN SELECT TOP 5 FROM d ORDER BY b")
        assert result.retrieved == 0
        assert result.blocks_read == 0
