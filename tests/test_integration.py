"""End-to-end integration: every index, the engine, and persistence
working over one shared data set, cross-checked tuple for tuple."""

import numpy as np
import pytest

from repro import (
    LinearQuery,
    LinearScanIndex,
    OnionIndex,
    PreferIndex,
    PreferMultiView,
    RobustIndex,
    RobustMultiView,
    RTreeIndex,
    ShellIndex,
    ThresholdIndex,
    audit_layering,
)
from repro.core.appri import appri_layers
from repro.data import correlated, minmax_normalize
from repro.engine import Catalog, Relation, TopKExecutor
from repro.engine.executor import materialize_layers
from repro.engine.snapshot import load_snapshot, save_snapshot
from repro.queries.workload import grid_weight_workload


@pytest.fixture(scope="module")
def world():
    data = minmax_normalize(correlated(400, 3, 0.4, seed=77))
    indexes = {
        "scan": LinearScanIndex(data),
        "robust": RobustIndex(data, n_partitions=6),
        "robust+": RobustIndex(data, n_partitions=6, systems="families",
                               refine="peel"),
        "onion": OnionIndex(data),
        "shell": ShellIndex(data),
        "prefer": PreferIndex(data),
        "prefer-mv": PreferMultiView(data, n_views=3),
        "robust-mv": RobustMultiView(data, n_partitions=6),
        "ta": ThresholdIndex(data),
        "rtree": RTreeIndex(data, leaf_size=16),
    }
    return data, indexes


class TestAllIndexesAgree:
    @pytest.mark.parametrize("k", [1, 7, 50, 400])
    def test_same_answers_everywhere(self, world, k):
        data, indexes = world
        for query in grid_weight_workload(3, 8, seed=1):
            expected = indexes["scan"].query(query, k).tids.tolist()
            for name, index in indexes.items():
                got = index.query(query, k).tids.tolist()
                assert got == expected, f"{name} diverged at k={k}"

    def test_retrieval_costs_are_plausible(self, world):
        data, indexes = world
        query = LinearQuery([1, 2, 1])
        n = data.shape[0]
        for name, index in indexes.items():
            retrieved = index.query(query, 10).retrieved
            assert 10 <= retrieved <= n, name
        assert indexes["scan"].query(query, 10).retrieved == n

    def test_layered_indexes_audit_clean(self, world):
        data, indexes = world
        for name in ("robust", "robust+", "onion", "shell"):
            layers = indexes[name].layers
            report = audit_layering(data, layers, n_queries=40, seed=5,
                                    check_exact=False)
            assert report.sound, name


class TestEngineOverTheSameData:
    def test_sql_agrees_with_indexes(self, world, tmp_path):
        data, indexes = world
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix("d", ["a", "b", "c"], data))
        layers = appri_layers(data, n_partitions=6)
        materialize_layers(catalog, "d", layers)
        executor = TopKExecutor(catalog, block_size=32)
        catalog.attach_index("d", "robust", indexes["robust"])

        sql_prefix = executor.execute(
            "SELECT TOP 20 FROM d WHERE layer <= 20 ORDER BY a + 2*b + c"
        )
        sql_hint = executor.execute(
            "SELECT TOP 20 FROM d USING INDEX robust ORDER BY a + 2*b + c"
        )
        expected = LinearQuery([1, 2, 1]).top_k(data, 20).tolist()
        assert sql_prefix.tids.tolist() == expected
        assert sql_hint.tids.tolist() == expected
        assert sql_prefix.blocks_read < -(-data.shape[0] // 32)

    def test_persistence_mid_pipeline(self, world, tmp_path):
        data, indexes = world
        path = tmp_path / "robust.snap"
        save_snapshot(indexes["robust"], path)
        loaded = load_snapshot(path)
        q = LinearQuery([4, 1, 2])
        assert (
            loaded.query(q, 15).tids.tolist()
            == indexes["scan"].query(q, 15).tids.tolist()
        )
