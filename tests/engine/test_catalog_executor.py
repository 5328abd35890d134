"""Tests for the catalog and the top-k executor (all three plans)."""

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.engine.sql import ParsedQuery, parse
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery


@pytest.fixture
def data(rng):
    return rng.random((60, 3))


@pytest.fixture
def setup(data):
    catalog = Catalog()
    relation = Relation.from_matrix("houses", ["price", "distance", "age"], data)
    catalog.create_table(relation)
    return catalog, data


class TestCatalog:
    def test_create_and_get(self, setup):
        catalog, _ = setup
        assert catalog.table("houses").n_rows == 60
        assert catalog.table_names() == ["houses"]

    def test_duplicate_table_rejected(self, setup):
        catalog, data = setup
        with pytest.raises(ValueError, match="exists"):
            catalog.create_table(
                Relation.from_matrix("houses", ["a", "b", "c"], data)
            )

    def test_unknown_table(self, setup):
        catalog, _ = setup
        with pytest.raises(KeyError):
            catalog.table("nope")

    def test_attach_and_get_index(self, setup):
        catalog, data = setup
        idx = RobustIndex(data, n_partitions=3)
        catalog.attach_index("houses", "robust", idx)
        assert catalog.index("houses", "robust") is idx
        assert list(catalog.indexes_on("houses")) == ["robust"]

    def test_attach_size_mismatch(self, setup):
        catalog, _ = setup
        small = RobustIndex(np.random.default_rng(0).random((5, 3)),
                            n_partitions=2)
        with pytest.raises(ValueError, match="covers"):
            catalog.attach_index("houses", "bad", small)

    def test_drop_table(self, setup):
        catalog, _ = setup
        catalog.drop_table("houses")
        with pytest.raises(KeyError):
            catalog.table("houses")


class TestReplaceTable:
    """An index survives ``replace_table`` only if it still indexes
    the table's float attributes."""

    NAMES = ["price", "distance", "age"]

    @pytest.fixture
    def indexed(self, setup):
        catalog, data = setup
        catalog.attach_index("houses", "ri", RobustIndex(data, n_partitions=3))
        return catalog, data

    @pytest.mark.parametrize("n", [60, 25])
    def test_new_rows_drop_old_indexes(self, indexed, n):
        catalog, _ = indexed
        fresh = np.random.default_rng(9).random((n, 3))
        catalog.replace_table(Relation.from_matrix("houses", self.NAMES, fresh))
        assert catalog.indexes_on("houses") == {}
        executor = TopKExecutor(catalog)
        expected = LinearQuery([1, 1, 0]).top_k(fresh, 5).tolist()
        statement = "SELECT TOP 5 FROM houses ORDER BY price + distance"
        assert executor.execute(statement).tids.tolist() == expected
        assert executor.execute_many([statement])[0].tids.tolist() == expected
        with pytest.raises(KeyError, match="ri"):
            executor.execute(
                "SELECT TOP 5 FROM houses USING INDEX ri "
                "ORDER BY price + distance"
            )

    def test_materialized_layer_column_keeps_indexes(self, indexed):
        catalog, data = indexed
        index = catalog.index("houses", "ri")
        materialize_layers(catalog, "houses", index.layers)
        assert catalog.index("houses", "ri") is index
        result = TopKExecutor(catalog).execute(
            "SELECT TOP 5 FROM houses USING INDEX ri ORDER BY price + age"
        )
        assert result.tids.tolist() == LinearQuery([1, 0, 1]).top_k(data, 5).tolist()


class TestScanPlan:
    def test_scan_matches_reference(self, setup):
        catalog, data = setup
        executor = TopKExecutor(catalog)
        result = executor.execute(
            "SELECT TOP 5 FROM houses ORDER BY 2*price + distance"
        )
        expected = LinearQuery([2, 1, 0]).top_k(data, 5)
        assert result.tids.tolist() == expected.tolist()
        assert result.plan == "scan"
        assert result.retrieved == 60
        assert result.rows.n_rows == 5

    def test_non_monotone_order_by_scans(self, setup):
        catalog, data = setup
        executor = TopKExecutor(catalog)
        result = executor.execute(
            "SELECT TOP 4 FROM houses ORDER BY price - distance"
        )
        expected = LinearQuery([1, -1, 0], require_monotone=False).top_k(data, 4)
        assert result.tids.tolist() == expected.tolist()

    def test_unknown_attribute(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        with pytest.raises(KeyError, match="unknown attribute"):
            executor.execute("SELECT TOP 1 FROM houses ORDER BY bathrooms")

    def test_negative_k_rejected(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        query = ParsedQuery(k=-1, table="houses", order_by={"price": 1.0})
        with pytest.raises(ValueError, match="non-negative"):
            executor.execute(query)


class TestScanTies:
    """Scan answers equal ``LinearQuery.top_k`` over the ranked columns
    on tied and duplicate-column data: same ``data @ w`` product, same
    ``(score, tid)`` order."""

    STATEMENTS = [
        "ORDER BY a + b + c",
        "ORDER BY a - b + c",  # a == b: only c ranks, ties by tid
        "ORDER BY b - a",  # every score 0: the tids in order
        "ORDER BY 0.1*a + 0.2*b - 0.3*c",
        "ORDER BY c - 2*a",
        "ORDER BY 3*c",
    ]

    @pytest.fixture
    def tied(self, rng):
        # Few distinct values per column, and column b duplicates a.
        data = rng.integers(0, 4, (300, 3)).astype(float)
        data[:, 1] = data[:, 0]
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix("t", ["a", "b", "c"], data))
        return catalog, data

    @pytest.mark.parametrize("order_by", STATEMENTS)
    @pytest.mark.parametrize("k", [1, 7, 64, 299, 300, 1000])
    def test_scan_matches_top_k(self, tied, order_by, k):
        catalog, data = tied
        statement = f"SELECT TOP {k} FROM t {order_by}"
        result = TopKExecutor(catalog).execute(statement)
        ranking = parse(statement).order_by
        expected = LinearQuery(
            list(ranking.values()), require_monotone=False
        ).top_k(catalog.table("t").matrix(list(ranking)), k)
        assert result.plan == "scan"
        assert result.tids.tolist() == expected.tolist()
        assert result.retrieved == len(data)

    def test_scans_share_one_tid_range(self, tied):
        catalog, _ = tied
        relation = catalog.table("t")
        assert relation.tids() is relation.tids()
        assert relation.tids().tolist() == list(range(relation.n_rows))
        assert not relation.tids().flags.writeable


class TestIndexPlan:
    def test_routes_to_attached_index(self, setup):
        catalog, data = setup
        catalog.attach_index("houses", "robust", RobustIndex(data, n_partitions=3))
        executor = TopKExecutor(catalog)
        result = executor.execute(
            "SELECT TOP 5 FROM houses USING INDEX robust "
            "ORDER BY price + distance + age"
        )
        expected = LinearQuery([1, 1, 1]).top_k(data, 5)
        assert result.tids.tolist() == expected.tolist()
        assert result.plan == "index(robust)"
        assert result.retrieved < 60

    def test_missing_index(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        with pytest.raises(KeyError, match="no index"):
            executor.execute(
                "SELECT TOP 5 FROM houses USING INDEX nope ORDER BY price"
            )

    def test_negative_weights_rejected_for_index(self, setup):
        catalog, data = setup
        catalog.attach_index("houses", "robust", RobustIndex(data, n_partitions=3))
        executor = TopKExecutor(catalog)
        with pytest.raises(ValueError, match="negative weights"):
            executor.execute(
                "SELECT TOP 5 FROM houses USING INDEX robust ORDER BY price - age"
            )


class TestLayerPrefixPlan:
    """The paper's SQL integration: WHERE layer <= k."""

    def test_materialize_then_query(self, setup):
        catalog, data = setup
        layers = appri_layers(data, n_partitions=4)
        slab = materialize_layers(catalog, "houses", layers)
        assert slab is catalog.layering("houses")
        executor = TopKExecutor(catalog, block_size=8)
        result = executor.execute(
            "SELECT TOP 10 FROM houses WHERE layer <= 10 "
            "ORDER BY price + 2*distance + age"
        )
        expected = LinearQuery([1, 2, 1]).top_k(data, 10)
        assert result.tids.tolist() == expected.tolist()
        assert result.retrieved == int(np.count_nonzero(layers <= 10))
        assert result.blocks_read == -(-result.retrieved // 8)
        assert result.plan.startswith("layer-prefix")

    def test_layer_prefix_without_store(self, setup):
        catalog, data = setup
        layers = appri_layers(data, n_partitions=4)
        materialize_layers(catalog, "houses", layers)
        executor = TopKExecutor(catalog)
        result = executor.execute(
            "SELECT TOP 5 FROM houses WHERE layer <= 5 ORDER BY price"
        )
        expected = LinearQuery([1, 0, 0]).top_k(data, 5)
        assert result.tids.tolist() == expected.tolist()

    def test_layer_predicate_requires_column(self, setup):
        catalog, _ = setup
        executor = TopKExecutor(catalog)
        with pytest.raises(KeyError, match="layer"):
            executor.execute(
                "SELECT TOP 5 FROM houses WHERE layer <= 5 ORDER BY price"
            )

    def test_double_materialize_rejected(self, setup):
        catalog, data = setup
        layers = appri_layers(data, n_partitions=3)
        materialize_layers(catalog, "houses", layers)
        with pytest.raises(ValueError, match="already"):
            materialize_layers(catalog, "houses", layers)

    def test_materialize_wrong_length(self, setup):
        catalog, _ = setup
        with pytest.raises(ValueError):
            materialize_layers(catalog, "houses", np.ones(3, dtype=int))
