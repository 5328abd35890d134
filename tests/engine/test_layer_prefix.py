"""The ``WHERE layer <= c`` plan, served from the catalog's layering."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor, materialize_layers
from repro.engine.relation import Relation
from repro.engine.sql import ParsedQuery

NAMES = ["a", "b", "c"]


@st.composite
def layered_tables(draw):
    """Small integer data (many score ties) with an arbitrary layer
    column: gaps, one shared layer, or any mix of 1..8."""
    n = draw(st.integers(0, 40))
    d = draw(st.integers(1, 3))
    data = np.array(
        draw(st.lists(
            st.lists(st.integers(0, 3), min_size=d, max_size=d),
            min_size=n, max_size=n,
        )),
        dtype=float,
    ).reshape(n, d)
    layers = draw(st.one_of(
        st.lists(st.integers(1, 8), min_size=n, max_size=n),
        st.integers(1, 8).map(lambda layer: [layer] * n),
    ))
    weights = draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    assume(any(weights))
    return data, np.array(layers, dtype=np.int64), weights


@given(
    table=layered_tables(),
    c=st.integers(0, 10),
    k=st.integers(0, 45),
    block_size=st.integers(1, 8),
)
@settings(max_examples=200, deadline=None)
def test_layer_prefix_equals_filtered_top_k(table, c, k, block_size):
    data, layers, weights = table
    names = NAMES[: data.shape[1]]
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", names, data))
    materialize_layers(catalog, "t", layers)
    executor = TopKExecutor(catalog, block_size=block_size)
    order_by = {name: float(w) for name, w in zip(names, weights) if w}
    result = executor.execute(
        ParsedQuery(k=k, table="t", order_by=order_by, layer_bound=c)
    )

    candidates = np.flatnonzero(layers <= c)
    scores = data[candidates] @ np.array(weights, dtype=float)
    expected = candidates[np.lexsort((candidates, scores))][:k]
    assert result.tids.tolist() == expected.tolist()
    assert result.retrieved == candidates.size
    assert result.blocks_read == -(-candidates.size // block_size)
    assert result.plan == f"layer-prefix(<= {c})"
    assert result.rows.column("layer").tolist() == layers[expected].tolist()


@pytest.fixture
def catalog(rng):
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("t", NAMES, rng.random((20, 3))))
    return catalog


def test_materialize_rejects_layer_zero(catalog):
    layers = np.ones(20, dtype=np.int64)
    layers[7] = 0
    with pytest.raises(ValueError, match="1-based"):
        materialize_layers(catalog, "t", layers)
    assert "layer" not in catalog.table("t").schema
    assert catalog.layering("t") is None


def test_order_by_layer_is_not_covered(catalog):
    materialize_layers(catalog, "t", np.arange(1, 21))
    with pytest.raises(ValueError, match="does not cover"):
        TopKExecutor(catalog).execute(
            "SELECT TOP 3 FROM t WHERE layer <= 3 ORDER BY a + layer"
        )


def test_layering_is_cached_per_table_version(catalog):
    assert catalog.layering("t") is None
    slab = materialize_layers(catalog, "t", np.arange(1, 21))
    assert catalog.layering("t") is slab
    catalog.replace_table(catalog.table("t"))
    assert catalog.layering("t") is not slab
    assert catalog.layering("t").offsets.tolist() == slab.offsets.tolist()


def test_unhinted_order_by_layer_scans(catalog):
    materialize_layers(catalog, "t", np.arange(1, 21))
    relation = catalog.table("t")
    executor = TopKExecutor(catalog)
    statement = "SELECT TOP 3 FROM t ORDER BY a + layer"
    scores = relation.column("a") + relation.column("layer")
    expected = np.lexsort((np.arange(20), scores))[:3].tolist()
    for result in (
        executor.execute_auto(statement),
        executor.execute_many([statement])[0],
    ):
        assert result.plan == "scan"
        assert result.tids.tolist() == expected
