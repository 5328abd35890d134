"""Engine-level I/O: block reads of the paper's SQL plan vs a scan.

The sequential layer-ordered layout turns a top-k query into a short
prefix read; this bench reports the tuple and block counts of the
layer-prefix plan (the catalog's layer-ordered slab) against a scan.
"""

import numpy as np

from repro.core.appri import appri_layers
from repro.data import minmax_normalize, uniform
from repro.engine import Catalog, Relation, TopKExecutor
from repro.engine.executor import materialize_layers
from repro.experiments.report import render_table

from conftest import publish


def test_layer_prefix_io(benchmark):
    data = minmax_normalize(uniform(2_000, 3, seed=31))
    catalog = Catalog()
    catalog.create_table(Relation.from_matrix("d", ["a", "b", "c"], data))
    layers = appri_layers(data, n_partitions=10)
    materialize_layers(catalog, "d", layers)
    executor = TopKExecutor(catalog, block_size=64)

    rows = []
    for k in (10, 50):
        sql = f"SELECT TOP {k} FROM d WHERE layer <= {k} ORDER BY a + 2*b + c"
        indexed = executor.execute(sql)
        scan = executor.execute(
            f"SELECT TOP {k} FROM d ORDER BY a + 2*b + c"
        )
        assert indexed.tids.tolist() == scan.tids.tolist()
        assert indexed.blocks_read < scan.blocks_read
        rows.append([k, indexed.retrieved, indexed.blocks_read,
                     scan.retrieved, scan.blocks_read])
    publish(
        "engine_io",
        "Layer-prefix SQL plan vs full scan (block size 64)\n"
        + render_table(
            ["k", "idx tuples", "idx blocks", "scan tuples", "scan blocks"],
            rows,
        ),
    )
    sql = "SELECT TOP 50 FROM d WHERE layer <= 50 ORDER BY a + 2*b + c"
    benchmark(executor.execute, sql)
