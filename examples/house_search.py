"""House search through the relational engine and SQL (paper Section 1).

The paper's deployability claim: materialize the robust layers as a
column, store the table in layer order, and any top-k query becomes

    SELECT TOP k FROM houses WHERE layer <= k ORDER BY <preference>

This example drives the whole engine stack: catalog, layer
materialization, layer-ordered storage with block accounting, the SQL
parser, and the executor's three physical plans.

Run:  python examples/house_search.py
"""

import numpy as np

from repro.core.appri import appri_layers
from repro.data import minmax_normalize
from repro.engine import Catalog, Relation, TopKExecutor
from repro.engine.executor import materialize_layers
from repro.indexes.robust import RobustIndex


def make_houses(n: int = 2_500, seed: int = 11) -> np.ndarray:
    """price ($k), distance to school (km), age (years) — lower is better."""
    rng = np.random.default_rng(seed)
    location = rng.random(n)  # latent desirability
    price = 150 + 600 * location + rng.gamma(2.0, 30.0, n)
    distance = 0.3 + 8.0 * (1 - location) + rng.exponential(1.0, n)
    age = rng.uniform(0, 80, n)
    return np.column_stack([price, distance, age])


def main() -> None:
    raw = make_houses()
    houses = minmax_normalize(raw)

    catalog = Catalog()
    relation = Relation.from_matrix(
        "houses", ["price", "distance", "age"], houses
    )
    catalog.create_table(relation)

    # Build the robust layers and materialize them as a column; the
    # catalog keeps the table sequentially in layer order.
    layers = appri_layers(houses, n_partitions=10)
    materialize_layers(catalog, "houses", layers)

    executor = TopKExecutor(catalog, block_size=64)
    catalog.attach_index("houses", "robust", RobustIndex(houses))

    k = 20
    statements = {
        "layer-prefix plan (the paper's SQL)": (
            f"SELECT TOP {k} FROM houses WHERE layer <= {k} "
            "ORDER BY 3*price + 2*distance + age"
        ),
        "index plan (USING INDEX hint)": (
            f"SELECT TOP {k} FROM houses USING INDEX robust "
            "ORDER BY 3*price + 2*distance + age"
        ),
        "full scan plan": (
            f"SELECT TOP {k} FROM houses ORDER BY 3*price + 2*distance + age"
        ),
    }

    answers = {}
    print(f"searching {relation.n_rows} houses, top-{k}:\n")
    for label, sql in statements.items():
        result = executor.execute(sql)
        answers[label] = result.tids.tolist()
        print(f"{label}")
        print(f"    {sql}")
        print(f"    plan={result.plan}  retrieved={result.retrieved} "
              f"tuples  blocks_read={result.blocks_read}\n")

    assert len(set(map(tuple, answers.values()))) == 1, "plans disagree!"
    print("all three plans return identical houses.")

    best = answers["full scan plan"][:5]
    print("\ntop-5 houses (price $k, school km, age yr):")
    for rank, tid in enumerate(best, 1):
        price, distance, age = raw[tid]
        print(f"  {rank}. house#{tid}: ${price:.0f}k, "
              f"{distance:.1f} km, {age:.0f} yr")


if __name__ == "__main__":
    main()
