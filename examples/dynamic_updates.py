"""Dynamic maintenance: absorbing inserts and deletes without rebuild.

The paper builds its index offline; this extension keeps serving
correct top-k answers through an update stream by exploiting two
monotonicity facts (docs/THEORY.md §6):

* inserting a tuple can only push other tuples' minimal ranks deeper,
  so existing layers stay valid;
* deleting a tuple lowers any minimal rank by at most one, so a global
  depth compensation keeps the layering sound.

``DynamicRobustIndex`` applies both rules to the layer-packed slab it
serves queries from, and ``rebuild`` restores tight layers.

Run:  python examples/dynamic_updates.py
"""

import numpy as np

from repro import DynamicRobustIndex, LinearQuery, audit_layering
from repro.data import minmax_normalize, uniform


def retrieval(idx: DynamicRobustIndex, k: int) -> int:
    return idx.retrieval_cost(k)


def main() -> None:
    rng = np.random.default_rng(3)
    data = minmax_normalize(uniform(1_500, 3, seed=3))
    idx = DynamicRobustIndex(data, n_partitions=10)
    k = 25

    print(f"initial: {idx.size} tuples, top-{k} retrieval "
          f"cost {retrieval(idx, k)}")

    # A day of trading: listings appear and disappear.
    for step in range(1, 121):
        if rng.random() < 0.4:
            idx.delete(int(rng.integers(idx.size)))
        else:
            idx.insert(rng.random(3))
        if step % 40 == 0:
            print(f"after {step:3d} updates: {idx.size} tuples, "
                  f"retrieval cost {retrieval(idx, k)} "
                  f"(staleness {idx.staleness})")

    # Answers stay exactly correct throughout.
    query = LinearQuery([1.0, 3.0, 2.0])
    layers = idx.layers
    points = idx.points
    top = query.top_k(points, k)
    assert np.all(layers[top] <= k), "layering lost soundness!"
    assert np.array_equal(idx.query(query, k).tids, top)
    print(f"\ntop-{k} under {query.weights.tolist()}: all inside the "
          f"first {k} layers — still sound")

    report = audit_layering(points, layers, n_queries=100, seed=9,
                            check_exact=False)
    print(f"audit: {report.violations} violations over "
          f"{report.n_queries} probe queries")
    assert report.sound, "audit found a violation!"

    before = retrieval(idx, k)
    assert idx.rebuild() and idx.staleness == 0
    print(f"rebuild: retrieval cost {before} -> {retrieval(idx, k)} "
          "(tightness restored)")


if __name__ == "__main__":
    main()
