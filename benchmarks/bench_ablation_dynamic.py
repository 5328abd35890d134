"""Ablation: dynamic maintenance vs rebuild (extension).

Quantifies how much layer tightness insert/delete streams on a
``DynamicRobustIndex`` give up, and the amortized cost of absorbing an
update vs rebuilding.  A second part drives upsert bursts (a delete
plus an insert each, a rebuild after every burst), checks that every
patched serving view equals a fresh ``LayeredSlab.from_layers`` pack of
the list model in ``tests/core/dynamic_reference.py`` replaying the
same updates, and splits the per-upsert time into the new tuple's
bound and the rest (view patches and publishing).
"""

import sys
import time
from pathlib import Path

import numpy as np

from repro.core import dynamic
from repro.data import minmax_normalize, uniform
from repro.experiments.report import render_table
from repro.indexes.dynamic import DynamicRobustIndex

from conftest import publish

# The list model lives in tests/core/dynamic_reference.py.
REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tests.core.dynamic_reference import (  # noqa: E402
    LayeringModel,
    assert_same_slab,
)


def _upsert_bursts(monkeypatch, n=2_000, bursts=6, burst=8):
    """Per-upsert ms, total and bound share, over rebuild-separated
    bursts on an n x 3, B = 10 index (the shape of perfbench's
    ``mixed_rw``)."""
    rng = np.random.default_rng(43)
    data = rng.random((n, 3))
    index = DynamicRobustIndex(data, n_partitions=10)
    model = LayeringModel(data, n_partitions=10)
    bound_s = [0.0]
    real_bound = dynamic.layer_for_new_tuple

    def timed_bound(*args):
        started = time.perf_counter()
        layer = real_bound(*args)
        bound_s[0] += time.perf_counter() - started
        return layer

    monkeypatch.setattr(dynamic, "layer_for_new_tuple", timed_bound)
    total_s = 0.0
    for _ in range(bursts):
        for _ in range(burst):
            position, row = int(rng.integers(index.size)), rng.random(3)
            started = time.perf_counter()
            index.delete(position)
            index.insert(row)
            total_s += time.perf_counter() - started
            model.upsert(position, row)
            assert_same_slab(index._view.slab, model.slab())
        assert index.rebuild()
        model.rebuild()
        assert_same_slab(index._view.slab, model.slab())
    upserts = bursts * burst
    return total_s / upserts * 1e3, bound_s[0] / upserts * 1e3


def test_dynamic_maintenance(benchmark, monkeypatch):
    n = 1_000
    data = minmax_normalize(uniform(n, 3, seed=41))
    rng = np.random.default_rng(42)
    idx = DynamicRobustIndex(data, n_partitions=8)

    rows = []

    def mass(k=50):
        return int(np.count_nonzero(idx.layers <= k))

    rows.append(["initial", idx.size, mass()])
    started = time.perf_counter()
    for _ in range(50):
        idx.insert(rng.random(3))
    insert_seconds = time.perf_counter() - started
    rows.append(["after 50 inserts", idx.size, mass()])
    for _ in range(50):
        idx.delete(int(rng.integers(idx.size)))
    rows.append(["after 50 deletes", idx.size, mass()])
    started = time.perf_counter()
    assert idx.rebuild() and idx.staleness == 0
    rebuild_seconds = time.perf_counter() - started
    rows.append(["after rebuild", idx.size, mass()])

    # Updates loosen layers (mass grows); rebuild restores tightness.
    assert rows[3][2] <= rows[2][2]
    upsert_ms, bound_ms = _upsert_bursts(monkeypatch)
    publish(
        "ablation_dynamic",
        f"Dynamic maintenance (n={n}; 50 inserts then 50 deletes)\n"
        + render_table(["state", "size", "top-50 mass"], rows)
        + f"\nper-insert: {insert_seconds / 50 * 1000:.1f} ms;"
          f"  rebuild: {rebuild_seconds:.2f} s"
        + "\n\nDynamicRobustIndex upserts (n=2000, d=3, B=10; 6 bursts"
          " of 8, rebuild after each; every view == a fresh pack)\n"
        + f"per-upsert: {upsert_ms:.2f} ms = bound {bound_ms:.2f} ms"
          f" + patch/publish {upsert_ms - bound_ms:.2f} ms",
    )

    benchmark(idx.insert, rng.random(3))
