"""References for dynamic maintenance: the per-level single-tuple
bound and a list model of a layering under updates.

:func:`reference_layer_for_new_tuple` is the original formulation of
:func:`repro.core.dynamic.layer_for_new_tuple`, kept as the equivalence
oracle for the subspace-bucketed single pass that replaced it: it
stacks the tuple onto the relation and, for every complementary pair
system, builds each gamma level's transformed matrix
(:func:`~repro.core.partitioning.level_transform`) and each full
subspace's (:func:`~repro.core.partitioning.subspace_transform`), then
counts strict dominators of the tuple in that space.  On every input
the two must return the same integer.

:class:`LayeringModel` replays inserts, deletes and rebuilds on plain
Python lists with the two soundness rules spelled out, so the dynamic
index's patched serving slab can be checked against
``LayeredSlab.from_layers`` of the model (:func:`assert_same_slab`).
"""

from __future__ import annotations

import numpy as np

from repro.core.appri import appri_layers
from repro.core.matching import greedy_staircase_matching
from repro.core.partitioning import (
    level_transform,
    pair_systems,
    subspace_transform,
)
from repro.geometry.weights import gamma_levels
from repro.indexes.robust import LayeredSlab

__all__ = [
    "LayeringModel",
    "assert_same_slab",
    "reference_layer_for_new_tuple",
]

SLAB_FIELDS = ("points", "layers", "order", "offsets", "slab")


def reference_layer_for_new_tuple(
    points: np.ndarray, new_point: np.ndarray, n_partitions: int = 10
) -> int:
    """``|DS^1| + sum of EDS^2 bounds + 1``, one comparison pass per
    gamma level, side and pair (O(B * 2^d * n))."""
    pts = np.asarray(points, dtype=float)
    t = np.asarray(new_point, dtype=float)
    if pts.ndim != 2 or t.shape != (pts.shape[1],):
        raise ValueError("new_point must match the relation's width")
    n, d = pts.shape
    if n == 0:
        return 1
    stacked = np.vstack([pts, t[None, :]])
    tid = n  # the new tuple's row in the stacked matrix

    bound = int(np.all(pts < t[None, :], axis=1).sum())  # |DS^1|
    gammas = gamma_levels(n_partitions)
    for pair in pair_systems(d, include_partial=False):
        a_levels = np.zeros(n_partitions + 1, dtype=np.int64)
        b_levels = np.zeros(n_partitions + 1, dtype=np.int64)
        for p, gamma in enumerate(gammas, start=1):
            ya = level_transform(stacked, pair, float(gamma), "a")
            yb = level_transform(stacked, pair, float(gamma), "b")
            a_levels[p] = int((ya[:n] < ya[tid]).all(axis=1).sum())
            b_levels[p] = int((yb[:n] < yb[tid]).all(axis=1).sum())
        ya = subspace_transform(stacked, pair, "a")
        yb = subspace_transform(stacked, pair, "b")
        a_levels[n_partitions] = int((ya[:n] < ya[tid]).all(axis=1).sum())
        b_levels[0] = int((yb[:n] < yb[tid]).all(axis=1).sum())
        i_wedges = np.clip(np.diff(a_levels), 0, None)
        iii_wedges = np.clip(np.diff(b_levels[::-1]), 0, None)
        bound += int(
            greedy_staircase_matching(i_wedges[None, :], iii_wedges[None, :])[0]
        )
    return bound + 1


class LayeringModel:
    """A dynamic layering as two lists: rows and their 1-based layers.

    * a fresh build (and :meth:`rebuild`) takes ``appri_layers``;
    * an insert appends the row with its own bound
      (:func:`reference_layer_for_new_tuple` against the current rows);
    * a delete removes the row and lowers every other layer by one,
      floored at 1.
    """

    def __init__(self, points, n_partitions: int, **appri_kwargs):
        points = np.asarray(points, dtype=float)
        self.width = points.shape[1]
        self.n_partitions = n_partitions
        self.appri_kwargs = appri_kwargs
        self.rows = [row.copy() for row in points]
        self.layers = []
        self.rebuild()

    @property
    def points(self) -> np.ndarray:
        """The rows as one ``(n, d)`` matrix."""
        return np.array(self.rows, dtype=float).reshape(-1, self.width)

    def insert(self, point) -> int:
        """Append ``point`` on its own bound; returns its tid."""
        point = np.asarray(point, dtype=float)
        layer = reference_layer_for_new_tuple(
            self.points, point, self.n_partitions
        )
        self.rows.append(point.copy())
        self.layers.append(int(layer))
        return len(self.rows) - 1

    def delete(self, position: int) -> None:
        """Drop row ``position``; every other layer drops by one."""
        del self.rows[position]
        del self.layers[position]
        self.layers = [max(layer - 1, 1) for layer in self.layers]

    def upsert(self, position: int, point) -> int:
        """``delete(position)`` then ``insert(point)``."""
        self.delete(position)
        return self.insert(point)

    def rebuild(self) -> None:
        """Tight layers from a full AppRI build of the current rows."""
        self.layers = appri_layers(
            self.points, n_partitions=self.n_partitions, **self.appri_kwargs
        ).tolist()

    def slab(self) -> LayeredSlab:
        """A from-scratch pack of the model."""
        return LayeredSlab.from_layers(self.points, self.layers)


def assert_same_slab(got: LayeredSlab, want: LayeredSlab) -> None:
    """Field for field and dtype for dtype equality of two slabs."""
    for name in SLAB_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
