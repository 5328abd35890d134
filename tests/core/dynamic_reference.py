"""Reference per-level AppRI bound for one new tuple.

This is the original formulation of
:func:`repro.core.dynamic.layer_for_new_tuple`, kept as the equivalence
oracle for the subspace-bucketed single pass that replaced it: it
stacks the tuple onto the relation and, for every complementary pair
system, builds each gamma level's transformed matrix
(:func:`~repro.core.partitioning.level_transform`) and each full
subspace's (:func:`~repro.core.partitioning.subspace_transform`), then
counts strict dominators of the tuple in that space.  On every input
the two must return the same integer.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import greedy_staircase_matching
from repro.core.partitioning import (
    level_transform,
    pair_systems,
    subspace_transform,
)
from repro.geometry.weights import gamma_levels

__all__ = ["reference_layer_for_new_tuple"]


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
