"""Reference AppRI build on the paper's per-level schedule.

The library builds every layering on one path: the fused bitset
kernel (:func:`repro.core.kernels.pair_level_data`) counts each pair
system's level regions, and greedy staircase matching pairs the
wedges.  This module keeps the formulation that path replaced, as its
equivalence oracle: one dominance pass per gamma level per side in
each transformed space (:func:`~repro.core.partitioning.level_transform`,
:func:`~repro.core.partitioning.subspace_transform`), with the
dominance engine and the matching rule passed in, so the tests can
pin the build against every named engine and against the paper's
Lemma-3 closed form.  On every input the layers must be identical.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import greedy_staircase_matching
from repro.core.partitioning import (
    disjoint_system_families,
    level_transform,
    pair_systems,
    subspace_transform,
)
from repro.dstruct.dominance import count_dominators_naive
from repro.geometry.weights import gamma_levels

__all__ = [
    "level_pass",
    "serial_level_arrays",
    "reference_layers",
    "distinct_columns",
]


def level_pass(pts, pair, b, p, side, count=count_dominators_naive):
    """One dominance pass of the per-level schedule: one level column.

    For ``p < b`` this is side ``side``'s pass at the interior gamma
    level ``gamma_p``; ``p == b`` is the side's full-subspace pass,
    which fills ``a_levels[:, b]`` (side a) or ``b_levels[:, 0]``
    (side b).
    """
    if p == b:
        return count(subspace_transform(pts, pair, side))
    gamma = float(gamma_levels(b)[p - 1])
    return count(level_transform(pts, pair, gamma, side))


def serial_level_arrays(pts, pair, b, count=count_dominators_naive):
    """One system's per-level passes, as two ``(n, B + 1)`` arrays.

    ``count`` is the dominance engine run on every transformed space.
    """
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    a_levels = np.zeros((n, b + 1), dtype=np.int64)
    b_levels = np.zeros((n, b + 1), dtype=np.int64)
    for p in range(1, b):
        a_levels[:, p] = level_pass(pts, pair, b, p, "a", count)
        b_levels[:, p] = level_pass(pts, pair, b, p, "b", count)
    a_levels[:, b] = level_pass(pts, pair, b, b, "a", count)
    b_levels[:, 0] = level_pass(pts, pair, b, b, "b", count)
    # b_levels[:, b] stays 0 (b_B is empty by definition).
    return a_levels, b_levels


def reference_layers(
    pts,
    n_partitions=10,
    systems="complementary",
    count=count_dominators_naive,
    match=greedy_staircase_matching,
):
    """AppRI layers (no refinement) from the per-level schedule.

    ``match`` is the per-system wedge matching rule: the library's
    :func:`~repro.core.matching.greedy_staircase_matching` or the
    paper's :func:`~repro.core.matching.lemma3_bound`.
    """
    pts = np.asarray(pts, dtype=float)
    n, d = pts.shape
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    all_systems = pair_systems(d, include_partial=(systems == "families"))
    eds2 = np.zeros((len(all_systems), n), dtype=np.int64)
    for s, pair in enumerate(all_systems):
        a_levels, b_levels = serial_level_arrays(
            pts, pair, n_partitions, count
        )
        i_wedges = np.clip(np.diff(a_levels, axis=1), 0, None)
        iii_wedges = np.clip(np.diff(b_levels[:, ::-1], axis=1), 0, None)
        eds2[s] = match(i_wedges, iii_wedges)
    if systems == "complementary":
        eds2_bound = eds2.sum(axis=0)
    else:
        eds2_bound = np.max(
            [eds2[list(family)].sum(axis=0)
             for family in disjoint_system_families(all_systems)],
            axis=0,
        )
    return (np.asarray(count(pts), dtype=np.int64) + eds2_bound + 1).astype(
        np.intp
    )


def distinct_columns(d, systems="complementary", n_partitions=10):
    """Prefix matrices one AppRI build packs when columns are shared.

    Every coordinate of every transformed space is a signed attribute
    (``x_i`` on shared-below dimensions and to close a subspace,
    ``-x_j`` to lead a side) or a bilinear ``gamma_p * x_i + x_j`` for
    ``(i, j) in J2 x J1``; counted once each across all systems and
    levels.  The dominance factor ANDs the ``x_i`` columns the systems
    already pack, so it adds none.  A build's
    ``counting.prefix_words`` is this times ``n * words``.
    """
    signed, pairs = set(), set()
    for pair in pair_systems(d, include_partial=(systems == "families")):
        j1, j2 = pair.side_a_above, pair.side_b_above
        signed |= {(1, i) for i in pair.shared_below + j1 + j2}
        signed |= {(-1, j) for j in j1 + j2}
        pairs |= {(i, j) for i in j2 for j in j1}
    return len(signed) + len(pairs) * (n_partitions - 1)
