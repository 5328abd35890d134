"""Dynamic maintenance of a robust layering (extension).

The paper builds its index offline; this module adds provably sound
incremental maintenance, exploiting two monotonicity facts about the
minimal rank ``l*(t)``:

* **Insertion** can only *increase* every existing tuple's minimal
  rank (a new tuple adds potential predecessors, never removes any),
  so existing layers stay valid lower bounds untouched.  Only the new
  tuple's own layer must be computed — one AppRI bound of a single
  tuple against the current data, one subspace-bucketed pass over it
  (:func:`layer_for_new_tuple`).
* **Deletion** can decrease a remaining tuple's minimal rank by at
  most one per deleted tuple (removing one tuple removes at most one
  guaranteed predecessor), so subtracting the number of deletions from
  every layer (floored at 1) keeps the layering sound.

Both operations therefore preserve the library-wide invariant — any
monotone top-k query is answered by the first k layers — at the cost
of gradually loosening layers.
:class:`~repro.indexes.dynamic.DynamicRobustIndex` applies both rules
to its serving slab; its ``staleness`` tracks how much has been given
up and ``rebuild`` restores full tightness.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..geometry.weights import gamma_levels
from .matching import greedy_staircase_matching
from .partitioning import pair_systems

__all__ = ["layer_for_new_tuple"]


def layer_for_new_tuple(
    points: np.ndarray, new_point: np.ndarray, n_partitions: int = 10
) -> int:
    """AppRI layer of one new tuple against an existing relation.

    Computes ``|DS^1| + sum of EDS^2 bounds + 1`` for the single tuple
    ``t`` in one O(n * d) subspace pass plus O(B * n * |J1| * |J2|)
    level work spread across the pair systems:

    * every row gets its *strict subspace code* — the bitmask of the
      dimensions it lies above ``t`` on, or ``2^d`` when it ties ``t``
      on some dimension (a tied row lies in no strict region); rows are
      bucketed by code with one stable radix sort;
    * ``|DS^1|`` is the count of code 0 and each full subspace's size
      (``a_B``, ``b_0``) the count of one code;
    * a pair's level regions ``a_p`` / ``b_p`` are tested only on its
      two subspaces' rows, all ``B - 1`` gamma levels and all its
      ``(i, j)`` tests in one broadcast;
    * every pair's wedges are matched in one staircase-matching call.

    Each row lies in at most one pair's subspaces, so the level work is
    shared out rather than repeated per pair.  The result equals the
    per-level transformed-space formulation bit for bit: the level tests
    are the same float expressions ``gamma*u_i + u_j < gamma*t_i + t_j``,
    and because rounding is monotone no row outside a side's subspace
    can pass them.  The per-``(d, B)`` constants (gamma grid, pair
    systems, code bits) are computed once and cached.
    """
    pts = np.asarray(points, dtype=float)
    t = np.asarray(new_point, dtype=float)
    if pts.ndim != 2 or t.shape != (pts.shape[1],):
        raise ValueError("new_point must match the relation's width")
    n, d = pts.shape
    if n == 0:
        return 1

    gammas, pairs, bits = _bound_constants(d, n_partitions)
    # Finite IEEE differences keep the sign of the comparison (a NaN
    # difference is neither above nor below, like the comparison).
    diff = pts - t
    above = diff > 0
    codes = above @ bits
    codes[(above | (diff < 0)) @ bits != bits.sum()] = 1 << d
    order = np.argsort(codes, kind="stable")
    # Rows of code c are order[start[c]:start[c + 1]].
    start = np.zeros((1 << d) + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=1 << d)[: 1 << d], out=start[1:])
    bound = int(start[1])  # |DS^1|

    a_levels = np.zeros((len(pairs), n_partitions + 1), dtype=np.int64)
    b_levels = np.zeros((len(pairs), n_partitions + 1), dtype=np.int64)
    for row, (a, b, i, j) in enumerate(pairs):
        a_size = start[a + 1] - start[a]
        rows = np.concatenate(
            [order[start[a]:start[a + 1]], order[start[b]:start[b + 1]]]
        )
        # (test, gamma, row): every (i, j) level test of the pair at once.
        lhs = gammas[:, None] * pts[rows, i[:, None]][:, None, :]
        lhs += pts[rows, j[:, None]][:, None, :]
        rhs = gammas * t[i][:, None] + t[j][:, None]
        inside = (lhs < rhs[:, :, None]).all(axis=0)
        a_levels[row, 1:n_partitions] = inside[:, :a_size].sum(axis=1)
        b_levels[row, 1:n_partitions] = inside[:, a_size:].sum(axis=1)
        a_levels[row, n_partitions] = a_size
        b_levels[row, 0] = rows.size - a_size
    i_wedges = np.maximum(np.diff(a_levels, axis=1), 0)
    iii_wedges = np.maximum(np.diff(b_levels[:, ::-1], axis=1), 0)
    bound += int(greedy_staircase_matching(i_wedges, iii_wedges).sum())
    return bound + 1


@functools.lru_cache(maxsize=64)
def _bound_constants(d: int, n_partitions: int):
    """What :func:`layer_for_new_tuple` needs besides the data, per
    ``(d, B)``: the gamma grid, each pair system as ``(side a mask,
    side b mask, i, j)`` with ``(i[m], j[m])`` its level tests (``i``
    on side b's above-dimensions, ``j`` on side a's), and the
    per-dimension code bits on the narrowest unsigned type that holds
    code ``2^d`` (so the bucket sort is a radix sort)."""
    gammas = gamma_levels(n_partitions)
    pairs = []
    for pair in pair_systems(d, include_partial=False):
        tests = list(itertools.product(pair.side_b_above, pair.side_a_above))
        i, j = (np.array(dims) for dims in zip(*tests))
        pairs.append((pair.mask, pair.complement_mask, i, j))
    bits = (1 << np.arange(d)).astype(np.min_scalar_type(1 << d))
    for constant in (gammas, bits, *(x for p in pairs for x in p[2:])):
        constant.flags.writeable = False
    return gammas, tuple(pairs), bits
