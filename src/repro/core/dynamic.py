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
of gradually loosening layers; ``staleness`` tracks how much has been
given up and ``rebuild`` restores full tightness.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..geometry.weights import gamma_levels
from .appri import _validated_points, appri_layers
from .matching import greedy_staircase_matching
from .partitioning import pair_systems

__all__ = ["DynamicRobustLayers", "layer_for_new_tuple"]


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


class DynamicRobustLayers:
    """A robust layering that absorbs inserts and deletes soundly.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> idx = DynamicRobustLayers(rng.random((50, 2)), n_partitions=4)
    >>> tid = idx.insert(rng.random(2))
    >>> idx.size
    51
    >>> idx.delete(tid)
    >>> idx.size
    50
    """

    def __init__(self, points: np.ndarray, n_partitions: int = 10,
                 **appri_kwargs):
        """Run the full AppRI build once; later updates are O(n)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        self._n_partitions = n_partitions
        self._appri_kwargs = dict(appri_kwargs)
        self._points = pts
        self._raw_layers = appri_layers(
            pts, n_partitions=n_partitions, **appri_kwargs
        ).astype(np.int64)
        self._alive = np.ones(pts.shape[0], dtype=bool)
        self._deletions = 0
        self._insertions = 0

    @property
    def n_partitions(self) -> int:
        """The AppRI wedge-partition count B every bound uses."""
        return self._n_partitions

    @property
    def size(self) -> int:
        """Number of alive tuples."""
        return int(self._alive.sum())

    @property
    def staleness(self) -> int:
        """Updates absorbed since the last (re)build."""
        return self._deletions + self._insertions

    @property
    def points(self) -> np.ndarray:
        """Alive tuples, in the row order tids refer to (a copy)."""
        return self._points[self._alive]

    def layers(self) -> np.ndarray:
        """Current sound layers of the alive tuples (1-based)."""
        adjusted = np.maximum(self._raw_layers - self._deletions, 1)
        return adjusted[self._alive].astype(np.intp)

    def export_state(self) -> tuple[dict, dict]:
        """Serializable state as ``(arrays, meta)``.

        ``arrays`` maps names to numpy arrays (the full point matrix
        including dead rows, the raw uncompensated layers, the alive
        mask); ``meta`` holds the JSON-safe scalars (partition count,
        update counters, build kwargs, and ``n_layers`` — the deepest
        live layer, for headers read without loading the buffers).
        The pair round-trips through :meth:`from_state` and is what
        :mod:`repro.engine.snapshot` persists for this class.
        """
        arrays = {
            "points": self._points,
            "raw_layers": self._raw_layers,
            "alive": self._alive,
        }
        layers = self.layers()
        meta = {
            "n_partitions": int(self._n_partitions),
            "deletions": int(self._deletions),
            "insertions": int(self._insertions),
            "appri_kwargs": dict(self._appri_kwargs),
            "n_layers": int(layers.max()) if layers.size else 0,
        }
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "DynamicRobustLayers":
        """Rebuild an instance from :meth:`export_state` output.

        The alive mask and raw layers are copied into writable arrays
        (updates mutate them); the point matrix is adopted as-is, so a
        read-only memory map stays zero-copy until the first insert or
        rebuild replaces it.
        """
        obj = cls.__new__(cls)
        obj._n_partitions = int(meta["n_partitions"])
        obj._appri_kwargs = dict(meta.get("appri_kwargs", {}))
        # Older files record build options that never changed the
        # layers and that appri_layers no longer accepts.
        for removed in ("counting", "matching", "chunk_size"):
            obj._appri_kwargs.pop(removed, None)
        obj._points = np.asarray(arrays["points"], dtype=float)
        obj._raw_layers = np.array(arrays["raw_layers"], dtype=np.int64)
        obj._alive = np.array(arrays["alive"], dtype=bool)
        obj._deletions = int(meta.get("deletions", 0))
        obj._insertions = int(meta.get("insertions", 0))
        if obj._raw_layers.shape != (obj._points.shape[0],) or (
            obj._alive.shape != (obj._points.shape[0],)
        ):
            raise ValueError("state arrays disagree on the tuple count")
        return obj

    def insert(self, new_point) -> int:
        """Add a tuple; returns its position among alive tuples' rows.

        Existing layers are untouched (sound: minimal ranks only grow);
        the new tuple gets its own freshly computed bound.  A NaN or
        infinite attribute is rejected before any state changes (a full
        rebuild could never layer it).
        """
        new_point = np.asarray(new_point, dtype=float)
        _validated_points(new_point.reshape(1, -1))
        layer = layer_for_new_tuple(
            self._points[self._alive], new_point, self._n_partitions
        )
        return self.append(new_point, layer)

    def append(self, new_point: np.ndarray, layer: int) -> int:
        """Add a tuple whose layer the caller already bounded.

        ``layer`` must be :func:`layer_for_new_tuple` of ``new_point``
        against exactly the alive tuples (:attr:`points`); this is the
        second half of :meth:`insert`, for a caller that holds those
        tuples already.  Returns the new tuple's position.
        """
        self._points = np.vstack([self._points, new_point[None, :]])
        # Store the raw layer pre-compensated so the deletion
        # adjustment in layers() cannot inflate it above the bound we
        # just proved.
        self._raw_layers = np.append(
            self._raw_layers, layer + self._deletions
        )
        self._alive = np.append(self._alive, True)
        self._insertions += 1
        return self.size - 1

    def delete(self, position: int) -> None:
        """Remove the alive tuple at ``position`` (in alive order).

        Every remaining layer is implicitly lowered by one, which keeps
        the layering sound (a deletion removes at most one guaranteed
        predecessor from any tuple).
        """
        alive_rows = np.flatnonzero(self._alive)
        if not 0 <= position < alive_rows.size:
            raise IndexError(f"position {position} out of range")
        self._alive[alive_rows[position]] = False
        self._deletions += 1

    def rebuild(self) -> None:
        """Recompute tight layers from scratch for the alive tuples."""
        pts = self._points[self._alive]
        self.install(pts, self.tight_layers(pts))

    def tight_layers(self, points: np.ndarray) -> np.ndarray:
        """Full AppRI layers of ``points`` with this layering's build
        settings — the one build every rebuild runs."""
        return appri_layers(
            points, n_partitions=self._n_partitions, **self._appri_kwargs
        )

    def install(self, points: np.ndarray, layers: np.ndarray) -> None:
        """Adopt an externally computed tight layering for ``points``.

        This is the commit half of an out-of-band rebuild (see
        :class:`repro.engine.rebuild.RebuildManager`): the caller
        captured the alive tuples, recomputed their layers *without*
        holding this object hostage, and now installs the result.  The
        caller is responsible for ensuring no update landed in between
        (the layering must describe exactly ``points``); staleness
        resets to zero.
        """
        points = np.asarray(points, dtype=float)
        layers = np.asarray(layers, dtype=np.int64)
        if points.ndim != 2 or layers.shape != (points.shape[0],):
            raise ValueError("layers must assign one value per point row")
        self._points = points
        self._raw_layers = layers
        self._alive = np.ones(points.shape[0], dtype=bool)
        self._deletions = 0
        self._insertions = 0
