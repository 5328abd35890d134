"""A queryable robust index that absorbs updates and hot-swaps views.

:class:`DynamicRobustIndex` keeps a robust layering *sound* through
inserts and deletes (the two rules of :mod:`repro.core.dynamic`) and
serves top-k queries from it.  Its whole state is one immutable
*serving view*: a :class:`~repro.indexes.robust.LayeredSlab`, the
storage :class:`~repro.indexes.robust.RobustIndex` queries, plus the
update counters.  Every update patches that slab into the one
``LayeredSlab.from_layers(points, layers)`` would pack for the updated
tuples and rules, without re-sorting it:

* an **insert** gets tid ``n``, the largest, and its own AppRI bound
  as its layer, so it belongs at the end of that layer's run: one row
  goes in at ``offsets[L]`` and ``offsets[L:]`` grow by one;
* a **delete** drops one row and shifts the larger tids down; every
  layer drops by one (floored at 1), so runs keep their order and only
  the merged layer-1 run is re-sorted by tid.

Each patch is copy-on-write — it builds new arrays and leaves the old
view's (read-only) arrays alone — so an update costs O(n) copies plus
the new tuple's bound.  ``insert_many`` / ``delete_many`` /
``upsert_many`` apply the same patches to a local slab and publish one
view per batch, ending in the state the single calls would reach; a
batch that fails midway publishes nothing.  Only the constructor and a
rebuild commit pack a view from scratch; a restore adopts the stored
slab as it is.

The design rule is single-writer / lock-free readers:

* every mutation (updates, batches, rebuild commit) happens under one
  lock and ends by *atomically replacing* the view reference;
* readers (:meth:`query`, :meth:`query_batch`) grab the current view
  once and run entirely against that object — a concurrent swap cannot
  tear their answer, they simply finish on the version they started
  with.

Because both the old (stale-but-sound) and new (tight) layerings are
sound, a query served during a rebuild returns the *same exact top-k
tids* either way; only its ``retrieved`` cost differs.  This is the
invariant :class:`repro.engine.rebuild.RebuildManager` relies on to
re-tighten layers in a background thread without ever blocking reads.
"""

from __future__ import annotations

import operator
import threading
from typing import NamedTuple

import numpy as np

from .. import obs
from ..core import dynamic as maintenance
from ..core.appri import _validated_points, appri_layers
from ..core.pipeline import appri_layers_in_worker
# Not called here; perfbench/tracing.py wraps this module's
# ``topk_select`` by name.
from ..core.qkernel import topk_select  # noqa: F401
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex
from .robust import LayeredSlab

__all__ = ["DynamicRobustIndex"]


class _View(NamedTuple):
    """One published generation of the index.

    ``slab`` holds everything a query touches; ``generation``
    identifies the update state it describes; ``tight`` records whether
    the layers are fresh from a full build (as opposed to
    update-compensated bounds).
    """

    slab: LayeredSlab
    generation: int
    tight: bool


class DynamicRobustIndex(RankedIndex):
    """Sound robust index under inserts/deletes, with atomic view swap.

    Parameters mirror :class:`~repro.indexes.robust.RobustIndex`
    (``n_partitions`` plus any :func:`~repro.core.appri.appri_layers`
    keyword).  Tids refer to rows of the *current* relation — the
    matrix :attr:`points` exposes: an insert gets the next tid, and a
    delete shifts every larger tid down by one.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(5)
    >>> idx = DynamicRobustIndex(rng.random((60, 2)), n_partitions=4)
    >>> tid = idx.insert(rng.random(2))
    >>> q = LinearQuery([1, 2])
    >>> list(idx.query(q, 5).tids) == list(q.top_k(idx.points, 5))
    True
    >>> idx.staleness
    1
    >>> idx.rebuild()
    True
    >>> idx.staleness
    0
    """

    name = "DynAppRI"

    def __init__(self, points: np.ndarray, n_partitions: int = 10,
                 **appri_kwargs):
        """Build tight AppRI layers over (a copy of) ``points`` and
        publish the first serving view."""
        points = np.array(points, dtype=float)
        layers = appri_layers(
            points, n_partitions=n_partitions, **appri_kwargs
        )
        self._init(LayeredSlab.from_layers(points, layers), n_partitions,
                   appri_kwargs, staleness=0, generation=0, tight=True)

    def _init(self, slab: LayeredSlab, n_partitions: int, appri_kwargs: dict,
              staleness: int, generation: int, tight: bool) -> None:
        self._n_partitions = int(n_partitions)
        self._appri_kwargs = dict(appri_kwargs)
        self._lock = threading.RLock()
        self._staleness = staleness
        self._generation = generation
        self._view = _View(slab, generation, tight)

    # -- read side ---------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        """Current tuples, in the row order tids refer to."""
        return self._view.slab.points

    @property
    def layers(self) -> np.ndarray:
        """Current sound 1-based layers (one per tuple)."""
        return self._view.slab.layers

    @property
    def staleness(self) -> int:
        """Updates absorbed since the last full (re)build."""
        return self._staleness

    @property
    def generation(self) -> int:
        """Monotone update counter (bumped by every insert and delete)."""
        return self._generation

    @property
    def tight(self) -> bool:
        """Whether the serving view's layers come from a full build."""
        return self._view.tight

    def retrieval_cost(self, k: int) -> int:
        """Tuples a top-k query reads against the current view."""
        return self._view.slab.retrieval_cost(k)

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Exact top-k against the current view, without locking."""
        # One atomic grab of the view: a concurrent swap cannot tear us.
        return self._view.slab.query(query, k)

    def query_batch(self, queries, k) -> list[QueryResult]:
        """Exact top-k of many queries (``k`` one int or one per row)
        against one view, without locking: one GEMM per distinct k
        over that prefix (:meth:`LayeredSlab.query_batch`)."""
        return self._view.slab.query_batch(queries, k)

    def build_info(self) -> dict:
        """Maintenance state: staleness, tightness, generation."""
        return {
            "method": "dynamic-appri",
            "n_partitions": self._n_partitions,
            "staleness": self.staleness,
            "tight": self.tight,
            "generation": self._generation,
            "n_layers": self._view.slab.n_layers,
        }

    # -- write side --------------------------------------------------

    def insert(self, point) -> int:
        """Add a tuple (sound, no rebuild); returns its tid."""
        return int(self.insert_many(np.asarray(point, dtype=float)[None])[0])

    def delete(self, position: int) -> None:
        """Remove the tuple at ``position`` (sound, no rebuild)."""
        self.delete_many([position])

    def insert_many(self, points) -> np.ndarray:
        """Add the rows of ``points`` in order and publish one view.

        Returns their tids.  The result and the view equal those of one
        :meth:`insert` call per row; a NaN, infinite or wrong-width row
        is rejected before anything changes, and a failure midway
        publishes nothing.
        """
        points = self._checked_points(points)
        with self._lock:
            slab = self._view.slab
            for point in points:
                slab = self._insert_into(slab, point)
            self._commit(slab, updates=len(points))
            n = slab.points.shape[0]
            return np.arange(n - len(points), n)

    def delete_many(self, positions) -> None:
        """Apply ``delete(p)`` for each ``p`` in order; one view.

        Each position refers to the row order left by the deletions
        before it, as with successive :meth:`delete` calls; an out of
        range position is rejected before anything changes.
        """
        positions = [operator.index(p) for p in positions]
        with self._lock:
            slab = self._view.slab
            self._check_positions(positions, slab.points.shape[0], shrink=1)
            for position in positions:
                slab = _deleted(slab, position)
            self._commit(slab, updates=len(positions))

    def upsert_many(self, positions, points) -> np.ndarray:
        """Replace tuples: ``delete(positions[i])`` then
        ``insert(points[i])`` for each i in order, one view in all.

        Returns the inserted tids; the final state equals the single
        calls', and invalid input is rejected before anything changes.
        """
        positions = [operator.index(p) for p in positions]
        points = self._checked_points(points)
        if len(positions) != len(points):
            raise ValueError("upsert_many needs one point per position")
        with self._lock:
            slab = self._view.slab
            self._check_positions(positions, slab.points.shape[0], shrink=0)
            for position, point in zip(positions, points):
                slab = self._insert_into(_deleted(slab, position), point)
            self._commit(slab, updates=2 * len(points))
            return np.full(len(points), slab.points.shape[0] - 1)

    def _checked_points(self, points) -> np.ndarray:
        points = _validated_points(points)
        if points.shape[1] != self.dimensions:
            raise ValueError("new_point must match the relation's width")
        return points

    @staticmethod
    def _check_positions(positions, size: int, shrink: int) -> None:
        # Position i is taken after i earlier updates shrank the
        # relation by ``shrink`` each.
        for i, position in enumerate(positions):
            if not 0 <= position < size - i * shrink:
                raise IndexError(f"position {position} out of range")

    def _insert_into(self, slab: LayeredSlab, point) -> LayeredSlab:
        # Looked up on the module at call time, so a wrapper installed
        # there (tracing, tests) sees every bound.
        layer = maintenance.layer_for_new_tuple(
            slab.points, point, self._n_partitions
        )
        return _inserted(slab, point, layer)

    def _commit(self, slab: LayeredSlab, updates: int) -> None:
        if updates:
            self._staleness += updates
            self._generation += updates
            self._view = _View(slab, self._generation, False)

    # -- rebuild protocol (used by RebuildManager) -------------------

    def tight_layers(self, points: np.ndarray) -> np.ndarray:
        """Full AppRI layers of ``points`` with this index's build
        settings — the build every rebuild runs, inline or in the
        background.

        It runs in the build worker process
        (:func:`repro.core.pipeline.appri_layers_in_worker`), so the
        serving process keeps its interpreter while the calling thread
        waits; the layers and the ``build.*`` metrics are those of an
        inline :func:`~repro.core.appri.appri_layers` call.
        """
        return appri_layers_in_worker(
            points, self._n_partitions, self._appri_kwargs
        )

    def begin_rebuild(self) -> tuple[np.ndarray, int]:
        """Capture ``(points, generation)`` for an out-of-band
        tight rebuild; the expensive build then runs without any lock.

        The points are the serving view's read-only matrix, so the
        capture copies nothing.
        """
        with self._lock:
            return self._view.slab.points, self._generation

    def commit_rebuild(self, points, layers, generation: int) -> bool:
        """Install a tight layering computed from :meth:`begin_rebuild`.

        Returns ``False`` (and changes nothing) when an update landed
        after the capture — the stale result must be discarded, never
        merged, to keep the layering sound.  On success staleness resets
        to 0 and the serving view swaps atomically to a fresh pack of a
        copy of ``points``.
        """
        with self._lock:
            if generation != self._generation:
                return False
            points = np.array(points, dtype=float)
            layers = np.asarray(layers)
            if points.ndim != 2 or layers.shape != (points.shape[0],):
                raise ValueError("layers must assign one value per point row")
            self._staleness = 0
            self._view = _View(
                LayeredSlab.from_layers(points, layers), generation, True
            )
            obs.inc("rebuild.swaps")
            return True

    def rebuild(self) -> bool:
        """Synchronously recompute tight layers and swap the view."""
        points, generation = self.begin_rebuild()
        return self.commit_rebuild(
            points, self.tight_layers(points), generation
        )

    # -- persistence (see repro.engine.snapshot) ---------------------

    def export_state(self) -> tuple[dict, dict]:
        """Serializable ``(arrays, meta)``: the serving slab's buffers
        plus the build settings and the update state (staleness,
        generation, tightness)."""
        with self._lock:
            view = self._view
            return view.slab.arrays(), {
                "n_partitions": self._n_partitions,
                "appri_kwargs": dict(self._appri_kwargs),
                "staleness": self._staleness,
                "generation": view.generation,
                "tight": view.tight,
            }

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "DynamicRobustIndex":
        """Restore from :meth:`export_state` output: the slab buffers
        are adopted as they are (no build, no re-sort; read-only memory
        maps stay zero-copy until an update patches them)."""
        index = cls.__new__(cls)
        index._init(
            LayeredSlab.from_arrays(arrays), meta["n_partitions"],
            meta["appri_kwargs"], staleness=int(meta["staleness"]),
            generation=int(meta["generation"]), tight=bool(meta["tight"]),
        )
        return index

    @classmethod
    def from_legacy_state(
        cls, arrays: dict, meta: dict
    ) -> "DynamicRobustIndex":
        """Restore the ``(arrays, meta)`` of a file of the released
        ``dynamic-robust`` or ``dynamic-layers`` kind (the snapshot
        module's restorer for those restore-only tags).

        Those files hold every row since the last build, deleted ones
        included (``points``), an ``alive`` mask, and layers stored
        before the deletion compensation (``raw_layers``): the live
        layering is ``max(raw_layers - deletions, 1)`` on the alive
        rows, packed here once.  ``dynamic-layers`` files carry no generation (0)
        and are tight only when nothing was updated since their build.
        """
        points = np.asarray(arrays["points"], dtype=float)
        raw = np.asarray(arrays["raw_layers"], dtype=np.int64)
        alive = np.asarray(arrays["alive"], dtype=bool)
        if raw.shape != (points.shape[0],) or alive.shape != raw.shape:
            raise ValueError("state arrays disagree on the tuple count")
        deletions = int(meta.get("deletions", 0))
        staleness = deletions + int(meta.get("insertions", 0))
        layers = np.maximum(raw - deletions, 1)[alive]
        appri_kwargs = dict(meta.get("appri_kwargs", {}))
        # Older files record build options that never changed the
        # layers and that appri_layers no longer accepts.
        for removed in ("counting", "matching", "chunk_size"):
            appri_kwargs.pop(removed, None)
        index = cls.__new__(cls)
        index._init(
            LayeredSlab.from_layers(points[alive], layers),
            meta["n_partitions"], appri_kwargs, staleness=staleness,
            generation=int(meta.get("generation", 0)),
            tight=bool(meta.get("tight", staleness == 0)),
        )
        return index


def _inserted(slab: LayeredSlab, point: np.ndarray, layer: int) -> LayeredSlab:
    """``slab`` plus tuple ``n`` (the next tid) on ``layer``.

    Tid ``n`` is the largest, so its row goes at the end of its layer's
    run, ``offsets[layer]``; layers past the deepest one are added
    empty first.
    """
    n = slab.points.shape[0]
    offsets = np.concatenate(
        (slab.offsets, np.full(max(layer - slab.n_layers, 0), n))
    )
    at = int(offsets[layer])
    offsets[layer:] += 1
    return LayeredSlab(
        np.concatenate((slab.points, point[None])),
        np.append(slab.layers, layer),
        np.insert(slab.order, at, n),
        offsets,
        np.insert(slab.slab, at, point, axis=0),
    )


def _deleted(slab: LayeredSlab, tid: int) -> LayeredSlab:
    """``slab`` without tuple ``tid``, every layer lowered by one.

    That is the deletion rule of :mod:`repro.core.dynamic`: larger
    tids shift down by one and layers drop by one, floored at 1.  Layers
    1 and 2 merge, so only the new layer-1 run needs re-sorting by tid;
    every deeper run keeps its order.
    """
    layer = int(slab.layers[tid])
    begin, end = slab.offsets[layer - 1], slab.offsets[layer]
    at = int(begin + np.searchsorted(slab.order[begin:end], tid))
    points = np.delete(slab.points, tid, axis=0)
    layers = np.maximum(np.delete(slab.layers, tid) - 1, 1)
    order = np.delete(slab.order, at)
    order -= order > tid
    offsets = slab.offsets - (slab.offsets > at)
    # Old layer c + 1 becomes layer c, old layers 1 and 2 become layer 1.
    offsets = np.concatenate(([0], offsets[min(slab.n_layers, 2):]))
    # Drop emptied top layers: the deepest layer is the first whose
    # offset reaches the tuple count.
    offsets = offsets[: np.searchsorted(offsets, offsets[-1]) + 1]
    rows = np.delete(slab.slab, at, axis=0)
    merged = offsets[min(offsets.size - 1, 1)]
    order[:merged].sort(kind="stable")
    rows[:merged] = points[order[:merged]]
    return LayeredSlab(points, layers, order, offsets, rows)
