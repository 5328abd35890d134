"""A queryable robust index that absorbs updates and hot-swaps views.

:class:`~repro.core.dynamic.DynamicRobustLayers` keeps a layering
*sound* through inserts and deletes but is not itself queryable.
:class:`DynamicRobustIndex` closes the loop: it pairs the maintainer
with an immutable *serving view* (a
:class:`~repro.indexes.robust.LayeredSlab`, the storage
:class:`~repro.indexes.robust.RobustIndex` queries) and republishes a
fresh view after every mutation.

The design rule is single-writer / lock-free readers:

* every mutation (``insert`` / ``delete`` / rebuild commit) happens
  under one lock and ends by *atomically replacing* the view reference;
* readers (:meth:`query`) grab the current view once and run entirely
  against that object — a concurrent swap cannot tear their answer,
  they simply finish on the version they started with.

Because both the old (stale-but-sound) and new (tight) layerings are
sound, a query served during a rebuild returns the *same exact top-k
tids* either way; only its ``retrieved`` cost differs.  This is the
invariant :class:`repro.engine.rebuild.RebuildManager` relies on to
re-tighten layers in a background thread without ever blocking reads.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

import numpy as np

from .. import obs
from ..core.appri import appri_layers
from ..core.dynamic import DynamicRobustLayers
from ..core.qkernel import topk_select
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex
from .robust import LayeredSlab

__all__ = ["DynamicRobustIndex"]


class _View(NamedTuple):
    """One published generation of the index.

    ``slab`` holds everything a query touches, so reads never consult
    the mutable maintainer; ``generation`` identifies the update state
    it was packed from; ``tight`` records whether the layers are fresh
    from a full build (as opposed to update-compensated bounds).
    """

    slab: LayeredSlab
    generation: int
    tight: bool


class DynamicRobustIndex(RankedIndex):
    """Sound robust index under inserts/deletes, with atomic view swap.

    Parameters mirror :class:`~repro.indexes.robust.RobustIndex`
    (``n_partitions`` plus any :func:`~repro.core.appri.appri_layers`
    keyword).  Tids refer to rows of the *current alive order* — the
    matrix :attr:`points` exposes — and are re-assigned by deletions,
    exactly like :meth:`DynamicRobustLayers.insert`'s return value.

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
        """Build tight AppRI layers over ``points`` and publish the
        first serving view."""
        maintainer = DynamicRobustLayers(
            points, n_partitions=n_partitions, **appri_kwargs
        )
        self._init_from_maintainer(maintainer, generation=0, tight=True)

    def _init_from_maintainer(self, maintainer, generation: int,
                              tight: bool) -> None:
        self._maintainer = maintainer
        self._lock = threading.RLock()
        self._generation = generation
        self._publish(tight)

    # -- read side ---------------------------------------------------

    @property
    def points(self) -> np.ndarray:
        """Alive tuples, in the row order tids refer to."""
        return self._view.slab.points

    @property
    def size(self) -> int:
        """Number of alive tuples in the serving view."""
        return self._view.slab.points.shape[0]

    @property
    def dimensions(self) -> int:
        """Attribute count of the indexed relation."""
        return self._view.slab.points.shape[1]

    @property
    def layers(self) -> np.ndarray:
        """Current sound 1-based layers (per alive tuple)."""
        return self._view.slab.layers

    @property
    def staleness(self) -> int:
        """Updates absorbed since the last full (re)build."""
        return self._maintainer.staleness

    @property
    def generation(self) -> int:
        """Monotone update counter (bumped by insert/delete/rebuild)."""
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
        slab = self._view.slab  # one atomic grab; swaps cannot tear us
        if query.dimensions != slab.points.shape[1]:
            raise ValueError(
                f"query has {query.dimensions} weights; "
                f"index covers {slab.points.shape[1]} attributes"
            )
        if k < 0:
            raise ValueError("k must be non-negative")
        k = min(k, slab.points.shape[0])
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        with obs.timed("index.query"):
            rows, candidates, layers_scanned = slab.prefix(k)
            tids = topk_select(rows @ query.weights, candidates, k)
        obs.inc("index.queries")
        obs.inc("index.candidates", candidates.size)
        obs.inc("index.layers_scanned", layers_scanned)
        return QueryResult(tids, candidates.size, layers_scanned)

    def build_info(self) -> dict:
        """Maintenance state: staleness, tightness, generation."""
        return {
            "method": "dynamic-appri",
            "n_partitions": self._maintainer._n_partitions,
            "staleness": self.staleness,
            "tight": self.tight,
            "generation": self._generation,
            "n_layers": self._view.slab.n_layers,
        }

    # -- write side --------------------------------------------------

    def insert(self, point) -> int:
        """Add a tuple (sound, no rebuild); returns its tid."""
        with self._lock:
            position = self._maintainer.insert(point)
            self._generation += 1
            self._publish(tight=False)
            return position

    def delete(self, position: int) -> None:
        """Remove the alive tuple at ``position`` (sound, no rebuild)."""
        with self._lock:
            self._maintainer.delete(position)
            self._generation += 1
            self._publish(tight=False)

    def _publish(self, tight: bool) -> None:
        # Maintainer accessors hand back fresh arrays (fancy-indexed
        # copies), so the new view shares nothing mutable.
        slab = LayeredSlab.from_layers(
            self._maintainer.points, self._maintainer.layers()
        )
        self._view = _View(slab, self._generation, tight)

    # -- rebuild protocol (used by RebuildManager) -------------------

    def begin_rebuild(self) -> tuple[np.ndarray, int]:
        """Capture ``(alive points, generation)`` for an out-of-band
        tight rebuild; the expensive build then runs without any lock.
        """
        with self._lock:
            return self._maintainer.points, self._generation

    def commit_rebuild(self, points, layers, generation: int) -> bool:
        """Install a tight layering computed from :meth:`begin_rebuild`.

        Returns ``False`` (and changes nothing) when an update landed
        after the capture — the stale result must be discarded, never
        merged, to keep the layering sound.  On success the maintainer
        resets (staleness 0) and the serving view swaps atomically.
        """
        with self._lock:
            if generation != self._generation:
                return False
            self._maintainer.install(points, layers)
            self._publish(tight=True)
            obs.inc("rebuild.swaps")
            return True

    def rebuild(self) -> bool:
        """Synchronously recompute tight layers and swap the view."""
        points, generation = self.begin_rebuild()
        layers = appri_layers(
            points,
            n_partitions=self._maintainer._n_partitions,
            **self._maintainer._appri_kwargs,
        )
        return self.commit_rebuild(points, layers, generation)

    # -- persistence (see repro.engine.snapshot) ---------------------

    def export_state(self) -> tuple[dict, dict]:
        """Serializable ``(arrays, meta)`` including staleness state."""
        with self._lock:
            arrays, meta = self._maintainer.export_state()
            meta = dict(meta)
            meta["generation"] = self._generation
            meta["tight"] = bool(self._view.tight)
            return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "DynamicRobustIndex":
        """Restore from :meth:`export_state` output (repacks the view
        from the stored sound layers — cheap, no AppRI build)."""
        index = cls.__new__(cls)
        index._init_from_maintainer(
            DynamicRobustLayers.from_state(arrays, meta),
            generation=int(meta.get("generation", 0)),
            tight=bool(meta.get("tight", True)),
        )
        return index
