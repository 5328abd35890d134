"""Background re-tightening of a dynamic robust index.

:class:`~repro.indexes.dynamic.DynamicRobustIndex` stays *sound*
through any update stream, but each update loosens its layers a little
(insertions get fresh bounds, deletions globally compensate), so
retrieval cost drifts upward — the ``staleness`` counter measures how
far.  :class:`RebuildManager` watches that counter and restores full
tightness in a background worker, without ever blocking readers:

1. **capture** — under the index's update lock (microseconds), take
   the serving view's read-only points and the current update
   ``generation``;
2. **build** — run the full AppRI build on those points with *no*
   lock held, in the build worker process
   (:func:`repro.core.pipeline.appri_layers_in_worker`): the waiting
   thread does not hold the GIL, so concurrent queries keep being
   served by the old view at full speed and concurrent updates keep
   landing;
3. **commit** — under the lock again, install the tight layering and
   atomically swap the serving view *iff* the generation is unchanged.
   If any update raced the build, the result is **discarded** (merging
   a stale layering would be unsound) and the next poll retries.

The discard-don't-merge policy means a sufficiently hot write stream
can starve rebuilds; ``rebuild.discarded`` counts those losses so the
operator can raise ``threshold`` or quiesce writes.  Queries issued at
any point during 1-3 return the exact top-k either way — both views
are sound — so correctness never depends on rebuild timing (the
state machine is documented in docs/ARCHITECTURE.md).

Counters/timers (on any active :mod:`repro.obs` collector and on
:attr:`RebuildManager.metrics`): ``rebuild.runs``,
``rebuild.discarded``, ``rebuild.swaps``,
``rebuild.staleness_cleared``, and the ``rebuild.build`` timer.
"""

from __future__ import annotations

import threading

from .. import obs

__all__ = ["RebuildManager"]


class RebuildManager:
    """Watches ``index.staleness`` and re-tightens in the background.

    Parameters
    ----------
    index:
        A :class:`~repro.indexes.dynamic.DynamicRobustIndex` (anything
        exposing ``staleness`` and the ``begin_rebuild`` /
        ``tight_layers`` / ``commit_rebuild`` protocol).
    threshold:
        Trigger a rebuild once ``staleness >= threshold``.  The
        default re-tightens an order of magnitude more eagerly than
        early releases: full builds run on the vectorized counting
        kernels (:mod:`repro.core.kernels`), so a background rebuild
        costs seconds, not minutes, at the paper's data sizes.
    poll_interval:
        Worker wake-up period in seconds.
    on_swap:
        Optional callable invoked with the index after every committed
        swap — the hook the catalog uses to refresh an on-disk
        snapshot of the freshly tightened index.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.indexes.dynamic import DynamicRobustIndex
    >>> idx = DynamicRobustIndex(
    ...     np.random.default_rng(0).random((40, 2)), n_partitions=4)
    >>> manager = RebuildManager(idx, threshold=2)
    >>> for row in np.random.default_rng(1).random((3, 2)):
    ...     _ = idx.insert(row)
    >>> manager.maybe_rebuild()
    True
    >>> idx.staleness
    0
    """

    def __init__(self, index, threshold: int = 16,
                 poll_interval: float = 0.05, on_swap=None):
        """Validate the policy knobs and wire up (but don't start) the
        worker."""
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self._index = index
        self._threshold = threshold
        self._poll_interval = poll_interval
        self._on_swap = on_swap
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Last exception raised inside the worker (rebuilds keep
        #: running after one failure; inspect this when debugging).
        self.last_error: BaseException | None = None
        #: Lifetime ``rebuild.*`` counters/timers for this manager.
        self.metrics = obs.Metrics()

    @property
    def threshold(self) -> int:
        """Staleness level at which a rebuild is triggered."""
        return self._threshold

    @property
    def running(self) -> bool:
        """Whether the background worker thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "RebuildManager":
        """Launch the background watcher (idempotent); returns self."""
        if not self.running:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._worker, name="repro-rebuild", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 10.0) -> None:
        """Signal the worker to exit and join it.

        If the join times out (a build still running), the thread is
        kept: :attr:`running` stays ``True`` until it has exited.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            if not self._thread.is_alive():
                self._thread = None

    def __enter__(self) -> "RebuildManager":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def maybe_rebuild(self) -> bool:
        """One synchronous check: rebuild iff staleness has crossed the
        threshold.  Returns whether a rebuild was committed."""
        if self._index.staleness < self._threshold:
            return False
        return self.rebuild_now()

    def rebuild_now(self) -> bool:
        """Capture → build (unlocked) → commit-or-discard, once.

        Returns ``True`` when the tight layering was installed,
        ``False`` when a racing update forced a discard.
        """
        index = self._index
        points, generation = index.begin_rebuild()
        staleness = index.staleness
        with obs.collect(self.metrics, propagate=True):
            with obs.timed("rebuild.build"):
                layers = index.tight_layers(points)
            committed = index.commit_rebuild(points, layers, generation)
            obs.inc("rebuild.runs")
            if committed:
                obs.inc("rebuild.staleness_cleared", staleness)
            else:
                obs.inc("rebuild.discarded")
        if committed and self._on_swap is not None:
            self._on_swap(index)
        return committed

    def _worker(self) -> None:
        while not self._stop.is_set():
            try:
                self.maybe_rebuild()
            except Exception as exc:  # keep watching; surface the error
                self.last_error = exc
            self._stop.wait(self._poll_interval)
