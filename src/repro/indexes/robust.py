"""The robust index (AppRI) as a queryable structure.

Build-time does all the work (:func:`repro.core.appri.appri_layers`);
query-time is the paper's headline simplicity: read the tuples whose
layer is at most k — sequentially, in layer order — and rank them.
No stop-condition bookkeeping is needed, which is why the paper can
express the query as plain SQL.
"""

from __future__ import annotations

import time

import numpy as np

from .. import obs
from ..core.appri import appri_build
from ..core.exact import exact_build
from ..core.index import layer_offsets, layer_order
from ..core.qkernel import batch_topk, topk_select
from ..queries.ranking import LinearQuery
from .base import QueryResult, RankedIndex

__all__ = ["RobustIndex", "ExactRobustIndex"]

#: Candidate prefixes at or below this many rows are served from a
#: cached tid-sorted copy of the slab prefix (one per distinct prefix
#: length), which lets :meth:`RobustIndex.query` rank with a single
#: stable ``argsort`` instead of a two-key ``lexsort`` — the dominant
#: cost at small candidate counts.  Larger prefixes fall back to the
#: partition kernel, where duplicating the prefix would cost real
#: memory for no win.
_TID_VIEW_MAX = 8192


class RobustIndex(RankedIndex):
    """Sequentially layered robust index built with AppRI.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix (comparable attribute scales advised).
    n_partitions:
        The paper's B wedge-partition count (default 10, the paper's
        operating point after Figures 6-7).
    counting, matching, workers, chunk_size:
        Forwarded to :func:`repro.core.appri.appri_build`;
        ``workers > 1`` selects the chunked parallel pipeline
        (identical layers, faster build).  Per-phase build metrics are
        kept on :attr:`build_metrics` and summarized by
        :meth:`build_info`.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> data = rng.random((200, 3))
    >>> idx = RobustIndex(data, n_partitions=5)
    >>> res = idx.query(LinearQuery([1, 2, 1]), 10)
    >>> list(res.tids) == list(LinearQuery([1, 2, 1]).top_k(data, 10))
    True
    >>> res.retrieved <= 200
    True
    """

    name = "AppRI"

    def __init__(
        self,
        points: np.ndarray,
        n_partitions: int = 10,
        counting: str = "auto",
        matching: str = "greedy",
        systems: str = "complementary",
        refine: str | None = None,
        workers: int = 1,
        chunk_size: int | None = None,
    ):
        super().__init__(points)
        started = time.perf_counter()
        build = appri_build(
            self._points,
            n_partitions=n_partitions,
            counting=counting,
            matching=matching,
            systems=systems,
            refine=refine,
            workers=workers,
            chunk_size=chunk_size,
        )
        self._layers = build.layers
        self._build_metrics = build.metrics
        self._build_seconds = time.perf_counter() - started
        self._n_partitions = n_partitions
        self._systems = systems
        self._refine = refine
        self._workers = workers
        self._order = layer_order(self._layers)
        self._offsets = layer_offsets(self._layers)
        self._pack_slab()

    def _pack_slab(self) -> None:
        self._slab = np.ascontiguousarray(self._points[self._order])
        # Reusable working memory for the batch path (GEMM output plus
        # the kernel's probe/mask buffers); rebuilt with the slab so a
        # reload never aliases stale shapes.
        self._batch_scratch: dict = {}
        # Per-prefix tid-sorted candidate views (see _tid_view).
        self._tid_views: dict = {}

    def _tid_view(self, prefix: int):
        """``(slab_rows, tids, layers_scanned)`` for a small prefix,
        with rows and tids sorted by ascending tid.

        With candidates in tid order, one stable ``argsort`` of the
        scores realizes the full ``(score, tid)`` lexsort (ties keep
        positional — i.e. tid — order), so the single-query path can
        skip the lexsort's second key pass.  The prefix depends only
        on k, so views are built once and reused across the workload.
        """
        view = self._tid_views.get(prefix)
        if view is None:
            candidates = self._order[:prefix]
            by_tid = np.argsort(candidates)
            view = (
                np.ascontiguousarray(self._slab[:prefix][by_tid]),
                candidates[by_tid],
                int(self._layers[candidates[-1]]) if prefix else 0,
            )
            self._tid_views[prefix] = view
        return view

    @property
    def layers(self) -> np.ndarray:
        """1-based layer number per tuple."""
        return self._layers

    @property
    def build_metrics(self) -> dict:
        """Per-phase construction metrics (``build.*``; see
        :mod:`repro.obs`).  Empty for loaded indexes (no rebuild ran).
        """
        return getattr(self, "_build_metrics", {})

    def retrieval_cost(self, k: int) -> int:
        """Tuples a top-k query reads: the size of the first k layers."""
        c = min(max(k, 0), self._offsets.size - 1)
        return int(self._offsets[c])

    def candidates_for_k(self, k: int) -> np.ndarray:
        """Tids in the first k layers, in sequential storage order."""
        return self._order[: self.retrieval_cost(k)]

    @property
    def slab(self) -> np.ndarray:
        """The points re-materialized in layer order (C-contiguous).

        ``slab[:retrieval_cost(k)]`` is the candidate prefix of a
        top-k query as one cache-friendly slice — row j holds the
        attributes of tid ``candidates_for_k(k)[j]`` — so the query
        path never fancy-indexes the original matrix.
        """
        return self._slab

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Answer one top-k query from the first k layers.

        Small candidate prefixes are ranked with a single stable
        ``argsort`` over a cached tid-sorted view (see
        :meth:`_tid_view`); large ones go through the partition
        kernel.  Both realize the exact ``(score, tid)`` tie rule.
        """
        k = self._check_query(query, k)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        with obs.timed("index.query"):
            prefix = self.retrieval_cost(k)
            if prefix <= _TID_VIEW_MAX:
                slab_rows, cand_tid, layers_scanned = self._tid_view(prefix)
                scores = query.scores(slab_rows)
                order = np.argsort(scores, kind="stable")
                tids = cand_tid[order[:k]]
            else:
                candidates = self._order[:prefix]
                scores = self._slab[:prefix] @ query.weights
                tids = topk_select(scores, candidates, k)
                # The slab is (layer, tid)-ordered, so the deepest
                # layer touched is the last candidate's.
                layers_scanned = (
                    int(self._layers[candidates[-1]]) if prefix else 0
                )
        obs.inc("index.queries")
        obs.inc("index.candidates", prefix)
        obs.inc("index.layers_scanned", layers_scanned)
        return QueryResult(tids, prefix, layers_scanned)

    def build_info(self) -> dict:
        return {
            "method": "appri",
            "n_partitions": self._n_partitions,
            "systems": getattr(self, "_systems", "complementary"),
            "refine": getattr(self, "_refine", None),
            "workers": getattr(self, "_workers", 1),
            "n_layers": int(self._layers.max()) if self.size else 0,
            "build_seconds": self._build_seconds,
            "build_metrics": self.build_metrics,
        }

    def query_batch(self, queries, k: int) -> list[QueryResult]:
        """Vectorized batch answering.

        The robust index's candidate set depends only on k, so a whole
        workload is answered in one shot through :meth:`query_matrix`
        (one GEMM plus the batch top-k kernel).  ``queries`` is an
        iterable of :class:`LinearQuery` or a ``(q, d)`` weight matrix,
        which skips building a query object per row.
        """
        if isinstance(queries, np.ndarray):
            weights = queries
        else:
            queries = list(queries)
            for q in queries:
                self._check_query(q, k)
            weights = np.array([q.weights for q in queries])
        if len(weights) == 0:
            return []
        top, prefix, layers_scanned = self.query_matrix(weights, k)
        return [QueryResult(row, prefix, layers_scanned) for row in top]

    def query_matrix(self, weights, k: int):
        """Answer one top-k query per row of a ``(q, d)`` weight matrix.

        Returns ``(tids, retrieved, layers_scanned)``: a ``(q, k')``
        tid matrix (``k' = min(k, size)``) whose row j is row j's
        exact answer under the ``(score, tid)`` tie rule, plus the
        retrieval cost and layer depth every row shares — the
        candidate set depends only on k.  A single GEMM scores the
        layer-packed slab prefix against every row, then the batch
        kernel (:func:`repro.core.qkernel.batch_topk`) selects each
        row's top k.  The GEMM output and the kernel's working sets
        live in per-index scratch buffers, so repeated batches run
        entirely in warm memory.  Rows are taken as given (monotone,
        like :meth:`query`); emits per-batch ``index.batch*`` counters
        and timers.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.shape[1] != self.dimensions:
            raise ValueError(
                f"weights must be (q, {self.dimensions}); "
                f"got shape {weights.shape}"
            )
        if k < 0:
            raise ValueError("k must be non-negative")
        k = min(k, self.size)
        n_queries = weights.shape[0]
        if k == 0 or n_queries == 0:
            return np.zeros((n_queries, 0), dtype=np.intp), 0, 0
        with obs.timed("index.batch"):
            prefix = self.retrieval_cost(k)
            candidates = self._order[:prefix]
            layers_scanned = (
                int(self._layers[candidates[-1]]) if prefix else 0
            )
            # One GEMM over the contiguous prefix, written into a
            # reused C-order (q, c) buffer: the kernel's row passes
            # stay contiguous per query, with no transpose copy and no
            # fresh multi-megabyte allocation per batch.
            scratch = self._batch_scratch
            scores = scratch.get("scores")
            if scores is None or scores.shape != (n_queries, prefix):
                scores = np.empty((n_queries, prefix))
                scratch["scores"] = scores
            np.matmul(weights, self._slab[:prefix].T, out=scores)
            top = batch_topk(scores, candidates, k, scratch=scratch)
        obs.inc("index.batch.count")
        obs.inc("index.batch.queries", n_queries)
        obs.inc("index.batch.candidates", prefix * n_queries)
        return top, prefix, layers_scanned

    def save(self, path) -> None:
        """Persist the index (data + layers + parameters) as ``.npz``.

        The layered structure is what was expensive to build; loading
        restores it without recomputation.
        """
        np.savez_compressed(
            path,
            points=self._points,
            layers=self._layers,
            n_partitions=np.int64(self._n_partitions),
            systems=np.str_(getattr(self, "_systems", "complementary")),
            refine=np.str_(getattr(self, "_refine", None) or ""),
            format_version=np.int64(1),
        )

    @classmethod
    def load(cls, path) -> "RobustIndex":
        """Restore an index saved with :meth:`save` (no rebuild)."""
        with np.load(path, allow_pickle=False) as archive:
            version = int(archive["format_version"])
            if version != 1:
                raise ValueError(f"unsupported index file version {version}")
            index = cls.__new__(cls)
            RankedIndex.__init__(index, archive["points"])
            index._layers = archive["layers"].astype(np.intp)
            index._n_partitions = int(archive["n_partitions"])
            index._systems = str(archive["systems"])
            index._refine = str(archive["refine"]) or None
            index._build_seconds = 0.0
        index._order = layer_order(index._layers)
        index._offsets = layer_offsets(index._layers)
        index._pack_slab()
        return index


class ExactRobustIndex(RobustIndex):
    """Robust index built with an exact solver (d <= 3).

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix with ``d <= 3``.
    engine:
        Exact engine selection, forwarded to
        :func:`repro.core.exact.exact_build`: ``"auto"`` (default)
        picks the shared-work engine for the dimensionality —
        ``"kinetic"`` (one global rotating sweep, d = 2) or
        ``"prune"`` (bound-driven prune-and-refine, d = 3) — while
        ``"legacy"`` forces the per-tuple reference solver.  All
        engines produce bit-identical layers.
    workers:
        Worker processes for the d = 3 refinement fan-out (ignored by
        the other engines).

    Exists for the exactness-gap ablation and for ground-truth tests;
    with the shared-work engines, n in the tens of thousands (d = 2)
    or thousands (d = 3) is practical.
    """

    name = "ExactRI"

    def __init__(
        self, points: np.ndarray, engine: str = "auto", workers: int = 1
    ):
        RankedIndex.__init__(self, points)
        started = time.perf_counter()
        build = exact_build(self._points, engine=engine, workers=workers)
        self._layers = build.layers
        self._build_metrics = build.metrics
        self._engine = build.engine
        self._workers = workers
        self._build_seconds = time.perf_counter() - started
        self._n_partitions = 0
        self._order = layer_order(self._layers)
        self._offsets = layer_offsets(self._layers)
        self._pack_slab()

    def build_info(self) -> dict:
        info = super().build_info()
        info["method"] = "exact"
        info["engine"] = getattr(self, "_engine", "legacy")
        return info
