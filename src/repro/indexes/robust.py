"""The robust index (AppRI) as a queryable structure.

Build-time does all the work (:func:`repro.core.appri.appri_layers`);
query-time is the paper's headline simplicity: read the tuples whose
layer is at most k — sequentially, in layer order — and rank them.
No stop-condition bookkeeping is needed, which is why the paper can
express the query as plain SQL.

That storage decision lives in one value, :class:`LayeredSlab`.  Every
layered index (AppRI, exact, Onion/Shell, the dynamic index's serving
view) holds one, built from ``(points, layers)`` or adopted from
snapshot buffers, and reads the candidates of a top-k query through
:meth:`LayeredSlab.prefix`.  The slab also ranks that prefix itself:
:meth:`LayeredSlab.query` and :meth:`LayeredSlab.query_batch` share one
routine, which the AppRI, exact and dynamic indexes hand both calls to.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.appri import appri_build
from ..core.exact import exact_build
from ..core.index import layer_offsets, layer_order
from ..core.qkernel import _scratch_buffer, batch_topk, topk_select
from ..queries.ranking import LinearQuery, check_weights
from .base import QueryResult, RankedIndex, check_batch_k, check_query

__all__ = ["LayeredSlab", "RobustIndex", "ExactRobustIndex"]


#: Batch working memory (GEMM output, kernel buffers): its ``__dict__``
#: is one dict per thread, as :func:`batch_topk` scratch must not be
#: shared by concurrent calls.
_SCRATCH = threading.local()


@dataclass(frozen=True, eq=False, slots=True)
class LayeredSlab:
    """Tuples stored in ``(layer, tid)`` order: one immutable layout.

    Attributes
    ----------
    points:
        ``(n, d)`` data matrix; row i holds tid i.
    layers:
        1-based layer number per tuple.
    order:
        Tids sorted by ``(layer, tid)`` — the sequential storage order.
    offsets:
        ``offsets[c]`` = number of tuples in layers ``<= c``
        (``max_layer + 1`` entries, ``offsets[0] == 0``).
    slab:
        ``points[order]`` as one C-contiguous array, so the candidates
        of a top-k query are the slice ``slab[:offsets[k]]`` —
        sequential memory, no gather.

    The five fields are exactly the buffers of a layered snapshot
    (:mod:`repro.engine.snapshot`): :meth:`arrays` names them and
    :meth:`from_arrays` adopts them as they are — no re-sort, no
    re-pack — so read-only memory maps stay zero-copy.  Every field is
    read-only (a writable input is held through a read-only view), so
    no holder of a slab can write into what other readers see.

    Examples
    --------
    >>> slab = LayeredSlab.from_layers(np.array([[3.0], [1.0], [2.0]]), [2, 1, 1])
    >>> slab.order.tolist(), slab.offsets.tolist()
    ([1, 2, 0], [0, 2, 3])
    >>> rows, tids, layers_scanned = slab.prefix(1)
    >>> rows.ravel().tolist(), tids.tolist(), layers_scanned
    ([1.0, 2.0], [1, 2], 1)
    """

    points: np.ndarray
    layers: np.ndarray
    order: np.ndarray
    offsets: np.ndarray
    slab: np.ndarray

    def __post_init__(self):
        for name in self.__slots__:
            field = getattr(self, name)
            if field.flags.writeable:
                field = field.view()
                field.flags.writeable = False
                object.__setattr__(self, name, field)

    @classmethod
    def from_layers(cls, points, layers) -> "LayeredSlab":
        """Sort and pack ``points`` by ``layers`` (the build path)."""
        points = np.asarray(points, dtype=float)
        layers = np.asarray(layers, dtype=np.intp)
        order = layer_order(layers)
        return cls(
            points,
            layers,
            order,
            layer_offsets(layers),
            np.ascontiguousarray(points[order]),
        )

    @classmethod
    def from_arrays(cls, arrays: dict) -> "LayeredSlab":
        """Adopt the buffers :meth:`arrays` produced (the restore path)."""
        return cls(
            np.asarray(arrays["points"], dtype=float),
            arrays["layers"],
            arrays["order"],
            arrays["offsets"],
            arrays["slab"],
        )

    def arrays(self) -> dict:
        """The fields as named snapshot buffers (integers as int64)."""
        return {
            "points": self.points,
            "layers": np.asarray(self.layers, dtype=np.int64),
            "order": np.asarray(self.order, dtype=np.int64),
            "offsets": np.asarray(self.offsets, dtype=np.int64),
            "slab": self.slab,
        }

    @property
    def n_layers(self) -> int:
        """Deepest layer number (0 for an empty relation)."""
        return self.offsets.size - 1

    def retrieval_cost(self, k: int) -> int:
        """Tuples a top-k query reads: the size of the first k layers."""
        return int(self.offsets[min(max(k, 0), self.offsets.size - 1)])

    def prefix(self, k: int):
        """``(slab rows, tids, layers_scanned)`` of the first k layers.

        Row j of ``slab rows`` holds the attributes of ``tids[j]``;
        both are views.  ``layers_scanned`` is the deepest layer
        touched — the last candidate's, as storage is
        ``(layer, tid)``-ordered.
        """
        c = self.retrieval_cost(k)
        tids = self.order[:c]
        return self.slab[:c], tids, int(self.layers[tids[-1]]) if c else 0

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Exact top-k of one query from the first k layers.

        ``query`` was validated when it was built; only its width and
        ``k`` are checked.  Emits ``index.query`` plus ``index.queries``
        / ``.candidates`` / ``.layers_scanned``.
        """
        k = check_query(query, k, self.points.shape)
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        with obs.timed("index.query"):
            top, retrieved, layers_scanned = self._ranked((query.weights,), k)
        obs.inc("index.queries")
        obs.inc("index.candidates", retrieved)
        obs.inc("index.layers_scanned", layers_scanned)
        return QueryResult(top[0], retrieved, layers_scanned)

    def query_batch(self, queries, k) -> list[QueryResult]:
        """Exact top-k of many queries; row j equals
        ``query(queries[j], k_j)``.

        ``queries`` is an iterable of :class:`LinearQuery` or a ``(q, d)``
        weight matrix whose rows must pass :class:`LinearQuery`'s rule
        (:func:`~repro.queries.ranking.check_weights`).  ``k`` is one
        int for every row or a ``(q,)`` integer array of per-row k
        (:func:`~repro.indexes.base.check_batch_k`).  Row j scores only
        its own prefix ``slab[:offsets[k_j]]``: the rows of each
        distinct k, in input order, take one :meth:`_ranked` pass, so
        row j's ``retrieved`` is :meth:`retrieval_cost` (k_j) and its
        ``layers_scanned`` that prefix's last layer.  Emits
        ``index.batch`` plus ``index.batch.count`` / ``.queries`` /
        ``.candidates`` (rows with k_j = 0 read nothing and are not
        counted).
        """
        n, d = self.points.shape
        if isinstance(queries, np.ndarray):
            weights = np.asarray(queries, dtype=float)
            if weights.ndim != 2 or weights.shape[1] != d:
                raise ValueError(
                    f"weights must be (q, {d}); got shape {weights.shape}"
                )
            check_weights(weights)
        else:
            queries = list(queries)
            for q in queries:
                check_query(q, 0, self.points.shape)  # width; k below
            weights = np.array([q.weights for q in queries]).reshape(-1, d)
        # Row numbers per distinct k (clamped to n), in input order.
        runs: dict[int, list[int]] = {}
        for j, depth in enumerate(check_batch_k(k, len(weights)).tolist()):
            runs.setdefault(min(depth, n), []).append(j)
        results: list = [None] * len(weights)
        for j in runs.pop(0, ()):
            results[j] = QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        if not runs:
            return results
        answered = candidates = 0
        with obs.timed("index.batch"):
            for depth in sorted(runs):
                rows = runs[depth]
                top, retrieved, layers_scanned = self._ranked(
                    weights[rows], depth
                )
                answered += len(rows)
                candidates += retrieved * len(rows)
                for j, tids in zip(rows, top):
                    results[j] = QueryResult(tids, retrieved, layers_scanned)
        obs.inc("index.batch.count")
        obs.inc("index.batch.queries", answered)
        obs.inc("index.batch.candidates", candidates)
        return results

    def _ranked(self, weights, k: int):
        """``(top, retrieved, layers_scanned)`` for ``k >= 1``.

        ``weights`` holds q >= 1 weight vectors; ``top[j]`` is vector
        j's top-k tids under the ``(score, tid)`` tie rule.  One vector
        is a GEMV plus :func:`topk_select`.  More share one GEMM over
        the prefix, written C-order into this thread's grow-only
        scratch (row passes stay contiguous, no per-batch allocation),
        and :func:`batch_topk` selects every row at once.
        """
        rows, candidates, layers_scanned = self.prefix(k)
        if len(weights) == 1:
            top = [topk_select(rows @ weights[0], candidates, k)]
        else:
            scratch = _SCRATCH.__dict__
            scores = _scratch_buffer(
                scratch, "scores", len(weights) * candidates.size, np.float64
            ).reshape(len(weights), candidates.size)
            np.matmul(weights, rows.T, out=scores)
            top = batch_topk(scores, candidates, k, scratch=scratch)
        return top, candidates.size, layers_scanned


class RobustIndex(RankedIndex):
    """Sequentially layered robust index built with AppRI.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix (comparable attribute scales advised).
    n_partitions:
        The paper's B wedge-partition count (default 10, the paper's
        operating point after Figures 6-7).
    systems, refine, workers:
        Forwarded to :func:`repro.core.appri.appri_build`;
        ``workers > 1`` lets large builds fan out over a process pool
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
        systems: str = "complementary",
        refine: str | None = None,
        workers: int = 1,
    ):
        super().__init__(points)
        started = time.perf_counter()
        build = appri_build(
            self._points,
            n_partitions=n_partitions,
            systems=systems,
            refine=refine,
            workers=workers,
        )
        self._build_metrics = build.metrics
        self._build_seconds = time.perf_counter() - started
        self._n_partitions = n_partitions
        self._systems = systems
        self._refine = refine
        self._workers = workers
        self._adopt(LayeredSlab.from_layers(self._points, build.layers))

    def _adopt(self, layered: LayeredSlab) -> None:
        self._layered = layered
        self._points = layered.points

    @property
    def layered(self) -> LayeredSlab:
        """The layer-packed storage every query reads a prefix of."""
        return self._layered

    @property
    def layers(self) -> np.ndarray:
        """1-based layer number per tuple."""
        return self._layered.layers

    @property
    def build_metrics(self) -> dict:
        """Per-phase construction metrics (``build.*``; see
        :mod:`repro.obs`).  Empty for loaded indexes (no rebuild ran).
        """
        return self._build_metrics

    def retrieval_cost(self, k: int) -> int:
        """Tuples a top-k query reads: the size of the first k layers."""
        return self._layered.retrieval_cost(k)

    def query(self, query: LinearQuery, k: int) -> QueryResult:
        """Answer one top-k query from the first k layers
        (:meth:`LayeredSlab.query`)."""
        return self._layered.query(query, k)

    def query_batch(self, queries, k) -> list[QueryResult]:
        """Answer many top-k queries, ``k`` one int or one per row, with
        one GEMM per distinct k over that k-layer prefix
        (:meth:`LayeredSlab.query_batch`)."""
        return self._layered.query_batch(queries, k)

    def build_info(self) -> dict:
        """Build parameters, layer count, build time and metrics."""
        return {
            "method": "appri",
            "n_partitions": self._n_partitions,
            "systems": self._systems,
            "refine": self._refine,
            "workers": self._workers,
            "n_layers": self._layered.n_layers,
            "build_seconds": self._build_seconds,
            "build_metrics": self.build_metrics,
        }

    def export_state(self) -> tuple[dict, dict]:
        """Serializable ``(arrays, meta)``: the slab's buffers plus the
        build parameters (what :mod:`repro.engine.snapshot` persists)."""
        return self._layered.arrays(), {
            "n_partitions": int(self._n_partitions),
            "systems": self._systems,
            "refine": self._refine,
            "workers": int(self._workers),
        }

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "RobustIndex":
        """Restore from :meth:`export_state` output without rebuilding
        (``arrays`` may be read-only memory maps)."""
        index = cls.__new__(cls)
        index._adopt(LayeredSlab.from_arrays(arrays))
        index._build_metrics = {}
        index._build_seconds = 0.0
        index._n_partitions = int(meta.get("n_partitions", 0))
        index._systems = meta.get("systems", "complementary")
        index._refine = meta.get("refine")
        index._workers = int(meta.get("workers", 1))
        return index


class ExactRobustIndex(RobustIndex):
    """Robust index built with an exact solver (d <= 3).

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix with ``d <= 3``; the dimensionality
        picks the solver of :func:`repro.core.exact.exact_build` —
        ``"kinetic"`` (one global rotating sweep, d = 2) or
        ``"prune"`` (bound-driven prune-and-refine, d = 3) — and
        :meth:`build_info` reports it as ``engine``.
    workers:
        Worker processes for the d = 3 refinement fan-out (ignored at
        other dimensionalities).

    Exists for the exactness-gap ablation and for ground-truth tests;
    with the shared-work solvers, n in the tens of thousands (d = 2)
    or thousands (d = 3) is practical.
    """

    name = "ExactRI"

    def __init__(self, points: np.ndarray, workers: int = 1):
        RankedIndex.__init__(self, points)
        started = time.perf_counter()
        build = exact_build(self._points, workers=workers)
        self._build_metrics = build.metrics
        self._build_seconds = time.perf_counter() - started
        self._engine = build.engine
        self._n_partitions = 0
        self._systems = "complementary"
        self._refine = None
        self._workers = workers
        self._adopt(LayeredSlab.from_layers(self._points, build.layers))

    def build_info(self) -> dict:
        """:meth:`RobustIndex.build_info` plus the solver that ran."""
        info = super().build_info()
        info["method"] = "exact"
        info["engine"] = self._engine
        return info

    def export_state(self) -> tuple[dict, dict]:
        """:meth:`RobustIndex.export_state` plus the solver that ran."""
        arrays, meta = super().export_state()
        meta["engine"] = self._engine
        return arrays, meta

    @classmethod
    def from_state(cls, arrays: dict, meta: dict) -> "ExactRobustIndex":
        """Restore with the recorded engine (``None`` for snapshots
        written before the engine was recorded)."""
        index = super().from_state(arrays, meta)
        index._engine = meta.get("engine")
        return index
