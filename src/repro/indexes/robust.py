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
:meth:`LayeredSlab.prefix`.  The slab also ranks that prefix itself,
and the AppRI, exact and dynamic indexes hand both calls to it:
:meth:`LayeredSlab.query_batch` ranks through one routine, and
:meth:`LayeredSlab.query` is that routine's one-vector case written
out (the single-query serving path).
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.appri import appri_build
from ..core.exact import exact_build
from ..core.index import layer_offsets, layer_order
from ..core.qkernel import batch_topk, topk_select
from ..queries.ranking import LinearQuery, check_weights
from .base import (
    QueryResult,
    RankedIndex,
    check_batch_k,
    check_query,
    kernel_result,
    prefix_results,
)

__all__ = ["LayeredSlab", "RobustIndex", "ExactRobustIndex"]


#: Per-thread GEMM output of batch queries, grown (never shrunk) so
#: repeated batches write warm memory: a fresh (64, 2368) float matrix
#: per batch costs page faults that can double the time of the GEMM
#: plus selection.
_SCRATCH = threading.local()


def _score_buffer(size: int) -> np.ndarray:
    """This thread's flat float64 scratch of at least ``size`` entries."""
    buf = getattr(_SCRATCH, "scores", None)
    if buf is None or buf.size < size:
        buf = _SCRATCH.scores = np.empty(max(size, 1))
    return buf[:size]


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
        ``k`` are checked (as :func:`~repro.indexes.base.check_query`
        does).  Under an active collector emits ``index.query`` plus
        ``index.queries`` / ``.candidates`` / ``.layers_scanned``.

        This is the single-query serving path, so it is
        :meth:`_ranked`'s one-vector case written out: a GEMV over the
        prefix and :func:`topk_select`, with no per-call bookkeeping
        beyond one read of the active collector.
        """
        weights = query.weights
        n, d = self.points.shape
        if weights.size != d:
            raise ValueError(
                f"query has {query.dimensions} weights; "
                f"index covers {d} attributes"
            )
        if k < 0:
            raise ValueError("k must be non-negative")
        if k > n:
            k = n
        if k == 0:
            return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
        metrics = obs.active_metrics()
        if metrics is not None:
            started = time.perf_counter()
        offsets = self.offsets
        retrieved = int(offsets[min(k, offsets.size - 1)])
        tids = self.order[:retrieved]
        top = topk_select(self.slab[:retrieved] @ weights, tids, k)
        layers_scanned = int(self.layers[tids[-1]]) if retrieved else 0
        if metrics is not None:
            metrics.add_time("index.query", time.perf_counter() - started)
            metrics.inc("index.queries")
            metrics.inc("index.candidates", retrieved)
            metrics.inc("index.layers_scanned", layers_scanned)
        return kernel_result(top, retrieved, layers_scanned)

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
        depths = np.minimum(check_batch_k(k, len(weights)), n)
        empty = np.zeros(0, dtype=np.intp)
        if not depths.any():
            return [QueryResult(empty, 0, 0) for _ in depths]
        if len(depths) == 1 or depths.min() == depths.max():
            # One k for every row: no grouping.
            order, cuts = None, []
        else:
            # Rows grouped by k in one pass: a stable sort keeps each
            # group's rows in input order.
            order = depths.argsort(kind="stable")
            depths = depths[order]
            cuts = (np.flatnonzero(depths[1:] != depths[:-1]) + 1).tolist()
        results = []
        answered = candidates = 0
        magnitude = None
        with obs.timed("index.batch"):
            for start, stop in zip([0, *cuts], [*cuts, depths.size]):
                depth = int(depths[start])
                if depth == 0:
                    results += [
                        QueryResult(empty, 0, 0) for _ in range(stop - start)
                    ]
                    continue
                if magnitude is None and stop - start > 1:
                    # The deepest prefix's bound serves every group.
                    magnitude = _magnitude(self.prefix(int(depths[-1]))[0])
                top, retrieved, layers_scanned = self._ranked(
                    weights if order is None else weights[order[start:stop]],
                    depth,
                    magnitude,
                )
                answered += stop - start
                candidates += retrieved * (stop - start)
                results += prefix_results(top, retrieved, layers_scanned)
        obs.inc("index.batch.count")
        obs.inc("index.batch.queries", answered)
        obs.inc("index.batch.candidates", candidates)
        if order is None:
            return results
        inverse = np.empty_like(order)
        inverse[order] = np.arange(order.size)
        return [results[i] for i in inverse.tolist()]

    def _ranked(self, weights, k: int, magnitude=None):
        """``(top, retrieved, layers_scanned)`` for ``k >= 1``.

        ``weights`` holds q >= 1 weight vectors; ``top[j]`` is vector
        j's top-k tids under the ``(score, tid)`` tie rule.  One vector
        is a GEMV plus :func:`topk_select`.  More share one GEMM over
        the prefix, written C-order into this thread's grow-only
        scratch, and :func:`batch_topk` selects every row at once.

        The GEMM rounds differently from the GEMV (and differently at
        different output positions, so even twin tuples may not tie).
        :func:`_slack` bounds the two products' difference from the
        prefix's largest ``|attribute|`` (``magnitude``, computed here
        unless given); :func:`batch_topk` keeps a GEMM row only where
        its head climbs by more than twice that, so both rank alike,
        and re-scores any other row with the GEMV: every row equals
        the one-vector answer.
        """
        rows, candidates, layers_scanned = self.prefix(k)
        if len(weights) == 1:
            top = [topk_select(rows @ weights[0], candidates, k)]
        else:
            scores = _score_buffer(len(weights) * candidates.size).reshape(
                len(weights), candidates.size
            )
            np.matmul(weights, rows.T, out=scores)
            if magnitude is None:
                magnitude = _magnitude(rows)
            top = batch_topk(
                scores,
                candidates,
                k,
                slack=_slack(weights, magnitude),
                rescore=lambda j: rows @ weights[j],
            )
        return top, candidates.size, layers_scanned


def _magnitude(rows: np.ndarray) -> float:
    """The largest ``|attribute|`` in ``rows``, or NaN if that is not
    finite: its NaN slack re-scores every batch row."""
    magnitude = float(np.abs(rows).max(initial=0.0))
    return magnitude if magnitude < math.inf else math.nan


def _slack(weights: np.ndarray, magnitude: float) -> np.ndarray:
    """Per row of ``weights``, a bound on how far two ways of rounding
    one score over attributes of at most ``magnitude`` (any order of
    the d products and sums, fused or not) can differ.

    Each lies within ``gamma_d * sum |w_i x_i|`` of the exact value
    (``gamma_d = d u / (1 - d u)``, u the unit roundoff), and
    ``|x_i| <= magnitude``; an underflow term covers subnormal
    products.  The bound is doubled once more as headroom for the
    rounding of the audit's own sums.
    """
    d = weights.shape[1]
    unit = 2.0**-53  # float64 unit roundoff
    gamma = d * unit / (1 - d * unit)
    tiny = d * 5e-324  # the smallest subnormal float64
    return np.abs(weights).sum(axis=1) * (4 * gamma * magnitude) + 4 * tiny


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
