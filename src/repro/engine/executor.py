"""Top-k query execution over the catalog.

Three physical plans, mirroring the paper's deployment story:

``index``
    Route to an attached :class:`~repro.indexes.base.RankedIndex`
    (``USING INDEX name``).
``layer-prefix``
    The paper's SQL integration: the relation carries a ``layer``
    column, which :meth:`~repro.engine.catalog.Catalog.layering` packs
    into a layer-ordered :class:`~repro.indexes.robust.LayeredSlab`;
    ``WHERE layer <= c`` reads that slab's prefix and ranks it.
``scan``
    Full sequential scan (also the fallback for non-monotone
    ``ORDER BY`` expressions, which layered monotone indexes cannot
    serve).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.qkernel import topk_select
from ..indexes.base import K_MAX
from ..indexes.robust import LayeredSlab
from ..queries.ranking import LinearQuery
from .cache import ResultCache, canonical_weight_keys
from .catalog import LAYER_COLUMN, Catalog
from .relation import Relation
from .schema import Attribute
from .sql import ParsedQuery, parse

__all__ = ["ExecutionResult", "TopKExecutor", "materialize_layers"]

_new_result = object.__new__


class _LazyRows:
    """``ExecutionResult.rows``: a field whose value may be gathered on
    first read.

    An index-plan result holds ``(gather, j)`` instead of a
    :class:`Relation`: the first read of any such result gathers every
    answer of its index group at once (one gather per column) and each
    result keeps its own slice.  A data
    descriptor, so the frozen dataclass's ``__init__`` (and therefore
    :func:`dataclasses.replace`) store through it like any field.
    """

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("rows")  # the field has no default
        rows = result.__dict__["_rows"]
        if type(rows) is tuple:
            gather, j = rows
            rows = result.__dict__["_rows"] = gather.rows(j)
        return rows

    def __set__(self, result, rows) -> None:
        result.__dict__["_rows"] = rows


class _Gather:
    """The rows of one batch's answers, gathered together on demand."""

    __slots__ = ("relation", "tids", "gathered")

    def __init__(self, relation: Relation, tids: list):
        self.relation = relation
        self.tids = tids
        self.gathered = None

    def rows(self, j: int) -> Relation:
        """Answer ``j``'s rows (gathering the whole batch on the first
        call)."""
        if self.gathered is None:
            self.gathered = self.relation.take_many(self.tids)
        return self.gathered[j]


@dataclass(frozen=True)
class ExecutionResult:
    """Answer plus the cost accounting the experiments report.

    ``rows`` are the answer's rows in rank order; index-plan results
    gather them, for their whole index group, on first read.
    """

    tids: np.ndarray
    rows: Relation = _LazyRows()
    retrieved: int
    blocks_read: int
    plan: str
    extra: dict = field(default_factory=dict)

    @property
    def metrics(self) -> dict:
        """Per-query observability snapshot (``query.*`` counters and
        timers; see :mod:`repro.obs`).  Empty for ``explain`` results.
        """
        return self.extra.get("metrics", {})


def materialize_layers(
    catalog: Catalog, table_name: str, layers
) -> LayeredSlab:
    """Add a ``layer`` column to a table; return its layered storage.

    The catalog's table is replaced by the extended relation (same
    name; indexes over its rows stay attached).  Layers are 1-based.
    Returns :meth:`Catalog.layering` of the new table.
    """
    relation = catalog.table(table_name)
    layers = np.asarray(layers, dtype=np.int64)
    if layers.shape != (relation.n_rows,):
        raise ValueError("layers must assign one value per row")
    if LAYER_COLUMN in relation.schema:
        raise ValueError(f"table {table_name!r} already has a layer column")
    if layers.size and layers.min() < 1:
        raise ValueError("layers are 1-based; found a value < 1")
    catalog.replace_table(
        relation.with_column(Attribute(LAYER_COLUMN, "int"), layers)
    )
    return catalog.layering(table_name)


def _index_columns(relation: Relation) -> dict[str, int]:
    """Attribute -> weight position for the relation's indexes.

    Indexes cover the table's float attributes in schema order;
    attributes a statement does not rank get weight zero.
    """
    floats = [a.name for a in relation.schema if a.kind == "float"]
    return {name: j for j, name in enumerate(floats)}


class TopKExecutor:
    """Executes parsed (or textual) ranked top-k statements.

    Parameters
    ----------
    catalog, block_size:
        The table/index registry and the paged-storage block size used
        for block accounting.
    cache_size:
        Capacity of the prefix-closed result cache serving index plans
        (see :class:`~repro.engine.cache.ResultCache`); 0 (the
        default) disables caching.  Caching never changes the tids a
        statement returns — on a hit ``retrieved`` is 0 and
        ``extra['cache'] == 'hit'``.  Entries are keyed on the table's
        content version, so :meth:`Catalog.replace_table` invalidates
        them automatically.
    """

    def __init__(
        self, catalog: Catalog, block_size: int = 64, cache_size: int = 0
    ):
        self._catalog = catalog
        self._block_size = block_size
        self._planner = None
        #: Result cache for index-plan answers; ``None`` when disabled.
        self.cache = ResultCache(cache_size) if cache_size > 0 else None
        #: Cumulative ``query.*`` metrics across every query this
        #: executor has run (per-query snapshots ride on each
        #: :attr:`ExecutionResult.metrics`).
        self.metrics = obs.Metrics()

    def _blocks(self, tuples: int) -> int:
        """Blocks a sequential read of ``tuples`` tuples touches."""
        return -(-tuples // self._block_size)

    @property
    def planner(self):
        """Lazily constructed cost-based planner over this catalog."""
        if self._planner is None:
            from .planner import CostBasedPlanner

            self._planner = CostBasedPlanner(
                self._catalog, block_size=self._block_size
            )
        return self._planner

    def explain(self, statement: str | ParsedQuery) -> str:
        """Rank the physical plans for a statement without executing."""
        query = parse(statement) if isinstance(statement, str) else statement
        return self.planner.explain(query.table, query.k)

    def execute(self, statement: str | ParsedQuery) -> ExecutionResult:
        """Execute one statement as written.

        ``USING INDEX`` and ``layer <=`` are honoured; any other
        statement scans.  An index plan is a one-row group of
        :meth:`execute_many`'s index path.
        """
        return self._route([statement], planned=False)[0]

    def execute_auto(self, statement: str | ParsedQuery) -> ExecutionResult:
        """Execute with cost-based plan selection.

        Explicit ``USING INDEX`` hints and ``layer <=`` predicates are
        honoured as written; otherwise the planner picks the cheapest
        of scan / layer-prefix / attached robust index.  A non-monotone
        ORDER BY, or one on a non-float attribute, always scans
        (layered plans cannot serve it).
        """
        return self._route([statement], planned=True)[0]

    def execute_many(self, statements) -> list[ExecutionResult]:
        """Answer many statements, set at a time where the engine can.

        Statements are routed as :meth:`execute_auto` routes them, the
        planner asked once per ``(table, k)`` per call, and index-plan
        statements answered per (table, index) group, whatever their k
        (see :meth:`_execute_index_batch`).  Results come back in input
        order, with the answers and errors of single-statement
        execution.
        """
        return self._route(statements, planned=True)

    def _route(self, statements, planned: bool) -> list[ExecutionResult]:
        """The one router behind :meth:`execute`, :meth:`execute_auto`
        and :meth:`execute_many`.

        ``EXPLAIN`` explains.  ``USING INDEX`` joins that index's group
        (a ``layer <=`` beside it is ignored) and ``layer <=`` reads the
        layer prefix.  Any other statement scans unless ``planned``;
        then the planner's choice for its ``(table, k)``, made once per
        call, routes it: an index's group, the layer prefix ``layer <=
        k`` if the statement is one an index could serve (else a scan,
        which raises for what no plan serves), or a scan.  Statements
        answered alone run in input order as they are routed, then each
        index group runs.
        """
        parsed = [parse(s) if isinstance(s, str) else s for s in statements]
        results: list[ExecutionResult | None] = [None] * len(parsed)
        routes: dict[tuple, object] = {}
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(parsed):
            if query.explain:
                results[i] = self._explain_result(query)
                continue
            index_name = query.index_hint
            bound = query.layer_bound
            if index_name is None and bound is None and planned:
                route = (query.table, query.k)
                chosen = routes.get(route)
                if chosen is None:
                    chosen = routes[route] = self.planner.choose(*route)
                if chosen.kind == "index":
                    index_name = chosen.index_name
                elif chosen.kind == "layer-prefix" and self._weight_matrix(
                    self._catalog.table(query.table), [query]
                )[1][0]:
                    bound = query.k
            if index_name is None:
                results[i] = self._execute_single(query, bound)
            else:
                groups.setdefault((query.table, index_name), []).append(i)
        for (table, index_name), members in groups.items():
            self._execute_index_batch(
                table, index_name, members, parsed, results
            )
        return results

    def _explain_result(self, query: ParsedQuery) -> ExecutionResult:
        none = np.zeros(0, dtype=np.intp)
        rows = self._catalog.table(query.table).take(none)
        text = self.planner.explain(query.table, query.k)
        return ExecutionResult(none, rows, 0, 0, "explain", {"text": text})

    def _weight_matrix(self, relation, queries):
        """``(m, d)`` index weights for ``queries`` plus a mask of the
        rows a monotone index can serve.

        Statements ranking the same attributes in the same order (one
        statement shape) share one tuple of column slots, so each such
        run of rows is one scatter of their ``ORDER BY`` values.  A row
        is servable when every attribute it ranks is indexed and its
        weights are finite, non-negative and not all zero.
        """
        position = _index_columns(relation)
        m, d = len(queries), len(position)
        # Attribute tuple -> [rows, values]; one entry per shape.
        shapes: dict[tuple, list] = {}
        for r, query in enumerate(queries):
            order_by = query.order_by
            names = tuple(order_by)
            entry = shapes.get(names)
            if entry is None:
                entry = shapes[names] = [[], []]
            entry[0].append(r)
            entry[1] += order_by.values()
        servable = np.ones(m, dtype=bool)
        weights = np.zeros((m, d))
        for names, (rows, values) in shapes.items():
            if not all(name in position for name in names):
                servable[rows] = False
            elif names:
                columns = [position[name] for name in names]
                weights[np.array(rows)[:, None], columns] = np.array(
                    values, dtype=float
                ).reshape(len(rows), len(names))
        servable &= (
            ((weights >= 0) & (weights < np.inf)).all(axis=1)
            & weights.any(axis=1)
        )
        return weights, servable

    def _execute_index_batch(
        self, table, index_name, members, parsed, results
    ) -> None:
        """Answer the index group ``members`` (rows of ``parsed``) into
        ``results``; rows it cannot serve go through :meth:`_unserved`.

        Array operations throughout: one ``(m, d)`` weight matrix, one
        validity check, one key normalization shared by the result-cache
        probe and store, one ``query_batch`` call for the misses (the
        weight matrix and per-row k; for a layered index one GEMM per
        distinct k), one cache store of the misses (one copy of their
        answers) and, on the first read of any answer's ``rows``, one
        gather per column.  Every result carries the group's
        ``query.*`` / ``cache.*`` metrics snapshot and ``batch_size``
        (its row count) in ``extra``.
        """
        relation = self._catalog.table(table)
        queries = [parsed[i] for i in members]
        weights, servable = self._weight_matrix(relation, queries)
        # A TOP beyond the intp range asks for the full ranking: K_MAX.
        ks = np.array([min(query.k, K_MAX) for query in queries], dtype=np.intp)
        servable &= ks >= 0
        if not servable.all():
            for r in np.flatnonzero(~servable).tolist():
                results[members[r]] = self._unserved(parsed[members[r]])
            members = [i for i, ok in zip(members, servable.tolist()) if ok]
            weights = weights[servable]
            ks = ks[servable]
        if not members:
            return
        index = self._catalog.index(table, index_name)
        m = len(members)
        cache = self.cache
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            # Per row: tids (None until answered), tuples read, layers
            # scanned.  Cache hits read nothing.
            if cache is not None:
                scope = (table, index_name, self._catalog.table_version(table))
                keys = canonical_weight_keys(weights)
                tids = cache.lookup_keys(scope, keys, ks)
                misses = [j for j, hit in enumerate(tids) if hit is None]
            else:
                tids = [None] * m
                misses = list(range(m))
            retrieved = [0] * m
            layers = [0] * m
            if misses:
                answers = index.query_batch(weights[misses], ks[misses])
                for j, answer in zip(misses, answers):
                    tids[j] = answer.tids
                    retrieved[j] = answer.retrieved
                    layers[j] = answer.layers_scanned
                if cache is not None:
                    cache.store_keys(
                        scope,
                        [keys[j] for j in misses],
                        ks[misses],
                        [tids[j] for j in misses],
                    )
            blocks = [self._blocks(r) for r in retrieved]
            local.add_time("query.index", time.perf_counter() - started)
            local.inc("query.count", m)
            local.inc("query.batches")
            local.inc("query.retrieved", sum(retrieved))
            local.inc("query.blocks_read", sum(blocks))
        self.metrics.merge(local)
        snapshot = local.as_dict()
        plan = f"index({index_name})"
        gather = _Gather(relation, tids)
        if cache is not None:
            state = ["hit"] * m
            for j in misses:
                state[j] = "miss"
        new = _new_result
        for j, i in enumerate(members):
            extra = {
                "layers_scanned": layers[j],
                "metrics": snapshot,
                "batch_size": m,
            }
            if cache is not None:
                extra["cache"] = state[j]
            # ExecutionResult's fields without its frozen __init__;
            # rows stay pending until read (see _LazyRows).
            result = results[i] = new(ExecutionResult)
            result.__dict__.update(
                tids=tids[j],
                _rows=(gather, j),
                retrieved=retrieved[j],
                blocks_read=blocks[j],
                plan=plan,
                extra=extra,
            )

    def _unserved(self, query: ParsedQuery) -> ExecutionResult:
        """A statement its index or layer-prefix plan cannot serve.

        An unhinted one scans (a negative weight or a non-indexed
        attribute; the scan raises for what no plan serves).  A hinted
        one raises what the index plan raises alone: the checks of
        :meth:`_ranking`, then a negative weight, an unknown index or a
        non-indexed attribute.
        """
        if query.index_hint is None:
            return self._execute_single(query, None)
        relation = self._catalog.table(query.table)
        if np.any(self._ranking(query, relation).weights < 0):
            raise ValueError(
                "monotone layered indexes cannot serve negative weights; "
                "drop the USING INDEX hint to fall back to a scan"
            )
        self._catalog.index(query.table, query.index_hint)
        _check_covered(relation, query, f"index {query.index_hint!r}")
        raise AssertionError(f"an index can serve {query}")

    def _ranking(self, query: ParsedQuery, relation) -> LinearQuery:
        """The statement's ``ORDER BY`` as a (not necessarily monotone)
        :class:`LinearQuery`; raises for a negative k, an unknown
        attribute, or weights that are not finite or all zero."""
        if query.k < 0:
            raise ValueError("k must be non-negative")
        for attr in query.order_by:
            if attr not in relation.schema:
                raise KeyError(
                    f"ORDER BY references unknown attribute {attr!r} "
                    f"on table {query.table!r}"
                )
        return LinearQuery(
            list(query.order_by.values()), require_monotone=False
        )

    def _execute_single(self, query: ParsedQuery, bound) -> ExecutionResult:
        """A scan (``bound`` is ``None``) or a read of the layer prefix
        ``layer <= bound``, with its own ``query.*`` metrics.

        Nothing inside emits metrics, so they are built once, as the
        result's snapshot, and merged into :attr:`metrics` and any
        active collector (no collector of its own).
        """
        started = time.perf_counter()
        relation = self._catalog.table(query.table)
        linear = self._ranking(query, relation)
        if bound is None:
            plan = kind = "scan"
            data = relation.matrix(list(query.order_by))
            candidates = relation.tids()
            # The scores LinearQuery.top_k ranks by (``data @ w``).
            scores = linear.scores(data)
        else:
            plan, kind = f"layer-prefix(<= {bound})", "layer-prefix"
            slab = self._catalog.layering(query.table)
            if slab is None:
                raise KeyError(
                    f"table {query.table!r} has no materialized "
                    f"{LAYER_COLUMN!r} column; call materialize_layers "
                    "first"
                )
            _check_covered(relation, query, "the layer prefix")
            weights = self._weight_matrix(relation, [query])[0][0]
            # Layer-ordered storage: the rows with layer <= c are
            # exactly the slab's first offsets[c].
            rows, candidates, _ = slab.prefix(bound)
            scores = rows @ weights
        tids = topk_select(scores, candidates, query.k)
        retrieved = candidates.size
        blocks = self._blocks(retrieved)
        answer = relation.take(tids)
        snapshot = {
            "counters": {
                "query.count": 1,
                "query.retrieved": retrieved,
                "query.blocks_read": blocks,
            },
            "timers": {f"query.{kind}": time.perf_counter() - started},
        }
        self.metrics.merge(snapshot)
        outer = obs.active_metrics()
        if outer is not None:
            outer.merge(snapshot)
        return ExecutionResult(
            tids, answer, retrieved, blocks, plan, {"metrics": snapshot}
        )


def _check_covered(relation: Relation, query: ParsedQuery, plan: str) -> None:
    """Raise ``ValueError`` naming ``plan`` when ``query`` ranks an
    attribute its indexes and layering do not cover (the table's float
    attributes)."""
    position = _index_columns(relation)
    unknown = [a for a in query.order_by if a not in position]
    if unknown:
        raise ValueError(f"{plan} does not cover {unknown}")
