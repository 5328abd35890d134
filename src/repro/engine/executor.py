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
from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs
from ..core.qkernel import topk_select
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

    A result built by :meth:`TopKExecutor.execute_many`'s batch path
    holds ``(gather, j)`` instead of a :class:`Relation`: the first read
    of any such result gathers every answer of its batch at once (one
    gather per column) and each result keeps its own slice.  A data
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

    ``rows`` are the answer's rows in rank order; results of a batched
    :meth:`TopKExecutor.execute_many` group gather them on first read.
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

    def execute_auto(self, statement: str | ParsedQuery) -> ExecutionResult:
        """Execute with cost-based plan selection.

        Explicit ``USING INDEX`` hints and ``layer <=`` predicates are
        honoured as written; otherwise the planner picks the cheapest
        of scan / layer-prefix / attached robust index.  A non-monotone
        ORDER BY, or one on a non-float attribute, always scans
        (layered plans cannot serve it).
        """
        query = parse(statement) if isinstance(statement, str) else statement
        if query.explain:
            return self._explain_result(query)
        if query.index_hint is not None or query.layer_bound is not None:
            return self.execute(query)
        weights = np.array(list(query.order_by.values()))
        covered = _index_columns(self._catalog.table(query.table))
        if np.any(weights < 0) or not query.order_by.keys() <= covered.keys():
            return self.execute(query)
        chosen = self.planner.choose(query.table, query.k)
        if chosen.kind == "layer-prefix":
            query = ParsedQuery(
                k=query.k,
                table=query.table,
                order_by=query.order_by,
                layer_bound=query.k,
            )
        elif chosen.kind == "index":
            query = ParsedQuery(
                k=query.k,
                table=query.table,
                order_by=query.order_by,
                index_hint=chosen.index_name,
            )
        return self.execute(query)

    def _explain_result(self, query: ParsedQuery) -> ExecutionResult:
        relation = self._catalog.table(query.table)
        text = self.planner.explain(query.table, query.k)
        return ExecutionResult(
            tids=np.zeros(0, dtype=np.intp),
            rows=relation.take(np.zeros(0, dtype=np.intp)),
            retrieved=0,
            blocks_read=0,
            plan="explain",
            extra={"text": text},
        )

    def execute(self, statement: str | ParsedQuery) -> ExecutionResult:
        query = parse(statement) if isinstance(statement, str) else statement
        if query.explain:
            return self._explain_result(query)
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            result = self._execute_parsed(query)
            elapsed = time.perf_counter() - started
            plan_kind = result.plan.split("(", 1)[0]
            local.add_time(f"query.{plan_kind}", elapsed)
            local.inc("query.count")
            local.inc("query.retrieved", result.retrieved)
            local.inc("query.blocks_read", result.blocks_read)
        self.metrics.merge(local)
        extra = dict(result.extra)
        extra["metrics"] = local.as_dict()
        return replace(result, extra=extra)

    def _planned_index(self, table: str, k: int) -> str | None:
        """The index the planner routes an unhinted monotone top-k on
        ``table`` to, or ``None`` when it prefers another plan."""
        chosen = self.planner.choose(table, k)
        return chosen.index_name if chosen.kind == "index" else None

    def execute_many(self, statements) -> list[ExecutionResult]:
        """Answer many statements, set at a time where the engine can.

        Statements that route to an index plan — through a ``USING
        INDEX`` hint or, resolved once per ``(table, k)`` per call,
        the planner — are grouped by (table, index), whatever their k.
        Each group is answered with array operations: one ``(m, d)``
        weight matrix (one scatter of the ``ORDER BY`` values per
        attribute tuple), one vectorized validity check, one key
        normalization shared by the batched result-cache probe and
        store, one ``query_batch`` call for the misses, handed the
        weight matrix and the per-row k (for a layered index, one GEMM
        per distinct k through
        :meth:`~repro.indexes.robust.LayeredSlab.query_batch`), and, on
        the first read of any answer's ``rows``, one gather per column
        for the whole group.
        Everything else — ``EXPLAIN``, ``layer <=``
        predicates, planner scans, and group rows with negative, zero,
        non-finite or non-indexed weights — goes through
        :meth:`execute_auto` per statement, so errors and answers are
        exactly those of single-statement execution.  Results come
        back in input order; each batched result carries its group's
        ``query.*`` / ``cache.*`` metrics snapshot and ``batch_size``
        (the group's row count) in ``extra``.
        """
        parsed = [
            parse(s) if isinstance(s, str) else s for s in statements
        ]
        results: list[ExecutionResult | None] = [None] * len(parsed)
        routes: dict[tuple, str | None] = {}
        groups: dict[tuple, list[int]] = {}
        for i, query in enumerate(parsed):
            index_name = None
            if not query.explain and query.layer_bound is None:
                index_name = query.index_hint
                if index_name is None:
                    route = (query.table, query.k)
                    if route not in routes:
                        routes[route] = self._planned_index(*route)
                    index_name = routes[route]
            if index_name is None:
                results[i] = self.execute_auto(query)
            else:
                groups.setdefault((query.table, index_name), []).append(i)
        for (table, index_name), members in groups.items():
            self._execute_index_batch(
                table, index_name, members, parsed, results
            )
        return results

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
        relation = self._catalog.table(table)
        index = self._catalog.index(table, index_name)
        queries = [parsed[i] for i in members]
        weights, servable = self._weight_matrix(relation, queries)
        ks = np.array([query.k for query in queries], dtype=np.intp)
        servable &= ks >= 0
        if not servable.all():
            # Single-statement semantics: a scan for negative weights,
            # or execute()'s own error for what no plan can serve.
            for r in np.flatnonzero(~servable).tolist():
                results[members[r]] = self.execute_auto(parsed[members[r]])
            members = [i for i, ok in zip(members, servable.tolist()) if ok]
            weights = weights[servable]
            ks = ks[servable]
        if not members:
            return
        m = len(members)
        cache = self.cache
        local = obs.Metrics()
        with obs.collect(local):
            started = time.perf_counter()
            # Per row: tids (None until answered), tuples read, layers
            # scanned.  Cache hits read nothing.
            if cache is not None:
                scope = self._cache_scope(table, index_name)
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

    def _execute_parsed(self, query: ParsedQuery) -> ExecutionResult:
        relation = self._catalog.table(query.table)
        if query.k < 0:
            raise ValueError("k must be non-negative")

        ranked_attrs = list(query.order_by)
        for attr in ranked_attrs:
            if attr not in relation.schema:
                raise KeyError(
                    f"ORDER BY references unknown attribute {attr!r} "
                    f"on table {query.table!r}"
                )
        weights = np.array([query.order_by[a] for a in ranked_attrs])
        linear = LinearQuery(weights, require_monotone=False)

        if query.index_hint is not None:
            if not np.all(weights >= 0):
                raise ValueError(
                    "monotone layered indexes cannot serve negative weights; "
                    "drop the USING INDEX hint to fall back to a scan"
                )
            return self._execute_with_index(query, relation)
        if query.layer_bound is not None:
            return self._execute_layer_prefix(query, relation)
        return self._execute_scan(query, relation, linear, ranked_attrs)

    def _index_weights(
        self, relation, plan: str, order_by: dict
    ) -> np.ndarray:
        """``order_by`` as one weight per float attribute, in schema
        order — the columns an index or layering covers; ``plan`` names
        the plan in the error for any other attribute."""
        position = _index_columns(relation)
        unknown = [a for a in order_by if a not in position]
        if unknown:
            raise ValueError(f"{plan} does not cover {unknown}")
        weights = np.zeros(len(position))
        for name, weight in order_by.items():
            weights[position[name]] = weight
        return weights

    def _cache_scope(self, table: str, index_name: str) -> tuple:
        return (table, index_name, self._catalog.table_version(table))

    def _execute_with_index(self, query, relation) -> ExecutionResult:
        index = self._catalog.index(query.table, query.index_hint)
        full = self._index_weights(
            relation, f"index {query.index_hint!r}", query.order_by
        )
        if self.cache is not None:
            scope = self._cache_scope(query.table, query.index_hint)
            hit = self.cache.lookup(scope, full, query.k)
            if hit is not None:
                return ExecutionResult(
                    tids=hit,
                    rows=relation.take(hit),
                    retrieved=0,
                    blocks_read=0,
                    plan=f"index({query.index_hint})",
                    extra={"cache": "hit"},
                )
        result = index.query(LinearQuery(full), query.k)
        if self.cache is not None:
            self.cache.store(scope, full, query.k, result.tids)
        extra = {"layers_scanned": result.layers_scanned}
        if self.cache is not None:
            extra["cache"] = "miss"
        return ExecutionResult(
            tids=result.tids,
            rows=relation.take(result.tids),
            retrieved=result.retrieved,
            blocks_read=self._blocks(result.retrieved),
            plan=f"index({query.index_hint})",
            extra=extra,
        )

    def _execute_layer_prefix(self, query, relation) -> ExecutionResult:
        slab = self._catalog.layering(query.table)
        if slab is None:
            raise KeyError(
                f"table {query.table!r} has no materialized {LAYER_COLUMN!r} "
                "column; call materialize_layers first"
            )
        weights = self._index_weights(
            relation, "the layer prefix", query.order_by
        )
        # Layer-ordered storage: the rows with layer <= c are exactly
        # the slab's first offsets[c].
        rows, candidates, _ = slab.prefix(query.layer_bound)
        tids = topk_select(rows @ weights, candidates, query.k)
        return ExecutionResult(
            tids=tids,
            rows=relation.take(tids),
            retrieved=candidates.size,
            blocks_read=self._blocks(candidates.size),
            plan=f"layer-prefix(<= {query.layer_bound})",
        )

    def _execute_scan(self, query, relation, linear, ranked_attrs):
        n = relation.n_rows
        data = relation.matrix(ranked_attrs)
        tids = topk_select(linear.scores(data), np.arange(n), query.k)
        return ExecutionResult(
            tids=tids,
            rows=relation.take(tids),
            retrieved=n,
            blocks_read=self._blocks(n),
            plan="scan",
        )
