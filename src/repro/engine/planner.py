"""Cost-based plan selection for ranked top-k statements.

Given a statement with no explicit ``USING INDEX`` hint or ``layer``
predicate, the executor can run a full scan, read a layer prefix (when
a layer column is materialized), or route to any attached robust
index.  This module estimates each alternative's cost in *blocks read*
— the sequential-storage currency the paper argues in — and picks the
cheapest:

* scan: ``ceil(n / block_size)`` blocks, always applicable;
* layer prefix: the layer column's equi-depth histogram estimates how
  many tuples satisfy ``layer <= k``;
* robust index: the exact retrieval cost is a property of the index
  (``|first k layers|``), so no estimation error at all.

The planner only *chooses*; execution stays in
:class:`repro.engine.executor.TopKExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..indexes.robust import RobustIndex
from .relation import Relation
from .statistics import TableStats, analyze

__all__ = ["PlanCandidate", "CostBasedPlanner"]

#: Name of the materialized layer column (kept in sync with executor).
LAYER_COLUMN = "layer"


@dataclass(frozen=True)
class PlanCandidate:
    """One executable alternative with its cost estimate."""

    kind: str            # "scan" | "layer-prefix" | "index"
    est_tuples: int
    est_blocks: int
    index_name: str | None = None

    def describe(self) -> str:
        target = f"({self.index_name})" if self.index_name else ""
        return (
            f"{self.kind}{target}: ~{self.est_tuples} tuples, "
            f"~{self.est_blocks} blocks"
        )


class CostBasedPlanner:
    """Estimates and ranks the physical plans for one catalog."""

    def __init__(self, catalog, block_size: int = 64):
        self._catalog = catalog
        self._block_size = block_size
        # table -> (catalog table_version analyzed, statistics).
        self._stats_cache: dict[str, tuple[int, TableStats]] = {}

    def statistics(self, table_name: str) -> TableStats:
        """ANALYZE-once-and-cache statistics for a table.

        Cached per catalog :meth:`~repro.engine.catalog.Catalog.table_version`,
        so any :meth:`~repro.engine.catalog.Catalog.replace_table` —
        even one that keeps the row count, such as a new ``layer``
        column — re-analyzes on next use.
        """
        relation = self._catalog.table(table_name)
        version = self._catalog.table_version(table_name)
        cached = self._stats_cache.get(table_name)
        if cached is None or cached[0] != version:
            cached = (version, analyze(relation))
            self._stats_cache[table_name] = cached
        return cached[1]

    def invalidate(self, table_name: str | None = None) -> None:
        if table_name is None:
            self._stats_cache.clear()
        else:
            self._stats_cache.pop(table_name, None)

    def _blocks(self, tuples: int) -> int:
        return -(-max(tuples, 0) // self._block_size) if tuples else 0

    def candidates(self, table_name: str, k: int) -> list[PlanCandidate]:
        """All applicable plans for a monotone top-k on this table."""
        relation = self._catalog.table(table_name)
        n = relation.n_rows
        plans = [
            PlanCandidate("scan", n, self._blocks(n)),
        ]
        if LAYER_COLUMN in relation.schema:
            stats = self.statistics(table_name)
            hist = stats.column(LAYER_COLUMN).histogram
            est = max(k, hist.estimate_count_le(float(k)))
            plans.append(
                PlanCandidate("layer-prefix", est, self._blocks(est))
            )
        for name, index in self._catalog.indexes_on(table_name).items():
            if isinstance(index, RobustIndex):
                exact = index.retrieval_cost(k)
                plans.append(
                    PlanCandidate(
                        "index", exact, self._blocks(exact), index_name=name
                    )
                )
        return plans

    def choose(self, table_name: str, k: int) -> PlanCandidate:
        """The cheapest applicable plan (blocks, then tuples)."""
        plans = self.candidates(table_name, k)
        return min(plans, key=lambda p: (p.est_blocks, p.est_tuples))

    def explain(self, table_name: str, k: int) -> str:
        """Human-readable ranking of every candidate plan."""
        plans = sorted(
            self.candidates(table_name, k),
            key=lambda p: (p.est_blocks, p.est_tuples),
        )
        lines = [f"top-{k} on {table_name!r}:"]
        for i, plan in enumerate(plans):
            marker = "->" if i == 0 else "  "
            lines.append(f" {marker} {plan.describe()}")
        return "\n".join(lines)
