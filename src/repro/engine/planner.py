"""Cost-based plan selection for ranked top-k statements.

Given a statement with no explicit ``USING INDEX`` hint or ``layer``
predicate, the executor can run a full scan, read a layer prefix (when
the table has a ``layer`` column), or route to any attached robust
index.  This module costs each alternative in *blocks read* — the
sequential-storage currency the paper argues in — and picks the
cheapest:

* scan: ``ceil(n / block_size)`` blocks, always applicable;
* layer prefix: the table's layering
  (:meth:`~repro.engine.catalog.Catalog.layering`) knows exactly how
  many tuples satisfy ``layer <= k`` (``offsets[k]``);
* robust index: the retrieval cost is a property of the index
  (``|first k layers|``).

Every cost is exact, so no statistics are gathered.  The planner only
*chooses*; execution stays in
:class:`repro.engine.executor.TopKExecutor`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..indexes.robust import RobustIndex

__all__ = ["PlanCandidate", "CostBasedPlanner"]


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
    """Costs and ranks the physical plans for one catalog."""

    def __init__(self, catalog, block_size: int = 64):
        self._catalog = catalog
        self._block_size = block_size

    def _blocks(self, tuples: int) -> int:
        return -(-tuples // self._block_size)

    def candidates(self, table_name: str, k: int) -> list[PlanCandidate]:
        """All applicable plans for a monotone top-k on this table."""
        relation = self._catalog.table(table_name)
        n = relation.n_rows
        plans = [
            PlanCandidate("scan", n, self._blocks(n)),
        ]
        slab = self._catalog.layering(table_name)
        if slab is not None:
            exact = slab.retrieval_cost(k)
            plans.append(
                PlanCandidate("layer-prefix", exact, self._blocks(exact))
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
