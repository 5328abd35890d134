"""Layering audits.

A sequentially layered index is a *claim*: every monotone top-k query
is answerable from its first k layers.  This module checks that claim
— exhaustively against the exact solver where affordable, statistically
via randomized queries otherwise — and produces a small report the CLI
prints and the tests assert on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..queries.ranking import LinearQuery
from .index import violating_tids

__all__ = ["AuditReport", "audit_layering"]


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a layering audit."""

    n: int
    n_queries: int
    violations: int
    checked_exact: bool
    exceeds_exact: int
    max_layer: int
    layer_mass_at: dict[int, int] = field(default_factory=dict)

    @property
    def sound(self) -> bool:
        """No query violation and (when checked) no exact-layer excess."""
        return self.violations == 0 and self.exceeds_exact == 0

    def summary(self) -> str:
        lines = [
            f"tuples: {self.n}   max layer: {self.max_layer}",
            f"queries probed: {self.n_queries}   violations: {self.violations}",
        ]
        if self.checked_exact:
            lines.append(
                f"tuples above their exact robust layer: {self.exceeds_exact}"
            )
        for k, mass in sorted(self.layer_mass_at.items()):
            lines.append(f"top-{k} layer mass: {mass}")
        lines.append("verdict: " + ("SOUND" if self.sound else "UNSOUND"))
        return "\n".join(lines)


def audit_layering(
    points: np.ndarray,
    layers: np.ndarray,
    n_queries: int = 200,
    seed: int | None = 0,
    check_exact: bool | None = None,
    mass_ks: tuple[int, ...] = (10, 50, 100),
) -> AuditReport:
    """Probe a layering for soundness.

    Parameters
    ----------
    points, layers:
        The relation and the 1-based layer assignment under audit.
    n_queries:
        Random simplex queries probed (plus the axis corners), each at
        several k values.
    check_exact:
        Also verify ``layers <= exact_robust_layers`` tuple by tuple.
        Defaults to on where the exact solvers are cheap: d = 2 up to
        n <= 2000 (kinetic sweep) and d = 3 up to n <= 400
        (prune-and-refine).
    """
    pts = np.asarray(points, dtype=float)
    layers = np.asarray(layers)
    if pts.ndim != 2 or layers.shape != (pts.shape[0],):
        raise ValueError("points and layers sizes do not match")
    n, d = pts.shape
    rng = np.random.default_rng(seed)

    weights = list(np.eye(d))
    if n_queries:
        weights.extend(rng.dirichlet(np.ones(d), size=n_queries))
    ks = sorted({1, 2, max(1, n // 10), max(1, n // 2), n}) if n else []

    violations = 0
    for w in weights:
        query = LinearQuery(w)
        for k in ks:
            violations += int(violating_tids(pts, layers, query, k).size)

    if check_exact is None:
        check_exact = (d == 1 and n <= 10_000) or (
            d == 2 and n <= 2000
        ) or (d == 3 and n <= 400)
    exceeds = 0
    if check_exact and n:
        from .exact import exact_robust_layers

        exact = exact_robust_layers(pts)
        exceeds = int(np.count_nonzero(layers > exact))

    mass = {
        k: int(np.count_nonzero(layers <= k)) for k in mass_ks if n
    }
    return AuditReport(
        n=n,
        n_queries=len(weights),
        violations=violations,
        checked_exact=bool(check_exact and n),
        exceeds_exact=exceeds,
        max_layer=int(layers.max()) if n else 0,
        layer_mass_at=mass,
    )
