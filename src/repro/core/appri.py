"""AppRI: the approximate robust-index builder (paper Algorithm 3).

For every tuple ``t`` the builder computes a *lower bound* on the
number of tuples guaranteed to precede ``t`` under every monotone
linear query:

1. ``|DS^1(t)|`` — the dominance factor (tuples dominating ``t``);
2. a staircase-matching lower bound on ``|EDS^2(t)|`` — the number of
   mutually exclusive 2-domination sets — obtained by slicing subspace
   pair systems into B gamma-wedges (Eqns 1-2) and matching wedge
   counts (Lemma 3).

The approximate robust layer is the bound plus one; it never exceeds
the exact robust layer (minimal rank), so any top-k query is answered
by the first k layers without false negatives.

Two system configurations are provided:

``systems="complementary"``
    The paper's Algorithm 3: one system per complementary subspace
    pair, bounds summed (subspaces are disjoint, so exclusivity is
    free).
``systems="families"``
    This library's extension: *all* compatible subspace pairs (any two
    masks with no shared above-dimension) are sliced; exclusivity is
    restored by maximizing, per tuple, over maximal families of
    systems whose subspaces are pairwise disjoint.  Strictly tighter,
    at roughly 2x build cost for d = 3 (see the matching ablation
    benchmark).

``refine="peel"`` additionally takes the elementwise maximum with the
convex-shell peeling depth — itself a lower bound on the minimal rank
(each outer shell contributes one predecessor under every monotone
query) — which tightens deep tuples where wedge counting saturates.

All region sizes are dominance-factor counts in transformed spaces
(paper Example 4), delegated to :mod:`repro.dstruct.dominance`.

Construction
------------
One path builds every layering:
:func:`repro.core.pipeline.build_level_data` computes the dominance
factor and every pair system's level-region sizes with the fused
bitset kernel (:func:`repro.core.kernels.pair_level_data`), and the
builder matches each system's wedges with
:func:`~repro.core.matching.greedy_staircase_matching` (equal to the
paper's Lemma-3 closed form, :func:`~repro.core.matching.lemma3_bound`).
``workers`` only picks the schedule: inline, one task per system, or
gamma-level chunks over a process pool — the same kernel either way,
so the layers are identical.  :func:`appri_build` exposes per-phase build metrics;
:func:`appri_layers` returns just the layer array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..geometry.peeling import shell_peel_layers
from .kernels import pair_level_data
from .matching import greedy_staircase_matching
from .partitioning import disjoint_system_families
from .pipeline import build_level_data

__all__ = [
    "appri_layers",
    "appri_build",
    "AppRIBuild",
    "wedge_counts",
]

#: System configurations accepted by the builder.
_SYSTEMS = ("complementary", "families")
#: Refinements accepted by the builder.
_REFINEMENTS = (None, "peel")


@dataclass(frozen=True)
class AppRIBuild:
    """A built layering plus its construction accounting.

    ``metrics`` is a :meth:`repro.obs.Metrics.as_dict` snapshot:
    ``build.*`` phase timers, dominance-pass counters (``df.*``) and
    task/chunk accounting.  Task timers are summed across processes,
    so when the pool engages they read as aggregate CPU seconds while
    ``build.total`` is wall time.
    """

    layers: np.ndarray
    metrics: dict = field(default_factory=dict)
    workers: int = 1
    n_partitions: int = 10
    systems: str = "complementary"


def _validated_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array; got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError(
            "points must be finite; NaN or infinite attribute values "
            "cannot be layered (clean or impute the data first)"
        )
    return pts


def _validate_options(n_partitions, systems, refine, workers):
    if not isinstance(n_partitions, (int, np.integer)) or n_partitions < 1:
        raise ValueError("n_partitions must be an integer >= 1")
    if systems not in _SYSTEMS:
        raise ValueError(f"systems must be one of {_SYSTEMS}")
    if refine not in _REFINEMENTS:
        raise ValueError(f"refine must be one of {_REFINEMENTS}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be an integer >= 1")


def appri_layers(
    points: np.ndarray,
    n_partitions: int = 10,
    systems: str = "complementary",
    refine: str | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Approximate robust layer of every tuple (paper Algorithm 3).

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix.  Attributes should be on comparable
        scales (min-max normalize first) so the even-angle gamma grid
        slices wedges meaningfully.  NaN/inf values are rejected.
    n_partitions:
        The paper's B; larger B tightens the bound at linear extra
        build cost (Figures 6-7 study this trade-off; B = 10 is the
        paper's operating point).
    systems:
        ``complementary`` (the paper) or ``families`` (extension; see
        module docstring).
    refine:
        ``None`` or ``"peel"`` (take the max with shell-peeling depth).
    workers:
        Upper bound on worker processes.  ``1`` runs everything
        inline; ``> 1`` fans gamma-level chunks out over a process
        pool once the input is large enough to pay for it
        (:mod:`repro.core.pipeline`).  Identical output either way.

    Returns
    -------
    ``(n,)`` integer layers, 1-based.  Guaranteed
    ``appri_layers(x)[t] <= exact_robust_layers(x)[t]`` for all t.
    """
    return appri_build(
        points,
        n_partitions=n_partitions,
        systems=systems,
        refine=refine,
        workers=workers,
    ).layers


def appri_build(
    points: np.ndarray,
    n_partitions: int = 10,
    systems: str = "complementary",
    refine: str | None = None,
    workers: int = 1,
) -> AppRIBuild:
    """Build AppRI layers and return them with per-phase build metrics.

    Same parameters as :func:`appri_layers`; this is the entry point
    for callers who want the construction accounting (``RobustIndex``,
    the ``repro stats`` CLI, the parallel-build benchmark).
    """
    pts = _validated_points(points)
    _validate_options(n_partitions, systems, refine, workers)
    n, d = pts.shape

    metrics = obs.Metrics()
    metrics.inc("build.n", n)
    metrics.inc("build.d", d)
    metrics.inc("build.workers", workers)
    metrics.inc("build.n_partitions", n_partitions)
    with obs.collect(metrics), metrics.timeit("build.total"):
        if n == 0:
            layers = np.zeros(0, dtype=np.intp)
        else:
            layers = _layers(
                pts, n_partitions, systems, refine, workers, metrics
            )
    return AppRIBuild(
        layers=layers,
        metrics=metrics.as_dict(),
        workers=workers,
        n_partitions=n_partitions,
        systems=systems,
    )


def _layers(pts, n_partitions, systems, refine, workers, metrics):
    """Count (:func:`build_level_data`), match per system, aggregate."""
    dominators, level_data, all_systems = build_level_data(
        pts,
        n_partitions,
        include_partial=(systems == "families"),
        workers=workers,
        metrics=metrics,
    )
    obs.inc("build.systems", len(all_systems))
    eds2 = np.zeros((len(all_systems), pts.shape[0]), dtype=np.int64)
    for s, (a_levels, b_levels) in enumerate(level_data):
        i_wedges, iii_wedges = _wedges_from_levels(a_levels, b_levels)
        with obs.timed("build.phase.matching"):
            eds2[s] = greedy_staircase_matching(i_wedges, iii_wedges)
    with obs.timed("build.phase.aggregate"):
        if systems == "complementary":
            bound = dominators + eds2.sum(axis=0)
        else:
            families = disjoint_system_families(all_systems)
            family_sums = np.stack(
                [eds2[list(family)].sum(axis=0) for family in families]
            )
            bound = dominators + family_sums.max(axis=0)
        layers = bound + 1
    if refine == "peel":
        with obs.timed("build.phase.refine"):
            layers = np.maximum(layers, shell_peel_layers(pts))
    return layers.astype(np.intp)


def _wedges_from_levels(a_levels: np.ndarray, b_levels: np.ndarray):
    """Wedge sizes from nested level-region sizes.

    ``|I_i| = |a_i| - |a_{i-1}|`` with ``a_0`` empty and ``a_B`` the
    whole subspace, and ``|III_i| = |b_{B-i}| - |b_{B+1-i}|`` with
    ``b_B`` empty and ``b_0`` the whole subspace.
    """
    i_wedges = np.diff(a_levels, axis=1)  # column i-1 holds |I_i|
    # III_i = b_{B-i} - b_{B+1-i}: reverse the level axis then diff.
    iii_wedges = np.diff(b_levels[:, ::-1], axis=1)

    # Strict counting can make nested-region counts non-monotone only
    # through boundary ties; clamp to keep wedge sizes non-negative
    # (clamping discards pair opportunities, preserving soundness).
    np.clip(i_wedges, 0, None, out=i_wedges)
    np.clip(iii_wedges, 0, None, out=iii_wedges)
    return i_wedges, iii_wedges


def wedge_counts(points, pair, n_partitions):
    """Per-tuple wedge sizes ``(|I_i|, |III_i|)`` for one pair system.

    All of the system's level sizes come from one fused bitset kernel
    call (:func:`repro.core.kernels.pair_level_data`), bit-identical
    to the paper's schedule of one dominance pass per level per side.

    Returns two ``(n, B)`` arrays.
    """
    pts = np.asarray(points, dtype=float)
    return _wedges_from_levels(*pair_level_data(pts, pair, n_partitions))
