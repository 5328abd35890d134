"""The AppRI counting pipeline: one schedule of kernel tasks.

Every AppRI build (:func:`repro.core.appri.appri_build`) gets its
counts from :func:`build_level_data`, which splits them into
independent tasks:

1.  One task computes the global dominance factor.
2.  For every pair system, the levels ``1..B`` (interior gamma levels
    plus the paired full-subspace passes at index ``B``) are covered
    by contiguous ranges; each ``("lev", s, p_lo, p_hi)`` task runs
    the fused kernel :func:`~repro.core.kernels.pair_level_data`
    restricted to its range and returns the two partially-filled
    ``(n, B + 1)`` level arrays.  Level columns are disjoint across
    tasks, so the coordinator combines results with plain array
    addition.

The pool engages only when it can pay for itself: ``workers > 1``, at
least ``POOL_MIN_N`` tuples *and* more than one usable core.  Then
each system's levels are cut into ~4 chunks per worker so stragglers
rebalance across the (systems x chunks) task grid; each worker holds
the data once (pool initializer) and returns per-range count arrays
plus a metrics snapshot the coordinator merges.  Otherwise the tasks
run inline with **one task per system covering levels 1..B**, so each
system's gamma-independent lead bitsets are ranked once.

Because every task runs the same kernel on a subset of levels, the
counts are **identical** for every schedule on any input (the
level-cover property in ``tests/properties`` locks this in).  There
is no floating-point re-derivation to reconcile: the kernel compares
the exact transformed values of the paper's per-level passes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .. import obs
from ..dstruct.dominance import count_dominators
from .kernels import pair_level_data
from .partitioning import pair_systems

__all__ = [
    "build_level_data",
    "plan_chunks",
    "run_exact_refine",
    "POOL_MIN_N",
]

#: Below this many tuples, tasks run inline in the coordinating process
#: (identical output; avoids process start-up costing more than the
#: build).  Tests monkeypatch this to force the pool on small inputs.
POOL_MIN_N = 2048


def _usable_cpus() -> int:
    """CPUs the pool could actually occupy (monkeypatched in tests)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Chunk planning
# ---------------------------------------------------------------------------


def plan_chunks(n_levels: int, workers: int):
    """Contiguous ``[lo, hi)`` ranges covering levels ``1..n_levels``.

    One range for a single worker (each extra range re-ranks the
    system's lead columns); otherwise ~4 ranges per worker within one
    system so stragglers rebalance across the (systems x chunks) task
    grid.
    """
    if n_levels <= 0:
        return []
    size = -(-n_levels // (4 * workers)) if workers > 1 else n_levels
    return [
        (lo, min(lo + size, n_levels + 1))
        for lo in range(1, n_levels + 1, size)
    ]


# ---------------------------------------------------------------------------
# Task execution (worker side)
# ---------------------------------------------------------------------------

#: Per-process state installed by the pool initializers.
_WORKER: dict = {}


def _init_worker(points, n_partitions, include_partial):
    pts = np.asarray(points, dtype=float)
    _WORKER.update(
        pts=pts,
        b=int(n_partitions),
        systems=pair_systems(pts.shape[1], include_partial=include_partial),
    )


def _init_exact_worker(points):
    _WORKER["exact_pts"] = np.asarray(points, dtype=float)


def _run_refine_block(block):
    """Refine one block of open tuples; returns (ranks, metrics dict).

    The exact module is imported lazily inside the worker to keep
    pipeline importable from :mod:`repro.core.exact` without a cycle.
    """
    from .exact import _refine_open_tuple

    ids, uppers, lowers = block
    pts = _WORKER["exact_pts"]
    out = np.empty(len(ids), dtype=np.intp)
    local = obs.Metrics()
    with obs.collect(local, propagate=False):
        for i, (t, u, lo) in enumerate(zip(ids, uppers, lowers)):
            out[i] = _refine_open_tuple(pts, int(t), int(u), int(lo))
        obs.inc("exact.refine_blocks")
    return out, local.as_dict()


def _run_task(task, state=None):
    """Execute one task; returns (task, payload, metrics dict).

    ``state`` defaults to the pool worker's; the inline schedule
    passes its own, so concurrent builds in threads never share it.
    """
    if state is None:
        state = _WORKER
    pts, b, systems = state["pts"], state["b"], state["systems"]
    local = obs.Metrics()
    with obs.collect(local, propagate=False):
        kind = task[0]
        if kind == "dom":
            with obs.timed("build.phase.dominators"):
                payload = count_dominators(pts).astype(np.int64)
        elif kind == "lev":
            _, s, p_lo, p_hi = task
            with obs.timed("build.phase.levels"):
                payload = pair_level_data(
                    pts, systems[s], b, levels=range(p_lo, p_hi)
                )
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown task kind {kind!r}")
        obs.inc("build.tasks")
    return task, payload, local.as_dict()


# ---------------------------------------------------------------------------
# Coordination
# ---------------------------------------------------------------------------


def build_level_data(
    points: np.ndarray,
    n_partitions: int,
    include_partial: bool,
    workers: int,
    metrics: "obs.Metrics | None" = None,
):
    """All counting the AppRI bound needs, as one schedule of tasks.

    Returns ``(dominators, level_data, systems)`` where ``level_data``
    is a list over pair systems of ``(a_levels, b_levels)`` arrays of
    shape ``(n, B + 1)`` laid out like
    :func:`~repro.core.kernels.pair_level_data` returns them: interior
    columns from the gamma levels, column B of ``a`` / column 0 of
    ``b`` from the full-subspace passes, the remaining boundary
    columns zero.

    Counts are integer-identical for any ``workers``; only the
    schedule changes (see the module docstring).
    """
    pts = np.asarray(points, dtype=float)
    n, d = pts.shape
    b = int(n_partitions)
    systems = pair_systems(d, include_partial=include_partial)
    use_pool = (
        workers > 1
        and n >= POOL_MIN_N
        and len(systems) > 0
        and _usable_cpus() > 1
    )
    chunks = plan_chunks(b, workers if use_pool else 1)

    tasks: list[tuple] = [("dom",)]
    for s in range(len(systems)):
        tasks += [("lev", s, lo, hi) for lo, hi in chunks]

    if metrics is not None:
        metrics.inc("build.chunks", len(chunks))
        metrics.inc("build.pool_used", int(use_pool))
    if use_pool:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(tasks)),
            initializer=_init_worker,
            initargs=(pts, b, include_partial),
        ) as pool:
            results = list(
                pool.map(
                    _run_task,
                    tasks,
                    chunksize=max(1, len(tasks) // (4 * workers)),
                )
            )
    else:
        state = {"pts": pts, "b": b, "systems": systems}
        results = [_run_task(task, state) for task in tasks]

    dominators = np.zeros(n, dtype=np.int64)
    level_data: list = [None] * len(systems)
    for task, payload, task_metrics in results:
        if metrics is not None:
            metrics.merge(task_metrics)
        if task[0] == "dom":
            dominators[:] = payload
        elif level_data[task[1]] is None:
            level_data[task[1]] = payload
        else:
            # Tasks cover disjoint level columns, so addition combines.
            a_levels, b_levels = level_data[task[1]]
            a_levels += payload[0]
            b_levels += payload[1]
    return dominators, level_data, systems


def run_exact_refine(
    points: np.ndarray,
    open_ids: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    workers: int,
    block_size: int | None = None,
) -> np.ndarray:
    """Refine the open tuples of a d=3 exact build over a process pool.

    Each task runs the same per-tuple subdivision solver the serial
    path runs (:func:`repro.core.exact._refine_open_tuple`) on a
    contiguous block of open tuple ids with their probe upper bounds
    and certified lower bounds, so the refined ranks are identical to
    serial refinement for any ``workers`` or ``block_size``.  Falls
    back to inline execution when the pool cannot pay for itself
    (single usable core, or a single block).  Worker-side ``exact.*``
    metrics are merged into the caller's active collector.
    """
    pts = np.asarray(points, dtype=float)
    open_ids = np.asarray(open_ids)
    upper = np.asarray(upper)
    lower = np.asarray(lower)
    m = open_ids.size
    if m == 0:
        return np.zeros(0, dtype=np.intp)
    if block_size is None:
        block_size = -(-m // (4 * max(workers, 1)))
    block_size = max(1, int(block_size))
    blocks = [
        (
            open_ids[lo : lo + block_size],
            upper[lo : lo + block_size],
            lower[lo : lo + block_size],
        )
        for lo in range(0, m, block_size)
    ]
    use_pool = workers > 1 and len(blocks) > 1 and _usable_cpus() > 1
    obs.inc("exact.pool_used", int(use_pool))
    if use_pool:
        with ProcessPoolExecutor(
            max_workers=min(workers, len(blocks)),
            initializer=_init_exact_worker,
            initargs=(pts,),
        ) as pool:
            results = list(pool.map(_run_refine_block, blocks))
    else:
        _init_exact_worker(pts)
        results = [_run_refine_block(block) for block in blocks]
    active = obs.active_metrics()
    if active is not None:
        for _, block_metrics in results:
            active.merge(block_metrics)
    return np.concatenate([ranks for ranks, _ in results])
