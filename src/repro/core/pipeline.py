"""The AppRI counting pipeline: one schedule of kernel tasks.

Every AppRI build (:func:`repro.core.appri.appri_build`) gets its
counts from :func:`build_level_data`, which splits them into
independent tasks: the tuple ids ``[0, n)`` are cut into word-aligned
ranges, and each ``("lev", lo, hi)`` task runs the shared kernel
:func:`~repro.core.kernels.systems_level_data` over every pair system
and all levels ``1..B`` with only the ids in ``[lo, hi)`` counted as
dominators.  It returns that range's dominance factor and each
system's two ``(n, B + 1)`` level arrays.  The ranges split the
kernel's bit space exactly the way its memory-bounding bit chunks do,
so the coordinator adds the results up.  A 1-D input has no pair
systems and no task: its dominance factor is each value's count of
strictly smaller values, one sort inline.

The pool engages only when it can pay for itself: ``workers > 1``, at
least ``POOL_MIN_N`` tuples *and* more than one usable core.  Then the
ids are cut into ``min(workers, usable CPUs)`` ranges and the pool
starts that many processes; each worker holds the data once (pool
initializer) and returns one range's count arrays plus a metrics
snapshot, which the coordinator folds into the per-system sums as
they arrive.  Otherwise the tasks run inline with the one range
``[0, n)``.  Either way every prefix bit matrix is built exactly once
per build (the ``counting.prefix_words`` counter), so a pooled build
does the inline build's kernel work, split.

Because every task runs the same kernel on a subset of the bit space,
the counts are **identical** for every schedule on any input (the
id-range property in ``tests/properties`` locks this in).  There is
no floating-point re-derivation to reconcile: the kernel compares the
exact transformed values of the paper's per-level passes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed

import numpy as np

from .. import obs
from ..dstruct.kernels import sort_and_rank
from .kernels import systems_level_data
from .partitioning import pair_systems

__all__ = [
    "build_level_data",
    "run_exact_refine",
    "POOL_MIN_N",
]

#: Below this many tuples, tasks run inline in the coordinating process
#: (identical output; avoids process start-up costing more than the
#: build: on two cores a d=3 or d=4 B=10 build breaks even at about 3k
#: tuples, and the pool is 8-24% faster at 4096).  Tests monkeypatch
#: this to force the pool on small inputs.
POOL_MIN_N = 4096


def _usable_cpus() -> int:
    """CPUs the pool could actually occupy (monkeypatched in tests)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# Range planning
# ---------------------------------------------------------------------------


def _id_ranges(n: int, parts: int):
    """At most ``parts`` word-aligned ``[lo, hi)`` ranges covering ``[0, n)``.

    Every range but the last starts and ends on a 64-id word boundary,
    so the ranges pack into exactly the words of the full bit space.
    """
    words = (n + 63) >> 6
    parts = max(1, min(parts, words))
    cuts = [min((words * i // parts) << 6, n) for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


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
        _, lo, hi = task
        with obs.timed("build.phase.levels"):
            payload = systems_level_data(pts, systems, b, lo, hi)
        obs.inc("build.tasks")
    return task, payload, local.as_dict()


def _run_pooled_task(task):
    """:func:`_run_task` in a pool worker; counts travel as int32.

    A count never exceeds ``n``, so the narrowing is exact, and it
    halves the bytes each payload pickles and the coordinator holds
    beyond its int64 sums.
    """
    task, (dominators, levels), task_metrics = _run_task(task)
    payload = (
        dominators.astype(np.int32),
        [
            (a_levels.astype(np.int32), b_levels.astype(np.int32))
            for a_levels, b_levels in levels
        ],
    )
    return task, payload, task_metrics


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
    :func:`~repro.core.kernels.systems_level_data` returns them: interior
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
    parts = min(workers, _usable_cpus())
    use_pool = parts > 1 and n >= POOL_MIN_N and len(systems) > 0
    ranges = _id_ranges(n, parts if use_pool else 1)
    tasks = [("lev", lo, hi) for lo, hi in ranges] if systems else []

    if metrics is not None:
        metrics.inc("build.chunks", len(ranges))
        metrics.inc("build.pool_used", int(use_pool))

    if systems:
        dominators = np.zeros(n, dtype=np.int64)
    else:
        # d = 1: the strict dominators are the strictly smaller values.
        dominators = sort_and_rank(pts[:, 0])[1].astype(np.int64)
    level_data: list = []

    def fold(task, payload, task_metrics):
        if metrics is not None:
            metrics.merge(task_metrics)
        # Ranges split the dominators disjointly: addition combines.
        part_dominators, part_levels = payload
        dominators[:] += part_dominators
        if not level_data:
            level_data.extend(
                tuple(levels.astype(np.int64, copy=False) for levels in pair)
                for pair in part_levels
            )
        else:
            for (a_levels, b_levels), (part_a, part_b) in zip(
                level_data, part_levels
            ):
                a_levels += part_a
                b_levels += part_b

    if use_pool:
        with ProcessPoolExecutor(
            max_workers=min(parts, len(tasks)),
            initializer=_init_worker,
            initargs=(pts, b, include_partial),
        ) as pool:
            # No list of the futures is kept: a folded payload is freed
            # as soon as the next one arrives.
            for future in as_completed(
                [pool.submit(_run_pooled_task, task) for task in tasks]
            ):
                fold(*future.result())
    else:
        state = {"pts": pts, "b": b, "systems": systems}
        for task in tasks:
            fold(*_run_task(task, state))
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
