"""Exact robust layers (paper Section 4).

Theorem 1 reduces robust indexing to computing, for every tuple ``t``,
the *minimal rank* of ``t`` over all monotone linear queries; the
robust layer is exactly that minimal rank.  This module implements the
exact computation with one solver per dimensionality — the dimension
picks it, there is no engine option:

d = 1
    A sort (``ExactBuild.engine`` records it as ``legacy``).
d = 2: ``kinetic``
    One *global* rotating sweep shared by all tuples.  The weight
    segment ``w = (lam, 1 - lam)`` is cut into windows by sorted
    probes; per window the kinetic permutation delta localizes every
    score-crossing event, events are extracted output-sensitively and
    swept in vectorized angle-sorted batches, and each tuple's minimal
    rank is read off its position trajectory.  ``O(n^2 log n)`` total
    with numpy inner loops, replacing n independent sweeps.
d = 3: ``prune``
    Bound-driven prune-and-refine.  Every tuple is seeded with an
    AppRI / dominance-margin lower bound and a shared-probe upper
    bound (vectorized score paths over :func:`triangle_probes`); a
    tuple retires as soon as its bounds meet, and the survivors are
    refined by recursive subdivision of the weight triangle that
    discards regions whose always-preceding count already reaches the
    best known rank, enumerating arrangement candidates only inside
    the surviving slivers.  Open tuples can fan out over worker
    processes via :mod:`repro.core.pipeline`.

The per-tuple reference solvers (*legacy* in the comments below) — a
rotating sweep per tuple at d = 2 and an arrangement-vertex
enumeration per tuple at d = 3 — stay as the fallback of both
shared-work solvers and as the oracle behind the public
:func:`minimal_rank`.  All of them implement the same library
tie rule — ``s`` precedes ``t`` iff its score is strictly smaller, or
the scores tie and ``s`` has the smaller tid — and produce identical
layers on well-separated inputs (the solver-agreement suite pins this
on adversarial ties too).  The only divergence class left open is
sub-ulp near-ties, where the shared-work solvers may place an event on
the other side of a comparison than the per-tuple float expressions;
the same caveat already applies to the per-tuple solver's own
``_REL_TOL`` snapping at d = 3.

For d > 3 no exact solver is provided (the paper's ``O(n^d log n)``
construction is impractical there and all of its experiments use
d = 3); :func:`minimal_rank_sampled` gives a sampled *upper bound*
instead, optionally bracketed by a dominance lower bound
(``with_bounds=True``).

Build accounting lives in the ``exact.*`` obs namespace: solver
timers, probe / window / event counters, tuples pruned vs refined and
the bound-convergence histogram ``exact.gap_hist.*`` — surfaced by
``repro stats`` and :meth:`ExactRobustIndex.build_info`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..geometry.weights import (
    sample_simplex,
    segment_probes,
    simplex_grid,
    triangle_probes,
)
from .kernels import crossing_partners, suffix_smaller_counts

__all__ = [
    "ExactBuild",
    "RankBounds",
    "exact_build",
    "exact_robust_layers",
    "minimal_rank",
    "minimal_rank_sampled",
]

#: Relative tolerance for "this score difference is zero" in the d=3
#: evaluation.  Differences are scaled by the data spread.
_REL_TOL = 1e-9

#: Crossing events in the d=2 sweep whose lambdas differ by no more
#: than this are one query point: cancellation in the crossing ratio
#: can split a mathematically single event (e.g. collinear points,
#: where every crossing is exactly 0.5) into several ulp-separated
#: ones, and the cumsum values "between" them are bookkeeping
#: artifacts, not counts any real query attains.
_EVENT_TOL = 1e-9

#: The solver :func:`exact_build` runs per dimensionality, under the
#: names ``ExactBuild.engine`` and snapshot metadata record.
_ENGINE_BY_DIM = {1: "legacy", 2: "kinetic", 3: "prune"}

# --- kinetic (d = 2) tuning -------------------------------------------------
#: Below this n the shared sweep cannot beat the per-tuple loop;
#: tests monkeypatch it to 0 to force the shared sweep on tiny inputs.
_KINETIC_MIN_N = 64
#: Target tuples per probe window (n // this, clipped to [4, 96]).
_WINDOW_TUPLES = 104
#: Events allowed in one window before it is bisected.
_EVENT_CAP = 4_000_000
#: Maximum window bisection depth / minimum window width.
_MAX_DEPTH = 48
_MIN_WINDOW = 1e-12

# --- prune (d = 3) tuning ---------------------------------------------------
#: Barycentric grid resolution for the shared upper-bound probes.
_PRUNE_GRID = 12
#: Refine a region by direct candidate enumeration at or below this
#: many active lines.
_ENUM_LINES = 40
#: Maximum region subdivision depth.
_REGION_DEPTH = 26
#: Give up on subdivision (full legacy fallback for the tuple) when a
#: terminal region still has more active lines than this.
_FORCE_LINES = 512
#: Region budget per tuple before falling back to the legacy solver —
#: a floor: the effective budget grows with n (``max(cap, 2 n)``),
#: because at large n a few dense tuples legitimately need more
#: regions and the full-arrangement fallback is far costlier there.
_REGION_CAP = 2000
#: How far outside a region candidate points may wander (sector-point
#: nudges, vertex padding); scales the line-classification slack.
_NUDGE_REACH = 2e-6
#: Minimum open tuples before the refine stage fans out to workers.
_POOL_MIN_OPEN = 256

#: Bound-convergence histogram buckets (upper edge inclusive, label).
_GAP_BUCKETS = ((0, "0"), (2, "1_2"), (8, "3_8"), (32, "9_32"), (None, "33_plus"))


@dataclass(frozen=True)
class ExactBuild:
    """An exact layering plus its construction accounting.

    ``metrics`` is a :meth:`repro.obs.Metrics.as_dict` snapshot of the
    ``exact.*`` namespace: solver timers, probe / window / event
    counters, tuples pruned against tuples refined, and the
    bound-convergence histogram ``exact.gap_hist.*``.  ``engine`` names
    the solver the dimensionality picked: ``legacy`` (the d = 1
    sort), ``kinetic`` (d = 2) or ``prune`` (d = 3).
    """

    layers: np.ndarray
    metrics: dict = field(default_factory=dict)
    engine: str = "legacy"
    workers: int = 1


@dataclass(frozen=True)
class RankBounds:
    """A sampled upper bound on a minimal rank plus a certified lower
    bound, from :func:`minimal_rank_sampled` with ``with_bounds=True``.

    ``lower`` counts the tuples guaranteed to precede the target under
    *every* monotone query (componentwise domination, tie-aware), plus
    one; the true minimal rank lies in ``[lower, upper]`` and ``gap``
    gauges how loose the sampled estimate may be.
    """

    upper: int
    lower: int

    @property
    def gap(self) -> int:
        """Width of the bracket; 0 means the bound is exact."""
        return self.upper - self.lower


def exact_build(points: np.ndarray, workers: int = 1) -> ExactBuild:
    """Build exact robust layers and return them with build metrics.

    Parameters
    ----------
    points:
        ``(n, d)`` data matrix with ``d <= 3``; NaN/inf rejected.  The
        dimensionality picks the solver (module docstring): a sort at
        d = 1, the kinetic sweep at d = 2, prune-and-refine at d = 3.
    workers:
        Worker processes for the d = 3 refine stage fan-out
        (:mod:`repro.core.pipeline`); 1 keeps everything in-process.
        Output is identical either way.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if d > 3:
        raise ValueError(
            "exact robust layers are implemented for d <= 3 "
            "(the paper's experiments all use d = 3); "
            "use minimal_rank_sampled for an upper bound in higher dimensions"
        )
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError("workers must be an integer >= 1")
    engine = _ENGINE_BY_DIM[max(d, 1)]
    metrics = obs.Metrics()
    with obs.collect(metrics), metrics.timeit("exact.total"):
        obs.inc("exact.builds")
        obs.inc("exact.tuples", n)
        obs.inc(f"exact.engine.{engine}")
        if n == 0:
            layers = np.zeros(0, dtype=np.intp)
        elif d == 1:
            with obs.timed("exact.sort_1d"):
                order = np.lexsort((np.arange(n), pts[:, 0]))
                layers = np.empty(n, dtype=np.intp)
                layers[order] = np.arange(1, n + 1)
        elif d == 2:
            with obs.timed("exact.kinetic_2d"):
                layers = _kinetic_layers_2d(pts)
        else:
            with obs.timed("exact.prune_3d"):
                layers = _prune_layers_3d(pts, workers=workers)
    return ExactBuild(
        layers=layers,
        metrics=metrics.as_dict(),
        engine=engine,
        workers=int(workers),
    )


def exact_robust_layers(points: np.ndarray, workers: int = 1) -> np.ndarray:
    """The exact robust layer (= minimal rank) of every tuple.

    Thin wrapper over :func:`exact_build` returning just the layer
    array; supported for d <= 3.
    """
    return exact_build(points, workers=workers).layers


def minimal_rank(points: np.ndarray, tid: int) -> int:
    """Minimal rank of one tuple over all monotone linear queries."""
    pts = _as_points(points)
    d = pts.shape[1]
    if not 0 <= tid < pts.shape[0]:
        raise IndexError(f"tid {tid} out of range")
    if d == 1:
        smaller = int(np.count_nonzero(pts[:, 0] < pts[tid, 0]))
        ties_before = int(np.count_nonzero(pts[:tid, 0] == pts[tid, 0]))
        return 1 + smaller + ties_before
    if d == 2:
        return _minimal_rank_2d(pts, tid)
    if d == 3:
        return _minimal_rank_3d(pts, tid)
    raise ValueError("minimal_rank is exact for d <= 3 only")


def minimal_rank_sampled(
    points: np.ndarray,
    tid: int,
    n_samples: int = 512,
    grid_resolution: int | None = None,
    seed: int | None = 0,
    with_bounds: bool = False,
) -> int | RankBounds:
    """Sampled **upper bound** on the minimal rank of ``tid``.

    Evaluates the tuple's rank under random simplex queries (plus an
    optional exhaustive weight grid) and returns the best rank seen.
    The true minimal rank is <= this value; tests use it to sandwich
    the exact solvers.

    With ``with_bounds=True`` the result is a :class:`RankBounds`
    pairing the sampled upper bound with the dominance-count lower
    bound (1 + tuples that precede ``tid`` under every monotone
    query), so callers in d > 3 — where no exact solver exists — can
    gauge how loose the sample is via ``.gap``.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if not 0 <= tid < n:
        raise IndexError(f"tid {tid} out of range")
    weights = sample_simplex(d, n_samples, seed=seed)
    if grid_resolution:
        weights = np.vstack([weights, simplex_grid(d, grid_resolution)])
    weights = np.vstack([weights, np.eye(d)])
    scores = pts @ weights.T  # (n, q)
    mine = scores[tid]
    before = (scores < mine).sum(axis=0)
    ties = (scores[:tid] == mine[None, :]).sum(axis=0)
    ranks = 1 + before + ties
    upper = int(ranks.min())
    if not with_bounds:
        return upper
    # Tuples preceding tid under *every* monotone query: componentwise
    # <= with a strict coordinate (score then strictly smaller
    # somewhere, never larger), or full tie with a smaller tid.
    cmax = (pts - pts[tid]).max(axis=1)
    always = int(np.count_nonzero(cmax < 0))
    always += int(np.count_nonzero((cmax == 0) & (np.arange(n) < tid)))
    return RankBounds(upper=upper, lower=1 + always)


def _as_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array; got shape {pts.shape}")
    if pts.size and not np.isfinite(pts).all():
        raise ValueError(
            "points must be finite; NaN or infinite attribute values "
            "have no defined rank under linear queries"
        )
    return pts


# ---------------------------------------------------------------------------
# Per-tuple reference solvers.
# ---------------------------------------------------------------------------


def _corner_counts_2d(d1, d2, tids, tid) -> tuple[int, int]:
    """Tie-aware ranks-minus-one at the two d=2 corner queries.

    At ``lam = 0`` (weight ``(0, 1)``) the score difference is exactly
    ``d2`` and ties break by tid; symmetrically ``d1`` at ``lam = 1``.
    The corners need explicit evaluation: a tuple with ``d1 < 0,
    d2 = 0`` precedes ``t`` on all of ``(0, 1)`` but merely *ties* at
    ``lam = 0``, where only a smaller tid keeps it ahead.
    """
    not_self = tids != tid
    corner0 = int(
        np.count_nonzero(not_self & ((d2 < 0) | ((d2 == 0) & (tids < tid))))
    )
    corner1 = int(
        np.count_nonzero(not_self & ((d1 < 0) | ((d1 == 0) & (tids < tid))))
    )
    return corner0, corner1


def _minimal_rank_2d(pts: np.ndarray, tid: int) -> int:
    """Rotating sweep over ``w = (lam, 1 - lam)``, ``lam`` in [0, 1].

    For another tuple ``s`` let ``g(lam) = w . (s - t)``; ``s`` precedes
    ``t`` where ``g < 0`` (or ``g = 0`` with a smaller tid).  Dominators
    always precede; dominated tuples never do; region-I tuples
    (better on A1, worse on A2) start not-preceding and flip at their
    crossing ``lam*``; region-III tuples flip the other way.  The count
    is swept across sorted events with ``cumsum``; at each event the
    exact tie-aware count is also evaluated, because the boundary
    weight vector is itself a legal query — as are the two corner
    queries, evaluated explicitly because half-dominators
    (``d1 < 0, d2 = 0`` and the mirror) only tie there.
    """
    n = pts.shape[0]
    t = pts[tid]
    diff = pts - t  # (n, 2); row tid is zero
    d1, d2 = diff[:, 0], diff[:, 1]
    tids = np.arange(n)
    not_self = tids != tid

    # Tuples that precede t for every lam in the *open* interval
    # (0, 1): g(0) <= 0 and g(1) <= 0 with at least one strict, or a
    # full tie with a smaller tid.
    always = not_self & (
        ((d1 < 0) & (d2 < 0))
        | ((d1 == 0) & (d2 < 0))
        | ((d1 < 0) & (d2 == 0))
        | ((d1 == 0) & (d2 == 0) & (tids < tid))
    )
    region_i = not_self & (d1 < 0) & (d2 > 0)
    region_iii = not_self & (d1 > 0) & (d2 < 0)

    base = int(np.count_nonzero(always))
    corner0, corner1 = _corner_counts_2d(d1, d2, tids, tid)

    # Crossing points: g(lam) = d2 + lam * (d1 - d2) = 0.
    lam_i = d2[region_i] / (d2[region_i] - d1[region_i])
    lam_iii = d2[region_iii] / (d2[region_iii] - d1[region_iii])
    deltas = np.concatenate(
        [np.ones(lam_i.size, dtype=np.intp), -np.ones(lam_iii.size, dtype=np.intp)]
    )
    lams = np.concatenate([lam_i, lam_iii])
    # At the event itself the tuple ties with t, so it precedes t only
    # when its tid is smaller.  Region-I tuples were not counted in the
    # interval before (adjust +1 when tid smaller); region-III tuples
    # were counted (adjust -1 when tid larger).
    smaller_tid = np.concatenate(
        [tids[region_i] < tid, tids[region_iii] < tid]
    )
    at_adjust = np.where(
        deltas > 0, smaller_tid.astype(np.intp), -(~smaller_tid).astype(np.intp)
    )

    start = base + int(np.count_nonzero(region_iii))  # count on (0, first event)
    if lams.size == 0:
        return 1 + min(start, corner0, corner1)

    order = np.argsort(lams, kind="stable")
    lams, deltas, at_adjust = lams[order], deltas[order], at_adjust[order]
    interval_counts = start + np.cumsum(deltas)

    # Group events sharing a lam (to within _EVENT_TOL — float jitter
    # must not split one crossing into phantom intervals); interval
    # counts are only real *between* groups, i.e. at group ends.
    boundaries = np.flatnonzero(np.diff(lams) > _EVENT_TOL)
    group_starts = np.concatenate([[0], boundaries + 1])
    group_ends = np.concatenate([boundaries + 1, [lams.size]])

    best = min(
        start, int(interval_counts[group_ends - 1].min()), corner0, corner1
    )
    cum_adjust = np.cumsum(at_adjust)
    for lo, hi in zip(group_starts, group_ends):
        before_group = start if lo == 0 else int(interval_counts[lo - 1])
        adjust = int(cum_adjust[hi - 1] - (cum_adjust[lo - 1] if lo else 0))
        best = min(best, before_group + adjust)
    return 1 + best


def _minimal_rank_3d(pts: np.ndarray, tid: int) -> int:
    """Arrangement sweep over the 2-D weight triangle for d = 3.

    The weight simplex is parametrized by ``(a, b)`` with
    ``w = (a, b, 1 - a - b)``.  Tuple ``s`` precedes ``t`` where
    ``g_s(a, b) = c_s + alpha_s a + beta_s b < 0``.  The rank is
    constant on every cell and on every edge of the line arrangement
    ``{g_s = 0}`` clipped to the (closed) triangle, so it suffices to
    evaluate it at every arrangement vertex (tie-aware), at one nudged
    point inside each angular sector around each vertex, and at one
    nudged point along each edge leaving it.  Edges matter: there the
    lines of the edge tie, and a tie with a larger tid ranks ``t``
    ahead, so an edge can beat both its endpoints and both its cells.
    """
    n = pts.shape[0]
    if n == 1:
        return 1
    t = pts[tid]
    diff = np.delete(pts, tid, axis=0) - t
    other_tids = np.delete(np.arange(n), tid)
    scale = max(1.0, float(np.abs(diff).max()))
    tol = _REL_TOL * scale

    c = diff[:, 2]
    alpha = diff[:, 0] - diff[:, 2]
    beta = diff[:, 1] - diff[:, 2]

    candidates = _triangle_candidates(c, alpha, beta, tol)

    # Vectorized rank evaluation at all candidate points, in column
    # blocks: the arrangement can reach millions of candidates at
    # large n and a dense (n - 1, m) matrix would not fit in memory.
    smaller = (other_tids < tid)[:, None]
    block = max(1, 4_000_000 // max(n - 1, 1))
    best = n
    for lo in range(0, candidates.shape[0], block):
        chunk = candidates[lo : lo + block]
        g = (
            c[:, None]
            + alpha[:, None] * chunk[:, 0][None, :]
            + beta[:, None] * chunk[:, 1][None, :]
        )  # (n - 1, <=block)
        counts = (g < -tol).sum(axis=0) + (
            (np.abs(g) <= tol) & smaller
        ).sum(axis=0)
        best = min(best, int(counts.min()))
    return 1 + best


def _triangle_candidates(c, alpha, beta, tol) -> np.ndarray:
    """Candidate (a, b) points covering every cell of the arrangement.

    Includes: nudged triangle corners, all pairwise line intersections
    inside the (slightly padded) triangle, line/triangle-edge
    intersections, and sector and edge points around each vertex.
    """
    eps = 1e-7
    corners = np.array(
        [[eps, eps], [1 - 2 * eps, eps], [eps, 1 - 2 * eps], [1 / 3, 1 / 3]]
    )
    # Triangle edges expressed in the same (c, alpha, beta) form:
    # a = 0, b = 0, and a + b = 1.
    edge_c = np.array([0.0, 0.0, -1.0])
    edge_alpha = np.array([1.0, 0.0, 1.0])
    edge_beta = np.array([0.0, 1.0, 1.0])
    all_c = np.concatenate([c, edge_c])
    all_alpha = np.concatenate([alpha, edge_alpha])
    all_beta = np.concatenate([beta, edge_beta])

    m = all_c.size
    i_idx, j_idx = np.triu_indices(m, k=1)
    a1, b1, c1 = all_alpha[i_idx], all_beta[i_idx], all_c[i_idx]
    a2, b2, c2 = all_alpha[j_idx], all_beta[j_idx], all_c[j_idx]
    det = a1 * b2 - a2 * b1
    ok = np.abs(det) > tol
    pad = 1e-9
    with np.errstate(divide="ignore", invalid="ignore"):
        va = (-c1 * b2 + c2 * b1) / det
        vb = (-a1 * c2 + a2 * c1) / det
        inside = (
            ok
            & np.isfinite(va)
            & np.isfinite(vb)
            & (va >= -pad)
            & (vb >= -pad)
            & (va + vb <= 1 + pad)
        )
    vertices = np.stack([va[inside], vb[inside]], axis=1)
    if vertices.size == 0:
        return corners

    # Deduplicate vertices on a fine grid to bound the sector work.
    rounded = np.round(vertices / (10 * tol + 1e-15))
    _, keep = np.unique(rounded, axis=0, return_index=True)
    vertices = vertices[np.sort(keep)]

    sector_points = _sector_points(vertices, all_c, all_alpha, all_beta, tol)
    pts = np.vstack([corners, vertices, sector_points])
    # Clamp into the closed triangle (nudges may step slightly outside).
    keep_mask = (
        (pts[:, 0] >= -1e-12)
        & (pts[:, 1] >= -1e-12)
        & (pts[:, 0] + pts[:, 1] <= 1 + 1e-12)
    )
    return pts[keep_mask]


def _sector_points(vertices, c, alpha, beta, tol) -> np.ndarray:
    """Points nudged into every cell and edge incident to each vertex.

    The sectors are delimited by the lines incident to the vertex;
    their bisector directions, followed for a small step, land inside
    every cell whose closure contains the vertex.  The line directions
    themselves, followed for the same step, land inside every edge
    leaving the vertex — where the lines of that edge tie and, by the
    tid rule, can rank ``t`` strictly better than at either endpoint
    or in either neighbouring cell.
    """
    out = []
    step = 1e-6
    for va, vb in vertices:
        residual = c + alpha * va + beta * vb
        incident = np.abs(residual) <= 100 * tol
        if not incident.any():
            continue
        # A line alpha*a + beta*b + c = 0 runs along (-beta, alpha).
        angles = np.arctan2(alpha[incident], -beta[incident]) % np.pi
        angles = np.unique(np.round(angles, 12))
        # Directions of the incident lines, doubled to cover both
        # half-directions, then bisected.
        full = np.sort(np.concatenate([angles, angles + np.pi]))
        bisectors = (full + np.diff(np.concatenate([full, [full[0] + 2 * np.pi]])) / 2)
        for theta in np.concatenate([full, bisectors]):
            out.append([va + step * np.cos(theta), vb + step * np.sin(theta)])
    if not out:
        return np.zeros((0, 2))
    return np.asarray(out)


# ---------------------------------------------------------------------------
# Kinetic solver: one global rotating sweep for d = 2.
# ---------------------------------------------------------------------------


def _kinetic_layers_2d(pts: np.ndarray) -> np.ndarray:
    """All d=2 minimal ranks from one shared rotating sweep.

    Probes cut ``lam`` in [0, 1] into windows; at each probe the stable
    argsort position of a tuple *is* its tie-aware predecessor count
    (original index = tid, so stable order = (score, tid) order).  Per
    window, the permutation delta ``A`` between the two edge orders
    localizes every score-crossing event: a tuple at left position
    ``p`` ending at ``A[p]`` has ``Sm[p]`` partners overtaking it and
    ``p - A[p] + Sm[p]`` partners it overtakes, so its count trajectory
    can never drop below ``A[p] - Sm[p]`` — tuples whose bound reaches
    the running upper bound are closed without extracting a single
    event.  For the rest, :func:`crossing_partners` emits each crossing
    output-sensitively; events are swept per owner in one vectorized
    lam-sorted batch (interval counts by segmented ``cumsum``,
    tie-aware at-event counts by lam groups, exactly as the legacy
    per-tuple sweep).  Event-dense windows are bisected — the midpoint
    probe also tightens the upper bounds — and degenerate clusters
    (many events at one lam, e.g. heavy duplication) fall back to the
    per-tuple solver for the still-open tuples only.

    Events are placed with the legacy float expression
    ``lam* = d2 / (d2 - d1)``; pairs with ``d1 == d2`` never truly
    cross (constant score offset) and are dropped if float noise
    surfaces them.  Crossings exactly at a probe are safe either way:
    if the edge orders already reflect them they carry a zero at-event
    adjustment, otherwise the probe itself evaluated the tie.
    """
    n = pts.shape[0]
    if n < _KINETIC_MIN_N:
        return np.array(
            [_minimal_rank_2d(pts, t) for t in range(n)], dtype=np.intp
        )
    x = np.ascontiguousarray(pts[:, 0])
    y = np.ascontiguousarray(pts[:, 1])
    tids = np.arange(n)

    probes: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def probe(lam: float) -> tuple[np.ndarray, np.ndarray]:
        pr = probes.get(lam)
        if pr is None:
            sc = lam * x + (1.0 - lam) * y
            order = np.argsort(sc, kind="stable")
            pos = np.empty(n, dtype=np.intp)
            pos[order] = tids
            pr = (order, pos)
            probes[lam] = pr
            obs.inc("exact.probes")
        return pr

    n_windows = int(np.clip(n // _WINDOW_TUPLES, 4, 96))
    lams = segment_probes(n_windows)
    ub = np.full(n, n - 1, dtype=np.intp)
    for lam in lams:
        np.minimum(ub, probe(lam)[1], out=ub)

    scratch: dict = {}
    stack = [(lams[i], lams[i + 1], 0) for i in range(n_windows - 1, -1, -1)]
    while stack:
        lam_l, lam_r, depth = stack.pop()
        order_l, _ = probe(lam_l)
        _, pos_r = probe(lam_r)
        obs.inc("exact.windows")
        A = pos_r[order_l]
        sm = suffix_smaller_counts(A, scratch=scratch)
        open_mask = (A - sm) < ub[order_l]
        if not open_mask.any():
            continue
        open_pos = np.flatnonzero(open_mask)
        est = int((2 * sm[open_pos] + open_pos - A[open_pos]).sum())
        if est > _EVENT_CAP:
            if depth < _MAX_DEPTH and (lam_r - lam_l) > _MIN_WINDOW:
                mid = 0.5 * (lam_l + lam_r)
                np.minimum(ub, probe(mid)[1], out=ub)
                obs.inc("exact.window_splits")
                stack.append((mid, lam_r, depth + 1))
                stack.append((lam_l, mid, depth + 1))
            else:
                # Degenerate clustering (a huge tie group at one lam):
                # solve the still-open tuples with the per-tuple sweep.
                for p in open_pos:
                    t = int(order_l[p])
                    ub[t] = min(int(ub[t]), _minimal_rank_2d(pts, t) - 1)
                    obs.inc("exact.stalled_tuples")
            continue

        owner_idx, partner_pos, rising = crossing_partners(
            A, open_pos, scratch=scratch
        )
        if owner_idx.size == 0:
            continue
        owner_pos = open_pos[owner_idx]
        obs.inc("exact.events", int(owner_pos.size))
        o_t = order_l[owner_pos]
        s_t = order_l[partner_pos]
        d1 = x[s_t] - x[o_t]
        d2 = y[s_t] - y[o_t]
        denom = d2 - d1
        valid = denom != 0.0
        if not valid.all():
            owner_pos = owner_pos[valid]
            o_t, s_t, rising = o_t[valid], s_t[valid], rising[valid]
            d2, denom = d2[valid], denom[valid]
            if owner_pos.size == 0:
                continue
        lam_ev = np.clip(d2 / denom, lam_l, lam_r)
        delta = np.where(rising, 1, -1)
        adj = np.where(
            rising, (s_t < o_t).astype(np.intp), -(s_t > o_t).astype(np.intp)
        )

        # One vectorized mini-sweep over all owners: events sorted by
        # (owner, lam); segmented cumsums give the interval counts and
        # tie-aware at-event counts of the legacy per-tuple sweep.
        order_ev = np.lexsort((lam_ev, owner_pos))
        op = owner_pos[order_ev]
        le = lam_ev[order_ev]
        cd = np.cumsum(delta[order_ev])
        ca = np.cumsum(adj[order_ev])
        m = op.size
        new_seg = np.empty(m, dtype=bool)
        new_seg[0] = True
        np.not_equal(op[1:], op[:-1], out=new_seg[1:])
        seg_start = np.flatnonzero(new_seg)
        seg_id = np.cumsum(new_seg) - 1
        cd_prev = np.concatenate([[0], cd[:-1]])
        ca_prev = np.concatenate([[0], ca[:-1]])
        v0 = op[seg_start]  # left-edge count = left position
        v0_ev = v0[seg_id]
        interval_after = v0_ev + (cd - cd_prev[seg_start][seg_id])

        # Events of one owner sharing a lam (to within _EVENT_TOL)
        # form one group: float jitter in the crossing ratio must not
        # split a single tie point, and the cumsum values between
        # members of a group are bookkeeping artifacts — interval
        # counts are only real at group ends, tie-aware counts only
        # with the whole group's adjustment (the legacy sweep applies
        # the same grouping rule).
        grp_new = new_seg.copy()
        grp_new[1:] |= (le[1:] - le[:-1]) > _EVENT_TOL
        gs = np.flatnonzero(grp_new)
        ge = np.concatenate([gs[1:], [m]])
        before_grp = v0_ev[gs] + (cd_prev[gs] - cd_prev[seg_start][seg_id[gs]])
        at_grp = before_grp + (ca[ge - 1] - ca_prev[gs])

        g_first = np.flatnonzero(new_seg[gs])
        seg_min_iv = np.minimum.reduceat(interval_after[ge - 1], g_first)
        seg_min_at = np.minimum.reduceat(at_grp, g_first)
        cand = np.minimum(v0, np.minimum(seg_min_iv, seg_min_at))
        owners = order_l[v0]
        ub[owners] = np.minimum(ub[owners], cand)

    return ub + 1


# ---------------------------------------------------------------------------
# Prune solver: bound-driven prune-and-refine for d = 3.
# ---------------------------------------------------------------------------


def _prune_layers_3d(pts: np.ndarray, workers: int = 1) -> np.ndarray:
    """All d=3 minimal ranks by prune-and-refine over shared bounds.

    Lower bounds come from componentwise dominance margins plus the
    AppRI layering (both certified lower bounds on the minimal rank);
    upper bounds from tie-aware rank evaluations at the shared
    :func:`triangle_probes`, vectorized across all tuples per probe.
    Tuples whose bounds meet retire immediately; the rest are refined
    one by one (or fanned out over worker processes) by
    :func:`_refine_open_tuple`, which closes the gap exactly.
    """
    n = pts.shape[0]
    with obs.timed("exact.lower_bounds"):
        # The dominance-margin bound is certified under the (score,
        # tid) tie rule; the AppRI layering tightens the *reported*
        # bound (gap histogram) but, like the paper, reasons in weak
        # score order — on heavily tied data it can exceed the
        # tid-aware minimal rank, so retirement and refine floors key
        # on the certified bound only.
        lb_cert = _margin_lower_bounds_3d(pts)
        lb = lb_cert.copy()
        if n > 2:
            from .appri import appri_layers

            np.maximum(
                lb,
                appri_layers(pts, refine="peel", systems="families") - 1,
                out=lb,
            )
    with obs.timed("exact.probe_ub"):
        ub = _probe_upper_bounds_3d(pts)

    gap = np.maximum(ub - lb, 0)
    for edge, label in _GAP_BUCKETS:
        if edge is None:
            count = int(np.count_nonzero(gap > _GAP_BUCKETS[-2][0]))
        else:
            prev = -1
            for e, lbl in _GAP_BUCKETS:
                if lbl == label:
                    break
                prev = e
            count = int(np.count_nonzero((gap > prev) & (gap <= edge)))
        obs.inc(f"exact.gap_hist.{label}", count)

    open_ids = np.flatnonzero(ub > lb_cert)
    obs.inc("exact.tuples_pruned", int(n - open_ids.size))
    obs.inc("exact.tuples_refined", int(open_ids.size))
    with obs.timed("exact.refine"):
        if workers > 1 and open_ids.size >= _POOL_MIN_OPEN:
            from .pipeline import run_exact_refine

            ub[open_ids] = run_exact_refine(
                pts, open_ids, ub[open_ids], lb_cert[open_ids], workers
            )
        else:
            for t in open_ids:
                ub[t] = _refine_open_tuple(pts, int(t), int(ub[t]), int(lb_cert[t]))
    return ub + 1


def _margin_lower_bounds_3d(pts: np.ndarray) -> np.ndarray:
    """Per-tuple count of guaranteed always-preceders (a lower bound).

    ``s`` precedes ``t`` at *every* weight when its componentwise
    excess ``cmax = max_a (s_a - t_a)`` clears the legacy tolerance
    with margin: ``cmax < -1.05 tol`` forces every float evaluation of
    ``g_s`` below ``-tol`` (strictly before), and ``cmax <= 0.95 tol``
    with a smaller tid keeps ``s`` tied-or-before everywhere.  The
    0.05 tol slack dominates the ~4e-15 * scale float evaluation
    error, so the bound is sound against the legacy candidate
    evaluations, not just in exact arithmetic.
    """
    n = pts.shape[0]
    lb = np.zeros(n, dtype=np.intp)
    if n < 2:
        return lb
    colmax = pts.max(axis=0)
    colmin = pts.min(axis=0)
    spread = np.maximum(colmax[None, :] - pts, pts - colmin[None, :]).max(axis=1)
    tol = _REL_TOL * np.maximum(1.0, spread)
    tids = np.arange(n)
    block = max(1, int(2_000_000 // n))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        tb = pts[lo:hi]
        cm = pts[:, 0][:, None] - tb[:, 0][None, :]
        np.maximum(cm, pts[:, 1][:, None] - tb[:, 1][None, :], out=cm)
        np.maximum(cm, pts[:, 2][:, None] - tb[:, 2][None, :], out=cm)
        tolj = tol[lo:hi][None, :]
        strictly = cm < -1.05 * tolj
        tie_dom = (cm <= 0.95 * tolj) & (tids[:, None] < tids[lo:hi][None, :])
        lb[lo:hi] = np.count_nonzero(strictly | tie_dom, axis=0)
    return lb


def _probe_upper_bounds_3d(pts: np.ndarray) -> np.ndarray:
    """Best tie-aware rank-minus-one seen at the shared probes.

    Each probe evaluates every tuple at once along the score path:
    sort the scores, take strict predecessors by ``searchsorted``
    against the per-tuple tolerance band, and resolve the band's ties
    by tid on the (score, tid)-lexicographic order.  A probe whose tie
    bands blow up (heavily duplicated data) is dropped for the
    banded tuples rather than risking an undercounted band — fewer
    probes only loosen the bound.
    """
    n = pts.shape[0]
    ub = np.full(n, max(n - 1, 0), dtype=np.intp)
    if n < 2:
        return ub
    colmax = pts.max(axis=0)
    colmin = pts.min(axis=0)
    spread = np.maximum(colmax[None, :] - pts, pts - colmin[None, :]).max(axis=1)
    tol = _REL_TOL * np.maximum(1.0, spread)
    tids = np.arange(n)
    cap = max(4 * n, 10_000)
    for a, b in triangle_probes(_PRUNE_GRID):
        w = np.array([a, b, 1.0 - a - b])
        sc = pts @ w
        order = np.argsort(sc, kind="stable")  # (score, tid) order
        s_sorted = sc[order]
        strict = np.searchsorted(s_sorted, sc - tol, side="left")
        hi = np.searchsorted(s_sorted, sc + tol, side="right")
        band = hi - strict  # includes the tuple itself
        obs.inc("exact.probes")
        banded = band > 1
        total = int(band[banded].sum())
        if total > cap:
            # Tie bands too heavy to resolve cheaply: keep only the
            # band-free tuples for this probe.
            free = ~banded
            ub[free] = np.minimum(ub[free], strict[free])
            obs.inc("exact.probes_banded")
            continue
        ties = np.zeros(n, dtype=np.intp)
        if total:
            rows = np.flatnonzero(banded)
            lens = band[rows]
            offs = np.concatenate([[0], np.cumsum(lens)[:-1]])
            idx = np.repeat(strict[rows] - offs, lens) + np.arange(total)
            in_band = order[idx]
            owners = np.repeat(rows, lens)
            ties[rows] = np.add.reduceat(
                (in_band < owners).astype(np.intp), offs
            )
        np.minimum(ub, strict + ties, out=ub)
    return ub


def _refine_open_tuple(pts: np.ndarray, tid: int, ub0: int, lb0: int = 0) -> int:
    """Exact minimal rank-minus-one of one open tuple by subdivision.

    Recursively quarters the weight triangle.  Per region, each line
    is classified against the region corners (g is linear, so its
    extrema over the region are at the corners) with slack covering
    both the candidate nudge reach and float evaluation error:
    *always* lines join the region's base count, *never* lines drop
    out, and only the active remainder is carried down.  A region
    whose base count already reaches the best known rank cannot
    contain the minimum and is discarded; corner evaluations tighten
    the running best on the way down (any triangle point's tie-aware
    count is an upper bound on the minimum).  Small-enough regions are
    closed exactly by :func:`_enumerate_region`; pathological tuples
    (region budget exhausted, or too many coincident active lines at
    full depth) fall back to the legacy per-tuple solver.
    """
    n = pts.shape[0]
    if n <= 2:
        return _minimal_rank_3d(pts, tid) - 1
    t = pts[tid]
    diff = np.delete(pts, tid, axis=0) - t
    smaller = np.delete(np.arange(n), tid) < tid
    scale = max(1.0, float(np.abs(diff).max()))
    tol = _REL_TOL * scale
    c = diff[:, 2]
    alpha = diff[:, 0] - diff[:, 2]
    beta = diff[:, 1] - diff[:, 2]
    reach = _NUDGE_REACH * (np.abs(alpha) + np.abs(beta))
    thr = 1.01 * tol  # tol plus slack for the g-evaluation rounding

    best = int(ub0)
    floor = int(lb0)
    root = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    stack = [(root, np.arange(n - 1), 0, 0)]
    regions = 0
    region_cap = max(_REGION_CAP, 2 * n)
    while stack:
        if best <= floor:
            break  # certified lower bound reached; cannot improve
        tri, act, base, depth = stack.pop()
        regions += 1
        if regions > region_cap:
            obs.inc("exact.refine_fallbacks")
            return _minimal_rank_3d(pts, tid) - 1
        ca, aa, ba = c[act], alpha[act], beta[act]
        g_corners = (
            ca[:, None]
            + aa[:, None] * tri[:, 0][None, :]
            + ba[:, None] * tri[:, 1][None, :]
        )  # (k, 3)
        ra = reach[act]
        alw = g_corners.max(axis=1) + ra < -thr
        nev = g_corners.min(axis=1) - ra > thr
        new_base = base + int(np.count_nonzero(alw))
        if new_base >= best:
            continue
        keep = ~(alw | nev)
        sub = act[keep]
        # Tighten the running best with the raw region corners, but
        # count every tie pessimistically (``g <= tol`` regardless of
        # tid).  That value bounds the count of every cell adjacent to
        # the corner from above, and the legacy enumeration samples
        # all of those cells — so it can never drop below the legacy
        # minimum.
        corner_counts = base + np.count_nonzero(g_corners <= tol, axis=0)
        best = min(best, int(corner_counts.min()))
        if sub.size == 0:
            best = min(best, new_base)
            continue
        if sub.size <= _ENUM_LINES or depth >= _REGION_DEPTH:
            if sub.size > _FORCE_LINES:
                obs.inc("exact.refine_fallbacks")
                return _minimal_rank_3d(pts, tid) - 1
            local = _enumerate_region(
                tri, c[sub], alpha[sub], beta[sub], smaller[sub], tol
            )
            best = min(best, new_base + local)
            continue
        mid = 0.5 * (tri + tri[[1, 2, 0]])
        for child in (
            np.stack([tri[0], mid[0], mid[2]]),
            np.stack([mid[0], tri[1], mid[1]]),
            np.stack([mid[2], mid[1], tri[2]]),
            mid,
        ):
            stack.append((child, sub, new_base, depth + 1))
    obs.inc("exact.regions", regions)
    return best


def _enumerate_region(tri, c_a, alpha_a, beta_a, smaller, tol):
    """Minimum active-line count over one region, legacy-style.

    Reruns the legacy candidate construction on the sub-triangle:
    pairwise intersections of the active lines and the (normalized)
    region edge lines, deduplicated, with cell and edge points around
    each vertex (:func:`_sector_points`).  Candidates are kept inside
    the global triangle (only real queries count) and the
    slack-inflated region (where the caller's always/never
    classification is valid).  Shrunk corners and the centroid tighten
    the result with pessimistic tie counting.  Returns the best
    tie-aware active count.
    """
    # Region edges in (c, alpha, beta) form, normalized to O(1)
    # coefficients so the legacy det/incidence tolerances keep their
    # meaning on arbitrarily small regions.
    p = tri
    q = tri[[1, 2, 0]]
    e_alpha = q[:, 1] - p[:, 1]
    e_beta = p[:, 0] - q[:, 0]
    e_c = -(e_alpha * p[:, 0] + e_beta * p[:, 1])
    norm = np.maximum(np.abs(e_alpha), np.abs(e_beta))
    norm[norm == 0] = 1.0
    e_alpha, e_beta, e_c = e_alpha / norm, e_beta / norm, e_c / norm
    # Orient each edge so the centroid is on the positive side.
    cen = tri.mean(axis=0)
    sign = np.sign(e_c + e_alpha * cen[0] + e_beta * cen[1])
    sign[sign == 0] = 1.0
    e_alpha, e_beta, e_c = e_alpha * sign, e_beta * sign, e_c * sign

    all_c = np.concatenate([c_a, e_c])
    all_alpha = np.concatenate([alpha_a, e_alpha])
    all_beta = np.concatenate([beta_a, e_beta])
    m = all_c.size
    k = c_a.size
    i_idx, j_idx = np.triu_indices(m, k=1)
    a1, b1, c1 = all_alpha[i_idx], all_beta[i_idx], all_c[i_idx]
    a2, b2, c2 = all_alpha[j_idx], all_beta[j_idx], all_c[j_idx]
    det = a1 * b2 - a2 * b1
    ok = np.abs(det) > tol
    # Every vertex is a real query (the candidates are clipped to the
    # global triangle below), so sub-edge crossings and sub-corners on
    # the simplex boundary are kept: their tie-aware counts are attained
    # ranks, and the edge nudges around them cover the boundary segments
    # where a line coincident with a global edge ties by tid.
    with np.errstate(divide="ignore", invalid="ignore"):
        va = (-c1 * b2 + c2 * b1) / det
        vb = (-a1 * c2 + a2 * c1) / det
        inside = ok & np.isfinite(va) & np.isfinite(vb)
        for ec, ea, eb in zip(e_c, e_alpha, e_beta):
            inside &= ec + ea * va + eb * vb >= -_NUDGE_REACH
    vertices = np.stack([va[inside], vb[inside]], axis=1)
    if vertices.shape[0]:
        rounded = np.round(vertices / (10 * tol + 1e-15))
        _, keep = np.unique(rounded, axis=0, return_index=True)
        vertices = vertices[np.sort(keep)]
        sect = _sector_points(vertices, all_c, all_alpha, all_beta, tol)
        cand = np.vstack([vertices, sect]) if sect.size else vertices
    else:
        cand = np.zeros((0, 2))

    keep_mask = (
        (cand[:, 0] >= -1e-12)
        & (cand[:, 1] >= -1e-12)
        & (cand[:, 0] + cand[:, 1] <= 1 + 1e-12)
    )
    for ec, ea, eb in zip(e_c, e_alpha, e_beta):
        keep_mask &= ec + ea * cand[:, 0] + eb * cand[:, 1] >= -_NUDGE_REACH
    cand = cand[keep_mask]

    # Seed candidates (shrunk corners and the centroid) are not legacy
    # candidates, so their ties are counted pessimistically (any
    # ``|g| <= tol``): that bounds every adjacent cell's count from
    # above and hence never undercuts the legacy minimum, while still
    # tightening the caller's running best on line-free regions.
    shrink = tri + 3e-7 * (cen[None, :] - tri)
    seeds = np.vstack([shrink, cen[None, :]])
    g_seed = (
        c_a[:, None]
        + alpha_a[:, None] * seeds[:, 0][None, :]
        + beta_a[:, None] * seeds[:, 1][None, :]
    )
    local = int(np.count_nonzero(g_seed <= tol, axis=0).min())

    if cand.shape[0]:
        g = (
            c_a[:, None]
            + alpha_a[:, None] * cand[:, 0][None, :]
            + beta_a[:, None] * cand[:, 1][None, :]
        )
        counts = (g < -tol).sum(axis=0) + (
            (np.abs(g) <= tol) & smaller[:, None]
        ).sum(axis=0)
        local = min(local, int(counts.min()))
    return local
