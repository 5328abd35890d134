"""Prefix-closed LRU result cache for ranked top-k answers.

Two facts make caching ranked answers unusually effective here:

* A linear query's ranking is invariant under positive scaling of its
  weight vector, so weight vectors are *canonicalized* (projected onto
  the unit-sum simplex) before keying — ``w`` and ``2w`` share one
  entry.
* Top-k answers are **prefix-closed**: the exact top-k list ordered by
  ``(score, tid)`` is a prefix of the exact top-k′ list for every
  k ≤ k′.  A cached deep answer therefore serves every shallower k by
  truncation, so the cache stores only the *deepest* k seen per key.

Entries are kept per *scope* — an opaque hashable identifying the data
the answer was computed over (the executor uses
``(table, index, table_version)``, so replacing a table silently
invalidates its entries; :meth:`ResultCache.invalidate` also evicts a
scope eagerly).

Counters (``cache.hits`` / ``cache.misses`` / ``cache.truncations`` /
``cache.deepenings`` / ``cache.insertions`` / ``cache.evictions`` /
``cache.invalidations``) accumulate on :attr:`ResultCache.metrics` and
are mirrored into any active :mod:`repro.obs` collector; ``repro
stats --cache-size`` prints them.
"""

from __future__ import annotations

import math
import struct
from collections import OrderedDict

import numpy as np

from .. import obs
from ..indexes.base import QueryResult, check_batch_k

__all__ = [
    "ResultCache",
    "cached_query",
    "canonical_weight_key",
    "canonical_weight_keys",
]


def _normalized_rows(weights: np.ndarray) -> np.ndarray:
    """Rows of a ``(m, d)`` weight matrix rescaled to sum 1.

    The single normalization behind every cache key.  Each row is first
    divided by its largest entry, so its sum lies in [1, d]: summing
    raw weights near the float maximum overflows to ``inf`` and would
    normalize every such row to the zero key.  Row sums are
    accumulated column by column, so a row's bytes do not depend on
    how many other rows share the matrix and batched keys equal
    :func:`canonical_weight_key` byte for byte.
    """
    peak = weights.max(axis=1)  # NaN when a row holds one
    if not (np.isfinite(peak) & (peak > 0)).all() or (weights < 0).any():
        raise ValueError(
            "only finite, non-negative, non-zero weights are cacheable"
        )
    scaled = weights / peak[:, None]
    total = scaled[:, 0].copy()
    for j in range(1, scaled.shape[1]):
        total += scaled[:, j]
    scaled /= total[:, None]
    return scaled


def canonical_weight_key(weights) -> bytes:
    """Scaling-invariant cache key for a non-negative weight vector.

    Weights are normalized to sum 1 (the ranking is unchanged by
    positive rescaling) and the float64 bytes are the key.  Rejects
    vectors that cannot be simplex-normalized (non-finite or negative
    entries, or an all-zero vector) — only monotone queries are
    cacheable.

    One row is normalized in Python floats, in :func:`_normalized_rows`'
    operation order (divide by the peak, sum left to right, divide by
    the sum): IEEE division and addition round alike in both, so the
    bytes equal the vectorized key's, at a fraction of the cost of
    numpy calls on a handful of numbers.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a non-empty vector")
    values = w.tolist()
    peak = max(values)
    if 0.0 < peak < math.inf and min(values) >= 0.0:
        scaled = [value / peak for value in values]
        total = scaled[0]
        for value in scaled[1:]:
            total += value
        if total == total:  # a NaN entry makes the sum NaN
            return struct.pack(
                f"{len(scaled)}d", *[value / total for value in scaled]
            )
    raise ValueError(
        "only finite, non-negative, non-zero weights are cacheable"
    )


def canonical_weight_keys(weights) -> list[bytes]:
    """:func:`canonical_weight_key` of every row of a ``(m, d)`` matrix,
    normalized in one vectorized pass (one row takes the scalar path)."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[1] == 0:
        raise ValueError("weights must be a non-empty (m, d) matrix")
    if w.shape[0] == 1:
        return [canonical_weight_key(w[0])]
    normalized = _normalized_rows(w)
    flat = normalized.tobytes()
    step = normalized.shape[1] * normalized.itemsize
    return [flat[i:i + step] for i in range(0, len(flat), step)]


class ResultCache:
    """LRU cache of deepest-k ranked answers, served by truncation.

    Parameters
    ----------
    capacity:
        Maximum number of (scope, weights) entries; 0 disables the
        cache (lookups miss, stores are dropped).

    Examples
    --------
    >>> cache = ResultCache(capacity=8)
    >>> cache.store("t", [1.0, 1.0], 3, np.array([4, 7, 2]))
    >>> cache.lookup("t", [2.0, 2.0], 2)  # rescaled weights, shallower k
    array([4, 7])
    >>> cache.lookup("t", [1.0, 1.0], 5) is None  # deeper than stored
    True
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        # key -> (tids at the deepest k seen, answer_is_complete).
        # ``complete`` marks answers that exhausted the data (fewer
        # than the requested k tuples exist), which serve *any* k.
        self._entries: OrderedDict[tuple, tuple[np.ndarray, bool]] = (
            OrderedDict()
        )
        #: Lifetime ``cache.*`` counters for this cache instance.
        self.metrics = obs.Metrics()

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def _count(self, name: str, value: int = 1) -> None:
        if value:
            self.metrics.inc(name, value)
            obs.inc(name, value)

    def lookup(self, scope, weights, k: int):
        """The exact top-k tids, or ``None`` on a miss.

        A hit requires a stored answer at depth k′ ≥ k (or one marked
        complete); the returned array is an owned copy.  A stored
        answer that is too shallow counts as both a miss and a
        ``cache.deepenings`` (the caller is about to deepen it).
        """
        if not isinstance(k, int):
            k = check_batch_k(k, 1).item()  # its errors, or the int
        elif k < 0:
            raise ValueError("k must be non-negative")
        return self._probe(scope, [canonical_weight_key(weights)], [k])[0]

    def lookup_many(self, scope, weights, k) -> list:
        """:meth:`lookup` for every row of a ``(m, d)`` weight matrix;
        ``k`` is one int or one per row.

        Rows are probed in order, exactly as m scalar lookups would
        (same answers, LRU order and counters), but keys come from one
        vectorized normalization and counters are bumped once.
        """
        return self.lookup_keys(scope, canonical_weight_keys(weights), k)

    def lookup_keys(self, scope, keys, k) -> list:
        """:meth:`lookup_many` for rows whose :func:`canonical_weight_keys`
        the caller already holds (to store its misses under the same
        keys without normalizing twice)."""
        return self._probe(scope, keys, check_batch_k(k, len(keys)).tolist())

    def _probe(self, scope, keys, depths: list) -> list:
        """The lookups of :meth:`lookup_keys` for validated depths."""
        entries = self._entries
        answers = []
        hits = misses = deepenings = truncations = 0
        for digest, depth in zip(keys, depths):
            key = (scope, digest)
            entry = entries.get(key)
            if entry is None:
                misses += 1
                answers.append(None)
                continue
            tids, complete = entry
            if tids.size < depth and not complete:
                misses += 1
                deepenings += 1
                answers.append(None)
                continue
            entries.move_to_end(key)
            hits += 1
            if tids.size > depth:
                truncations += 1
            answers.append(tids[:depth].copy())
        self._count("cache.misses", misses)
        self._count("cache.deepenings", deepenings)
        self._count("cache.hits", hits)
        self._count("cache.truncations", truncations)
        return answers

    def store(self, scope, weights, k: int, tids) -> None:
        """Record the exact top-k answer ``tids`` for (scope, weights).

        Only deepens: an existing entry at depth ≥ k (or complete) is
        left untouched.  Fewer than k tids marks the answer complete
        (the whole ranking fits in it).
        """
        if self._capacity == 0:
            return
        self.store_keys(scope, [canonical_weight_key(weights)], k, [tids])

    def store_many(self, scope, weights, k, tids) -> None:
        """:meth:`store` for every row of a ``(m, d)`` weight matrix;
        ``k`` is one int or one per row and ``tids[i]`` is row i's
        answer.  Rows are stored in order, so LRU order and evictions
        match m scalar stores."""
        if self._capacity == 0:
            return
        self.store_keys(scope, canonical_weight_keys(weights), k, tids)

    def store_keys(self, scope, keys, k, tids) -> None:
        """:meth:`store_many` for rows whose :func:`canonical_weight_keys`
        the caller already holds."""
        if len(tids) != len(keys):
            raise ValueError(
                f"{len(tids)} answers for {len(keys)} weight rows"
            )
        depths = check_batch_k(k, len(keys)).tolist()
        if self._capacity == 0:
            return
        entries = self._entries
        insertions = evictions = 0
        for digest, depth, answer in zip(keys, depths, tids):
            answer = np.asarray(answer, dtype=np.intp)
            key = (scope, digest)
            existing = entries.get(key)
            if existing is not None and (
                existing[1] or existing[0].size >= answer.size
            ):
                entries.move_to_end(key)
                continue
            entries[key] = (answer.copy(), answer.size < depth)
            entries.move_to_end(key)
            insertions += 1
            while len(entries) > self._capacity:
                entries.popitem(last=False)
                evictions += 1
        self._count("cache.insertions", insertions)
        self._count("cache.evictions", evictions)

    def invalidate(self, scope) -> int:
        """Eagerly drop every entry of ``scope``; returns the count."""
        stale = [key for key in self._entries if key[0] == scope]
        for key in stale:
            del self._entries[key]
        if stale:
            self._count("cache.invalidations", len(stale))
        return len(stale)

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        """Plain-dict snapshot: capacity, size and lifetime counters."""
        return {
            "capacity": self._capacity,
            "size": len(self._entries),
            "counters": dict(self.metrics.counters),
        }


def cached_query(
    cache: ResultCache, index, query, k: int, scope=None
) -> QueryResult:
    """Serve ``index.query(query, k)`` through ``cache``.

    On a hit the answer comes straight from the cache (``retrieved``
    is 0 — nothing was read from the index — and
    ``extra['cache'] == 'hit'``); on a miss the index is queried and
    the answer stored.  The returned tids are identical either way.
    ``scope`` defaults to the index object's identity.
    """
    scope = id(index) if scope is None else scope
    tids = cache.lookup(scope, query.weights, k)
    if tids is not None:
        return QueryResult(tids, 0, 0, extra={"cache": "hit"})
    result = index.query(query, k)
    cache.store(scope, query.weights, k, result.tids)
    return result
