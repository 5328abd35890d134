"""Query-serving throughput: per-query loop vs batch kernel vs cache.

Measures, per (n, d) configuration, four ways of answering the same
Q-query monotone top-k workload against one robust index:

``loop_seed``
    The per-query loop baseline as it existed before the serving-path
    work, reconstructed verbatim: per query, gather the candidate rows
    from the original (unpacked) matrix, score, rank with a full
    ``np.lexsort``, and take the layers-scanned max — what
    ``index.query`` compiled to before the layer-packed slab and the
    argpartition kernel.  The reconstruction keeps only the numeric
    work (it skips the per-query validation / result-object / counter
    bookkeeping the real method shared with today's path), so it is a
    conservative baseline — at tiny candidate counts, where that
    bookkeeping dominates, it can even out-run today's full
    ``index.query``.
``loop``
    ``[index.query(q, k) for q in workload]`` — today's single-query
    path (layer-packed slab + the head-and-audit selection of
    :mod:`repro.core.qkernel`), with per-query latencies for p50/p99.
``batch``
    One ``index.query_batch(workload, k)`` call — a single GEMM over
    the slab prefix plus the row-parallel top-k kernel
    (:mod:`repro.core.qkernel`).
``cache_warm``
    The same workload replayed against a warm
    :class:`repro.engine.cache.ResultCache` — every query is a hit, so
    this is the cache's truncation-serving ceiling.
``mixed_k``
    The workload with a per-row k drawn from ``MIXED_KS``, answered by
    one ``index.query_batch(weights, ks)`` call, next to ``per_k``:
    one ``query_batch`` per distinct k over that k's rows.  Every
    mixed-k row must equal ``index.query`` at its own k (asserted).
``loop_mixed_k``
    That per-row ``index.query(q, k_q)`` check loop, timed: the
    single-query path over the mixed-k workload, with p50/p99.

The first four must return identical tids for every query, and
``index.query`` must equal the full-lexsort ``loop_seed`` ranking for
every query at every k in ``MIXED_KS`` (both asserted); the
batch kernel's speedup target at n=50k, d=4, k=20 is >= 5x over the
per-query loop baseline (``loop_seed``; its speedup over today's
already-kernelized loop is reported alongside as
``speedup_vs_loop``).  Full runs write machine-readable results to
``BENCH_query_throughput.json`` at the repo root (the perf-trajectory
seed); ``--quick`` runs tiny sizes for CI and writes only to
``benchmarks/results/``.

AppRI builds at the full sizes are expensive (hours at n=50k, d=4 on
one core), so built indexes are cached as snapshot files under
``--index-cache`` (default ``benchmarks/results/index_cache``) and
reloaded on later runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = Path(__file__).parent / "results"
INDEX_CACHE = RESULTS_DIR / "index_cache"

FULL_CONFIGS = ((10_000, 2), (10_000, 4), (50_000, 2), (50_000, 4))
QUICK_CONFIGS = ((2_000, 2), (2_000, 3))
N_QUERIES = 256
K = 20
MIXED_KS = (10, 20, 50, 100)
SEED = 0


def _percentile_ms(latencies: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(latencies), pct) * 1e3)


def _rates(seconds: float, latencies: list[float] | None, n_queries: int):
    stats = {
        "seconds": round(seconds, 6),
        "qps": round(n_queries / seconds, 1) if seconds > 0 else None,
    }
    if latencies is None:
        # Batch answers arrive together: per-query latency is amortized.
        stats["p50_ms"] = stats["p99_ms"] = round(
            seconds / n_queries * 1e3, 6
        )
    else:
        stats["p50_ms"] = round(_percentile_ms(latencies, 50), 6)
        stats["p99_ms"] = round(_percentile_ms(latencies, 99), 6)
    return stats


def _load_or_build(n, d, k, workers, index_cache):
    from repro.data import uniform
    from repro.engine.snapshot import load_snapshot, save_snapshot
    from repro.indexes.robust import RobustIndex

    path = (
        Path(index_cache) / f"appri_n{n}_d{d}_seed{SEED}.snap"
        if index_cache
        else None
    )
    if path is not None and path.exists():
        return load_snapshot(path, mmap=False), None
    data = uniform(n, d, seed=SEED)
    started = time.perf_counter()
    index = RobustIndex(data, n_partitions=10, workers=workers)
    build_seconds = time.perf_counter() - started
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_snapshot(index, path)
    return index, build_seconds


def bench_config(
    n: int,
    d: int,
    k: int = K,
    n_queries: int = N_QUERIES,
    workers: int = 2,
    index_cache=INDEX_CACHE,
    cache_capacity: int = 4096,
) -> dict:
    from repro.engine.cache import ResultCache, cached_query
    from repro.queries.workload import simplex_workload

    index, build_seconds = _load_or_build(n, d, k, workers, index_cache)
    workload = simplex_workload(d, n_queries, seed=SEED + 1)

    # Warm every path (BLAS/GEMM setup, page faults on the slab).
    index.query(workload[0], k)
    index.query_batch(workload[:8], k)

    def seed_query(query, depth=k):
        # Pre-slab per-query path: fancy gather from the original
        # matrix + full-lexsort ranking + per-query layer max.
        candidates = index.layered.prefix(depth)[1]
        scores = query.scores(index.points[candidates])
        order = np.lexsort((candidates, scores))
        layers = index.layers[candidates].max() if candidates.size else 0
        return candidates[order[:depth]], int(layers)

    seed_query(workload[0])
    seed_latencies: list[float] = []
    seed_tids = []
    for query in workload:
        started = time.perf_counter()
        tids, _ = seed_query(query)
        seed_latencies.append(time.perf_counter() - started)
        seed_tids.append(tids)
    seed_seconds = sum(seed_latencies)

    loop_latencies: list[float] = []
    loop_tids = []
    for query in workload:
        started = time.perf_counter()
        result = index.query(query, k)
        loop_latencies.append(time.perf_counter() - started)
        loop_tids.append(result.tids)
    loop_seconds = sum(loop_latencies)

    batch_seconds = float("inf")
    batch_results = None
    for _ in range(3):
        started = time.perf_counter()
        candidate = index.query_batch(workload, k)
        batch_seconds = min(batch_seconds, time.perf_counter() - started)
        batch_results = candidate

    cache = ResultCache(cache_capacity)
    for query in workload:  # cold pass fills the cache
        cached_query(cache, index, query, k, scope="bench")
    cache_latencies: list[float] = []
    cache_tids = []
    for query in workload:
        started = time.perf_counter()
        result = cached_query(cache, index, query, k, scope="bench")
        cache_latencies.append(time.perf_counter() - started)
        cache_tids.append(result.tids)
    cache_seconds = sum(cache_latencies)

    weights = np.array([q.weights for q in workload])
    ks = np.random.default_rng(SEED + 2).choice(MIXED_KS, size=n_queries)
    mixed_seconds = per_k_seconds = float("inf")
    mixed_results = None
    for _ in range(3):
        started = time.perf_counter()
        mixed_results = index.query_batch(weights, ks)
        mixed_seconds = min(mixed_seconds, time.perf_counter() - started)
        started = time.perf_counter()
        for depth in MIXED_KS:
            index.query_batch(weights[ks == depth], depth)
        per_k_seconds = min(per_k_seconds, time.perf_counter() - started)
    mixed_latencies: list[float] = []
    for query, depth, result in zip(workload, ks.tolist(), mixed_results):
        started = time.perf_counter()
        single = index.query(query, depth)
        mixed_latencies.append(time.perf_counter() - started)
        if (
            result.tids.tolist() != single.tids.tolist()
            or result.retrieved != single.retrieved
            or result.layers_scanned != single.layers_scanned
        ):
            raise AssertionError(
                f"n={n} d={d}: mixed-k query_batch row at k={depth} "
                "differs from index.query"
            )
    # The single-query kernel picks its head strategy by prefix size, so
    # check it against the full lexsort at every prefix the mix uses.
    for depth in MIXED_KS:
        for query in workload:
            tids = index.query(query, depth).tids
            if tids.tolist() != seed_query(query, depth)[0].tolist():
                raise AssertionError(
                    f"n={n} d={d}: index.query at k={depth} differs "
                    "from the full-lexsort loop_seed ranking"
                )

    exact = all(
        list(seed_tids[i])
        == list(loop_tids[i])
        == list(batch_results[i].tids)
        == list(cache_tids[i])
        for i in range(n_queries)
    )
    if not exact:
        raise AssertionError(
            f"n={n} d={d}: loop/batch/cache answers diverged — the "
            "serving paths must be interchangeable"
        )

    record = {
        "n": n,
        "d": d,
        "k": k,
        "n_queries": n_queries,
        "candidates_per_query": int(index.retrieval_cost(k)),
        "n_layers": int(index.layers.max()),
        "build_seconds": (
            round(build_seconds, 3) if build_seconds is not None else None
        ),
        "loop_seed": _rates(seed_seconds, seed_latencies, n_queries),
        "loop": _rates(loop_seconds, loop_latencies, n_queries),
        "batch": _rates(batch_seconds, None, n_queries),
        "cache_warm": _rates(cache_seconds, cache_latencies, n_queries),
        "mixed_k": _rates(mixed_seconds, None, n_queries),
        "per_k": _rates(per_k_seconds, None, n_queries),
        "loop_mixed_k": _rates(
            sum(mixed_latencies), mixed_latencies, n_queries
        ),
        "exact": exact,
    }
    record["loop"]["speedup_vs_seed_loop"] = round(
        seed_seconds / loop_seconds, 2
    )
    record["batch"]["speedup_vs_seed_loop"] = round(
        seed_seconds / batch_seconds, 2
    )
    record["batch"]["speedup_vs_loop"] = round(
        loop_seconds / batch_seconds, 2
    )
    record["cache_warm"]["speedup_vs_seed_loop"] = round(
        seed_seconds / cache_seconds, 2
    )
    record["cache_warm"]["speedup_vs_loop"] = round(
        loop_seconds / cache_seconds, 2
    )
    return record


def render(records: list[dict]) -> str:
    lines = [
        f"query throughput — Q={N_QUERIES} simplex queries, top-{K}",
        "(speedups are vs the pre-slab per-query baseline `loop_seed`;",
        f" mixed-k: one query_batch with per-row k from {MIXED_KS},",
        " per-k: one query_batch per distinct k over the same rows,",
        " loop-mk: one index.query per row at its own k)",
        "",
        f"{'n':>7} {'d':>3} {'C':>7} | {'seed qps':>9} | "
        f"{'loop qps':>9} {'speedup':>8} | "
        f"{'batch qps':>9} {'speedup':>8} | {'cache qps':>9} {'speedup':>8} | "
        f"{'mixed-k qps':>11} {'per-k qps':>9} {'loop-mk qps':>11}",
    ]
    for r in records:
        lines.append(
            f"{r['n']:>7} {r['d']:>3} {r['candidates_per_query']:>7} | "
            f"{r['loop_seed']['qps']:>9,.0f} | "
            f"{r['loop']['qps']:>9,.0f} "
            f"{r['loop']['speedup_vs_seed_loop']:>7.1f}x | "
            f"{r['batch']['qps']:>9,.0f} "
            f"{r['batch']['speedup_vs_seed_loop']:>7.1f}x | "
            f"{r['cache_warm']['qps']:>9,.0f} "
            f"{r['cache_warm']['speedup_vs_seed_loop']:>7.1f}x | "
            f"{r['mixed_k']['qps']:>11,.0f} {r['per_k']['qps']:>9,.0f} "
            f"{r['loop_mixed_k']['qps']:>11,.0f}"
        )
    return "\n".join(lines)


def run(configs, workers: int = 2, index_cache=INDEX_CACHE) -> dict:
    records = []
    for n, d in configs:
        records.append(
            bench_config(n, d, workers=workers, index_cache=index_cache)
        )
        print(f"done n={n} d={d}", file=sys.stderr)
    return {
        "benchmark": "query_throughput",
        "source": "benchmarks/bench_query_throughput.py",
        "params": {
            "n_queries": N_QUERIES,
            "k": K,
            "mixed_ks": list(MIXED_KS),
            "workload": "simplex",
            "seed": SEED,
            "n_partitions": 10,
        },
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": records,
    }


def test_query_throughput(benchmark, bench_data):
    """pytest-benchmark entry: one batched workload on shared data."""
    from repro.indexes.robust import RobustIndex
    from repro.queries.workload import simplex_workload

    from conftest import publish

    index = RobustIndex(bench_data, n_partitions=5)
    workload = simplex_workload(3, 64, seed=1)
    results = benchmark(lambda: index.query_batch(workload, 10))
    assert len(results) == 64
    report = run(QUICK_CONFIGS, index_cache=None)
    publish("bench_query_throughput", render(report["results"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny sizes for CI; writes only to benchmarks/results/",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="build workers when an index must be (re)built",
    )
    parser.add_argument(
        "--index-cache",
        default=str(INDEX_CACHE),
        help="directory for saved index .snap snapshots ('' disables)",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    index_cache = args.index_cache or None
    report = run(configs, workers=args.workers, index_cache=index_cache)
    text = render(report["results"])
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_query_throughput.txt").write_text(text + "\n")
    if not args.quick:
        out = REPO_ROOT / "BENCH_query_throughput.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
