"""Cold-start vs rebuild: snapshot warm-start of a prebuilt index.

The question this benchmark answers: a process restarts and must serve
its first top-k query — how much faster is mapping a persistent
snapshot (:mod:`repro.engine.snapshot`) than re-running the AppRI
build from tuples?

Per (n, d) configuration, two ways to reach the first correct answer
against the same data:

``rebuild``
    ``RobustIndex(data)`` from scratch (the paper's build) + one
    query — what a restart without persistence costs.
``snapshot``
    ``load_snapshot`` of the checksummed snapshot file with
    ``mmap=True`` + one query — zero-copy: the layer-packed slab and
    all query artefacts map straight from disk, so only the pages the
    query touches are faulted in.

Both must return identical tids (asserted, also against the
ground-truth full scan).  The acceptance target is ``snapshot``
reaching the first correct answer >= 20x faster than ``rebuild`` at
n=50k, d=4.  Full runs write ``BENCH_snapshot.json`` at the repo
root; ``--quick`` runs a tiny size for CI and writes only the text
report to ``benchmarks/results/``.
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

FULL_CONFIGS = ((10_000, 4), (50_000, 4))
QUICK_CONFIGS = ((2_000, 3),)
K = 20
SEED = 0
LOAD_REPEATS = 5


def _first_answer_via_rebuild(data, query, k, workers):
    from repro.indexes.robust import RobustIndex

    started = time.perf_counter()
    index = RobustIndex(data, n_partitions=10, workers=workers)
    build_seconds = time.perf_counter() - started
    started = time.perf_counter()
    result = index.query(query, k)
    query_seconds = time.perf_counter() - started
    return index, result.tids, build_seconds, query_seconds


def _first_answer_via_loader(loader, query, k):
    """Best-of-N (load + first query) for a warm-start path."""
    best_load = best_query = float("inf")
    tids = None
    for _ in range(LOAD_REPEATS):
        started = time.perf_counter()
        index = loader()
        load_seconds = time.perf_counter() - started
        started = time.perf_counter()
        result = index.query(query, k)
        query_seconds = time.perf_counter() - started
        if load_seconds + query_seconds < best_load + best_query:
            best_load, best_query = load_seconds, query_seconds
        tids = result.tids
    return tids, best_load, best_query


def bench_config(n: int, d: int, k: int = K, workers: int = 2,
                 scratch_dir=None) -> dict:
    from repro.data import uniform
    from repro.engine.snapshot import load_snapshot, save_snapshot
    from repro.queries.ranking import LinearQuery
    from repro.queries.workload import simplex_workload

    scratch = Path(scratch_dir) if scratch_dir else RESULTS_DIR
    scratch.mkdir(parents=True, exist_ok=True)
    data = uniform(n, d, seed=SEED)
    query = LinearQuery(np.arange(1, d + 1, dtype=float))

    index, rebuild_tids, build_seconds, build_query_seconds = (
        _first_answer_via_rebuild(data, query, k, workers)
    )
    truth = query.top_k(data, k)

    snap_path = scratch / f"bench_snapshot_n{n}_d{d}.snap"
    started = time.perf_counter()
    save_snapshot(index, snap_path)
    save_seconds = time.perf_counter() - started

    snap_tids, snap_load, snap_query = _first_answer_via_loader(
        lambda: load_snapshot(snap_path, mmap=True), query, k
    )

    if not list(truth) == list(rebuild_tids) == list(snap_tids):
        raise AssertionError(
            f"n={n} d={d}: warm-start answers diverged from the rebuild"
        )
    # Round-trip exactness over a workload: the loaded index must be
    # bit-identical to the built one on every query, batched or not.
    workload = simplex_workload(d, 32, seed=SEED + 1)
    loaded = load_snapshot(snap_path, mmap=True)
    for wq in workload:
        if list(index.query(wq, k).tids) != list(loaded.query(wq, k).tids):
            raise AssertionError("snapshot round-trip changed an answer")
    batch_a = index.query_batch(workload, k)
    batch_b = loaded.query_batch(workload, k)
    if any(
        list(a.tids) != list(b.tids) for a, b in zip(batch_a, batch_b)
    ):
        raise AssertionError("snapshot round-trip changed a batch answer")

    rebuild_total = build_seconds + build_query_seconds
    snap_total = snap_load + snap_query
    snapshot_bytes = snap_path.stat().st_size
    snap_path.unlink()
    return {
        "n": n,
        "d": d,
        "k": k,
        "snapshot_bytes": snapshot_bytes,
        "rebuild": {
            "build_seconds": round(build_seconds, 4),
            "first_query_seconds": round(build_query_seconds, 6),
            "first_answer_seconds": round(rebuild_total, 4),
        },
        "snapshot": {
            "save_seconds": round(save_seconds, 6),
            "load_seconds": round(snap_load, 6),
            "first_query_seconds": round(snap_query, 6),
            "first_answer_seconds": round(snap_total, 6),
            "speedup_vs_rebuild": round(rebuild_total / snap_total, 1),
        },
        "round_trip_exact": True,
    }


def render(records: list[dict]) -> str:
    lines = [
        f"snapshot cold-start vs rebuild — first correct top-{K} answer",
        "(load times are best of "
        f"{LOAD_REPEATS}; speedups vs rebuilding from tuples)",
        "",
        f"{'n':>7} {'d':>3} | {'rebuild s':>10} | "
        f"{'snap ms':>9} {'speedup':>9}",
    ]
    for r in records:
        lines.append(
            f"{r['n']:>7} {r['d']:>3} | "
            f"{r['rebuild']['first_answer_seconds']:>10.2f} | "
            f"{r['snapshot']['first_answer_seconds'] * 1e3:>9.2f} "
            f"{r['snapshot']['speedup_vs_rebuild']:>8.0f}x"
        )
    return "\n".join(lines)


def run(configs, workers: int = 2, scratch_dir=None) -> dict:
    records = []
    for n, d in configs:
        records.append(
            bench_config(n, d, workers=workers, scratch_dir=scratch_dir)
        )
        print(f"done n={n} d={d}", file=sys.stderr)
    return {
        "benchmark": "snapshot_coldstart",
        "source": "benchmarks/bench_snapshot.py",
        "params": {
            "k": K,
            "seed": SEED,
            "n_partitions": 10,
            "load_repeats": LOAD_REPEATS,
        },
        "machine": {
            "cpus": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": records,
    }


def test_snapshot_coldstart(benchmark, bench_data, tmp_path):
    """pytest-benchmark entry: snapshot load of a small built index."""
    from repro.engine.snapshot import load_snapshot, save_snapshot
    from repro.indexes.robust import RobustIndex

    from conftest import publish

    index = RobustIndex(bench_data, n_partitions=5)
    path = tmp_path / "bench.snap"
    save_snapshot(index, path)
    loaded = benchmark(lambda: load_snapshot(path, mmap=True))
    assert loaded.size == index.size
    report = run(QUICK_CONFIGS, scratch_dir=tmp_path)
    publish("bench_snapshot", render(report["results"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny size for CI; writes only to benchmarks/results/",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=2,
        help="build workers for the rebuild leg",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    report = run(configs, workers=args.workers)
    text = render(report["results"])
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_snapshot.txt").write_text(text + "\n")
    if not args.quick:
        out = REPO_ROOT / "BENCH_snapshot.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
