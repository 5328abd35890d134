"""Pooled build schedule vs. the inline one.

Runs ``appri_build`` at ``workers=1`` (inline: one task over every
pair system and all tuple ids) and at increasing worker counts (the
tuple ids split into word-aligned ranges, one task each over every
system, on a process pool), verifies the layer arrays are identical, and reports
wall-clock speedup plus the per-phase timer breakdown from the
``build.*`` metrics.

Every schedule runs the same shared bitset counting kernel
(:mod:`repro.core.kernels`) through one pipeline
(:mod:`repro.core.pipeline`), and the id ranges split its work
without repeating any (the ``counting.prefix_words`` column matches
the inline build's).  With more than one usable core the pool fans
the id ranges out across a ``ProcessPoolExecutor`` (the
``build.pool_used`` counter records whether it engaged; on
single-core machines it is bypassed because competing processes
would only add overhead).  The kernel-vs-legacy speedup itself is
measured by ``bench_build_kernels.py``.

The run fails (non-zero exit) if any schedule's layers or prefix
word count differ from the inline build's, or if more than one core
is usable and the pool did not engage.  ``--quick`` builds n=5000,
above the pool's ``POOL_MIN_N`` threshold, so the CI smoke exercises
the pool.

Runnable standalone (CI smoke: ``python benchmarks/bench_parallel_build.py
--quick``) or through pytest via :func:`test_parallel_build_speedup`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

FULL_N, QUICK_N = 20_000, 5_000
WORKER_COUNTS = (2, 4)


def run(n: int, d: int = 3, n_partitions: int = 10, seed: int = 0) -> str:
    from repro.core import pipeline
    from repro.core.appri import appri_build
    from repro.data import uniform

    data = uniform(n, d, seed=seed)

    started = time.perf_counter()
    serial = appri_build(data, n_partitions=n_partitions, workers=1)
    serial_seconds = time.perf_counter() - started
    serial_words = serial.metrics["counters"]["counting.prefix_words"]

    lines = [
        f"pooled id-range build pipeline — n={n}, d={d}, B={n_partitions}",
        "",
        f"{'workers':>8}  {'seconds':>9}  {'speedup':>8}  {'pool':>5}  "
        f"{'ranges':>6}  {'prefix words':>13}  layers",
        f"{1:>8}  {serial_seconds:>9.2f}  {1.0:>7.2f}x  {'-':>5}  "
        f"{1:>6}  {serial_words:>13,d}  reference",
    ]
    expect_pool = n >= pipeline.POOL_MIN_N and pipeline._usable_cpus() > 1
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        build = appri_build(data, n_partitions=n_partitions, workers=workers)
        seconds = time.perf_counter() - started
        if not np.array_equal(serial.layers, build.layers):
            raise AssertionError(
                f"workers={workers} layers differ from serial — "
                "the schedules must be interchangeable"
            )
        counters = build.metrics["counters"]
        if expect_pool and not counters.get("build.pool_used"):
            raise AssertionError(
                f"workers={workers}: more than one usable CPU and "
                f"n={n} >= POOL_MIN_N, but the pool did not engage"
            )
        if counters["counting.prefix_words"] != serial_words:
            raise AssertionError(
                f"workers={workers} built "
                f"{counters['counting.prefix_words']:,d} prefix words, the "
                f"inline build {serial_words:,d}: a schedule repeated work"
            )
        pool = "yes" if counters.get("build.pool_used") else "no"
        lines.append(
            f"{workers:>8}  {seconds:>9.2f}  "
            f"{serial_seconds / seconds:>7.2f}x  {pool:>5}  "
            f"{counters['build.chunks']:>6}  "
            f"{counters['counting.prefix_words']:>13,d}  identical"
        )

    timers = build.metrics["timers"]
    lines.append("")
    lines.append(f"phase breakdown (workers={WORKER_COUNTS[-1]}):")
    for name, value in sorted(timers.items(), key=lambda kv: -kv[1]):
        if name.startswith("build."):
            lines.append(f"  {name:<28}{value:>9.2f}s")
    fused = build.metrics["counters"].get("counting.fused_levels", 0)
    lines.append(f"  fused kernel level passes   {fused:>9,d}")
    return "\n".join(lines)


def test_parallel_build_speedup(benchmark):
    """pytest-benchmark entry: time one pooled build on shared data."""
    from repro.core.appri import appri_build
    from repro.data import uniform

    from conftest import publish

    data = uniform(QUICK_N, 3, seed=0)
    build = benchmark(lambda: appri_build(data, workers=4))
    assert np.array_equal(build.layers, appri_build(data).layers)
    publish("bench_parallel_build", run(QUICK_N))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"small smoke run (n={QUICK_N}) instead of n={FULL_N}",
    )
    parser.add_argument("--n", type=int, default=None, help="override n")
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--partitions", type=int, default=10)
    args = parser.parse_args(argv)

    n = args.n if args.n is not None else (QUICK_N if args.quick else FULL_N)
    text = run(n, d=args.d, n_partitions=args.partitions)
    print(text)
    results = Path(__file__).parent / "results"
    results.mkdir(exist_ok=True)
    (results / "bench_parallel_build.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
