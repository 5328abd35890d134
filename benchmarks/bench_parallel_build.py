"""Pooled build schedule vs. the inline one.

Runs ``appri_build`` at ``workers=1`` (inline: one task per pair
system) and at increasing worker counts (gamma-level chunks over a
process pool), verifies the layer arrays are identical, and reports
wall-clock speedup plus the per-phase timer breakdown from the
``build.*`` metrics.

Every schedule runs the same fused bitset counting kernel
(:mod:`repro.core.kernels`) through one pipeline
(:mod:`repro.core.pipeline`), so on a single core their times are
near-identical; with more than one usable core the pool fans
per-system level chunks out across a ``ProcessPoolExecutor`` (the
``build.pool_used`` counter records whether the pool actually engaged
— on single-core machines it is bypassed because competing processes
would only add overhead).  The
kernel-vs-legacy speedup itself is measured by
``bench_build_kernels.py``.

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

FULL_N, QUICK_N = 20_000, 1_500
WORKER_COUNTS = (2, 4)


def run(n: int, d: int = 3, n_partitions: int = 10, seed: int = 0) -> str:
    from repro.core.appri import appri_build
    from repro.data import uniform

    data = uniform(n, d, seed=seed)

    started = time.perf_counter()
    serial = appri_build(data, n_partitions=n_partitions, workers=1)
    serial_seconds = time.perf_counter() - started

    lines = [
        f"parallel chunked build pipeline — n={n}, d={d}, B={n_partitions}",
        "",
        f"{'workers':>8}  {'seconds':>9}  {'speedup':>8}  {'pool':>5}  layers",
        f"{1:>8}  {serial_seconds:>9.2f}  {1.0:>7.2f}x  {'-':>5}  reference",
    ]
    for workers in WORKER_COUNTS:
        started = time.perf_counter()
        build = appri_build(data, n_partitions=n_partitions, workers=workers)
        seconds = time.perf_counter() - started
        identical = bool(np.array_equal(serial.layers, build.layers))
        if not identical:
            raise AssertionError(
                f"workers={workers} layers differ from serial — "
                "the schedules must be interchangeable"
            )
        pool = "yes" if build.metrics["counters"].get("build.pool_used") else "no"
        lines.append(
            f"{workers:>8}  {seconds:>9.2f}  "
            f"{serial_seconds / seconds:>7.2f}x  {pool:>5}  identical"
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
    """pytest-benchmark entry: time one chunked build on shared data."""
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
