"""Repository benchmark: ranked-SQL serving, mixed read/write
maintenance and index build.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sql_read --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of an untraced
run; with ``--trace 1`` the workload runs twice for half the time each,
untraced and then with per-layer spans (see ``tracing.py``), and the
metrics are the per-layer ones, including the tracing overhead between
the two passes.
The line before it records the machine and the seed.  Every run also
writes its result (and, when traced, its spans) under
``.perfbench_out/``.

The exit code is 0 when every sampled answer matched brute force, 1
when any operation failed or answered wrongly, and 2 when the program
under ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: BLAS / OpenMP pools are pinned to one thread: the benchmark's
#: parallelism is the build worker processes (at most two), and a
#: second thread pool would fight them for the same cores.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_mean_ms": "ms",
    "latency_tail_ms": "ms",
    "tuples_read_per_query": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sql.parse_us": "us",
    "planner.choose_us": "us",
    "executor.self_us": "us",
    "executor.batch_size_mean": "count",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us": "us",
    "cache.evictions": "count",
    "relation.take_us": "us",
    "index.batch_us_per_query": "us",
    "qkernel.batch_topk_us_per_query": "us",
    "index.candidates_per_query": "count",
    "dynamic.query_us": "us",
    "dynamic.insert_ms": "ms",
    "dynamic.delete_ms": "ms",
    "dynamic.layer_for_new_tuple_ms": "ms",
    "rebuild.runs": "count",
    "rebuild.discard_ratio": "ratio",
    "rebuild.build_s": "s",
    "build.phase.dominators_s": "s",
    "build.phase.levels_s": "s",
    "build.phase.matching_s": "s",
    "build.phase.aggregate_s": "s",
    "counting.kernel_s": "s",
    "build.pool_used": "ratio",
    "exact.kinetic_2d_s": "s",
    "exact.events": "count",
    "exact.probes": "count",
    "snapshot.save_ms": "ms",
    "snapshot.load_ms": "ms",
    "snapshot.bytes": "bytes",
    "trace.overhead_pct": "%",
    "host.reference_ms": "ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans: dict, collected, stats: dict, plain_stats: dict) -> dict:
    """Per-layer figures of one traced run.

    ``spans`` is :meth:`SpanRecorder.summary`; ``collected`` the
    ``repro.obs`` metrics gathered around the run (the rebuild
    worker's own metrics arrive through ``stats['rebuild']``, because
    that thread does not see the caller's collector); ``plain_stats``
    are the driver figures of the untraced pass.
    """
    from repro import obs

    counters = dict(collected.counters)
    timers = dict(collected.timers)
    rebuild = stats.get("rebuild") or obs.Metrics()
    for name, value in rebuild.counters.items():
        counters[name] = counters.get(name, 0) + value
    for name, value in rebuild.timers.items():
        timers[name] = timers.get(name, 0.0) + value

    def calls(name):
        return spans.get(name, {}).get("count", 0)

    def per_call(name, field, scale):
        entry = spans.get(name)
        return _ratio(entry[field], entry["count"]) * scale if entry else 0.0

    def counter(name):
        return counters.get(name, 0)

    batch_queries = counter("index.batch.queries")
    single_queries = counter("index.queries")
    appri_builds = calls("appri.build")
    exact_builds = calls("exact.build")
    executor_self = spans.get("executor.execute_many", {}).get("self_s", 0.0)
    runs = counter("rebuild.runs")
    return {
        "sql.parse_us": per_call("sql.parse", "self_s", 1e6),
        "planner.choose_us": per_call("planner.choose", "self_s", 1e6),
        "executor.self_us": _ratio(executor_self, stats.get("statements", 0)) * 1e6,
        # Statements served by index groups: every statement counts in
        # query.count, and each planner fallback went through execute_auto.
        "executor.batch_size_mean": _ratio(
            counter("query.count") - calls("executor.execute_auto"),
            counter("query.batches"),
        ),
        "cache.hit_ratio": _ratio(
            counter("cache.hits"), counter("cache.hits") + counter("cache.misses")
        ),
        "cache.lookup_us": per_call("cache.lookup", "self_s", 1e6),
        "cache.evictions": counter("cache.evictions"),
        "relation.take_us": per_call("relation.take", "self_s", 1e6),
        "index.batch_us_per_query": _ratio(
            spans.get("index.query_batch", {}).get("self_s", 0.0), batch_queries
        ) * 1e6,
        "qkernel.batch_topk_us_per_query": _ratio(
            spans.get("qkernel.batch_topk", {}).get("total_s", 0.0), batch_queries
        ) * 1e6,
        "index.candidates_per_query": _ratio(
            counter("index.batch.candidates") + counter("index.candidates"),
            batch_queries + single_queries,
        ),
        "dynamic.query_us": per_call("dynamic.query", "total_s", 1e6),
        "dynamic.insert_ms": per_call("dynamic.insert", "total_s", 1e3),
        "dynamic.delete_ms": per_call("dynamic.delete", "total_s", 1e3),
        "dynamic.layer_for_new_tuple_ms": per_call(
            "dynamic.layer_for_new_tuple", "total_s", 1e3
        ),
        "rebuild.runs": runs,
        "rebuild.discard_ratio": _ratio(counter("rebuild.discarded"), runs),
        "rebuild.build_s": _ratio(timers.get("rebuild.build", 0.0), runs),
        "build.phase.dominators_s": _ratio(
            timers.get("build.phase.dominators", 0.0), appri_builds
        ),
        "build.phase.levels_s": _ratio(
            timers.get("build.phase.levels", 0.0), appri_builds
        ),
        "build.phase.matching_s": _ratio(
            timers.get("build.phase.matching", 0.0), appri_builds
        ),
        "build.phase.aggregate_s": _ratio(
            timers.get("build.phase.aggregate", 0.0), appri_builds
        ),
        "counting.kernel_s": _ratio(timers.get("counting.kernel", 0.0), appri_builds),
        "build.pool_used": _ratio(counter("build.pool_used"), appri_builds),
        "exact.kinetic_2d_s": _ratio(timers.get("exact.kinetic_2d", 0.0), exact_builds),
        "exact.events": _ratio(counter("exact.events"), exact_builds),
        "exact.probes": _ratio(counter("exact.probes"), exact_builds),
        "snapshot.save_ms": per_call("snapshot.save", "total_s", 1e3),
        "snapshot.load_ms": per_call("snapshot.load", "total_s", 1e3),
        "snapshot.bytes": _ratio(
            counter("snapshot.bytes_written"), counter("snapshot.saves")
        ),
        "trace.overhead_pct": 100.0 * (
            _ratio(plain_stats["throughput"], stats["throughput"]) - 1.0
        ),
        "host.reference_ms": plain_stats["reference_ms"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, sizes: dict | None = None) -> dict:
    """Run one workload; returns the result object the CLI prints."""
    from repro import obs

    from common import HostSpeed, Tally, peak_rss_mb
    from tracing import SpanRecorder
    from workloads import SIZES, WORKLOADS

    fn = WORKLOADS[workload]
    cfg = dict(SIZES[workload], **(sizes or {}))
    workdir = out_dir / f"work-{os.getpid()}"
    tally = Tally()
    try:
        if not trace:
            stats: dict = {}
            metrics, verify = fn(
                seed, seconds, cfg["setups"], cfg, tally, stats, workdir=workdir
            )
            verify(tally)
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END_UNITS
        else:
            # Two passes of half the run each, so a traced run costs
            # about as much as an untraced one.
            seconds = seconds / 2
            plain_stats: dict = {}
            _, verify = fn(seed, seconds, 1, cfg, tally, plain_stats, workdir=workdir)
            verify(tally)
            stats = {}
            recorder = SpanRecorder()
            collected = obs.Metrics()
            recorder.install()
            try:
                with obs.collect(collected):
                    _, verify = fn(
                        seed, seconds, 1, cfg, tally, stats,
                        recorder=recorder, workdir=workdir,
                    )
            finally:
                recorder.uninstall()
            verify(tally)
            metrics = layer_metrics(
                recorder.summary(), collected, stats, plain_stats
            )
            recorder.write(out_dir / f"spans-{workload}-{seed}.tsv")
            units = PER_LAYER_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(
        f"perfbench: {tally.checked} sampled answers checked against brute "
        f"force; {tally.failed} of {tally.attempted} operations failed; "
        f"host reference {stats['reference_ms']:.3f} ms "
        f"(timings reported at {HostSpeed.NOMINAL_S * 1e3:.3f} ms)",
        file=sys.stderr,
    )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def machine(workload: str, seed: int, trace: int) -> dict:
    """The machine and inputs a result was measured with."""
    import numpy as np

    from workloads import build_workers

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "build_workers": build_workers(),
    }


def prepare() -> bool:
    """Pin the thread pools and make ``src/`` importable.

    Must run before NumPy is imported.  Returns ``False`` (after a
    message on standard error) when the program to measure is missing.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return False
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(src))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("sql_read", "mixed_rw", "build")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not prepare():
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    info = machine(args.workload, args.seed, args.trace)
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({"machine": info, **result}, indent=1))
    print("machine " + json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
