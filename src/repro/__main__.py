"""Command-line interface: ``python -m repro <command>``.

Commands
--------
info
    Version and component inventory.
generate
    Write a synthetic or surrogate data set to CSV.
build
    Build a robust index over a CSV file and save it as a snapshot.
query
    Run a top-k query against a saved index.
audit
    Check a saved index's layering soundness.
sql
    Execute a ranked SQL statement against a CSV-backed table.
figure
    Regenerate one of the paper's tables/figures.
stats
    Build an index with instrumentation on and report per-phase build
    metrics plus query-path statistics over a random workload.
snapshot
    Warm-start from or inspect a versioned, checksummed snapshot file
    written by ``build``: ``load`` / ``info`` subcommands.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args) -> int:
    import repro

    print(f"repro {repro.__version__} — robust indexing for ranked queries")
    print("paper: Xin, Chen & Han, VLDB 2006")
    print("indexes:", ", ".join(sorted(_builders())))
    return 0


def _builders():
    from repro.experiments.harness import INDEX_BUILDERS

    return INDEX_BUILDERS


def _cmd_generate(args) -> int:
    from repro.data import (
        abalone3d,
        anticorrelated,
        correlated,
        cover3d,
        uniform,
    )
    from repro.data.io import save_csv

    if args.kind == "uniform":
        data = uniform(args.n, args.d, seed=args.seed)
    elif args.kind == "correlated":
        data = correlated(args.n, args.d, args.c, seed=args.seed)
    elif args.kind == "anticorrelated":
        data = anticorrelated(args.n, args.d, seed=args.seed)
    elif args.kind == "abalone":
        data = abalone3d()[: args.n]
    else:
        data = cover3d(n=args.n)
    names = [f"a{i + 1}" for i in range(data.shape[1])]
    save_csv(args.output, names, data)
    print(f"wrote {data.shape[0]} x {data.shape[1]} tuples to {args.output}")
    return 0


def _cmd_build(args) -> int:
    from repro.data import minmax_normalize
    from repro.data.io import load_csv
    from repro.engine.snapshot import save_snapshot
    from repro.indexes.robust import RobustIndex

    names, data = load_csv(args.data)
    if args.normalize:
        data = minmax_normalize(data)
    index = RobustIndex(
        data,
        n_partitions=args.partitions,
        systems=args.systems,
        refine="peel" if args.peel else None,
        workers=args.workers,
    )
    save_snapshot(index, args.output)
    info = index.build_info()
    print(
        f"indexed {index.size} tuples ({', '.join(names)}): "
        f"{info['n_layers']} layers in {info['build_seconds']:.2f}s "
        f"-> {args.output}"
    )
    return 0


def _parse_weights(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",") if x.strip()])
    except ValueError:
        raise SystemExit(f"bad --weights {text!r}; expected e.g. 1,2,4")


def _cmd_query(args) -> int:
    from repro.engine.snapshot import load_snapshot
    from repro.queries.ranking import LinearQuery

    index = load_snapshot(args.index)
    query = LinearQuery(_parse_weights(args.weights))
    result = index.query(query, args.k)
    print(
        f"top-{args.k} of {index.size} tuples "
        f"(retrieved {result.retrieved}):"
    )
    for rank, tid in enumerate(result.tids, 1):
        values = ", ".join(f"{v:.4g}" for v in index.points[tid])
        print(f"  {rank:3d}. tid={tid}  ({values})")
    return 0


def _cmd_audit(args) -> int:
    from repro.core.validate import audit_layering
    from repro.engine.snapshot import load_snapshot

    index = load_snapshot(args.index)
    report = audit_layering(
        index.points,
        index.layers,
        n_queries=args.queries,
        seed=args.seed,
    )
    print(report.summary())
    return 0 if report.sound else 1


def _cmd_sql(args) -> int:
    from repro.core.appri import appri_layers
    from repro.data.io import relation_from_csv
    from repro.engine import Catalog, TopKExecutor
    from repro.engine.executor import materialize_layers
    from repro.engine.sql import parse

    parsed = parse(args.statement)
    catalog = Catalog()
    relation = relation_from_csv(parsed.table, args.data)
    catalog.create_table(relation)
    executor = TopKExecutor(catalog)
    if parsed.layer_bound is not None:
        layers = appri_layers(relation.matrix(), n_partitions=args.partitions)
        materialize_layers(catalog, parsed.table, layers)
    result = executor.execute(parsed)
    if result.plan == "explain":
        print(result.extra["text"])
        return 0
    print(f"plan: {result.plan}   retrieved: {result.retrieved} tuples, "
          f"{result.blocks_read} blocks")
    names = result.rows.schema.names
    print("  ".join(names))
    for tid in result.tids:
        row = catalog.table(parsed.table).row(int(tid))
        print("  ".join(f"{row[n]:.6g}" for n in names))
    return 0


def _cmd_stats(args) -> int:
    from repro import obs
    from repro.data import minmax_normalize, uniform
    from repro.data.io import load_csv
    from repro.engine.cache import ResultCache, cached_query
    from repro.geometry.weights import sample_simplex
    from repro.indexes.robust import RobustIndex
    from repro.queries.ranking import LinearQuery

    if args.data:
        _, data = load_csv(args.data)
        if args.normalize:
            data = minmax_normalize(data)
    else:
        data = uniform(args.n, args.d, seed=args.seed)
    index = RobustIndex(
        data,
        n_partitions=args.partitions,
        systems=args.systems,
        workers=args.workers,
    )
    build = obs.Metrics.from_dict(index.build_metrics)
    print(
        build.summary(
            f"build metrics (n={index.size}, d={data.shape[1]}, "
            f"B={args.partitions}, workers={args.workers}):"
        )
    )

    counting = obs.Metrics()
    counting.counters = {
        name: value
        for name, value in build.counters.items()
        if name.startswith("counting.")
    }
    counting.timers = {
        name: value
        for name, value in build.timers.items()
        if name.startswith("counting.")
    }
    if counting:
        print()
        print(
            counting.summary(
                "dominance counting (kernel path, kernel time):"
            )
        )

    workload = [
        LinearQuery(weights)
        for weights in sample_simplex(
            data.shape[1], args.queries, seed=args.seed
        )
    ]
    query_metrics = obs.Metrics()
    with obs.collect(query_metrics):
        for query in workload:
            index.query(query, args.k)
    print()
    print(
        query_metrics.summary(
            f"query metrics ({args.queries} random top-{args.k} queries):"
        )
    )
    queries = query_metrics.counters.get("index.queries", 0)
    if queries:
        candidates = query_metrics.counters.get("index.candidates", 0)
        print(
            f"\nmean candidates per query: {candidates / queries:.1f} "
            f"of {index.size} tuples "
            f"({100.0 * candidates / (queries * index.size):.1f}% retrieved)"
        )

    index.query_batch(workload[:8], args.k)  # warm the GEMM path
    batch_metrics = obs.Metrics()
    with obs.collect(batch_metrics):
        index.query_batch(workload, args.k)
    print()
    print(
        batch_metrics.summary(
            f"batch metrics (same {args.queries} queries, one "
            "vectorized query_batch call):"
        )
    )
    loop_s = query_metrics.timers.get("index.query", 0.0)
    batch_s = batch_metrics.timers.get("index.batch", 0.0)
    if batch_s > 0:
        print(f"\nbatch speedup over the per-query loop: {loop_s / batch_s:.1f}x")

    if args.exact:
        print()
        if data.shape[1] <= 3:
            from repro.indexes.robust import ExactRobustIndex

            eidx = ExactRobustIndex(data, workers=args.workers)
            einfo = eidx.build_info()
            emetrics = obs.Metrics.from_dict(eidx.build_metrics)
            print(
                emetrics.summary(
                    f"exact build metrics (engine={einfo['engine']}, "
                    f"{einfo['build_seconds']:.2f}s, "
                    f"{einfo['n_layers']} layers):"
                )
            )
            print()
            print(_exactness_gap(index.layers, eidx.layers))
        else:
            from repro.core.exact import minimal_rank_sampled

            rng = np.random.default_rng(args.seed)
            sample = rng.choice(
                data.shape[0],
                size=min(32, data.shape[0]),
                replace=False,
            )
            bounds = [
                minimal_rank_sampled(data, int(t), with_bounds=True)
                for t in sample
            ]
            gaps = np.array([b.gap for b in bounds])
            closed = int(np.count_nonzero(gaps == 0))
            print(
                f"exact rank bounds (d={data.shape[1]} > 3: sampled "
                f"upper vs dominance lower, {sample.size} tuples):"
            )
            print(
                f"  gap min/median/max: {int(gaps.min())}/"
                f"{int(np.median(gaps))}/{int(gaps.max())}   "
                f"closed (gap 0): {closed}/{sample.size}"
            )

    if args.cache_size > 0:
        # Cache-warm serving demo: one cold pass at k (misses), one
        # pass at a shallower k served by truncating the deep answers.
        cache = ResultCache(args.cache_size)
        shallow = max(1, args.k // 2)
        cache_metrics = obs.Metrics()
        with obs.collect(cache_metrics):
            for query in workload:
                cached_query(cache, index, query, args.k, scope="stats")
            for query in workload:
                cached_query(cache, index, query, shallow, scope="stats")
        print()
        print(
            cache_metrics.summary(
                f"cache metrics (capacity {args.cache_size}; cold top-"
                f"{args.k} pass, then top-{shallow} served by truncation):"
            )
        )
    return 0


def _exactness_gap(approx: np.ndarray, exact: np.ndarray) -> str:
    """How far AppRI layers sit above the exact ones (the ablation's gap).

    A sound layering never puts a tuple *deeper* than its exact layer,
    so any such tuple is reported as UNSOUND.
    """
    n = approx.size
    shallower = int(np.count_nonzero(approx < exact))
    ratio = float(np.mean(approx / exact)) if n else 1.0
    lines = [
        f"exactness gap: {shallower} of {n} tuples sit shallower than "
        f"their exact robust layer (mean approx/exact layer ratio "
        f"{ratio:.3f})"
    ]
    deeper = int(np.count_nonzero(approx > exact))
    if deeper:
        lines.append(
            f"UNSOUND: {deeper} of {n} tuples sit deeper than their "
            f"exact robust layer"
        )
    return "\n".join(lines)


def _cmd_snapshot_load(args) -> int:
    import time

    from repro.engine.snapshot import load_snapshot
    from repro.queries.ranking import LinearQuery

    started = time.perf_counter()
    index = load_snapshot(
        args.snapshot, mmap=not args.no_mmap, verify=not args.no_verify
    )
    load_ms = (time.perf_counter() - started) * 1e3
    info = index.build_info()
    print(
        f"{type(index).__name__}: {index.size} tuples, "
        f"{info['n_layers']} layers, loaded in {load_ms:.2f} ms "
        f"({'copied' if args.no_mmap else 'memory-mapped'})"
    )
    if args.weights is not None:
        query = LinearQuery(_parse_weights(args.weights))
        started = time.perf_counter()
        result = index.query(query, args.k)
        query_ms = (time.perf_counter() - started) * 1e3
        print(
            f"top-{args.k} in {query_ms:.2f} ms "
            f"(retrieved {result.retrieved}):"
        )
        for rank, tid in enumerate(result.tids, 1):
            values = ", ".join(f"{v:.4g}" for v in index.points[tid])
            print(f"  {rank:3d}. tid={tid}  ({values})")
    return 0


def _cmd_snapshot_info(args) -> int:
    from repro.engine.snapshot import snapshot_info

    info = snapshot_info(args.snapshot)
    print(f"{args.snapshot}: snapshot format v{info['format_version']}")
    print(f"  kind:       {info['kind']} ({info['class']})")
    print(f"  tuples:     {info['n_points']} x {info['dimensions']}")
    layers = info["n_layers"]
    print(f"  layers:     {'unknown' if layers is None else layers}")
    print(f"  file size:  {info['file_size']} bytes")
    for name, buf in info["buffers"].items():
        shape = "x".join(str(s) for s in buf["shape"])
        print(
            f"    {name:<12} {buf['dtype']:<8} {shape:>12}  "
            f"{buf['nbytes']} bytes  crc32 {buf['crc32']:#010x}"
        )
    if info["meta"]:
        print(f"  meta:       {info['meta']}")
    return 0


def _cmd_snapshot(args) -> int:
    handlers = {
        "load": _cmd_snapshot_load,
        "info": _cmd_snapshot_info,
    }
    return handlers[args.snapshot_command](args)


def _cmd_figure(args) -> int:
    from repro import experiments

    size_kw = "n"
    runners = {
        "table1": experiments.table1,
        "fig6": experiments.fig6_fig7,
        "fig7": experiments.fig6_fig7,
        "fig8": experiments.fig8,
        "fig9": experiments.fig9,
        "fig10": experiments.fig10,
        "fig11": experiments.fig11,
        "fig12": experiments.fig12,
        "fig13": experiments.fig13,
        "fig14": experiments.fig14,
    }
    if args.name not in runners:
        raise SystemExit(
            f"unknown figure {args.name!r}; choose from {sorted(runners)}"
        )
    kwargs = {}
    if args.n is not None:
        # fig8/fig11 sweep sizes rather than taking a single n.
        if args.name in ("fig8", "fig11"):
            kwargs["sizes"] = [args.n // 2, args.n]
        else:
            kwargs[size_kw] = args.n
    result = runners[args.name](**kwargs)
    print(result["text"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (kept separate for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version and component inventory")

    p = sub.add_parser("generate", help="write a data set to CSV")
    p.add_argument("--kind", default="uniform",
                   choices=["uniform", "correlated", "anticorrelated",
                            "abalone", "cover"])
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--c", type=float, default=0.5,
                   help="correlation parameter (correlated kind)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("build", help="build and save a robust index")
    p.add_argument("data", help="input CSV (header + numeric rows)")
    p.add_argument("-o", "--output", required=True,
                   help="output snapshot file")
    p.add_argument("--partitions", type=int, default=10)
    p.add_argument("--systems", default="complementary",
                   choices=["complementary", "families"])
    p.add_argument("--peel", action="store_true",
                   help="apply the shell-peel refinement")
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize attributes before indexing")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for large builds")

    p = sub.add_parser("query", help="top-k query against a saved index")
    p.add_argument("index", help="snapshot file from 'build'")
    p.add_argument("--weights", required=True, help="e.g. 1,2,4")
    p.add_argument("-k", type=int, default=10)

    p = sub.add_parser("audit", help="verify a saved index's soundness")
    p.add_argument("index", help="snapshot file from 'build'")
    p.add_argument("--queries", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("sql", help="run a ranked SQL statement on a CSV")
    p.add_argument("data", help="CSV backing the table named in FROM")
    p.add_argument("statement",
                   help='e.g. "SELECT TOP 5 FROM t ORDER BY 2*a1 + a2"')
    p.add_argument("--partitions", type=int, default=10,
                   help="AppRI partitions when a layer column is needed")

    p = sub.add_parser("figure", help="regenerate a paper table/figure")
    p.add_argument("name", help="table1 or fig6..fig14")
    p.add_argument("--n", type=int, default=None,
                   help="override the data size (quick look)")

    p = sub.add_parser(
        "stats", help="build with instrumentation and report metrics",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro stats --n 2000 --d 3 --workers 2 "
            "--queries 200 -k 10\n"
            "builds a 2000x3 synthetic index and prints per-phase build\n"
            "timers, query-path candidate counts, the vectorized-batch\n"
            "speedup, and result-cache hit rates."
        ),
    )
    p.add_argument("--data", default=None,
                   help="input CSV; omitted = synthetic uniform data")
    p.add_argument("--n", type=int, default=2000,
                   help="synthetic data size (no --data)")
    p.add_argument("--d", type=int, default=3,
                   help="synthetic dimensionality (no --data)")
    p.add_argument("--partitions", type=int, default=10)
    p.add_argument("--systems", default="complementary",
                   choices=["complementary", "families"])
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for large builds")
    p.add_argument("--normalize", action="store_true",
                   help="min-max normalize attributes before indexing")
    p.add_argument("--queries", type=int, default=100,
                   help="random top-k queries for the query-path stats")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cache-size", type=int, default=256,
                   help="result-cache capacity for the cache-serving "
                        "report (0 disables the cache section)")
    p.add_argument("--exact", action="store_true",
                   help="also build the exact layers (d <= 3) and "
                        "report exact.* metrics plus the exactness gap; "
                        "for d > 3 report sampled rank-bound gaps")

    p = sub.add_parser(
        "snapshot",
        help="load/inspect persistent index snapshots",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro generate --n 5000 --d 3 -o data.csv\n"
            "  python -m repro build data.csv -o data.snap\n"
            "  python -m repro snapshot load data.snap --weights 1,2,4 -k 5\n"
            "builds once, persists the index, then warm-starts a fresh\n"
            "process from the memory-mapped snapshot in milliseconds."
        ),
    )
    snap_sub = p.add_subparsers(dest="snapshot_command", required=True)

    sp = snap_sub.add_parser(
        "load", help="warm-start an index from a snapshot, optionally query",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "example:\n"
            "  python -m repro snapshot load data.snap --weights 1,2,4 -k 5"
        ),
    )
    sp.add_argument("snapshot", help="snapshot file from 'build'")
    sp.add_argument("--weights", default=None,
                    help="run one top-k query, e.g. 1,2,4")
    sp.add_argument("-k", type=int, default=10)
    sp.add_argument("--no-mmap", action="store_true",
                    help="copy buffers into RAM instead of memory-mapping")
    sp.add_argument("--no-verify", action="store_true",
                    help="skip per-buffer checksum verification")

    sp = snap_sub.add_parser(
        "info", help="print a snapshot's header without loading buffers",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="example:\n  python -m repro snapshot info data.snap",
    )
    sp.add_argument("snapshot", help=".snap file to inspect")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "generate": _cmd_generate,
    "build": _cmd_build,
    "query": _cmd_query,
    "audit": _cmd_audit,
    "sql": _cmd_sql,
    "figure": _cmd_figure,
    "stats": _cmd_stats,
    "snapshot": _cmd_snapshot,
}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
