"""The benchmark's workloads.

Each workload function takes ``(seed, seconds, setups, cfg, tally,
stats)``, generates its inputs from ``seed``, sets the system up
``setups`` times (timing each), drives it for ``seconds`` and returns
``(metrics, verify)``: the end-to-end metrics of the run and a
callable that checks the sampled answers against brute force.  The
caller runs ``verify`` after timing (and after tracing is removed), so
checking never costs measured time.  ``stats`` receives driver-side
figures the traced run reports (throughput, host reference time,
rebuild-manager metrics).

The workloads only use public entry points: ``TopKExecutor``,
``RobustIndex`` / ``ExactRobustIndex``, ``DynamicRobustIndex`` with
``RebuildManager``, and ``save_snapshot`` / ``load_snapshot``.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro import DynamicRobustIndex, ExactRobustIndex, LinearQuery, RobustIndex
from repro.engine import snapshot
from repro.engine.catalog import Catalog
from repro.engine.executor import TopKExecutor
from repro.engine.rebuild import RebuildManager
from repro.engine.relation import Relation

from common import HostSpeed, Tally, percentile, pinned

__all__ = ["SIZES", "WORKLOADS", "build_workers"]

#: Every query's k is drawn uniformly from these values.  A few shared
#: values let ``execute_many`` coalesce statements with the same k into
#: one ``query_batch``.
K_CHOICES = (10, 20, 50, 100)


def _draw_k(rng, count: int) -> np.ndarray:
    return rng.choice(np.array(K_CHOICES), size=count)


#: Workload shapes (the figures BENCHMARK.json documents).
SIZES = {
    "sql_read": {
        "n": 10_000,
        "d": 4,
        "pool": 8192,  # distinct weight directions
        "cache": 512,  # result-cache entries (pool is 16x larger)
        "zipf": 0.6,  # popularity exponent over the pool
        "negative": 0.02,  # share of statements with a negative weight
        "negative_pool": 64,
        "clients": 64,  # closed-loop virtual clients
        "round_s": 1.25,  # one closed-loop and one single-client spell
        "closed_share": 0.4,  # share of each round in the closed loop
        "warmup": 4096,  # untimed statements that fill each fresh cache
        "check_every": 29,  # every N-th statement is checked
        "setups": 3,
    },
    "mixed_rw": {
        "n": 2_000,
        "d": 3,
        "burst": 8,  # upserts per burst: 16 updates, the rebuild threshold
        "burst_every": 1.0,  # seconds between bursts
        "check_every": 23,
        "setups": 15,
    },
    "build": {
        "n_appri": 3_000,
        "d_appri": 4,
        "n_exact": 6_000,
        "queries": 24,  # first answers per loaded index per cycle
        "references": 8,  # host-speed reference timings between cycles
        "setups": 51,  # warm starts
    },
}


def build_workers() -> int:
    """Build worker processes: at most two, never more than the CPUs."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def _median_time(fn, times: int):
    """Run ``fn`` ``times`` times; return ``(median seconds, last result)``."""
    samples = []
    result = None
    for _ in range(times):
        started = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), result


# ---------------------------------------------------------------------------
# sql_read: ranked SQL through the executor, result cache on
# ---------------------------------------------------------------------------


def _linear_sql(names, weights) -> str:
    """``ORDER BY`` expression for ``weights`` over ``names``."""
    terms = []
    for name, w in zip(names, weights):
        term = f"{abs(w):.6f}*{name}"
        if w < 0:
            terms.append(f"- {term}")
        else:
            terms.append(f"+ {term}" if terms else term)
    return " ".join(terms)


class _Statements:
    """A stream of ranked SQL statements with their exact weights.

    Weights are parsed back from the printed text, so the oracle ranks
    with exactly the floats the executor sees.
    """

    def __init__(self, texts, weights, ks):
        self.texts = texts
        self.weights = weights
        self.ks = ks


class _StatementPool:
    """Weight directions (Zipf-popular) plus a small pool of directions
    with one negative weight, which the executor must scan."""

    def __init__(self, rng, cfg, names, table):
        d = len(names)
        raw = np.clip(rng.dirichlet(np.ones(d), size=cfg["pool"]), 1e-6, None)
        neg = np.clip(
            rng.dirichlet(np.ones(d), size=cfg["negative_pool"]), 1e-6, None
        )
        flip = rng.integers(0, d, size=cfg["negative_pool"])
        neg[np.arange(neg.shape[0]), flip] *= -1.0
        self._weights = np.array(
            [[f"{w:.6f}" for w in row] for row in np.vstack([raw, neg])],
            dtype=float,
        )
        self._exprs = [_linear_sql(names, row) for row in self._weights]
        self._table = table
        ranks = np.arange(1, cfg["pool"] + 1, dtype=float)
        popularity = ranks ** -cfg["zipf"]
        self._p = popularity / popularity.sum()
        self._order = rng.permutation(cfg["pool"])  # rank -> direction
        self._cfg = cfg

    def stream(self, rng, count: int) -> _Statements:
        """``count`` statements: Zipf directions, k from K_CHOICES."""
        cfg = self._cfg
        directions = self._order[rng.choice(self._p.size, size=count, p=self._p)]
        negative = rng.random(count) < cfg["negative"]
        directions[negative] = cfg["pool"] + rng.integers(
            0, cfg["negative_pool"], size=int(negative.sum())
        )
        ks = _draw_k(rng, count)
        texts = [
            f"SELECT TOP {k} FROM {self._table} ORDER BY {self._exprs[i]}"
            for i, k in zip(directions.tolist(), ks.tolist())
        ]
        return _Statements(texts, self._weights[directions], ks)


def sql_read(seed, seconds, setups, cfg, tally: Tally, stats: dict,
             recorder=None, workdir: Path | None = None):
    """Ranked SQL statements against a table with an AppRI index.

    The run alternates, in rounds of ``round_s`` seconds, between two
    loops, each on its own executor.  A closed loop (``clients`` virtual
    clients, all outstanding statements sent in one ``execute_many``)
    gives throughput.  A single client sending one statement at a time
    (through ``execute_many``, so the result cache serves it) gives
    latency.  Both executors' result caches are first filled by
    ``warmup`` untimed statements, so both loops measure the steady
    state.  Alternating in short rounds lets a slow spell of the shared
    host hit both loops alike.
    """
    rng = np.random.default_rng(seed)
    n, d = cfg["n"], cfg["d"]
    names = [f"a{i}" for i in range(d)]
    data = rng.random((n, d))
    pool = _StatementPool(rng, cfg, names, "items")
    closed = pool.stream(rng, 1 << 17)
    single = pool.stream(rng, 1 << 16)
    warmup_texts = pool.stream(rng, cfg["warmup"]).texts

    def setup():
        catalog = Catalog()
        catalog.create_table(Relation.from_matrix("items", names, data))
        index = RobustIndex(data, workers=build_workers())
        catalog.attach_index("items", "appri", index)
        return catalog

    setup_s, catalog = _median_time(setup, setups)

    def fresh_executor():
        executor = TopKExecutor(catalog, cache_size=cfg["cache"])
        for start in range(0, len(warmup_texts), cfg["clients"]):
            executor.execute_many(warmup_texts[start:start + cfg["clients"]])
        return executor

    with pinned():
        return _sql_loops(cfg, seconds, fresh_executor, closed, single, data,
                          setup_s, tally, stats, recorder)


def _sql_loops(cfg, seconds, fresh_executor, closed, single, data,
               setup_s, tally, stats, recorder):
    """sql_read's timed rounds (see :func:`sql_read`).

    Throughput is ``clients`` over the median ``execute_many`` time of
    the closed loop, and the mean latency is the mean of those times
    (each client's response time).  The tail is the single client's
    99th percentile, which falls inside the scan mode.  The single
    client's own mean or median swings between runs several times as
    much as the closed loop's figures, since per-statement interpreter
    work is the code a busy host slows most.  All are taken over the whole run and reported at
    the nominal host speed (``common.HostSpeed``).
    """
    checks = []  # (statements, position, tids)
    retrieved = 0
    request = 0
    clients = cfg["clients"]
    rounds = max(1, int(seconds // cfg["round_s"]))
    closed_s = seconds / rounds * cfg["closed_share"]
    single_s = seconds / rounds - closed_s
    closed_executor = fresh_executor()
    single_executor = fresh_executor()
    host = HostSpeed()
    batch_s = []  # every closed-loop execute_many call
    latency = []  # every single-client statement
    done = 0  # closed-loop statements
    sent = 0  # single-client statements
    for _ in range(rounds):
        # Closed loop.
        deadline = time.perf_counter() + closed_s
        started = len(batch_s)
        while len(batch_s) == started or time.perf_counter() < deadline:
            position = done % len(closed.texts)
            if position + clients > len(closed.texts):
                position = 0
            batch = closed.texts[position:position + clients]
            host.sample()
            if recorder is not None:
                recorder.request(request)
            request += 1
            began = time.perf_counter()
            try:
                results = closed_executor.execute_many(batch)
            except Exception:
                tally.error(len(batch), "sql_read closed-loop batch")
                results = None
            batch_s.append(time.perf_counter() - began)
            if results is not None:
                for j, result in enumerate(results):
                    retrieved += result.retrieved
                    if (done + j) % cfg["check_every"] == 0:
                        checks.append((closed, position + j, result.tids))
            done += len(batch)

        # Single client, one statement at a time.
        deadline = time.perf_counter() + single_s
        started = len(latency)
        while len(latency) == started or time.perf_counter() < deadline:
            position = sent % len(single.texts)
            host.sample()
            if recorder is not None:
                recorder.request(request)
            request += 1
            began = time.perf_counter()
            try:
                results = single_executor.execute_many([single.texts[position]])
            except Exception:
                tally.error(1, "sql_read single statement")
                results = None
            latency.append(time.perf_counter() - began)
            if results is not None:
                retrieved += results[0].retrieved
                if sent % cfg["check_every"] == 0:
                    checks.append((single, position, results[0].tids))
            sent += 1
    tally.attempted += done + sent
    throughput = host.rate(clients / percentile(batch_s, 50))
    # Warm-up statements are traced too, so they count here.
    stats["statements"] = done + sent + 2 * cfg["warmup"]
    stats["throughput"] = throughput
    stats["reference_ms"] = host.reference_s() * 1e3

    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_mean_ms": host.time(statistics.fmean(batch_s)) * 1e3,
        "latency_tail_ms": host.time(percentile(latency, 99)) * 1e3,
        "tuples_read_per_query": retrieved / (done + sent),
    }

    def verify(tally: Tally) -> None:
        for statements, position, tids in checks:
            query = LinearQuery(
                statements.weights[position], require_monotone=False
            )
            expected = query.top_k(data, int(statements.ks[position]))
            tally.checked += 1
            if not np.array_equal(np.asarray(tids), expected):
                tally.wrong(f"sql_read: {statements.texts[position]!r}")

    return metrics, verify


# ---------------------------------------------------------------------------
# mixed_rw: dynamic index, reads and ingest bursts, background rebuilds
# ---------------------------------------------------------------------------


class _MixedStream:
    """Deterministic operation inputs: reads carry simplex weights and a
    k from ``K_CHOICES``; upserts carry a delete position (as a fraction
    of the size) and an insert payload."""

    def __init__(self, rng, d: int, reads: int, upserts: int):
        weights = np.clip(rng.dirichlet(np.ones(d), size=reads), 1e-9, None)
        self.queries = [LinearQuery(w) for w in weights]
        self.ks = _draw_k(rng, reads)
        self.fractions = rng.random(upserts)  # delete position / size
        self.points = rng.random((upserts, d))  # insert payloads


class _MixedDriver:
    """Applies stream operations to the index and mirrors the alive
    points (the oracle's ground truth) in the same row order.  An upsert
    deletes one tuple and inserts one, so n stays flat."""

    def __init__(self, index, mirror, stream: _MixedStream, cfg):
        self.index = index
        self.mirror = mirror
        self.stream = stream
        self.cfg = cfg
        self.upserts = 0
        self.reads = 0
        self.retrieved = 0
        self.checks = []  # (query, k, tids, mirror)

    def upsert(self) -> None:
        stream = self.stream
        i = self.upserts % len(stream.fractions)
        position = int(stream.fractions[i] * self.mirror.shape[0])
        self.index.delete(position)
        self.index.insert(stream.points[i])
        self.mirror = np.vstack(
            [np.delete(self.mirror, position, axis=0), stream.points[i][None, :]]
        )
        self.upserts += 1

    def read(self) -> None:
        stream = self.stream
        i = self.reads % len(stream.queries)
        query, k = stream.queries[i], int(stream.ks[i])
        result = self.index.query(query, k)
        self.retrieved += result.retrieved
        if self.reads % self.cfg["check_every"] == 0:
            self.checks.append((query, k, result.tids, self.mirror))
        self.reads += 1


def mixed_rw(seed, seconds, setups, cfg, tally: Tally, stats: dict,
             recorder=None, workdir: Path | None = None):
    """Reads and upsert bursts on a ``DynamicRobustIndex`` with a
    background ``RebuildManager`` at its default threshold.

    One client issues reads back to back and, every ``burst_every``
    seconds, a burst of ``burst`` upserts (a delete and an insert each).
    A burst's 2 x ``burst`` updates lift staleness exactly to the
    rebuild threshold, so the manager rebuilds in the background after
    the burst, while reads go on, and commits before the next one.
    Throughput is reads per second of the whole run (writes and the
    rebuild's share of the interpreter included, the host-speed
    reference's own time left out).  The mean latency is the
    upserts'; the tail is each burst's slowest upsert, median over
    bursts (about the 92nd percentile, without the 95th's swing with
    a handful of host stalls).  All are reported at the nominal host
    speed (``common.HostSpeed``).
    """
    rng = np.random.default_rng(seed)
    data = rng.random((cfg["n"], cfg["d"]))
    stream = _MixedStream(rng, cfg["d"], 1 << 15, 1 << 11)

    setup_s, index = _median_time(lambda: DynamicRobustIndex(data), setups)
    driver = _MixedDriver(index, data.copy(), stream, cfg)
    manager = RebuildManager(index)
    request = 0
    failed_reads = failed_upserts = 0
    upsert_latency = []
    burst_slowest = []  # per burst, its slowest upsert
    host = HostSpeed()
    manager.start()  # before pinning: the worker keeps every CPU
    try:
        with pinned():
            started = time.perf_counter()
            now = started
            deadline = started + seconds
            next_burst = started + cfg["burst_every"] / 2
            while now < deadline:
                if now >= next_burst:
                    for _ in range(cfg["burst"]):
                        if recorder is not None:
                            recorder.request(request)
                        request += 1
                        began = time.perf_counter()
                        try:
                            driver.upsert()
                        except Exception:
                            failed_upserts += 1
                            tally.error(1, "mixed_rw upsert")
                        upsert_latency.append(time.perf_counter() - began)
                    burst_slowest.append(max(upsert_latency[-cfg["burst"]:]))
                    next_burst += cfg["burst_every"]
                    now = time.perf_counter()
                    continue
                if index.staleness == 0:  # no rebuild pending or running
                    host.sample(now)
                if recorder is not None:
                    recorder.request(request)
                request += 1
                try:
                    driver.read()
                except Exception:
                    failed_reads += 1
                    tally.error(1, "mixed_rw read")
                now = time.perf_counter()
            reading_s = now - started - sum(host.samples)
            throughput = host.rate((driver.reads + failed_reads) / reading_s)
    finally:
        manager.stop(timeout=60.0)
    for problem in (
        "rebuild worker did not stop" if manager.running else None,
        f"rebuild failed: {manager.last_error!r}" if manager.last_error else None,
    ):
        if problem is not None:
            tally.failed += 1
            tally.errors.append(f"mixed_rw: {problem}")
    tally.attempted += driver.reads + failed_reads + driver.upserts + failed_upserts
    stats["throughput"] = throughput
    stats["reference_ms"] = host.reference_s() * 1e3
    stats["rebuild"] = manager.metrics

    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_mean_ms": host.time(statistics.fmean(upsert_latency)) * 1e3,
        "latency_tail_ms": host.time(percentile(burst_slowest, 50)) * 1e3,
        "tuples_read_per_query": driver.retrieved / max(driver.reads, 1),
    }

    def verify(tally: Tally) -> None:
        for query, k, tids, mirror in driver.checks:
            tally.checked += 1
            if not np.array_equal(np.asarray(tids), query.top_k(mirror, k)):
                tally.wrong(f"mixed_rw: k={k} weights={query.weights.tolist()}")

    return metrics, verify


# ---------------------------------------------------------------------------
# build: cold AppRI + exact builds, snapshot round trip, warm start
# ---------------------------------------------------------------------------


def build(seed, seconds, setups, cfg, tally: Tally, stats: dict,
          recorder=None, workdir: Path | None = None):
    """Cold builds of an AppRI and an exact (kinetic, d=2) index.

    Each cycle builds both indexes in this process (the AppRI build
    with one worker, so the cycle runs on the CPU that times the
    host-speed reference), saves them as snapshots, loads them
    back with mmap and answers a few first queries on each.  Throughput
    is tuples indexed per second of build time (median over cycles);
    the latencies are the cycle time's mean and 90th percentile, all
    at the nominal host speed (``common.HostSpeed``; the reference is
    timed ``references`` times between cycles).
    Set-up is the warm start that follows: load both snapshots and
    answer the same first queries again (median of ``setups``).
    """
    rng = np.random.default_rng(seed)
    appri_data = rng.random((cfg["n_appri"], cfg["d_appri"]))
    exact_data = rng.random((cfg["n_exact"], 2))
    q = cfg["queries"]
    appri_queries = [
        LinearQuery(w)
        for w in np.clip(rng.dirichlet(np.ones(cfg["d_appri"]), q), 1e-9, None)
    ]
    exact_queries = [
        LinearQuery(w) for w in np.clip(rng.dirichlet(np.ones(2), q), 1e-9, None)
    ]
    ks = [K_CHOICES[i % len(K_CHOICES)] for i in range(q)]
    workdir.mkdir(parents=True, exist_ok=True)
    appri_path = workdir / "appri.snap"
    exact_path = workdir / "exact.snap"

    host = HostSpeed(every=0.0)
    # Only the first cycle's indexes are kept, so memory does not grow
    # with the number of cycles; later cycles keep their answers and
    # whether their layers matched (compared untimed, as each ends).
    first = None  # (built appri, built exact)
    cycles = []  # (answers, [(label, layers as built, as reloaded, as first)])
    cycle_s = []
    build_rates = []  # tuples indexed per second of build time, per cycle
    retrieved = 0
    answered = 0

    def warm_start():
        if recorder is not None:
            recorder.request(-2)
        loaded_appri = snapshot.load_snapshot(appri_path, mmap=True)
        loaded_exact = snapshot.load_snapshot(exact_path, mmap=True)
        for query_a, query_e, k in zip(appri_queries, exact_queries, ks):
            loaded_appri.query(query_a, k)
            loaded_exact.query(query_e, k)

    with pinned():  # cycles, references and warm starts on one CPU
        started = time.perf_counter()
        while not cycles or time.perf_counter() - started < seconds:
            for _ in range(cfg["references"]):
                host.sample()
            if recorder is not None:
                recorder.request(len(cycles))
            began = time.perf_counter()
            try:
                appri = RobustIndex(appri_data, workers=1)
                exact = ExactRobustIndex(exact_data)
                build_rates.append(
                    (cfg["n_appri"] + cfg["n_exact"]) / (time.perf_counter() - began)
                )
                snapshot.save_snapshot(appri, appri_path)
                snapshot.save_snapshot(exact, exact_path)
                loaded_appri = snapshot.load_snapshot(appri_path, mmap=True)
                loaded_exact = snapshot.load_snapshot(exact_path, mmap=True)
                answers = []
                for query_a, query_e, k in zip(appri_queries, exact_queries, ks):
                    ra = loaded_appri.query(query_a, k)
                    re = loaded_exact.query(query_e, k)
                    retrieved += ra.retrieved + re.retrieved
                    answered += 2
                    answers.append((ra.tids, re.tids))
            except Exception:
                tally.error(6 + 2 * q, "build cycle")
                break
            cycle_s.append(time.perf_counter() - began)
            first = first or (appri, exact)
            layers_match = [
                (
                    label,
                    np.array_equal(np.asarray(loaded.layers), built.layers),
                    np.array_equal(built.layers, kept.layers),
                )
                for label, built, loaded, kept in (
                    ("appri", appri, loaded_appri, first[0]),
                    ("exact", exact, loaded_exact, first[1]),
                )
            ]
            cycles.append((answers, layers_match))
            del appri, exact, loaded_appri, loaded_exact
            tally.attempted += 6 + 2 * q

        setup_s, _ = _median_time(warm_start, setups)
    tally.attempted += (2 + 2 * q) * setups
    stats["throughput"] = host.rate(percentile(build_rates, 50))
    stats["reference_ms"] = host.reference_s() * 1e3

    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": stats["throughput"],
        "latency_mean_ms": host.time(statistics.fmean(cycle_s)) * 1e3,
        "latency_tail_ms": host.time(percentile(cycle_s, 90)) * 1e3,
        "tuples_read_per_query": retrieved / max(answered, 1),
    }

    def verify(tally: Tally) -> None:
        appri, exact = first
        for answers, layers_match in cycles:
            for label, reloaded_same, rebuilt_same in layers_match:
                tally.checked += 1
                if not reloaded_same:
                    tally.wrong(f"build: {label} snapshot layers differ")
                elif not rebuilt_same:
                    tally.wrong(f"build: {label} layers differ between builds")
            for (tids_a, tids_e), query_a, query_e, k in zip(
                answers, appri_queries, exact_queries, ks
            ):
                for built, data, query, tids, label in (
                    (appri, appri_data, query_a, tids_a, "appri"),
                    (exact, exact_data, query_e, tids_e, "exact"),
                ):
                    expected = query.top_k(data, k)
                    tally.checked += 1
                    if not np.array_equal(np.asarray(tids), expected):
                        tally.wrong(f"build: {label} k={k} answer differs")
                    elif not np.array_equal(built.query(query, k).tids, expected):
                        tally.wrong(f"build: {label} k={k} built index differs")
                    elif np.any(built.layers[expected] > k):
                        tally.wrong(f"build: {label} k={k} top-k outside layers")

    return metrics, verify


WORKLOADS = {"sql_read": sql_read, "mixed_rw": mixed_rw, "build": build}
