"""Shared pieces of the benchmark driver: CPU pinning, percentiles,
memory and the correctness tally."""

from __future__ import annotations

import os
import re
import resource
import statistics
import sys
import time
import traceback

import numpy as np

__all__ = ["HostSpeed", "Tally", "percentile", "peak_rss_mb", "pinned"]


def percentile(values, pct: float) -> float:
    """``pct``-th percentile of ``values`` (linear interpolation)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("no samples")
    return float(np.percentile(values, pct))


_REF_RNG = np.random.default_rng(20240601)
_REF_MATRIX = _REF_RNG.random((4000, 4))
_REF_WEIGHTS = _REF_RNG.random((64, 4))
_REF_TEXT = (
    "SELECT TOP 50 FROM items ORDER BY "
    "0.125000*a0 + 0.250000*a1 + 0.375000*a2 + 0.250000*a3"
)
_REF_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\d+)|(\w+)|(.))")


class _RefNode:
    __slots__ = ("kind", "text")

    def __init__(self, kind, text):
        self.kind = kind
        self.text = text


def _reference_work() -> int:
    """A fixed mix of interpreter work (tokens, small objects, dicts) and
    small NumPy kernels (mat-vec, partial top-k), the two kinds of work
    the serving path does.  Uses no code of the program."""
    acc = 0
    for _ in range(40):
        nodes = [
            _RefNode("num" if t[0].isdigit() else "word", t)
            for t in (m.group(0) for m in _REF_TOKEN.finditer(_REF_TEXT))
        ]
        names = {node.text: node for node in nodes}
        acc += len(names) + sum(len(n.text) for n in nodes if n.kind == "num")
    for weights in _REF_WEIGHTS:
        scores = _REF_MATRIX @ weights
        top = np.argpartition(-scores, 50)[:50]
        acc += int(np.sort(scores[top])[0] > 0.5)
    return acc


class HostSpeed:
    """Takes the shared host's speed out of a run's timings.

    On a shared host the same code runs up to a third slower for seconds
    or minutes at a time, as other tenants load the machine, so two runs
    of one program differ by more than a change worth catching.  A
    fixed reference loop (:func:`_reference_work`) timed throughout the
    run slows down with the host, and timings are reported at the
    reference's nominal speed: a time ``t`` reads ``t * NOMINAL_S / r``,
    with ``r`` the run's median reference time.  The reference runs none
    of the program's code, so a slower program still reads slower.

    The reference is timed at most every ``every`` seconds, on the
    thread (and CPU) that drives the timed loop, and only while no
    background work of the program runs, so it never measures the
    program's own contention.
    """

    #: Median reference time on an Intel Xeon 2-vCPU virtual machine.
    NOMINAL_S = 4.4e-3

    def __init__(self, every: float = 0.1):
        self.every = every
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self, now: float | None = None) -> None:
        """Time the reference once if ``every`` seconds have passed."""
        now = time.perf_counter() if now is None else now
        if now - self._last < self.every:
            return
        began = time.perf_counter()
        _reference_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - began)

    def reference_s(self) -> float:
        """Median reference time of the run."""
        if not self.samples:
            self.sample()
        return statistics.median(self.samples)

    def time(self, seconds: float) -> float:
        """``seconds`` as the run would read at the nominal host speed."""
        return seconds * self.NOMINAL_S / self.reference_s()

    def rate(self, per_second: float) -> float:
        """``per_second`` as the run would read at the nominal host speed."""
        return per_second * self.reference_s() / self.NOMINAL_S


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class pinned:
    """Pin the calling thread to one CPU for the ``with`` block.

    Keeps the driver thread of a timed loop from migrating between
    CPUs mid-run.  The last CPU of the allowed set is used, away from
    CPU 0's housekeeping.  Only the calling thread moves: threads and
    worker processes started before the block keep every CPU.
    """

    def __enter__(self):
        self._saved = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._saved)})
        return self

    def __exit__(self, *exc):
        os.sched_setaffinity(0, self._saved)
        return False


class Tally:
    """Operations attempted / failed, plus the answers kept for checking.

    Failures are operations that raised (counted by :meth:`error`) or
    whose sampled answer disagreed with brute force (counted by the
    workload's verification step through :meth:`wrong`).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checked = 0
        self.errors: list[str] = []

    def error(self, operations: int, what: str) -> None:
        """Record that ``operations`` operations raised (with traceback)."""
        self.failed += operations
        message = f"{what}: {traceback.format_exc()}"
        self.errors.append(message)
        print(message, file=sys.stderr)

    def wrong(self, what: str) -> None:
        """Record one sampled answer that failed its check (the first
        few are also reported on standard error)."""
        self.failed += 1
        self.errors.append(what)
        if len(self.errors) <= 5:
            print(f"wrong answer: {what}", file=sys.stderr)
