"""Vectorized counting kernels vs the legacy per-level build schedule.

The question this benchmark answers: how much faster does the AppRI
build get when dominance counting runs through the fused bitset
kernels (:mod:`repro.core.kernels` / :mod:`repro.dstruct.kernels`)
instead of the legacy schedule — one blocked O(n^2) dominance pass per
gamma level per side, which is what dominance counting ran before the
kernels existed (the pre-kernel snapshot benchmark recorded a 94 s
build at n=10k, d=4).

Per configuration, the same data is built twice:

``legacy``
    ``reference_layers(..., count=count_dominators_blocked)`` from
    ``tests/core/appri_reference.py`` — the paper-faithful per-level
    schedule with the pre-kernel engine, kept with the tests that pin
    the build to it.
``kernel``
    ``appri_build(...)`` — every system runs through one shared kernel
    call that sorts and packs each distinct transformed column once
    (signed attributes, and per level the bilinear columns) and ANDs
    it into every system that uses it.

The layer arrays must be **bit-identical** (asserted), making the
speedup a pure scheduling/kernel win with zero accuracy cost.  Each
row also prints the build's ``counting.prefix_words`` and asserts it
equals the distinct-column count (``distinct_columns`` in
``tests/core/appri_reference.py``) times ``n * words``: a build that
packed a column once per system using it would fail.  Full runs write
``BENCH_build_kernels.json`` at the repo root (the acceptance evidence
for the >= 10x target) plus a text report in ``benchmarks/results/``;
``--quick`` runs tiny sizes for CI — d=3 and d=4, both system
configurations, where sharing is largest — additionally
cross-checking the kernel build against the per-level schedule on the
``naive`` engine, and writes only the text report.
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

REPO_ROOT = Path(__file__).resolve().parents[1]
RESULTS_DIR = Path(__file__).parent / "results"

if __name__ == "__main__":  # standalone: make src/ importable
    sys.path.insert(0, str(REPO_ROOT / "src"))
# The per-level reference schedule lives in tests/core/appri_reference.py.
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

#: (n, d, systems, measure the legacy schedule too?).  Legacy at n=50k
#: would take ~44 minutes (the pre-kernel recorded rebuild below), so
#: the 50k row times the kernel build only and reports the speedup
#: against that recorded baseline.
FULL_CONFIGS = (
    (10_000, 4, "complementary", True),
    (50_000, 4, "complementary", False),
)
QUICK_CONFIGS = (
    (400, 3, "complementary", True),
    (300, 4, "complementary", True),
    (200, 4, "families", True),
)
SEED = 0
N_PARTITIONS = 10

#: End-to-end build seconds recorded by the snapshot benchmark on
#: this machine before the kernels existed (RobustIndex
#: construction; the refreshed BENCH_snapshot.json now carries the
#: post-kernel rebuild times).
RECORDED_BASELINE = {10_000: 94.1353, 50_000: 2615.7101}


def _machine() -> dict:
    return {
        "cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _legacy_layers(
    data, systems="complementary", count_name="count_dominators_blocked"
):
    """The per-level schedule on one of the paper's named engines."""
    from repro.dstruct import dominance

    from tests.core.appri_reference import reference_layers

    return reference_layers(
        data, N_PARTITIONS, systems, count=getattr(dominance, count_name)
    )


def _expected_prefix_words(n, d, systems):
    """Words of one build that packs each distinct column once."""
    from tests.core.appri_reference import distinct_columns

    return distinct_columns(d, systems, N_PARTITIONS) * n * ((n + 63) >> 6)


def _timed(build, data):
    started = time.perf_counter()
    result = build(data)
    return result, time.perf_counter() - started


def run(configs, quick: bool):
    from repro.core.appri import appri_build
    from repro.data import uniform

    results = []
    lines = [
        "build kernels vs legacy per-level schedule "
        f"(B={N_PARTITIONS}, seed={SEED})",
        "",
        f"{'n':>7} {'d':>3} {'systems':>13}  {'legacy(s)':>10}  "
        f"{'kernel(s)':>10}  {'speedup':>8}  {'vs recorded':>11}  "
        f"{'prefix words':>14}  layers",
    ]
    for n, d, systems, measure_legacy in configs:
        data = uniform(n, d, seed=SEED)
        kernel_build, kernel_seconds = _timed(
            lambda x: appri_build(
                x, n_partitions=N_PARTITIONS, systems=systems
            ),
            data,
        )
        prefix_words = kernel_build.metrics["counters"][
            "counting.prefix_words"
        ]
        expected_words = _expected_prefix_words(n, d, systems)
        if prefix_words != expected_words:
            raise AssertionError(
                f"n={n} d={d} {systems}: {prefix_words:,d} prefix words, "
                f"expected {expected_words:,d} — each distinct column "
                "must be packed once per build"
            )
        entry = {
            "n": n,
            "d": d,
            "systems": systems,
            "n_partitions": N_PARTITIONS,
            "kernel_seconds": round(kernel_seconds, 4),
            "prefix_words": prefix_words,
        }
        legacy_text = recorded_text = "-"
        if measure_legacy:
            legacy, legacy_seconds = _timed(
                lambda x: _legacy_layers(x, systems), data
            )
            if not np.array_equal(legacy, kernel_build.layers):
                raise AssertionError(
                    f"n={n}: kernel layers differ from the legacy "
                    "schedule — engines must be bit-identical"
                )
            entry["legacy_seconds"] = round(legacy_seconds, 4)
            entry["speedup_vs_legacy"] = round(
                legacy_seconds / kernel_seconds, 2
            )
            entry["layers_identical"] = True
            legacy_text = f"{legacy_seconds:10.2f}"
        if quick:
            naive = _legacy_layers(data, systems, "count_dominators_naive")
            assert np.array_equal(naive, kernel_build.layers), (
                "kernel build must match the naive reference engine"
            )
            entry["matches_naive"] = True
        recorded = RECORDED_BASELINE.get(n)
        if recorded is not None and not quick:
            entry["recorded_baseline_seconds"] = recorded
            entry["speedup_vs_recorded"] = round(recorded / kernel_seconds, 2)
            recorded_text = f"{recorded / kernel_seconds:10.1f}x"
        results.append(entry)
        speed = (
            f"{entry['speedup_vs_legacy']:7.2f}x"
            if "speedup_vs_legacy" in entry
            else "-".rjust(8)
        )
        lines.append(
            f"{n:>7} {d:>3} {systems:>13}  {legacy_text:>10}  "
            f"{kernel_seconds:>10.2f}  {speed:>8}  {recorded_text:>11}  "
            f"{prefix_words:>14,d}  identical"
        )
    lines.append("")
    lines.append(
        "legacy = per-level blocked passes (pre-kernel engine); recorded = "
        "pre-kernel RobustIndex build time on this machine; prefix words "
        "= distinct columns x n x words (asserted)"
    )
    return results, "\n".join(lines)


def test_build_kernel_speedup(benchmark):
    """pytest-benchmark entry: one kernel build on a small input."""
    from repro.core.appri import appri_build
    from repro.data import uniform

    from conftest import publish

    data = uniform(QUICK_CONFIGS[0][0], QUICK_CONFIGS[0][1], seed=SEED)
    build = benchmark(lambda: appri_build(data, n_partitions=N_PARTITIONS))
    assert np.array_equal(
        build.layers,
        _legacy_layers(data, count_name="count_dominators_naive"),
    )
    _, text = run(QUICK_CONFIGS, quick=True)
    publish("bench_build_kernels", text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny CI smoke run: asserts kernel == naive, no JSON",
    )
    args = parser.parse_args(argv)

    configs = QUICK_CONFIGS if args.quick else FULL_CONFIGS
    results, text = run(configs, quick=args.quick)
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_build_kernels.txt").write_text(text + "\n")
    if not args.quick:
        report = {
            "benchmark": "build_kernels",
            "source": "benchmarks/bench_build_kernels.py",
            "params": {"seed": SEED, "n_partitions": N_PARTITIONS},
            "machine": _machine(),
            "results": results,
        }
        out = REPO_ROOT / "BENCH_build_kernels.json"
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
