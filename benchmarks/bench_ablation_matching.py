"""Ablation: Lemma-3 closed form vs exact greedy staircase matching.

DESIGN.md calls out that the two are provably equal; this bench
verifies the equality on every pair system's wedges of a real build
(the builder itself always matches greedily) and compares their costs
(matching is a tiny fraction of the build either way).
"""

import numpy as np

from repro.core.appri import wedge_counts
from repro.core.matching import greedy_staircase_matching, lemma3_bound
from repro.core.partitioning import pair_systems
from repro.experiments.report import render_table

from conftest import publish


def test_matching_rules_identical(benchmark, bench_data):
    systems = pair_systems(bench_data.shape[1], include_partial=True)
    for pair in systems:
        i_wedges, iii_wedges = wedge_counts(bench_data, pair, 10)
        assert (
            greedy_staircase_matching(i_wedges, iii_wedges).tolist()
            == lemma3_bound(i_wedges, iii_wedges).tolist()
        )

    rng = np.random.default_rng(0)
    i_rows = rng.integers(0, 40, size=(10_000, 10))
    iii_rows = rng.integers(0, 40, size=(10_000, 10))
    assert (
        greedy_staircase_matching(i_rows, iii_rows).tolist()
        == lemma3_bound(i_rows, iii_rows).tolist()
    )
    rows = [["greedy == lemma3 on every system of a build", True],
            ["systems checked (B=10, families)", len(systems)],
            ["rows checked (synthetic wedges)", 10_000]]
    publish("ablation_matching", render_table(["check", "value"], rows))
    benchmark(greedy_staircase_matching, i_rows, iii_rows)


def test_lemma3_timing(benchmark):
    rng = np.random.default_rng(1)
    i_rows = rng.integers(0, 40, size=(10_000, 10))
    iii_rows = rng.integers(0, 40, size=(10_000, 10))
    benchmark(lemma3_bound, i_rows, iii_rows)
