"""Property-based harness for the paper's core AppRI invariants.

Seeded random instances with d in {2, 3} and n <= 64, exercised for
both system configurations and both matching rules (the builder's
greedy staircase, and the paper's Lemma-3 closed form applied to each
system's wedges of the per-level reference schedule):

1. soundness: ``appri_layers(t) <= exact_robust_layers(t)`` per tuple
   (Theorem 2 — the wedge bound never overshoots the minimal rank);
2. the layering is a valid prefix-closed partition: every layer number
   is >= 1 and the first k layers always hold at least k tuples
   (layer c is only occupied if layers 1..c-1 hold >= c-1 tuples);
3. no false negatives: for random monotone weight vectors, the exact
   top-k is contained in the first k layers (Theorem 1's guarantee,
   the property that makes the index *robust*).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.appri import appri_layers
from repro.core.exact import exact_robust_layers
from repro.core.matching import lemma3_bound
from repro.dstruct.dominance import count_dominators
from repro.queries.ranking import LinearQuery

from ..conftest import points_strategy, weights_strategy
from ..core.appri_reference import reference_layers

CONFIGS = [
    (systems, matching)
    for systems in ("complementary", "families")
    for matching in ("greedy", "lemma3")
]


def layers_for(pts, b, systems, matching):
    """The built layers, or the paper's Lemma-3 matching per system.

    ``lemma3`` applies :func:`repro.core.matching.lemma3_bound` to each
    system's wedges of the per-level schedule (the builder itself
    always matches greedily; the two rules are provably equal).
    """
    if matching == "greedy":
        return appri_layers(pts, n_partitions=b, systems=systems)
    return reference_layers(
        pts, b, systems, count=count_dominators, match=lemma3_bound
    )


def small_points(max_rows: int = 64):
    """d in {2, 3}, n <= 64 — the envelope the exact solver covers."""
    return points_strategy(
        min_rows=1, max_rows=max_rows, min_dims=2, max_dims=3
    )


@pytest.mark.parametrize("systems,matching", CONFIGS)
class TestSoundness:
    @given(pts=small_points(), b=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_appri_never_exceeds_exact_layer(self, pts, b, systems, matching):
        appri = layers_for(pts, b, systems, matching)
        exact = exact_robust_layers(pts)
        assert np.all(appri <= exact)

    @given(pts=small_points(), b=st.integers(1, 12))
    @settings(max_examples=15, deadline=None)
    def test_layers_form_prefix_closed_partition(
        self, pts, b, systems, matching
    ):
        layers = layers_for(pts, b, systems, matching)
        assert layers.shape == (pts.shape[0],)
        assert np.all(layers >= 1)
        # Prefix-closed: the first k layers hold at least k tuples for
        # every k up to the deepest occupied layer (equivalently, layer
        # c is occupied only when layers 1..c-1 hold >= c - 1 tuples).
        for k in range(1, int(layers.max()) + 1):
            assert int(np.count_nonzero(layers <= k)) >= k


@pytest.mark.parametrize("systems,matching", CONFIGS)
class TestNoFalseNegatives:
    @given(
        pts=small_points(),
        b=st.integers(1, 10),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=10, deadline=None)
    def test_top_k_answerable_from_first_k_layers(
        self, pts, b, seed, systems, matching
    ):
        layers = layers_for(pts, b, systems, matching)
        n, d = pts.shape
        rng = np.random.default_rng(seed)
        for k in {1, min(3, n), n}:
            candidates = np.flatnonzero(layers <= k)
            for _ in range(4):
                weights = rng.random(d) + 1e-6
                top = LinearQuery(weights).top_k(pts, k)
                assert set(top) <= set(candidates)


class TestWeightStrategyQueries:
    """Same guarantee driven by hypothesis-generated weight vectors."""

    @given(
        pts=points_strategy(min_rows=2, max_rows=48, min_dims=3, max_dims=3),
        weights=weights_strategy(3),
        k=st.integers(1, 8),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_monotone_query_served_by_prefix(self, pts, weights, k):
        k = min(k, pts.shape[0])
        layers = appri_layers(pts, n_partitions=6)
        top = LinearQuery(weights).top_k(pts, k)
        assert np.all(layers[top] <= k)
