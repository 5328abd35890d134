"""Metamorphic relations of the layer builders.

What should — and should not — be invariant:

* **Tuple permutation** never matters: layers are per-tuple facts.
* **Exact robust layers** are invariant under any per-dimension
  positive affine map ``x -> a_j * x + b_j`` (``a_j > 0``): each
  linear query on the transformed data corresponds to a reweighted
  linear query on the original data (weights ``w_j * a_j``, plus a
  score shift), so the set of achievable rankings is unchanged.
* **AppRI layers** are invariant under per-dimension *shifts* and
  *uniform* positive scaling, but NOT under anisotropic per-dimension
  scaling: the builder slices subspaces along a fixed even-angle gamma
  grid, and scaling dimension i by ``c_i`` maps a wedge constraint at
  level ``gamma`` to one at ``gamma * c_i / c_j`` — a different grid.
  The bound stays *sound* (still <= the rescaled exact layer, which is
  unchanged); only its tightness shifts.  This is the paper's stated
  reason to min-max normalize before indexing.
* **Parallel vs serial**: ``workers > 1`` is a scheduling choice, not
  a semantic one — layers must be bit-identical, including when a real
  process pool engages.  The pool relies on one kernel invariant: the
  level counts of any cover of ``1..B`` by disjoint ranges sum to the
  full call.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.core.appri import appri_layers
from repro.core.exact import exact_robust_layers
from repro.core.kernels import pair_level_data
from repro.core.matching import greedy_staircase_matching, lemma3_bound
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import count_dominators

from ..conftest import points_strategy
from ..core.appri_reference import reference_layers


def small_points(max_rows: int = 64):
    return points_strategy(
        min_rows=1, max_rows=max_rows, min_dims=2, max_dims=3
    )


def affine_params(d: int, seed: int):
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.2, 5.0, size=d)
    shifts = rng.uniform(-3.0, 3.0, size=d)
    return scales, shifts


class TestPermutationInvariance:
    @given(pts=small_points(), seed=st.integers(0, 2**16))
    @settings(max_examples=15, deadline=None)
    def test_appri_commutes_with_permutation(self, pts, seed):
        perm = np.random.default_rng(seed).permutation(pts.shape[0])
        base = appri_layers(pts, n_partitions=6)
        permuted = appri_layers(pts[perm], n_partitions=6)
        assert np.array_equal(permuted, base[perm])

    @given(pts=small_points(max_rows=32), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_exact_commutes_with_permutation(self, pts, seed):
        # The exact tie rule breaks score ties by tid, so permutation
        # equivariance is only guaranteed for untied instances; the
        # generic random matrices here are untied almost surely.
        perm = np.random.default_rng(seed).permutation(pts.shape[0])
        base = exact_robust_layers(pts)
        permuted = exact_robust_layers(pts[perm])
        assert np.array_equal(permuted, base[perm])


class TestAffineInvariance:
    @given(pts=small_points(max_rows=32), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_exact_invariant_under_per_dim_affine(self, pts, seed):
        scales, shifts = affine_params(pts.shape[1], seed)
        transformed = pts * scales + shifts
        assert np.array_equal(
            exact_robust_layers(transformed), exact_robust_layers(pts)
        )

    @given(
        pts=small_points(),
        seed=st.integers(0, 2**16),
        scale=st.floats(0.1, 20.0, allow_nan=False),
    )
    @settings(max_examples=15, deadline=None)
    def test_appri_invariant_under_shift_and_uniform_scale(
        self, pts, seed, scale
    ):
        _, shifts = affine_params(pts.shape[1], seed)
        transformed = pts * scale + shifts
        assert np.array_equal(
            appri_layers(transformed, n_partitions=7),
            appri_layers(pts, n_partitions=7),
        )

    @given(pts=small_points(), seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_appri_stays_sound_under_anisotropic_rescale(self, pts, seed):
        # Anisotropic scaling changes the effective gamma grid, so the
        # layer values may legitimately move — but they must remain a
        # lower bound on the (unchanged) exact layers.
        scales, shifts = affine_params(pts.shape[1], seed)
        transformed = pts * scales + shifts
        appri = appri_layers(transformed, n_partitions=7)
        assert np.all(appri <= exact_robust_layers(pts))


class TestParallelEqualsSerial:
    @given(
        pts=points_strategy(min_rows=1, max_rows=64, min_dims=2, max_dims=4),
        b=st.integers(1, 12),
        data=st.data(),
    )
    @settings(max_examples=20, deadline=None)
    def test_chunked_pipeline_is_bit_identical(self, pts, b, data):
        # Any cover of 1..B by disjoint level ranges, in any task
        # order, sums to one full kernel call — what the pool's
        # coordinator relies on when it adds task results.
        for pair in pair_systems(pts.shape[1], include_partial=True):
            cuts = data.draw(
                st.lists(st.integers(2, b), unique=True, max_size=b)
                if b > 1 else st.just([])
            )
            bounds = [1, *sorted(cuts), b + 1]
            ranges = list(zip(bounds, bounds[1:]))
            ranges = data.draw(st.permutations(ranges))
            full_a, full_b = pair_level_data(pts, pair, b)
            got_a = np.zeros_like(full_a)
            got_b = np.zeros_like(full_b)
            for lo, hi in ranges:
                part_a, part_b = pair_level_data(
                    pts, pair, b, levels=range(lo, hi)
                )
                got_a += part_a
                got_b += part_b
            assert np.array_equal(got_a, full_a)
            assert np.array_equal(got_b, full_b)

    def test_identical_through_a_real_process_pool(self, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        rng = np.random.default_rng(17)
        for pts in (rng.random((90, 3)), rng.integers(0, 4, (60, 2)).astype(float)):
            serial = appri_layers(pts, n_partitions=8)
            pooled = appri_layers(pts, n_partitions=8, workers=2)
            assert np.array_equal(serial, pooled)

    @pytest.mark.parametrize("matching", ["greedy", "lemma3"])
    def test_tie_heavy_data_identical(self, monkeypatch, matching):
        # The pooled build against the per-level schedule matched by
        # either rule (greedy staircase or the Lemma-3 closed form).
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        match = {"greedy": greedy_staircase_matching, "lemma3": lemma3_bound}
        pts = np.random.default_rng(3).integers(0, 3, (48, 3)).astype(float)
        expected = reference_layers(
            pts, count=count_dominators, match=match[matching]
        )
        pooled = appri_layers(pts, workers=3)
        assert np.array_equal(pooled, expected)
