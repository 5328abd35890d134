"""Tests for the AppRI builder: the paper's central guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pipeline
from repro.core.appri import appri_build, appri_layers, wedge_counts
from repro.core.exact import exact_robust_layers
from repro.core.index import violating_tids
from repro.core.matching import greedy_staircase_matching, lemma3_bound
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import (
    count_dominators,
    count_dominators_blocked,
    count_dominators_naive,
)
from repro.queries.ranking import LinearQuery

from ..conftest import points_strategy
from .appri_reference import reference_layers


class TestValidation:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            appri_layers(np.ones(4))

    def test_rejects_bad_partitions(self):
        with pytest.raises(ValueError):
            appri_layers(np.ones((3, 2)), n_partitions=0)

    def test_rejects_bad_matching(self):
        # There is no matching option: wedges are always matched by the
        # greedy staircase rule (equal to the Lemma-3 closed form).
        with pytest.raises(TypeError, match="matching"):
            appri_layers(np.ones((3, 2)), matching="magic")

    def test_rejects_counting_option(self):
        # There is no counting option: counting runs the fused kernels.
        with pytest.raises(TypeError, match="counting"):
            appri_layers(np.ones((3, 2)), counting="naive")

    def test_rejects_bad_systems(self):
        with pytest.raises(ValueError, match="systems"):
            appri_layers(np.ones((3, 2)), systems="everything")

    def test_rejects_bad_refine(self):
        with pytest.raises(ValueError, match="refine"):
            appri_layers(np.ones((3, 2)), refine="magic")

    def test_rejects_nan_attributes(self):
        pts = np.ones((3, 2))
        pts[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            appri_layers(pts)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite_attributes(self, bad):
        pts = np.ones((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            appri_layers(pts)

    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_rejects_bad_workers(self, workers):
        with pytest.raises(ValueError, match="workers"):
            appri_layers(np.ones((3, 2)), workers=workers)

    @pytest.mark.parametrize("chunk_size", [0, -4, 2.5])
    def test_rejects_bad_chunk_size(self, chunk_size):
        # There is no chunk size option: the pipeline plans its chunks.
        with pytest.raises(TypeError, match="chunk_size"):
            appri_layers(np.ones((3, 2)), workers=2, chunk_size=chunk_size)

    def test_rejects_non_integer_partitions(self):
        with pytest.raises(ValueError, match="n_partitions"):
            appri_layers(np.ones((3, 2)), n_partitions=2.5)

    def test_empty_relation(self):
        assert appri_layers(np.zeros((0, 3))).size == 0
        assert appri_layers(np.zeros((0, 3)), workers=4).size == 0


class TestBuildResult:
    def test_appri_build_returns_layers_and_metrics(self):
        pts = np.random.default_rng(0).random((40, 3))
        build = appri_build(pts, n_partitions=5, workers=2)
        assert np.array_equal(build.layers, appri_layers(pts, n_partitions=5))
        assert build.workers == 2
        assert build.metrics["counters"]["build.n"] == 40
        assert "build.total" in build.metrics["timers"]
        assert "build.phase.levels" in build.metrics["timers"]

    def test_serial_build_records_phases(self):
        pts = np.random.default_rng(1).random((30, 2))
        build = appri_build(pts, n_partitions=4)
        timers = build.metrics["timers"]
        for phase in ("build.total", "build.phase.dominators",
                      "build.phase.levels", "build.phase.matching",
                      "build.phase.aggregate"):
            assert phase in timers
        assert build.metrics["counters"]["df.passes"] > 0


class TestSmallCases:
    def test_one_dimension_is_exact(self):
        pts = np.array([[3.0], [1.0], [2.0]])
        assert appri_layers(pts).tolist() == [3, 1, 2]

    def test_single_tuple(self):
        assert appri_layers(np.array([[0.5, 0.5]])).tolist() == [1]

    def test_dominated_chain(self):
        pts = np.array([[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
        layers = appri_layers(pts, n_partitions=4)
        assert layers.tolist() == [1, 2, 3]

    def test_skyline_pairs_layer_one_unless_convexly_dominated(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert appri_layers(pts, n_partitions=4).tolist() == [1, 1]

    def test_convexly_dominated_point_pushed_down(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.9, 0.9]])
        layers = appri_layers(pts, n_partitions=6)
        assert layers[2] >= 2  # the pair (0, 1) dominates it convexly
        assert layers[0] == layers[1] == 1


class TestLowerBoundProperty:
    """AppRI never exceeds the exact robust layer (minimal rank)."""

    @given(points_strategy(min_rows=2, max_rows=30, min_dims=2, max_dims=2),
           st.sampled_from([2, 5, 10]))
    @settings(max_examples=20, deadline=None)
    def test_2d_lower_bound(self, pts, b):
        exact = exact_robust_layers(pts)
        for systems in ("complementary", "families"):
            approx = appri_layers(pts, n_partitions=b, systems=systems)
            assert np.all(approx <= exact)

    @given(points_strategy(min_rows=2, max_rows=20, min_dims=3, max_dims=3),
           st.sampled_from([3, 8]))
    @settings(max_examples=10, deadline=None)
    def test_3d_lower_bound(self, pts, b):
        exact = exact_robust_layers(pts)
        approx = appri_layers(pts, n_partitions=b, systems="families",
                              refine="peel")
        assert np.all(approx <= exact)

    def test_families_at_least_as_tight(self, small_3d):
        base = appri_layers(small_3d, n_partitions=6)
        fam = appri_layers(small_3d, n_partitions=6, systems="families")
        assert np.all(fam >= base)

    def test_peel_refinement_only_tightens(self, small_3d):
        base = appri_layers(small_3d, n_partitions=6)
        refined = appri_layers(small_3d, n_partitions=6, refine="peel")
        assert np.all(refined >= base)

    def test_layer_exceeds_dominance_factor(self, small_3d):
        layers = appri_layers(small_3d, n_partitions=6)
        dominators = count_dominators(small_3d)
        assert np.all(layers >= dominators + 1)


class TestSoundness:
    """Definition 1: any top-k query answered by the first k layers."""

    @given(points_strategy(min_rows=2, max_rows=40, min_dims=2, max_dims=4),
           st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_random_queries_random_data(self, pts, seed):
        rng = np.random.default_rng(seed)
        layers = appri_layers(pts, n_partitions=int(rng.integers(2, 9)))
        for _ in range(5):
            w = rng.dirichlet(np.ones(pts.shape[1]))
            q = LinearQuery(w)
            k = int(rng.integers(1, pts.shape[0] + 1))
            assert violating_tids(pts, layers, q, k).size == 0

    @given(points_strategy(min_rows=3, max_rows=30, min_dims=3, max_dims=3),
           st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_extension_modes_stay_sound(self, pts, seed):
        rng = np.random.default_rng(seed)
        layers = appri_layers(pts, n_partitions=4, systems="families",
                              refine="peel")
        for _ in range(5):
            w = rng.dirichlet(np.ones(3))
            k = int(rng.integers(1, pts.shape[0] + 1))
            assert violating_tids(pts, layers, LinearQuery(w), k).size == 0

    def test_corner_queries(self, small_3d):
        layers = appri_layers(small_3d, n_partitions=5)
        for j in range(3):
            w = np.zeros(3)
            w[j] = 1.0
            assert violating_tids(small_3d, layers, LinearQuery(w), 7).size == 0

    def test_sound_with_duplicate_rows(self):
        rng = np.random.default_rng(2)
        base = rng.random((20, 3))
        pts = np.vstack([base, base[:5]])  # duplicated tuples
        layers = appri_layers(pts, n_partitions=4)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert violating_tids(pts, layers, LinearQuery(w), 6).size == 0

    def test_sound_with_tied_columns(self):
        rng = np.random.default_rng(3)
        pts = rng.integers(0, 4, size=(30, 3)).astype(float)  # heavy ties
        layers = appri_layers(pts, n_partitions=4)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert violating_tids(pts, layers, LinearQuery(w), 8).size == 0


class TestMatchingModes:
    def test_greedy_equals_lemma3_end_to_end(self, small_3d):
        for systems in ("complementary", "families"):
            lemma3 = reference_layers(
                small_3d, 7, systems, count=count_dominators,
                match=lemma3_bound,
            )
            built = appri_layers(small_3d, n_partitions=7, systems=systems)
            assert built.tolist() == lemma3.tolist()

    def test_counting_engines_agree(self, small_3d):
        built = appri_layers(small_3d, n_partitions=4)
        for count in (count_dominators_blocked, count_dominators_naive):
            reference = reference_layers(small_3d, 4, count=count)
            assert built.tolist() == reference.tolist(), count.__name__


class TestMatchesReference:
    """The one build path equals the per-level schedule, any schedule."""

    @pytest.mark.parametrize("tied", [False, True])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forced_pool_matches_per_level_reference(
        self, monkeypatch, workers, tied
    ):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        rng = np.random.default_rng(30 + workers)
        if tied:
            pts = rng.integers(0, 3, size=(45, 3)).astype(float)
        else:
            pts = rng.random((45, 3))
        for systems in ("complementary", "families"):
            build = appri_build(
                pts, n_partitions=6, systems=systems, workers=workers
            )
            assert build.metrics["counters"]["build.pool_used"] == int(
                workers > 1
            )
            expected = reference_layers(pts, 6, systems)
            assert build.layers.tolist() == expected.tolist()


class TestWedgeCounts:
    def test_wedges_partition_subspaces(self, small_3d):
        from repro.core.partitioning import subspace_transform

        for pair in pair_systems(3):
            i_wedges, iii_wedges = wedge_counts(small_3d, pair, 5)
            y_a = subspace_transform(small_3d, pair, "a")
            y_b = subspace_transform(small_3d, pair, "b")
            full_a = count_dominators(y_a)
            full_b = count_dominators(y_b)
            assert i_wedges.sum(axis=1).tolist() == full_a.tolist()
            assert iii_wedges.sum(axis=1).tolist() == full_b.tolist()

    def test_wedges_non_negative(self, small_3d):
        for pair in pair_systems(3)[:2]:
            i_wedges, iii_wedges = wedge_counts(small_3d, pair, 6)
            assert i_wedges.min() >= 0
            assert iii_wedges.min() >= 0

    def test_eds2_bound_zero_when_one_side_empty(self):
        i_wedges = np.array([[3, 2, 1]])
        iii_wedges = np.array([[0, 0, 0]])
        assert greedy_staircase_matching(i_wedges, iii_wedges).tolist() == [0]
