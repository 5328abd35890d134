"""Unit tests for the AppRI counting pipeline and its schedules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import pipeline
from repro.core.appri import appri_build, wedge_counts
from repro.core.kernels import pair_level_data
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import count_dominators, count_dominators_blocked
from repro.obs import Metrics

from .appri_reference import reference_layers


class TestPlanChunks:
    def test_covers_levels_exactly(self):
        for n_levels in (1, 5, 10, 37):
            for workers in (1, 2, 8):
                chunks = pipeline.plan_chunks(n_levels, workers)
                assert chunks[0][0] == 1
                assert chunks[-1][1] == n_levels + 1
                for (_, prev_hi), (lo, _) in zip(chunks, chunks[1:]):
                    assert prev_hi == lo

    def test_no_levels(self):
        assert pipeline.plan_chunks(0, 4) == []

    def test_one_worker_gets_one_range(self):
        # Inline, one task per system ranks its lead columns once.
        assert pipeline.plan_chunks(10, 1) == [(1, 11)]

    def test_about_four_ranges_per_worker(self):
        assert pipeline.plan_chunks(10, 2) == [
            (1, 3), (3, 5), (5, 7), (7, 9), (9, 11)
        ]
        assert pipeline.plan_chunks(4, 8) == [(1, 2), (2, 3), (3, 4), (4, 5)]


class TestLevelRangeTasks:
    @pytest.mark.parametrize("tied", [False, True])
    def test_level_ranges_tile_the_full_kernel(self, tied):
        rng = np.random.default_rng(5)
        if tied:
            pts = rng.integers(0, 4, size=(60, 3)).astype(float)
        else:
            pts = rng.random((60, 3))
        b = 7
        for pair in pair_systems(3, include_partial=False):
            full_a, full_b = pair_level_data(pts, pair, b)
            got_a = np.zeros_like(full_a)
            got_b = np.zeros_like(full_b)
            for lo, hi in pipeline.plan_chunks(b, 2):
                part_a, part_b = pair_level_data(
                    pts, pair, b, levels=range(lo, hi)
                )
                got_a += part_a
                got_b += part_b
            assert np.array_equal(got_a, full_a)
            assert np.array_equal(got_b, full_b)

    def test_b_equals_one_single_chunk(self):
        pts = np.random.default_rng(0).random((10, 2))
        pair = pair_systems(2, include_partial=False)[0]
        assert pipeline.plan_chunks(1, 4) == [(1, 2)]
        a_levels, b_levels = pair_level_data(pts, pair, 1, levels=[1])
        # Only the subspace passes exist at B = 1.
        assert a_levels.shape == (10, 2)
        assert a_levels[:, 1].any() or b_levels[:, 0].any()


class TestBuildLevelData:
    def test_matches_serial_wedge_counts(self):
        rng = np.random.default_rng(11)
        pts = rng.random((80, 3))
        b = 6
        dominators, level_data, systems = pipeline.build_level_data(
            pts, b, include_partial=True, workers=2
        )
        assert np.array_equal(dominators, count_dominators(pts))
        assert len(level_data) == len(pair_systems(3, include_partial=True))
        for system, (a_levels, b_levels) in zip(systems, level_data):
            serial_i, serial_iii = wedge_counts(pts, system, b)
            got_i = np.clip(np.diff(a_levels, axis=1), 0, None)
            got_iii = np.clip(np.diff(b_levels[:, ::-1], axis=1), 0, None)
            assert np.array_equal(got_i, serial_i)
            assert np.array_equal(got_iii, serial_iii)

    def test_metrics_record_tasks_and_chunks(self, monkeypatch):
        pts = np.random.default_rng(3).random((40, 2))
        metrics = Metrics()
        # Below POOL_MIN_N the tasks run inline: one per system.
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=2, metrics=metrics,
        )
        assert metrics.counters["build.chunks"] == 1
        # 1 dom task + 1 level-range task for the single 2-D system.
        assert metrics.counters["build.tasks"] == 1 + 1
        assert "build.phase.levels" in metrics.timers
        assert "counting.kernel" in metrics.timers

        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pooled = Metrics()
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=2, metrics=pooled,
        )
        # With the pool, each system's 4 levels split into 4 ranges.
        assert pooled.counters["build.chunks"] == 4
        assert pooled.counters["build.tasks"] == 1 + 4

    def test_pool_engages_when_forced(self, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pts = np.random.default_rng(9).random((50, 3))
        metrics = Metrics()
        dominators, level_data, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=2, metrics=metrics,
        )
        assert metrics.counters["build.pool_used"] == 1
        serial_dom, serial_level, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=1
        )
        assert np.array_equal(dominators, serial_dom)
        for (pa, pb), (sa, sb) in zip(level_data, serial_level):
            assert np.array_equal(pa, sa)
            assert np.array_equal(pb, sb)

    def test_pool_bypassed_on_single_core(self, monkeypatch):
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 1)
        pts = np.random.default_rng(2).random((30, 2))
        metrics = Metrics()
        pipeline.build_level_data(
            pts, 3, include_partial=False, workers=4, metrics=metrics
        )
        assert metrics.counters["build.pool_used"] == 0


class TestBoundaryExactness:
    def test_tie_heavy_lattice_identical_to_serial(self):
        # Integer lattices put every gamma threshold exactly on a
        # constraint boundary — the worst case for any float shortcut;
        # every schedule runs the kernel on the same exact values.
        rng = np.random.default_rng(21)
        pts = rng.integers(0, 3, size=(70, 3)).astype(float)
        serial = appri_build(pts, n_partitions=9).layers
        chunked = appri_build(pts, n_partitions=9, workers=3).layers
        assert np.array_equal(serial, chunked)

    def test_boundary_lattice_matches_legacy_engine(self):
        # Duplicated coordinates put pairs exactly on wedge boundaries;
        # the fused kernel must agree with the per-level passes.
        pts = np.array(
            [[float(i % 4), float((i * 3) % 4)] for i in range(24)]
        )
        fused = appri_build(pts, n_partitions=8).layers
        legacy = reference_layers(pts, 8, count=count_dominators_blocked)
        assert np.array_equal(fused, legacy)
        chunked = appri_build(pts, n_partitions=8, workers=2).layers
        assert np.array_equal(fused, chunked)
