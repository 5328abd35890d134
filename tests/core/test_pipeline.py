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
    def test_covers_ids_exactly(self):
        for n in (1, 63, 64, 65, 1000, 2049):
            for parts in (1, 2, 3, 8):
                ranges = pipeline._id_ranges(n, parts)
                assert 1 <= len(ranges) <= parts
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n
                for (_, prev_hi), (lo, hi) in zip(ranges, ranges[1:]):
                    assert prev_hi == lo < hi
                    # Word-aligned: the ranges pack into the full
                    # bit space's words, none shared.
                    assert lo % 64 == 0

    def test_no_ids(self):
        assert pipeline._id_ranges(0, 4) == [(0, 0)]

    def test_one_worker_gets_one_range(self):
        # Inline, one task over every system ranks each column once.
        assert pipeline._id_ranges(1000, 1) == [(0, 1000)]

    def test_one_word_aligned_range_per_worker(self):
        assert pipeline._id_ranges(10_000, 2) == [(0, 4992), (4992, 10_000)]
        # Never more ranges than words.
        assert pipeline._id_ranges(100, 8) == [(0, 64), (64, 100)]


class TestLevelRangeTasks:
    @pytest.mark.parametrize("tied", [False, True])
    def test_id_ranges_tile_the_full_kernel(self, tied):
        rng = np.random.default_rng(5)
        if tied:
            pts = rng.integers(0, 4, size=(150, 3)).astype(float)
        else:
            pts = rng.random((150, 3))
        b = 7
        for pair in pair_systems(3, include_partial=False):
            full_a, full_b = pair_level_data(pts, pair, b)
            got_a = np.zeros_like(full_a)
            got_b = np.zeros_like(full_b)
            for lo, hi in pipeline._id_ranges(150, 3):
                part_a, part_b = pair_level_data(pts, pair, b, lo, hi)
                got_a += part_a
                got_b += part_b
            assert np.array_equal(got_a, full_a)
            assert np.array_equal(got_b, full_b)

    def test_b_equals_one_single_chunk(self):
        pts = np.random.default_rng(0).random((10, 2))
        pair = pair_systems(2, include_partial=False)[0]
        assert pipeline._id_ranges(10, 4) == [(0, 10)]
        a_levels, b_levels = pair_level_data(pts, pair, 1, 0, 10)
        # Only the subspace passes exist at B = 1.
        assert a_levels.shape == (10, 2)
        assert a_levels[:, 1].any() or b_levels[:, 0].any()
        assert not a_levels[:, 0].any() and not b_levels[:, 1].any()


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
        pts = np.random.default_rng(3).random((200, 2))
        metrics = Metrics()
        # Below POOL_MIN_N the tasks run inline: one range, all systems.
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=2, metrics=metrics,
        )
        assert metrics.counters["build.chunks"] == 1
        # One id-range task for the single 2-D system; the dominance
        # factor rides along in it.
        assert metrics.counters["build.tasks"] == 1
        assert "build.phase.levels" in metrics.timers
        assert "counting.kernel" in metrics.timers

        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pooled = Metrics()
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=2, metrics=pooled,
        )
        # With the pool, the system's 200 ids split into 2 ranges.
        assert pooled.counters["build.chunks"] == 2
        assert pooled.counters["build.tasks"] == 2

    def test_one_task_per_range_over_all_systems(self, monkeypatch):
        # Three systems at d=3, yet one level task per id range: the
        # shared kernel serves every system from one set of columns.
        pts = np.random.default_rng(4).random((200, 3))
        inline = Metrics()
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=1, metrics=inline,
        )
        assert inline.counters["build.tasks"] == 1
        assert inline.counters["counting.fused_levels"] == 3 * (4 + 1)
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pooled = Metrics()
        pipeline.build_level_data(
            pts, 4, include_partial=False, workers=3, metrics=pooled,
        )
        assert pooled.counters["build.chunks"] == 3
        assert pooled.counters["build.tasks"] == 3

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_builds_each_prefix_word_once(self, monkeypatch, workers):
        # The pooled schedule splits the inline kernel work instead of
        # repeating any of it: the same prefix-matrix words in total.
        pts = np.random.default_rng(8).random((300, 3))
        inline = appri_build(pts, n_partitions=5).metrics["counters"]
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pooled = appri_build(pts, n_partitions=5, workers=workers)
        counters = pooled.metrics["counters"]
        assert counters["build.pool_used"] == 1
        assert counters["build.chunks"] == workers
        assert (
            counters["counting.prefix_words"]
            == inline["counting.prefix_words"]
        )

    def test_pool_size_capped_by_usable_cpus(self, monkeypatch):
        started = []

        class RecordingPool(pipeline.ProcessPoolExecutor):
            def __init__(self, max_workers=None, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
        pts = np.random.default_rng(6).random((300, 3))
        metrics = Metrics()
        dominators, level_data, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=8, metrics=metrics
        )
        assert started == [2]
        assert metrics.counters["build.chunks"] == 2
        serial_dom, serial_level, _ = pipeline.build_level_data(
            pts, 5, include_partial=False, workers=1
        )
        assert np.array_equal(dominators, serial_dom)
        for (pa, pb), (sa, sb) in zip(level_data, serial_level):
            assert np.array_equal(pa, sa)
            assert np.array_equal(pb, sb)

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
            # Payloads travel as int32; the sums are int64 either way.
            assert pa.dtype == pb.dtype == sa.dtype == np.int64
        assert dominators.dtype == np.int64

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
