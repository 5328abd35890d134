"""Tests for the shared all-systems counting kernel.

The contract under test is bit-identity:
:func:`repro.core.kernels.systems_level_data` (and its one-system call
:func:`repro.core.kernels.pair_level_data`) must reproduce, exactly,
the level sizes the paper's per-level schedule
(``tests/core/appri_reference.py``) obtains from one dominance pass
per transformed space — under every named engine, on tied and untied
data — while packing each distinct column once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core import kernels, pipeline
from repro.core.appri import appri_build
from repro.core.kernels import pair_level_data, systems_level_data
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import (
    count_dominators_blocked,
    count_dominators_divide_conquer,
    count_dominators_naive,
)

from .appri_reference import distinct_columns, level_pass, serial_level_arrays


class TestPairLevelData:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_serial_passes(self, d, tied):
        rng = np.random.default_rng(d * 10 + tied)
        if tied:
            pts = rng.integers(0, 3, size=(50, d)).astype(float)
        else:
            pts = rng.random((50, d))
        b = 5
        for pair in pair_systems(d, include_partial=False):
            expect_a, expect_b = serial_level_arrays(pts, pair, b)
            got_a, got_b = pair_level_data(pts, pair, b)
            assert np.array_equal(got_a, expect_a)
            assert np.array_equal(got_b, expect_b)

    def test_partial_systems_with_shared_below_dims(self):
        rng = np.random.default_rng(42)
        pts = rng.integers(0, 4, size=(40, 3)).astype(float)
        for pair in pair_systems(3, include_partial=True):
            expect_a, expect_b = serial_level_arrays(pts, pair, 4)
            got_a, got_b = pair_level_data(pts, pair, 4)
            assert np.array_equal(got_a, expect_a)
            assert np.array_equal(got_b, expect_b)

    def test_forced_bit_chunking_is_identical(self):
        rng = np.random.default_rng(8)
        pts = rng.integers(0, 5, size=(70, 4)).astype(float)
        pair = pair_systems(4, include_partial=False)[2]
        full_a, full_b = pair_level_data(pts, pair, 6)
        # One word per chunk: the maximum chunk count.
        tiny_a, tiny_b = pair_level_data(pts, pair, 6, budget_bytes=1)
        assert np.array_equal(full_a, tiny_a)
        assert np.array_equal(full_b, tiny_b)

    def test_level_subsets_tile_full_result(self):
        # Each level column of one full call is that level's own pass
        # of the per-level schedule.
        rng = np.random.default_rng(3)
        pts = rng.random((30, 3))
        b = 6
        for pair in pair_systems(3, include_partial=True):
            full_a, full_b = pair_level_data(pts, pair, b)
            for p in range(1, b):
                assert np.array_equal(
                    full_a[:, p], level_pass(pts, pair, b, p, "a")
                )
                assert np.array_equal(
                    full_b[:, p], level_pass(pts, pair, b, p, "b")
                )
            # Column B of side a / column 0 of side b: the subspaces.
            sub_a = level_pass(pts, pair, b, b, "a")
            sub_b = level_pass(pts, pair, b, b, "b")
            assert np.array_equal(full_a[:, b], sub_a)
            assert np.array_equal(full_b[:, 0], sub_b)
            assert not full_a[:, 0].any() and not full_b[:, b].any()

    def test_empty_input_and_empty_levels(self):
        pair = pair_systems(2, include_partial=False)[0]
        a_levels, b_levels = pair_level_data(np.zeros((0, 2)), pair, 4)
        assert a_levels.shape == (0, 5)
        # An empty id range counts no dominators at any level.
        pts = np.random.default_rng(0).random((5, 2))
        a_levels, b_levels = pair_level_data(pts, pair, 4, 3, 3)
        assert a_levels.shape == (5, 5)
        assert not a_levels.any() and not b_levels.any()

    def test_rejects_bad_id_range(self):
        pair = pair_systems(2, include_partial=False)[0]
        pts = np.ones((3, 2))
        for lo, hi in [(-1, 3), (0, 4), (2, 1), (4, 4)]:
            with pytest.raises(ValueError, match="id range"):
                pair_level_data(pts, pair, 4, lo, hi)

    def test_words_counted_once_per_column(self):
        # Ranges split the bit space: their prefix words add up to the
        # full call's when every range but the last is word-aligned.
        pts = np.random.default_rng(4).random((200, 3))
        pair = pair_systems(3, include_partial=False)[0]
        words = {}
        for name, ranges in (("full", [(0, 200)]),
                             ("split", [(0, 64), (64, 192), (192, 200)])):
            metrics = obs.Metrics()
            with obs.collect(metrics):
                for lo, hi in ranges:
                    pair_level_data(pts, pair, 5, lo, hi)
            words[name] = metrics.counters["counting.prefix_words"]
        assert words["split"] == words["full"]

    def test_records_kernel_timer(self):
        pts = np.random.default_rng(1).random((20, 2))
        pair = pair_systems(2, include_partial=False)[0]
        metrics = obs.Metrics()
        with obs.collect(metrics):
            pair_level_data(pts, pair, 3)
        assert "counting.kernel" in metrics.timers
        assert metrics.counters["counting.fused_levels"] == 4

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_agreement_with_every_engine(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        d = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        tied = bool(rng.integers(0, 2))
        if tied:
            pts = rng.integers(0, 3, size=(n, d)).astype(float)
        else:
            pts = rng.random((n, d))
        systems = pair_systems(d, include_partial=False)
        pair = systems[int(rng.integers(0, len(systems)))]
        got_a, got_b = pair_level_data(pts, pair, b)
        for count in (
            count_dominators_naive,
            count_dominators_blocked,
            count_dominators_divide_conquer,
        ):
            expect_a, expect_b = serial_level_arrays(pts, pair, b, count)
            assert np.array_equal(got_a, expect_a), count.__name__
            assert np.array_equal(got_b, expect_b), count.__name__


def _points(rng, n, d, data):
    if data == "distinct":
        return rng.random((n, d))
    pts = rng.integers(0, 3, size=(n, d)).astype(float)
    if data == "duplicate_columns":
        # Equal attribute columns make equal bilinear columns too.
        pts[:, -1] = pts[:, 0]
    return pts


def _assert_levels_equal(got, expected):
    assert len(got) == len(expected)
    for (got_a, got_b), (expect_a, expect_b) in zip(got, expected):
        assert np.array_equal(got_a, expect_a)
        assert np.array_equal(got_b, expect_b)


class TestSystemsLevelData:
    """Every system at once, against the per-level reference."""

    @pytest.mark.parametrize(
        "d, n", [(2, 130), (3, 130), (4, 130), (2, 45), (3, 45), (4, 45),
                 (5, 45)]
    )
    @pytest.mark.parametrize("systems", ["complementary", "families"])
    @pytest.mark.parametrize("data", ["distinct", "tied", "duplicate_columns"])
    def test_matches_per_level_reference(self, d, n, systems, data):
        rng = np.random.default_rng(100 * d + n)
        pts = _points(rng, n, d, data)
        all_systems = pair_systems(d, include_partial=(systems == "families"))
        if systems == "families" and d > 2:
            assert any(pair.shared_below for pair in all_systems)
        b = 4
        dominators, got = systems_level_data(pts, all_systems, b)
        assert np.array_equal(dominators, count_dominators_naive(pts))
        _assert_levels_equal(
            got, [serial_level_arrays(pts, pair, b) for pair in all_systems]
        )

    def test_no_systems_and_single_tuple_still_build(self):
        pts = np.random.default_rng(5).random((20, 1))
        assert pair_systems(1) == []
        dominators, levels = systems_level_data(pts, [], 4)
        assert levels == []
        assert np.array_equal(dominators, count_dominators_naive(pts))
        dominators, level_data, systems = pipeline.build_level_data(
            pts, 4, include_partial=False, workers=1
        )
        assert level_data == [] and systems == []
        build = appri_build(pts, n_partitions=4)
        # d=1: the layer is the tuple's rank among distinct values.
        assert build.layers.tolist() == (dominators + 1).tolist()
        for d in (1, 2, 4):
            single = appri_build(np.ones((1, d)), n_partitions=4)
            assert single.layers.tolist() == [1]

    @pytest.mark.parametrize("systems", ["complementary", "families"])
    def test_tiny_budget_many_chunks_identical(self, systems):
        rng = np.random.default_rng(9)
        pts = rng.integers(0, 4, size=(200, 4)).astype(float)
        all_systems = pair_systems(4, include_partial=(systems == "families"))
        full_dom, full = systems_level_data(pts, all_systems, 5)
        # One word per chunk: the maximum chunk count.
        tiny_dom, tiny = systems_level_data(
            pts, all_systems, 5, budget_bytes=1
        )
        _assert_levels_equal(tiny, full)
        assert np.array_equal(tiny_dom, full_dom)

    @pytest.mark.parametrize("parts", [2, 3])
    def test_word_aligned_ranges_sum_to_full_call(self, parts):
        rng = np.random.default_rng(parts)
        pts = rng.integers(0, 5, size=(200, 3)).astype(float)
        all_systems = pair_systems(3, include_partial=True)
        full_metrics = obs.Metrics()
        with obs.collect(full_metrics):
            full_dom, full = systems_level_data(pts, all_systems, 6)
        summed_dom = np.zeros_like(full_dom)
        summed = [(np.zeros_like(a), np.zeros_like(b)) for a, b in full]
        split_metrics = obs.Metrics()
        with obs.collect(split_metrics):
            for lo, hi in pipeline._id_ranges(200, parts):
                assert lo % 64 == 0
                part_dom, part = systems_level_data(
                    pts, all_systems, 6, lo, hi
                )
                summed_dom += part_dom
                for (sum_a, sum_b), (part_a, part_b) in zip(summed, part):
                    sum_a += part_a
                    sum_b += part_b
        _assert_levels_equal(summed, full)
        assert np.array_equal(summed_dom, full_dom)
        assert (
            split_metrics.counters["counting.prefix_words"]
            == full_metrics.counters["counting.prefix_words"]
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("systems", ["complementary", "families"])
    def test_prefix_words_count_each_distinct_column_once(
        self, monkeypatch, d, systems
    ):
        # Packing a column per system that uses it, instead of once per
        # build, would multiply these words (276 vs 89 matrices at d=4).
        n, b = 150, 10
        pts = np.random.default_rng(d).random((n, d))
        words = (n + 63) >> 6
        if d == 4:
            # 8 signed attributes and 9 bilinear pairs x 9 levels; the
            # dominance factor reuses the 4 plain attributes.
            assert distinct_columns(d, systems, b) == 89
        expected = distinct_columns(d, systems, b) * n * words
        inline = appri_build(pts, n_partitions=b, systems=systems)
        assert inline.metrics["counters"]["counting.prefix_words"] == expected
        monkeypatch.setattr(pipeline, "POOL_MIN_N", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 8)
        pooled = appri_build(pts, n_partitions=b, systems=systems, workers=2)
        counters = pooled.metrics["counters"]
        assert counters["build.pool_used"] == 1
        assert counters["counting.prefix_words"] == expected
        assert np.array_equal(pooled.layers, inline.layers)

    def test_live_bitsets_fit_the_envelope(self, monkeypatch):
        # Four accumulators plus one prefix matrix of ``budget_bytes``
        # each: every buffer of a chunk, plus the prefix matrix being
        # gathered, fits in those bytes.
        seen = []
        real = kernels.chunk_buffers

        def recording(n, chunks, count):
            widest = max((hi - lo + 63) >> 6 for lo, hi in chunks)
            seen.append((count + 1) * 8 * n * widest)
            return real(n, chunks, count)

        monkeypatch.setattr(kernels, "chunk_buffers", recording)
        n = 64 * 60
        pts = np.random.default_rng(4).random((n, 4))
        budget = 8 * n * 40
        systems_level_data(
            pts, pair_systems(4, include_partial=False), 3,
            budget_bytes=budget,
        )
        assert seen and seen[0] <= 5 * budget
