"""Tests for the fused system-level counting kernel.

The contract under test is bit-identity:
:func:`repro.core.kernels.pair_level_data` must reproduce, exactly,
the level sizes the paper's per-level schedule
(``tests/core/appri_reference.py``) obtains from one dominance pass
per transformed space — under every named engine, on tied and untied
data.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.core.kernels import pair_level_data
from repro.core.partitioning import pair_systems
from repro.dstruct.dominance import (
    count_dominators_blocked,
    count_dominators_divide_conquer,
    count_dominators_naive,
)

from .appri_reference import serial_level_arrays


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
        rng = np.random.default_rng(3)
        pts = rng.random((30, 3))
        pair = pair_systems(3, include_partial=False)[0]
        b = 6
        full_a, full_b = pair_level_data(pts, pair, b)
        acc_a = np.zeros_like(full_a)
        acc_b = np.zeros_like(full_b)
        for p in range(1, b + 1):
            part_a, part_b = pair_level_data(pts, pair, b, levels=[p])
            acc_a += part_a
            acc_b += part_b
        assert np.array_equal(acc_a, full_a)
        assert np.array_equal(acc_b, full_b)

    def test_empty_input_and_empty_levels(self):
        pair = pair_systems(2, include_partial=False)[0]
        a_levels, b_levels = pair_level_data(np.zeros((0, 2)), pair, 4)
        assert a_levels.shape == (0, 5)
        pts = np.random.default_rng(0).random((5, 2))
        a_levels, b_levels = pair_level_data(pts, pair, 4, levels=[])
        assert not a_levels.any() and not b_levels.any()

    def test_rejects_out_of_range_levels(self):
        pair = pair_systems(2, include_partial=False)[0]
        pts = np.ones((3, 2))
        with pytest.raises(ValueError, match="levels"):
            pair_level_data(pts, pair, 4, levels=[5])
        with pytest.raises(ValueError, match="levels"):
            pair_level_data(pts, pair, 4, levels=[0])

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
