"""Tests for layered-index primitives."""

import numpy as np
import pytest

from repro.core.index import (
    cumulative_layer_sizes,
    is_sound_for_query,
    layer_offsets,
    layer_order,
    tuples_in_top_layers,
    violating_tids,
)
from repro.queries.ranking import LinearQuery


class TestOrderAndOffsets:
    def test_layer_order_sorts_by_layer_then_tid(self):
        layers = np.array([2, 1, 2, 1])
        assert layer_order(layers).tolist() == [1, 3, 0, 2]

    def test_offsets_cumulative(self):
        layers = np.array([1, 1, 2, 4])
        offsets = layer_offsets(layers)
        assert offsets.tolist() == [0, 2, 3, 3, 4]

    def test_cumulative_layer_sizes_clamps(self):
        layers = np.array([1, 2, 2])
        assert cumulative_layer_sizes(layers, 0) == 0
        assert cumulative_layer_sizes(layers, 1) == 1
        assert cumulative_layer_sizes(layers, 99) == 3

    def test_tuples_in_top_layers(self):
        layers = np.array([3, 1, 2])
        assert tuples_in_top_layers(layers, 2).tolist() == [1, 2]

    @pytest.mark.parametrize("top", [3, 200, 40_000, 70_000])
    def test_layer_order_equals_lexsort_under_heavy_ties(self, top):
        # Few distinct layers (many ties) up to layer counts past the
        # 16-bit keys, where the sort key widens.
        rng = np.random.default_rng(top)
        layers = rng.integers(1, top + 1, size=5_000)
        layers[rng.integers(layers.size, size=2_500)] = top
        expected = np.lexsort((np.arange(layers.size), layers))
        order = layer_order(layers)
        assert order.dtype == expected.dtype
        assert np.array_equal(order, expected)

    def test_empty_layers(self):
        assert layer_order(np.array([], dtype=int)).size == 0
        assert layer_offsets(np.array([], dtype=int)).tolist() == [0]

    def test_rejects_zero_based_layers(self):
        with pytest.raises(ValueError, match="1-based"):
            layer_offsets(np.array([0, 1]))

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            layer_order(np.ones((2, 2)))


class TestSoundnessCheck:
    def test_detects_violation(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        bad_layers = np.array([2, 1])  # the dominator is buried
        q = LinearQuery([1, 1])
        assert violating_tids(pts, bad_layers, q, 1).tolist() == [0]
        assert not is_sound_for_query(pts, bad_layers, q, 1)

    def test_accepts_valid_layering(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        q = LinearQuery([1, 1])
        assert is_sound_for_query(pts, np.array([1, 2]), q, 1)
        assert is_sound_for_query(pts, np.array([1, 2]), q, 2)

    def test_trivial_layering_always_sound(self):
        rng = np.random.default_rng(0)
        pts = rng.random((20, 3))
        ones = np.ones(20, dtype=int)
        for seed in range(5):
            w = np.random.default_rng(seed).dirichlet(np.ones(3))
            assert is_sound_for_query(pts, ones, LinearQuery(w), 7)
