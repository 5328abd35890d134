"""Tests for dynamic (insert/delete) maintenance of robust layers:
the single-tuple bound and the two update rules as
:class:`~repro.indexes.dynamic.DynamicRobustIndex` applies them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.dynamic as dynamic_module
from repro.core.appri import appri_layers
from repro.core.dynamic import layer_for_new_tuple
from repro.core.exact import exact_robust_layers
from repro.core.index import violating_tids
from repro.geometry.weights import gamma_levels
from repro.indexes.dynamic import DynamicRobustIndex
from repro.queries.ranking import LinearQuery

from .dynamic_reference import reference_layer_for_new_tuple


def assert_sound(points, layers, seed, n_queries=6):
    rng = np.random.default_rng(seed)
    for _ in range(n_queries):
        w = rng.dirichlet(np.ones(points.shape[1]))
        k = int(rng.integers(1, points.shape[0] + 1))
        assert violating_tids(points, layers, LinearQuery(w), k).size == 0


class TestLayerForNewTuple:
    def test_matches_batch_build(self, rng):
        pts = rng.random((60, 3))
        batch = appri_layers(pts, n_partitions=6)
        for t in range(0, 60, 7):
            others = np.delete(pts, t, axis=0)
            single = layer_for_new_tuple(others, pts[t], n_partitions=6)
            # Against the same neighbourhood the one-shot bound equals
            # the batch bound (identical regions and matching).
            assert single == batch[t] or abs(single - batch[t]) <= 1

    def test_dominating_tuple_gets_layer_one(self, rng):
        pts = rng.random((30, 2)) + 1.0
        assert layer_for_new_tuple(pts, np.zeros(2), n_partitions=5) == 1

    def test_dominated_tuple_gets_deep_layer(self, rng):
        pts = rng.random((30, 2))
        layer = layer_for_new_tuple(pts, np.array([2.0, 2.0]), 5)
        assert layer == 31  # dominated by everything

    def test_empty_relation(self):
        assert layer_for_new_tuple(np.zeros((0, 2)), np.ones(2)) == 1

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError):
            layer_for_new_tuple(rng.random((5, 2)), np.ones(3))

    def test_lower_bounds_exact_rank(self, rng):
        pts = rng.random((25, 2))
        new = rng.random(2)
        layer = layer_for_new_tuple(pts, new, n_partitions=8)
        stacked = np.vstack([pts, new[None, :]])
        assert layer <= exact_robust_layers(stacked)[-1]


@st.composite
def _bound_inputs(draw):
    """``(points, t, n_partitions)`` built to stress boundary ties.

    Value families: tied integer grids, 0.1-rounded values, large
    magnitudes, and each with optional constant columns, duplicated
    rows and rows moved onto gamma level boundaries; ``t`` is a fresh
    row, a copy of an existing row, or a fresh row sharing some
    coordinates with an existing one.
    """
    n = draw(st.sampled_from([0, 1, 2, 3, 5, 12, 40]))
    d = draw(st.integers(1, 5))
    n_partitions = draw(st.sampled_from([1, 2, 3, 10]))
    family = draw(st.sampled_from(["grid", "rounded", "large", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def values(shape):
        if family == "grid":
            return rng.integers(0, 4, shape).astype(float)
        if family == "rounded":
            return np.round(rng.random(shape), 1)
        if family == "large":
            return np.round(rng.random(shape), 2) * 10.0 ** draw(
                st.sampled_from([6, 150, 300])
            )
        return rng.random(shape)

    pts = values((n, d))
    t = values(d)
    if n and draw(st.booleans()):  # constant columns
        width = int(rng.integers(1, d + 1))
        columns = rng.choice(d, size=width, replace=False)
        pts[:, columns] = t[columns]
    if n > 1 and draw(st.booleans()):  # duplicated rows
        pts[rng.integers(n, size=n // 2)] = pts[rng.integers(n)]
    if n:
        source = pts[rng.integers(n)]
        how = draw(st.sampled_from(["fresh", "copy", "partial"]))
        if how == "copy":
            t = source.copy()
        elif how == "partial":
            shared = rng.random(d) < 0.5
            t[shared] = source[shared]
    gammas = gamma_levels(n_partitions)
    if n and d > 1 and gammas.size and draw(st.booleans()):
        # Put rows on (or within rounding of) a gamma level boundary
        # gamma*u_i + u_j == gamma*t_i + t_j, where strict and non-strict
        # level tests disagree.
        for r in rng.integers(n, size=max(1, n // 2)):
            i, j = rng.choice(d, size=2, replace=False)
            g = gammas[rng.integers(gammas.size)]
            pts[r, j] = (g * t[i] + t[j]) - g * pts[r, i]
    return pts, t, n_partitions


class TestMatchesReference:
    """The one-pass bound equals the per-level formulation exactly."""

    @given(_bound_inputs())
    @settings(max_examples=400, deadline=None)
    def test_property_equals_reference(self, case):
        pts, t, n_partitions = case
        assert layer_for_new_tuple(pts, t, n_partitions) == (
            reference_layer_for_new_tuple(pts, t, n_partitions)
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_generic_data_equals_reference(self, d):
        rng = np.random.default_rng(d)
        pts = rng.random((500, d))
        for t in rng.random((5, d)):
            assert layer_for_new_tuple(pts, t, 10) == (
                reference_layer_for_new_tuple(pts, t, 10)
            )

    def test_seeded_stream_matches_reference(self, monkeypatch):
        """Same insert/delete stream, bound from either implementation:
        every intermediate layering is identical."""
        rng = np.random.default_rng(7)
        data = rng.integers(0, 5, (40, 3)).astype(float)
        fast = DynamicRobustIndex(data, n_partitions=4)
        slow = DynamicRobustIndex(data, n_partitions=4)
        for step in range(60):
            if step % 4 == 3:
                position = int(rng.integers(fast.size))
                fast.delete(position)
                slow.delete(position)
            else:
                row = (
                    fast.points[rng.integers(fast.size)]
                    if step % 5 == 0
                    else rng.integers(0, 5, 3).astype(float)
                )
                fast.insert(row)
                with monkeypatch.context() as patch:
                    patch.setattr(
                        dynamic_module,
                        "layer_for_new_tuple",
                        reference_layer_for_new_tuple,
                    )
                    slow.insert(row)
            assert fast.layers.tolist() == slow.layers.tolist()
            assert np.array_equal(fast.points, slow.points)


class TestDynamicIndex:
    def test_insert_keeps_soundness(self, rng):
        data = rng.random((40, 2))
        idx = DynamicRobustIndex(data, n_partitions=5)
        for i in range(10):
            idx.insert(rng.random(2))
        assert idx.size == 50
        assert idx.staleness == 10
        assert_sound(idx.points, idx.layers, seed=1)

    def test_delete_keeps_soundness(self, rng):
        data = rng.random((40, 2))
        idx = DynamicRobustIndex(data, n_partitions=5)
        for _ in range(8):
            idx.delete(int(rng.integers(idx.size)))
        assert idx.size == 32
        assert_sound(idx.points, idx.layers, seed=2)

    def test_mixed_workload_soundness(self, rng):
        data = rng.random((30, 3))
        idx = DynamicRobustIndex(data, n_partitions=4)
        for step in range(20):
            if step % 3 == 0 and idx.size > 5:
                idx.delete(int(rng.integers(idx.size)))
            else:
                idx.insert(rng.random(3))
            assert_sound(idx.points, idx.layers, seed=step, n_queries=3)

    def test_layers_never_below_one(self, rng):
        data = rng.random((10, 2))
        idx = DynamicRobustIndex(data, n_partitions=3)
        for _ in range(9):
            idx.delete(0)
        assert idx.layers.min() >= 1

    def test_rebuild_restores_tightness(self, rng):
        data = rng.random((40, 2))
        idx = DynamicRobustIndex(data, n_partitions=5)
        for _ in range(5):
            idx.delete(int(rng.integers(idx.size)))
        loose = idx.layers
        assert idx.rebuild() is True
        tight = idx.layers
        assert idx.staleness == 0
        assert tight.sum() >= loose.sum()  # rebuilt layers are deeper
        assert tight.tolist() == appri_layers(
            idx.points, n_partitions=5
        ).tolist()

    def test_delete_out_of_range(self, rng):
        idx = DynamicRobustIndex(rng.random((5, 2)), n_partitions=2)
        with pytest.raises(IndexError):
            idx.delete(5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_insert_is_rejected_without_state_change(
        self, rng, bad
    ):
        idx = DynamicRobustIndex(rng.random((20, 3)), n_partitions=4)
        idx.insert(rng.random(3))
        before = (idx.size, idx.staleness, idx.layers.tolist())
        with pytest.raises(ValueError, match="points must be finite"):
            idx.insert([bad, 0.5, 0.5])
        assert (idx.size, idx.staleness, idx.layers.tolist()) == before
        assert np.isfinite(idx.points).all()
        idx.rebuild()
        assert idx.staleness == 0

    def test_insert_after_delete_compensation(self, rng):
        """A tuple inserted after deletions must not get an inflated
        layer from the global deletion adjustment."""
        data = rng.random((30, 2))
        idx = DynamicRobustIndex(data, n_partitions=4)
        idx.delete(0)
        idx.delete(0)
        pos = idx.insert(np.array([-1.0, -1.0]))  # dominates everything
        assert idx.layers[pos] == 1
        assert_sound(idx.points, idx.layers, seed=9)

    @given(st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_property_random_update_streams(self, seed):
        rng = np.random.default_rng(seed)
        idx = DynamicRobustIndex(rng.random((15, 2)), n_partitions=3)
        for _ in range(8):
            if rng.random() < 0.4 and idx.size > 3:
                idx.delete(int(rng.integers(idx.size)))
            else:
                idx.insert(rng.random(2))
        exact = exact_robust_layers(idx.points)
        assert np.all(idx.layers <= exact)
