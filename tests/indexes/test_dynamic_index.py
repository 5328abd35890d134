"""DynamicRobustIndex: exactness through update streams, view swaps."""

import sys
import threading

import numpy as np
import pytest

import repro.core.dynamic as dynamic_module
from repro.core.validate import audit_layering
from repro.engine.snapshot import load_snapshot, save_snapshot
from repro.indexes.dynamic import DynamicRobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import simplex_workload

from ..core.dynamic_reference import LayeringModel, assert_same_slab


@pytest.fixture
def index(rng):
    return DynamicRobustIndex(rng.random((80, 3)), n_partitions=5)


def _assert_exact(index, k=10, seed=0):
    for query in simplex_workload(index.dimensions, 6, seed=seed):
        got = list(index.query(query, k).tids)
        want = list(query.top_k(index.points, k))
        assert got == want


class TestExactness:
    def test_fresh_build_is_exact_and_tight(self, index):
        assert index.tight is True
        assert index.staleness == 0
        _assert_exact(index)

    def test_exact_through_an_insert_stream(self, index, rng):
        for i, row in enumerate(rng.random((15, 3))):
            tid = index.insert(row)
            assert 0 <= tid < index.size
            _assert_exact(index, seed=i)
        assert index.staleness == 15
        assert index.tight is False

    def test_exact_through_a_delete_stream(self, index, rng):
        for i in range(10):
            index.delete(int(rng.integers(index.size)))
            _assert_exact(index, seed=i)
        assert index.size == 70

    def test_exact_through_mixed_stream_and_rebuild(self, index, rng):
        for i in range(25):
            if rng.random() < 0.6:
                index.insert(rng.random(3))
            else:
                index.delete(int(rng.integers(index.size)))
            if i % 10 == 9:
                assert index.rebuild() is True
                assert index.staleness == 0
            _assert_exact(index, seed=i)

    def test_layering_stays_sound_under_updates(self, index, rng):
        for _ in range(12):
            index.insert(rng.random(3))
        for _ in range(6):
            index.delete(int(rng.integers(index.size)))
        report = audit_layering(
            index.points, index.layers, n_queries=50, seed=1
        )
        assert report.sound


class TestViewSemantics:
    def test_generation_is_monotone(self, index, rng):
        generations = [index.generation]
        index.insert(rng.random(3))
        generations.append(index.generation)
        index.delete(0)
        generations.append(index.generation)
        assert generations == sorted(set(generations))

    def test_old_view_keeps_serving_after_updates(self, index, rng):
        view = index._view
        points_before = view.slab.points.copy()
        index.insert(rng.random(3))
        # The captured view is immutable: same object, same answers.
        assert np.array_equal(view.slab.points, points_before)
        assert index._view is not view

    def test_retrieval_cost_matches_offsets(self, index):
        assert index.retrieval_cost(0) == 0
        cost = index.retrieval_cost(5)
        result = index.query(LinearQuery([1.0, 1.0, 1.0]), 5)
        assert result.retrieved == cost

    def test_build_info_reports_dynamic_state(self, index, rng):
        index.insert(rng.random(3))
        info = index.build_info()
        assert info["method"] == "dynamic-appri"
        assert info["staleness"] == 1
        assert info["tight"] is False
        assert info["generation"] == 1
        assert info["n_layers"] >= 1


class TestValidation:
    def test_dimension_mismatch_is_rejected(self, index):
        with pytest.raises(ValueError, match="weights"):
            index.query(LinearQuery([1.0, 2.0]), 5)

    def test_negative_k_is_rejected(self, index):
        with pytest.raises(ValueError, match="non-negative"):
            index.query(LinearQuery([1.0, 1.0, 1.0]), -1)

    def test_k_zero_and_k_beyond_n(self, index):
        query = LinearQuery([1.0, 2.0, 3.0])
        assert len(index.query(query, 0).tids) == 0
        result = index.query(query, index.size + 50)
        assert len(result.tids) == index.size
        assert list(result.tids) == list(query.top_k(index.points, index.size))


_FIELDS = ("points", "layers", "order", "offsets", "slab")


def _assert_view_is_fresh_pack(index, model):
    """The patched view equals a from-scratch pack of the list model
    that replayed the same updates."""
    assert_same_slab(index._view.slab, model.slab())


def _state(index):
    arrays, meta = index.export_state()
    return {name: np.array(a) for name, a in arrays.items()}, meta


def _assert_same_state(left, right):
    (left_arrays, left_meta), (right_arrays, right_meta) = left, right
    assert left_meta == right_meta
    assert left_arrays.keys() == right_arrays.keys()
    for name in left_arrays:
        assert np.array_equal(left_arrays[name], right_arrays[name]), name


class TestPatchedView:
    def test_every_update_matches_a_fresh_pack(self, rng):
        # Ties on a coarse grid put many tuples on shared layers.
        data = np.round(rng.random((60, 3)), 1)
        index = DynamicRobustIndex(data, 4)
        model = LayeringModel(data, 4)
        for step in range(150):
            if index.size and rng.random() < 0.5:
                position = int(rng.integers(index.size))
                index.delete(position)
                model.delete(position)
            else:
                row = np.round(rng.random(3), 1)
                assert index.insert(row) == model.insert(row)
            _assert_view_is_fresh_pack(index, model)
            if step % 50 == 49:
                index.rebuild()
                model.rebuild()
                _assert_view_is_fresh_pack(index, model)

    def test_delete_to_empty_then_reinsert(self, rng):
        data = rng.random((5, 2))
        index = DynamicRobustIndex(data, n_partitions=3)
        model = LayeringModel(data, 3)
        while index.size:
            index.delete(index.size - 1)
            model.delete(model.points.shape[0] - 1)
            _assert_view_is_fresh_pack(index, model)
        assert index._view.slab.n_layers == 0
        rows = rng.random((4, 2))
        index.insert_many(rows)
        for row in rows:
            model.insert(row)
        _assert_view_is_fresh_pack(index, model)
        _assert_exact(index, k=3)

    def test_restored_index_keeps_patching(self, index, rng, tmp_path):
        model = LayeringModel(index.points, 5)
        row = rng.random(3)
        index.insert(row)
        model.insert(row)
        index.delete(7)
        model.delete(7)
        save_snapshot(index, tmp_path / "dyn.snap")
        restored = load_snapshot(tmp_path / "dyn.snap")  # memory-mapped
        rows = rng.random((2, 3))
        for target in (index, restored):
            target.upsert_many([3, 11], rows)
        model.upsert(3, rows[0])
        model.upsert(11, rows[1])
        _assert_view_is_fresh_pack(restored, model)
        _assert_same_state(_state(index), _state(restored))


class TestBatchedWrites:
    def _twins(self, rng):
        data = rng.random((70, 3))
        return (
            DynamicRobustIndex(data, n_partitions=5),
            DynamicRobustIndex(data, n_partitions=5),
            LayeringModel(data, 5),
        )

    def test_insert_many_equals_single_inserts(self, rng):
        batched, single, model = self._twins(rng)
        rows = rng.random((6, 3))
        tids = batched.insert_many(rows)
        assert tids.tolist() == [single.insert(row) for row in rows]
        assert tids.tolist() == [model.insert(row) for row in rows]
        _assert_view_is_fresh_pack(batched, model)
        _assert_same_state(_state(batched), _state(single))
        assert batched.generation == single.generation == 6

    def test_delete_many_equals_single_deletes(self, rng):
        batched, single, model = self._twins(rng)
        positions = [69, 0, 30, 30, 5]
        batched.delete_many(positions)
        for position in positions:
            single.delete(position)
            model.delete(position)
        _assert_view_is_fresh_pack(batched, model)
        _assert_same_state(_state(batched), _state(single))

    def test_upsert_many_equals_single_calls(self, rng):
        batched, single, model = self._twins(rng)
        positions = rng.integers(70, size=8)
        rows = rng.random((8, 3))
        tids = batched.upsert_many(positions, rows)
        expected = []
        for position, row in zip(positions, rows):
            single.delete(int(position))
            expected.append(single.insert(row))
            assert model.upsert(int(position), row) == expected[-1]
        assert tids.tolist() == expected
        _assert_view_is_fresh_pack(batched, model)
        _assert_same_state(_state(batched), _state(single))
        assert batched.staleness == 16
        _assert_exact(batched)

    def test_a_batch_publishes_one_view(self, index, rng):
        before = index._view
        index.upsert_many([1, 2, 3], rng.random((3, 3)))
        assert index._view.generation == before.generation + 6
        # The view grabbed before the batch is untouched.
        assert before.slab.points.shape == (80, 3)

    def test_empty_batches_change_nothing(self, index):
        view = index._view
        assert index.insert_many(np.empty((0, 3))).size == 0
        index.delete_many([])
        assert index.upsert_many([], np.empty((0, 3))).size == 0
        assert index._view is view and index.staleness == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda ix: ix.insert_many([[0.1, 0.2, 0.3], [0.1, np.nan, 0.3]]),
            lambda ix: ix.insert_many([[0.1, 0.2]]),
            lambda ix: ix.delete_many([3, 79]),  # 79 is gone after one delete
            lambda ix: ix.upsert_many([1, 80], [[0.1] * 3, [0.2] * 3]),
            lambda ix: ix.upsert_many([1], [[0.1] * 3, [0.2] * 3]),
        ],
    )
    def test_invalid_batches_are_rejected_whole(self, index, call):
        before = _state(index)
        view = index._view
        with pytest.raises((ValueError, IndexError)):
            call(index)
        assert index._view is view
        _assert_same_state(_state(index), before)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ix, rows: ix.insert_many(rows),
            lambda ix, rows: ix.upsert_many([4, 9, 2], rows),
        ],
        ids=["insert_many", "upsert_many"],
    )
    def test_a_batch_failing_midway_changes_nothing(
        self, index, rng, monkeypatch, call
    ):
        index.upsert_many([0], rng.random((1, 3)))
        before = (
            np.array(index.points), np.array(index.layers),
            index.staleness, index.generation, _state(index),
        )
        view = index._view
        bound = dynamic_module.layer_for_new_tuple
        calls = []

        def fail_on_second_row(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("injected bound failure")
            return bound(*args)

        monkeypatch.setattr(
            dynamic_module, "layer_for_new_tuple", fail_on_second_row
        )
        with pytest.raises(RuntimeError, match="injected"):
            call(index, rng.random((3, 3)))
        assert len(calls) == 2
        assert index._view is view
        assert np.array_equal(index.points, before[0])
        assert np.array_equal(index.layers, before[1])
        assert (index.staleness, index.generation) == before[2:4]
        _assert_same_state(_state(index), before[4])


class TestReadOnlyView:
    @pytest.mark.parametrize("name", _FIELDS)
    def test_writing_into_the_view_raises(self, index, name):
        array = getattr(index._view.slab, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[-1]

    def test_public_arrays_are_read_only(self, index, rng):
        index.insert(rng.random(3))
        with pytest.raises(ValueError, match="read-only"):
            index.points[0, 0] = 99.0
        with pytest.raises(ValueError, match="read-only"):
            index.layers[0] = 1

    def test_rebuild_captures_the_view_without_copying(self, index, rng):
        index.insert(rng.random(3))
        points, generation = index.begin_rebuild()
        assert points is index._view.slab.points
        assert generation == index.generation
        layers = index.tight_layers(points)
        assert index.commit_rebuild(points, layers, generation)
        _assert_view_is_fresh_pack(index, LayeringModel(points, 5))
        assert index.tight and index.staleness == 0


class TestReadersDuringWrites:
    def test_held_slabs_stay_whole_while_writers_patch(self, rng):
        """More readers than cores grab slabs while a writer streams
        single and batched updates: a held slab never changes, and its
        prefix answer equals brute force over its own points."""
        data = rng.random((120, 3))
        index = DynamicRobustIndex(data, n_partitions=5)
        model = LayeringModel(data, 5)
        query = LinearQuery([1.0, 2.0, 3.0])
        errors = []
        stop = threading.Event()

        def read():
            while not stop.is_set():
                slab = index._view.slab
                copies = [getattr(slab, name).copy() for name in _FIELDS]
                rows, tids, _ = slab.prefix(5)
                order = np.lexsort((tids, rows @ query.weights))[:5]
                if not np.array_equal(
                    tids[order], query.top_k(slab.points, 5)
                ) or not all(
                    np.array_equal(getattr(slab, name), copy)
                    for name, copy in zip(_FIELDS, copies)
                ):
                    errors.append(slab)
                    return

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            writes = np.random.default_rng(9)
            for _ in range(40):
                positions = writes.integers(index.size, size=3)
                rows = writes.random((3, 3))
                index.upsert_many(positions, rows)
                position = int(writes.integers(index.size))
                index.delete(position)
                row = writes.random(3)
                index.insert(row)
                for p, r in zip(positions, rows):
                    model.upsert(int(p), r)
                model.delete(position)
                model.insert(row)
        finally:
            stop.set()
            for thread in readers:
                thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        _assert_view_is_fresh_pack(index, model)
