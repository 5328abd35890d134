"""RebuildManager: thresholds, background swaps, reads never blocked."""

import threading
import time

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.rebuild import RebuildManager
from repro.indexes.dynamic import DynamicRobustIndex
from repro.queries.ranking import LinearQuery


@pytest.fixture
def index(rng):
    return DynamicRobustIndex(rng.random((60, 3)), n_partitions=5)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


class TestThreshold:
    def test_below_threshold_is_a_no_op(self, index, rng):
        manager = RebuildManager(index, threshold=5)
        index.insert(rng.random(3))
        assert manager.maybe_rebuild() is False
        assert index.staleness == 1

    def test_at_threshold_rebuilds_and_clears_staleness(self, index, rng):
        manager = RebuildManager(index, threshold=3)
        for row in rng.random((3, 3)):
            index.insert(row)
        assert index.tight is False
        assert manager.maybe_rebuild() is True
        assert index.staleness == 0
        assert index.tight is True
        assert manager.metrics.counters["rebuild.swaps"] == 1
        assert manager.metrics.counters["rebuild.staleness_cleared"] == 3

    def test_rebuild_never_loosens_retrieval(self, index, rng):
        for row in rng.random((8, 3)):
            index.insert(row)
        before = index.retrieval_cost(10)
        assert RebuildManager(index, threshold=1).maybe_rebuild() is True
        assert index.retrieval_cost(10) <= before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_non_finite_insert_keeps_rebuilds_working(
        self, index, rng, bad
    ):
        """A NaN/inf row must never reach the maintainer: once accepted,
        every later rebuild would fail validation and staleness would
        grow without bound."""
        index.insert(rng.random(3))
        before = (index.size, index.generation, index.staleness)
        with pytest.raises(ValueError, match="points must be finite"):
            index.insert([bad, 0.5, 0.5])
        assert (index.size, index.generation, index.staleness) == before
        assert index.rebuild() is True
        index.insert(rng.random(3))
        assert RebuildManager(index, threshold=1).rebuild_now() is True
        assert index.staleness == 0

    def test_parameter_validation(self, index):
        with pytest.raises(ValueError):
            RebuildManager(index, threshold=0)
        with pytest.raises(ValueError):
            RebuildManager(index, poll_interval=0.0)


class TestGenerationRace:
    def test_racing_update_forces_discard(self, index, rng):
        points, generation = index.begin_rebuild()
        index.insert(rng.random(3))  # lands mid-"build"
        layers = appri_layers(points, n_partitions=5)
        assert index.commit_rebuild(points, layers, generation) is False
        assert index.staleness == 1  # nothing was merged

    def test_manager_counts_discards(self, index, rng, monkeypatch):
        manager = RebuildManager(index, threshold=1)
        real_build = index.tight_layers

        def racing_build(points):
            layers = real_build(points)
            index.insert(rng.random(3))  # update lands during the build
            return layers

        monkeypatch.setattr(index, "tight_layers", racing_build)
        index.insert(rng.random(3))
        assert manager.rebuild_now() is False
        assert manager.metrics.counters["rebuild.discarded"] == 1
        assert "rebuild.swaps" not in manager.metrics.counters


class TestBackgroundWorker:
    def test_background_rebuild_clears_staleness(self, index, rng):
        with RebuildManager(index, threshold=4, poll_interval=0.01) as m:
            assert m.running
            for row in rng.random((6, 3)):
                index.insert(row)
            assert _wait_until(lambda: index.staleness == 0)
            assert m.last_error is None
        assert not m.running

    def test_start_is_idempotent_and_stop_joins(self, index):
        manager = RebuildManager(index, threshold=1000, poll_interval=0.01)
        manager.start()
        thread = manager._thread
        manager.start()
        assert manager._thread is thread
        manager.stop()
        assert not manager.running

    def test_on_swap_hook_fires_after_commit(self, index, rng):
        swapped = []
        manager = RebuildManager(
            index, threshold=1, on_swap=lambda idx: swapped.append(idx)
        )
        index.insert(rng.random(3))
        assert manager.maybe_rebuild() is True
        assert swapped == [index]

    def test_worker_survives_a_failing_rebuild(self, index, rng,
                                               monkeypatch):
        calls = []

        def exploding(points):
            calls.append(1)
            raise RuntimeError("boom")

        monkeypatch.setattr(index, "tight_layers", exploding)
        index.insert(rng.random(3))
        with RebuildManager(index, threshold=1, poll_interval=0.01) as m:
            assert _wait_until(lambda: len(calls) >= 2)
            assert m.running
            assert isinstance(m.last_error, RuntimeError)


class TestReadsDuringRebuild:
    def test_concurrent_queries_always_exact(self, rng):
        """Readers hammering the index through a rebuild only ever see a
        complete old or complete new view — and both are sound, so every
        answer matches the ground truth exactly."""
        index = DynamicRobustIndex(rng.random((300, 3)), n_partitions=5)
        for row in rng.random((20, 3)):
            index.insert(row)
        truth_points = index.points.copy()
        queries = [
            LinearQuery(w)
            for w in (np.array([1.0, 2.0, 4.0]), np.array([3.0, 1.0, 1.0]))
        ]
        truths = [list(q.top_k(truth_points, 10)) for q in queries]

        errors = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                for query, truth in zip(queries, truths):
                    tids = list(index.query(query, 10).tids)
                    if tids != truth:
                        errors.append((truth, tids))
                        return

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        for t in readers:
            t.start()
        manager = RebuildManager(index, threshold=1)
        try:
            for _ in range(5):  # several swaps while readers run
                assert manager.rebuild_now() or index.staleness == 0
        finally:
            stop.set()
            for t in readers:
                t.join(5.0)
        assert errors == []
        assert index.tight is True

    def test_swap_changes_cost_not_answers(self, rng):
        index = DynamicRobustIndex(rng.random((200, 3)), n_partitions=5)
        for row in rng.random((30, 3)):
            index.insert(row)
        query = LinearQuery([1.0, 2.0, 3.0])
        stale = index.query(query, 10)
        assert index.rebuild() is True
        tight = index.query(query, 10)
        assert list(stale.tids) == list(tight.tids)
        assert tight.retrieved <= stale.retrieved
