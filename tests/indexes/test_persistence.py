"""Robust-index parameters and answers survive a snapshot round trip."""

import numpy as np

from repro.engine.snapshot import load_snapshot, save_snapshot
from repro.indexes.robust import RobustIndex
from repro.queries.ranking import LinearQuery


def _round_trip(index, path):
    save_snapshot(index, path)
    return load_snapshot(path)


class TestSaveLoad:
    def test_round_trip_preserves_everything(self, tmp_path, rng):
        data = rng.random((80, 3))
        index = RobustIndex(data, n_partitions=6, systems="families",
                            refine="peel")
        loaded = _round_trip(index, tmp_path / "index.snap")

        assert loaded.layers.tolist() == index.layers.tolist()
        assert np.allclose(loaded.points, index.points)
        info = loaded.build_info()
        assert info["n_partitions"] == 6
        assert info["systems"] == "families"
        assert info["refine"] == "peel"

    def test_loaded_index_answers_queries(self, tmp_path, rng):
        data = rng.random((60, 2))
        index = RobustIndex(data, n_partitions=4)
        loaded = _round_trip(index, tmp_path / "i.snap")
        q = LinearQuery([1, 3])
        original = index.query(q, 7)
        restored = loaded.query(q, 7)
        assert restored.tids.tolist() == original.tids.tolist()
        assert restored.retrieved == original.retrieved

    def test_refine_none_round_trips(self, tmp_path, rng):
        data = rng.random((20, 2))
        index = RobustIndex(data, n_partitions=3)
        loaded = _round_trip(index, tmp_path / "i.snap")
        assert loaded.build_info()["refine"] is None
