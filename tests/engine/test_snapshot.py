"""Snapshot round-trips, corruption rejection, and catalog scoping."""

import dataclasses
import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.core.appri import appri_layers
from repro.engine.catalog import Catalog
from repro.engine.relation import Relation
from repro.engine.snapshot import (
    FORMAT_VERSION,
    MAGIC,
    SnapshotError,
    load_snapshot,
    read_snapshot_header,
    register_snapshot_kind,
    registered_kinds,
    save_snapshot,
    snapshot_info,
)
from repro.engine import snapshot as snapshot_module
from repro.indexes.dynamic import DynamicRobustIndex
from repro.indexes.onion import OnionIndex, ShellIndex
from repro.indexes.robust import ExactRobustIndex, LayeredSlab, RobustIndex
from repro.queries.ranking import LinearQuery
from repro.queries.workload import simplex_workload


#: Dynamic-index snapshots of the two restore-only kinds, written by
#: the release before the dynamic index kept only its serving slab (see
#: ``_LEGACY`` for what each holds).
LEGACY_DIR = Path(__file__).parent / "legacy_snapshots"


def _save_legacy(monkeypatch, kind, path, edit):
    """Copy the checked-in ``kind`` file to ``path`` with its meta
    passed through ``edit``.

    Reproduces files written by earlier releases of a restore-only
    kind: the same buffers, meta keys as those releases wrote them.
    """
    source = LEGACY_DIR / f"{kind}.snap"
    header = read_snapshot_header(source)
    arrays = snapshot_module._load_buffers(
        source, header, mmap=False, verify=True
    )
    meta = edit(dict(header["meta"]))

    class Legacy:
        pass

    spec = dataclasses.replace(
        snapshot_module._SPECS[kind], cls=Legacy,
        export=lambda obj: (arrays, meta),
    )
    with monkeypatch.context() as patch:
        patch.setitem(snapshot_module._SPECS, kind, spec)
        save_snapshot(Legacy(), path)


#: What the release that wrote each ``LEGACY_DIR`` file held in memory
#: when saving it: the live tuples (crc32 of their little-endian
#: float64 bytes), their sound layers and the update state.  The
#: ``dynamic-robust`` file came from ``DynamicRobustIndex(grid(40, 3),
#: n_partitions=5, systems="families")`` after an insert, a delete, two
#: upserts, two deletes and two inserts; the ``dynamic-layers`` file
#: from the layer maintainer over ``grid(30, 2)`` with
#: ``n_partitions=4`` after two inserts and two deletes (``grid`` is
#: ``_grid`` below).  Both hold their deleted rows.
_LEGACY = {
    "dynamic-robust": {
        "shape": (40, 3),
        "points_crc32": 3850632195,
        "layers": [
            1, 4, 7, 11, 1, 3, 7, 10, 1, 3, 1, 2, 6, 10, 1, 2, 9, 1, 2, 1,
            1, 5, 9, 1, 1, 5, 8, 1, 1, 1, 1, 4, 8, 1, 1, 4, 1, 1, 3, 1,
        ],
        "staleness": 10,
        "generation": 10,
        "tight": False,
        "n_partitions": 5,
        "appri_kwargs": {"systems": "families"},
        "stored_rows": 45,
    },
    "dynamic-layers": {
        "shape": (30, 2),
        "points_crc32": 528499562,
        "layers": [
            2, 13, 5, 8, 11, 3, 6, 17, 9, 1, 4, 15, 7, 9, 1, 12, 4, 7, 1,
            10, 2, 5, 16, 8, 1, 3, 14, 6, 1, 1,
        ],
        "staleness": 4,
        "generation": 0,
        "tight": False,
        "n_partitions": 4,
        "appri_kwargs": {},
        "stored_rows": 32,
    },
}


def _queryable_builders(rng):
    data = rng.random((80, 3))
    small = rng.random((40, 3))
    return [
        RobustIndex(data, n_partitions=5),
        ExactRobustIndex(small),
        OnionIndex(data),
        ShellIndex(data),
        DynamicRobustIndex(data, n_partitions=5),
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_every_queryable_kind_round_trips_bit_identically(
        self, tmp_path, rng, mmap
    ):
        for index in _queryable_builders(rng):
            path = tmp_path / f"{type(index).__name__}.snap"
            save_snapshot(index, path)
            loaded = load_snapshot(path, mmap=mmap)
            assert type(loaded) is type(index)
            assert np.array_equal(loaded.points, index.points)
            assert np.array_equal(loaded.layers, index.layers)
            workload = simplex_workload(index.dimensions, 16, seed=7)
            for query in workload:
                a = index.query(query, 10)
                b = loaded.query(query, 10)
                assert list(a.tids) == list(b.tids)
                assert a.retrieved == b.retrieved

    def test_slab_and_order_round_trip_exactly(self, tmp_path, rng):
        index = RobustIndex(rng.random((60, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        assert np.array_equal(loaded.layered.slab, index.layered.slab)
        assert np.array_equal(loaded.layered.order, index.layered.order)
        assert np.array_equal(loaded.layered.offsets, index.layered.offsets)

    def test_batch_queries_round_trip(self, tmp_path, rng):
        index = RobustIndex(rng.random((60, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        workload = simplex_workload(3, 12, seed=3)
        for a, b in zip(
            index.query_batch(workload, 8), loaded.query_batch(workload, 8)
        ):
            assert list(a.tids) == list(b.tids)

    def test_mmap_load_is_zero_copy(self, tmp_path, rng, monkeypatch):
        data = rng.random((50, 3))
        dynamic = DynamicRobustIndex(data, n_partitions=5)
        dynamic.upsert_many([4], rng.random((1, 3)))
        for index in (RobustIndex(data, n_partitions=5), dynamic):
            path = tmp_path / f"{type(index).__name__}.snap"
            save_snapshot(index, path)
            # Adopting the buffers must not sort or pack anything.
            with monkeypatch.context() as patch:
                patch.delattr(LayeredSlab, "from_layers")
                loaded = load_snapshot(path, mmap=True)
            slab = (
                loaded._view.slab if index is dynamic else loaded.layered
            )
            for name in ("layers", "order", "offsets", "slab"):
                assert isinstance(getattr(slab, name), np.memmap), name
            # points passes through LayeredSlab.from_arrays' asarray,
            # which reclasses the memmap as a plain ndarray *view* —
            # still zero-copy: it owns no data and maps the file
            # read-only.
            assert not loaded.points.flags["OWNDATA"]
            assert not loaded.points.flags["WRITEABLE"]
            assert isinstance(loaded.points.base, np.memmap)

    def test_maintainer_staleness_state_round_trips(self, tmp_path, rng):
        # A layer maintainer's file (dead rows included) restores as a
        # dynamic index that keeps its staleness and takes updates.
        loaded = load_snapshot(LEGACY_DIR / "dynamic-layers.snap")
        assert loaded.staleness == 4
        assert loaded.size == 30
        loaded.delete(0)
        loaded.insert(rng.random(2))
        assert loaded.staleness == 6
        path = tmp_path / "m.snap"
        save_snapshot(loaded, path)
        assert read_snapshot_header(path)["kind"] == "dynamic-slab"
        again = load_snapshot(path)
        assert again.staleness == 6
        assert np.array_equal(again.points, loaded.points)
        assert np.array_equal(again.layers, loaded.layers)

    def test_dynamic_index_staleness_and_generation_round_trip(
        self, tmp_path, rng
    ):
        index = DynamicRobustIndex(rng.random((50, 3)), n_partitions=5)
        for row in rng.random((3, 3)):
            index.insert(row)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        assert loaded.staleness == index.staleness == 3
        assert loaded.generation == index.generation
        assert loaded.tight is False
        assert loaded.rebuild() is True
        assert loaded.staleness == 0

    def test_removed_build_options_are_dropped_on_restore(
        self, tmp_path, monkeypatch
    ):
        # Earlier releases recorded counting / matching / chunk_size in
        # appri_kwargs; none changed the layers and appri_layers no
        # longer accepts them, so a rebuild after restore must not pass
        # them on.
        def old_writer(meta):
            meta["appri_kwargs"] = {
                **meta["appri_kwargs"],
                "counting": "blocked",
                "matching": "lemma3",
                "chunk_size": 3,
            }
            return meta

        for kind, expected in _LEGACY.items():
            path = tmp_path / f"old-{kind}.snap"
            _save_legacy(monkeypatch, kind, path, old_writer)
            kept = expected["appri_kwargs"]
            written = read_snapshot_header(path)["meta"]["appri_kwargs"]
            removed = {"counting", "matching", "chunk_size"}
            assert set(written) == {*kept, *removed}
            loaded = load_snapshot(path)
            assert loaded.export_state()[1]["appri_kwargs"] == kept
            assert loaded.rebuild() is True
            fresh = appri_layers(
                loaded.points, n_partitions=expected["n_partitions"], **kept
            )
            assert np.array_equal(loaded.layers, fresh)

    def test_robust_parameters_survive(self, tmp_path, rng):
        index = RobustIndex(rng.random((40, 3)), n_partitions=7, workers=2)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        loaded = load_snapshot(path)
        assert loaded._n_partitions == 7
        assert loaded._workers == 2

    def test_exact_engine_survives(self, tmp_path, rng):
        index = ExactRobustIndex(rng.random((200, 2)))
        assert index.build_info()["engine"] == "kinetic"
        path = tmp_path / "e.snap"
        save_snapshot(index, path)
        assert load_snapshot(path).build_info()["engine"] == "kinetic"
        # Files written before the engine was recorded do not claim one.
        arrays, meta = index.export_state()
        del meta["engine"]
        restored = ExactRobustIndex.from_state(arrays, meta)
        assert restored.build_info()["engine"] is None

    def test_extra_meta_lands_in_header(self, tmp_path, rng):
        index = RobustIndex(rng.random((30, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path, extra_meta={"table": "t", "note": 1})
        header = read_snapshot_header(path)
        assert header["meta"]["table"] == "t"
        assert header["meta"]["note"] == 1


class TestLegacyDynamicFiles:
    """Files of the restore-only ``dynamic-robust`` / ``dynamic-layers``
    kinds, as the earlier release wrote them."""

    @pytest.mark.parametrize("kind", sorted(_LEGACY))
    @pytest.mark.parametrize("mmap", [True, False])
    def test_loads_the_state_that_was_saved(self, kind, mmap):
        expected = _LEGACY[kind]
        path = LEGACY_DIR / f"{kind}.snap"
        header = read_snapshot_header(path)
        assert header["kind"] == kind
        assert header["buffers"][0]["shape"][0] == expected["stored_rows"]
        loaded = load_snapshot(path, mmap=mmap)
        assert type(loaded) is DynamicRobustIndex
        points = np.ascontiguousarray(loaded.points, dtype="<f8")
        assert points.shape == expected["shape"]
        assert zlib.crc32(points.tobytes()) == expected["points_crc32"]
        assert loaded.layers.tolist() == expected["layers"]
        assert loaded.staleness == expected["staleness"]
        assert loaded.generation == expected["generation"]
        assert loaded.tight is expected["tight"]
        info = loaded.build_info()
        assert info["n_partitions"] == expected["n_partitions"]
        assert info["n_layers"] == max(expected["layers"])
        assert snapshot_info(path)["n_layers"] == max(expected["layers"])

    @pytest.mark.parametrize("kind", sorted(_LEGACY))
    def test_answers_equal_brute_force_through_updates(self, kind, rng):
        loaded = load_snapshot(LEGACY_DIR / f"{kind}.snap")
        d = loaded.dimensions
        for step in range(3):
            for k in (1, 5, loaded.size + 1):
                for query in simplex_workload(d, 4, seed=step):
                    assert np.array_equal(
                        loaded.query(query, k).tids,
                        query.top_k(loaded.points, k),
                    )
            loaded.upsert_many([2], rng.random((1, d)))

    def test_layers_file_without_updates_is_tight(self, tmp_path, monkeypatch):
        def no_updates(meta):
            meta["deletions"] = meta["insertions"] = 0
            return meta

        path = tmp_path / "fresh.snap"
        _save_legacy(monkeypatch, "dynamic-layers", path, no_updates)
        loaded = load_snapshot(path)
        assert loaded.tight is True
        assert (loaded.staleness, loaded.generation) == (0, 0)

    def test_mismatched_buffers_are_rejected(self, tmp_path, monkeypatch):
        source = LEGACY_DIR / "dynamic-robust.snap"
        arrays = snapshot_module._load_buffers(
            source, read_snapshot_header(source), mmap=False, verify=True
        )
        arrays["alive"] = arrays["alive"][:-1]
        with pytest.raises(ValueError, match="disagree"):
            snapshot_module._SPECS["dynamic-robust"].restore(
                arrays, read_snapshot_header(source)["meta"]
            )


class TestRejection:
    @pytest.fixture
    def snap(self, tmp_path, rng):
        index = RobustIndex(rng.random((50, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        return path

    def test_corrupted_buffer_is_rejected(self, snap):
        header = read_snapshot_header(snap)
        raw = bytearray(snap.read_bytes())
        raw[header["data_start"] + 100] ^= 0xFF
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum mismatch"):
            load_snapshot(snap)

    def test_truncated_file_is_rejected(self, snap):
        raw = snap.read_bytes()
        snap.write_bytes(raw[:-200])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(snap)

    def test_truncated_preamble_is_rejected(self, snap):
        snap.write_bytes(snap.read_bytes()[:10])
        with pytest.raises(SnapshotError, match="truncated"):
            load_snapshot(snap)

    def test_bad_magic_is_rejected(self, snap):
        raw = bytearray(snap.read_bytes())
        raw[:8] = b"NOTASNAP"
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            load_snapshot(snap)

    def test_damaged_header_is_rejected(self, snap):
        raw = bytearray(snap.read_bytes())
        raw[30] ^= 0xFF  # inside the JSON header
        snap.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="header checksum"):
            load_snapshot(snap)

    def test_future_format_version_is_rejected(
        self, tmp_path, rng, monkeypatch
    ):
        index = RobustIndex(rng.random((30, 3)), n_partitions=5)
        path = tmp_path / "future.snap"
        monkeypatch.setattr(
            snapshot_module, "FORMAT_VERSION", FORMAT_VERSION + 1
        )
        save_snapshot(index, path)
        monkeypatch.setattr(snapshot_module, "FORMAT_VERSION", FORMAT_VERSION)
        with pytest.raises(SnapshotError, match="format version"):
            load_snapshot(path)

    def test_unknown_kind_is_rejected(self, tmp_path, rng):
        class Custom:
            pass

        register_snapshot_kind(
            "test-custom",
            Custom,
            lambda obj: ({"x": np.arange(3.0)}, {}),
            lambda arrays, meta: Custom(),
        )
        path = tmp_path / "c.snap"
        try:
            save_snapshot(Custom(), path)
        finally:
            snapshot_module._SPECS.pop("test-custom")
        with pytest.raises(SnapshotError, match="unknown snapshot kind"):
            load_snapshot(path)

    def test_unregistered_object_is_rejected(self, tmp_path):
        with pytest.raises(SnapshotError, match="no snapshot support"):
            save_snapshot(object(), tmp_path / "x.snap")

    def test_corruption_can_be_skipped_explicitly(self, snap):
        header = read_snapshot_header(snap)
        raw = bytearray(snap.read_bytes())
        raw[header["data_start"] + 100] ^= 0xFF
        snap.write_bytes(bytes(raw))
        # verify=False is the caller saying "I trust this file".
        load_snapshot(snap, verify=False)


class TestAtomicityAndInfo:
    def test_save_leaves_no_temp_files(self, tmp_path, rng):
        index = RobustIndex(rng.random((30, 3)), n_partitions=5)
        save_snapshot(index, tmp_path / "r.snap")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.snap"]

    def test_save_over_existing_is_all_or_nothing(self, tmp_path, rng):
        index = RobustIndex(rng.random((30, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        before = path.read_bytes()
        bigger = RobustIndex(rng.random((60, 3)), n_partitions=5)
        save_snapshot(bigger, path)
        loaded = load_snapshot(path)
        assert loaded.size == 60
        assert path.read_bytes() != before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.snap"]

    def test_failed_save_leaves_no_file(self, tmp_path):
        target = tmp_path / "never.snap"
        with pytest.raises(SnapshotError):
            save_snapshot(object(), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_registered_kinds_inventory(self):
        kinds = registered_kinds()
        assert kinds["robust"] is RobustIndex
        assert kinds["exact-robust"] is ExactRobustIndex
        assert kinds["onion"] is OnionIndex
        assert kinds["shell"] is ShellIndex
        assert kinds["dynamic-slab"] is DynamicRobustIndex
        # Released tags that only restore, as the dynamic index.
        assert kinds["dynamic-layers"] is DynamicRobustIndex
        assert kinds["dynamic-robust"] is DynamicRobustIndex
        for kind in ("dynamic-layers", "dynamic-robust"):
            assert snapshot_module._SPECS[kind].export is None

    def test_snapshot_info_summarizes_header(self, tmp_path, rng):
        index = RobustIndex(rng.random((50, 3)), n_partitions=5)
        path = tmp_path / "r.snap"
        save_snapshot(index, path)
        info = snapshot_info(path)
        assert info["kind"] == "robust"
        assert info["class"] == "RobustIndex"
        assert info["format_version"] == FORMAT_VERSION
        assert info["n_points"] == 50
        assert info["dimensions"] == 3
        assert info["n_layers"] == int(index.layers.max())
        assert info["file_size"] == os.path.getsize(path)
        assert set(info["buffers"]) == {
            "points", "layers", "order", "offsets", "slab"
        }

    @pytest.mark.parametrize(
        "writer", ["DynamicRobustIndex", "DynamicRobustLayers"]
    )
    def test_snapshot_info_reports_dynamic_layers(
        self, tmp_path, rng, monkeypatch, writer
    ):
        # Files of the kind the class named ``writer`` wrote carry the
        # deepest live layer in their meta (they have no offsets).
        kind = {"DynamicRobustIndex": "dynamic-robust",
                "DynamicRobustLayers": "dynamic-layers"}[writer]
        legacy = LEGACY_DIR / f"{kind}.snap"
        expected = max(_LEGACY[kind]["layers"])
        assert snapshot_info(legacy)["n_layers"] == expected > 1
        assert int(load_snapshot(legacy).layers.max()) == expected

        # Files written before the key existed: unknown, not zero.
        def old_writer(meta):
            del meta["n_layers"]
            return meta

        old = tmp_path / "old.snap"
        _save_legacy(monkeypatch, kind, old, old_writer)
        assert snapshot_info(old)["n_layers"] is None

        # Today's dynamic files read it off the slab's offsets.
        index = DynamicRobustIndex(rng.random((50, 3)), n_partitions=5)
        index.insert(rng.random(3))
        index.delete(0)
        path = tmp_path / "d.snap"
        save_snapshot(index, path)
        assert snapshot_info(path)["n_layers"] == int(index.layers.max()) > 1

    def test_magic_is_stable(self):
        assert MAGIC == b"RPSNAP01"


class TestCatalogScoping:
    def _catalog(self, rng, n=40):
        data = rng.random((n, 3))
        catalog = Catalog()
        relation = Relation.from_matrix("t", ["a", "b", "c"], data)
        catalog.create_table(relation)
        catalog.attach_index("t", "appri", RobustIndex(data, n_partitions=5))
        return catalog, data

    def test_save_load_round_trip_through_catalog(self, tmp_path, rng):
        catalog, data = self._catalog(rng)
        written = catalog.save_index_snapshots(tmp_path)
        assert [p.name for p in written] == ["appri.snap"]

        fresh = Catalog()
        fresh.create_table(Relation.from_matrix("t", ["a", "b", "c"], data))
        attached = fresh.load_index_snapshots(tmp_path)
        assert attached == [("t", "appri")]
        restored = fresh.index("t", "appri")
        query = LinearQuery([1.0, 2.0, 3.0])
        original = catalog.index("t", "appri")
        assert list(restored.query(query, 5).tids) == list(
            original.query(query, 5).tids
        )

    def test_stale_table_version_is_skipped(self, tmp_path, rng):
        catalog, data = self._catalog(rng)
        catalog.save_index_snapshots(tmp_path)
        # Replacing the table bumps its version; yesterday's snapshot
        # may describe rows the table no longer holds.
        catalog.replace_table(
            Relation.from_matrix("t", ["a", "b", "c"], rng.random((40, 3)))
        )
        assert catalog.load_index_snapshots(tmp_path) == []

    def test_resaving_after_replace_revalidates(self, tmp_path, rng):
        catalog, data = self._catalog(rng)
        new_data = rng.random((40, 3))
        catalog.replace_table(
            Relation.from_matrix("t", ["a", "b", "c"], new_data)
        )
        catalog.attach_index(
            "t", "appri", RobustIndex(new_data, n_partitions=5)
        )
        catalog.save_index_snapshots(tmp_path)
        assert catalog.load_index_snapshots(tmp_path) == [("t", "appri")]

    def test_version_stamp_is_recorded(self, tmp_path, rng):
        catalog, _ = self._catalog(rng)
        (path,) = catalog.save_index_snapshots(tmp_path)
        meta = read_snapshot_header(path)["meta"]
        assert meta["table"] == "t"
        assert meta["index_name"] == "appri"
        assert meta["table_version"] == catalog.table_version("t")


def _grid(n, d):
    """A fixed, RNG-free matrix with varied geometry."""
    return ((np.arange(n * d) * 37) % 101).reshape(n, d) / 100.0


def _golden_index(kind):
    if kind == "robust":
        return RobustIndex(_grid(48, 3), n_partitions=5)
    if kind == "exact-robust":
        return ExactRobustIndex(_grid(48, 2))
    if kind == "onion":
        return OnionIndex(_grid(48, 2))
    if kind == "shell":
        return ShellIndex(_grid(48, 3))
    index = DynamicRobustIndex(_grid(40, 3), n_partitions=5)
    index.insert(np.array([0.25, 0.5, 0.75]))
    index.delete(3)
    return index


#: (name, dtype, shape, crc32) of every buffer for these fixed inputs.
#: Files written by earlier versions carry exactly these buffers; a
#: change here means old and new files no longer load interchangeably.
_GOLDEN_BUFFERS = {
    "robust": [
        ("points", "<f8", (48, 3), 1956598665),
        ("layers", "<i8", (48,), 2977144277),
        ("order", "<i8", (48,), 386148096),
        ("offsets", "<i8", (20,), 3635256479),
        ("slab", "<f8", (48, 3), 2185578588),
    ],
    "exact-robust": [
        ("points", "<f8", (48, 2), 1025360371),
        ("layers", "<i8", (48,), 4035856152),
        ("order", "<i8", (48,), 3331451591),
        ("offsets", "<i8", (30,), 827159880),
        ("slab", "<f8", (48, 2), 1697797345),
    ],
    "onion": [
        ("points", "<f8", (48, 2), 1025360371),
        ("layers", "<i8", (48,), 124633606),
        ("order", "<i8", (48,), 1679618784),
        ("offsets", "<i8", (12,), 1467663640),
        ("slab", "<f8", (48, 2), 2408883675),
    ],
    "shell": [
        ("points", "<f8", (48, 3), 1956598665),
        ("layers", "<i8", (48,), 3558344167),
        ("order", "<i8", (48,), 3521466919),
        ("offsets", "<i8", (18,), 2124263190),
        ("slab", "<f8", (48, 3), 3964077109),
    ],
    # The earlier release served this index from these exact five
    # arrays but saved "dynamic-robust" files (points, raw_layers,
    # alive), which now only restore (TestLegacyDynamicFiles).
    "dynamic-slab": [
        ("points", "<f8", (40, 3), 2884897284),
        ("layers", "<i8", (40,), 1322286882),
        ("order", "<i8", (40,), 1911175936),
        ("offsets", "<i8", (16,), 1885094016),
        ("slab", "<f8", (40, 3), 2673039161),
    ],
}


class TestGoldenFiles:
    @pytest.mark.parametrize("kind", sorted(_GOLDEN_BUFFERS))
    def test_buffers_unchanged(self, tmp_path, kind):
        path = tmp_path / f"{kind}.snap"
        save_snapshot(_golden_index(kind), path)
        header = read_snapshot_header(path)
        assert header["kind"] == kind
        assert header["format_version"] == FORMAT_VERSION == 1
        buffers = [
            (b["name"], b["dtype"], tuple(b["shape"]), b["crc32"])
            for b in header["buffers"]
        ]
        assert buffers == _GOLDEN_BUFFERS[kind]
