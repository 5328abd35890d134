"""Tests for the ``python -m repro`` command-line interface."""

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.engine.snapshot import SnapshotError


@pytest.fixture
def csv_file(tmp_path, rng):
    from repro.data.io import save_csv

    path = tmp_path / "data.csv"
    save_csv(path, ["a1", "a2", "a3"], rng.random((120, 3)))
    return path


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "VLDB 2006" in out
        assert "AppRI" in out

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "gen.csv"
        assert main([
            "generate", "--kind", "correlated", "--n", "50",
            "--c", "0.7", "-o", str(out_path),
        ]) == 0
        from repro.data.io import load_csv

        names, matrix = load_csv(out_path)
        assert names == ["a1", "a2", "a3"]
        assert matrix.shape == (50, 3)

    def test_generate_surrogates(self, tmp_path):
        out_path = tmp_path / "cover.csv"
        assert main([
            "generate", "--kind", "cover", "--n", "40", "-o", str(out_path),
        ]) == 0
        from repro.data.io import load_csv

        _, matrix = load_csv(out_path)
        assert matrix.shape == (40, 3)

    def test_build_query_audit_pipeline(self, tmp_path, csv_file, capsys):
        index_path = tmp_path / "index.snap"
        assert main([
            "build", str(csv_file), "-o", str(index_path),
            "--partitions", "4", "--normalize",
        ]) == 0
        assert "layers" in capsys.readouterr().out

        assert main([
            "query", str(index_path), "--weights", "1,2,4", "-k", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "top-5" in out
        assert out.count("tid=") == 5

        assert main([
            "audit", str(index_path), "--queries", "30",
        ]) == 0
        assert "SOUND" in capsys.readouterr().out

    def test_build_with_extensions(self, tmp_path, csv_file):
        index_path = tmp_path / "plus.snap"
        assert main([
            "build", str(csv_file), "-o", str(index_path),
            "--partitions", "3", "--systems", "families", "--peel",
        ]) == 0

    def test_query_bad_weights(self, tmp_path, csv_file):
        index_path = tmp_path / "i.snap"
        main(["build", str(csv_file), "-o", str(index_path),
              "--partitions", "2"])
        with pytest.raises(SystemExit, match="weights"):
            main(["query", str(index_path), "--weights", "1,zap"])

    def test_sql_layer_plan(self, tmp_path, rng, capsys):
        from repro.data.io import save_csv

        path = tmp_path / "houses.csv"
        save_csv(path, ["price", "distance"], rng.random((60, 2)))
        assert main([
            "sql", str(path),
            "SELECT TOP 4 FROM houses WHERE layer <= 4 "
            "ORDER BY price + 2*distance",
            "--partitions", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "layer-prefix" in out
        assert out.count("\n") >= 6  # header + 4 rows + stats

    def test_sql_scan_plan(self, tmp_path, rng, capsys):
        from repro.data.io import save_csv

        path = tmp_path / "t.csv"
        save_csv(path, ["a", "b"], rng.random((30, 2)))
        assert main([
            "sql", str(path), "SELECT TOP 3 FROM t ORDER BY a + b",
        ]) == 0
        assert "plan: scan" in capsys.readouterr().out

    def test_figure_unknown(self):
        with pytest.raises(SystemExit, match="unknown figure"):
            main(["figure", "fig99"])


class TestFigureCommand:
    def test_figure_with_size_override(self, capsys):
        assert main(["figure", "table1", "--n", "120"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Robust" in out

    def test_figure_sizes_variant(self, capsys):
        assert main(["figure", "fig8", "--n", "160"]) == 0
        assert "construction seconds" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_synthetic(self, capsys):
        assert main([
            "stats", "--n", "200", "--d", "3", "--partitions", "5",
            "--workers", "2", "--queries", "20", "-k", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "build metrics" in out
        assert "build.total" in out
        assert "build.phase.levels" in out
        assert "query metrics" in out
        assert "index.candidates" in out
        assert "mean candidates per query" in out

    def test_stats_from_csv(self, csv_file, capsys):
        assert main([
            "stats", "--data", str(csv_file), "--normalize",
            "--partitions", "4", "--queries", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "n=120" in out
        assert "workers=1" in out

    def test_stats_exact_reports_shallower_tuples(self, capsys):
        # The exactness gap is how many tuples AppRI places *shallower*
        # than their exact layer (never deeper: that would be unsound).
        from repro.core.appri import appri_layers
        from repro.core.exact import exact_robust_layers
        from repro.data import uniform

        assert main([
            "stats", "--n", "300", "--d", "2", "--exact",
            "--queries", "5", "--cache-size", "0",
        ]) == 0
        out = capsys.readouterr().out
        data = uniform(300, 2, seed=0)
        appri = appri_layers(data, n_partitions=10)
        exact = exact_robust_layers(data)
        shallower = int(np.count_nonzero(appri < exact))
        assert 0 < shallower < 300
        assert (
            f"exactness gap: {shallower} of 300 tuples sit shallower" in out
        )
        assert f"ratio {np.mean(appri / exact):.3f}" in out
        assert "UNSOUND" not in out

    def test_build_accepts_workers(self, tmp_path, csv_file, capsys):
        out_path = tmp_path / "idx.snap"
        assert main([
            "build", str(csv_file), "-o", str(out_path),
            "--partitions", "4", "--workers", "2",
        ]) == 0
        assert out_path.exists()


class TestSnapshotCommand:
    def test_save_from_csv_then_info_and_load(self, tmp_path, csv_file,
                                              capsys):
        snap = tmp_path / "idx.snap"
        assert main([
            "build", str(csv_file), "-o", str(snap), "--partitions", "4",
        ]) == 0
        assert "layers" in capsys.readouterr().out
        assert snap.exists()

        assert main(["snapshot", "info", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "kind:       robust (RobustIndex)" in out
        assert "120 x 3" in out
        assert "crc32" in out

        assert main([
            "snapshot", "load", str(snap), "--weights", "1,2,4", "-k", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "memory-mapped" in out
        assert "top-3" in out
        assert out.count("tid=") == 3

    def test_save_from_existing_npz(self, tmp_path, csv_file, capsys):
        # A retired ``.npz`` index is refused by name; ``build`` writes
        # the snapshot that replaces it, which loads copied and unverified.
        npz = tmp_path / "idx.npz"
        np.savez(npz, points=np.zeros((4, 3)), layers=np.ones(4))
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            main(["snapshot", "load", str(npz)])
        with pytest.raises(SnapshotError, match="not a repro snapshot"):
            main(["query", str(npz), "--weights", "1,2,4"])

        snap = tmp_path / "idx.snap"
        assert main([
            "build", str(csv_file), "-o", str(snap), "--partitions", "4",
        ]) == 0
        capsys.readouterr()
        assert main([
            "snapshot", "load", str(snap), "--no-mmap", "--no-verify",
        ]) == 0
        assert "copied" in capsys.readouterr().out

    def test_info_reports_dynamic_layers(self, tmp_path, rng, capsys):
        from repro.engine.snapshot import save_snapshot
        from repro.indexes.dynamic import DynamicRobustIndex

        index = DynamicRobustIndex(rng.random((50, 3)), n_partitions=5)
        snap = tmp_path / "dyn.snap"
        save_snapshot(index, snap)
        assert main(["snapshot", "info", str(snap)]) == 0
        out = capsys.readouterr().out
        assert f"layers:     {int(index.layers.max())}\n" in out
        assert int(index.layers.max()) > 1

    def test_snapshot_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])

    def test_help_epilogs_carry_runnable_examples(self, capsys):
        for args in (["stats", "--help"], ["snapshot", "--help"],
                     ["snapshot", "load", "--help"]):
            with pytest.raises(SystemExit):
                main(args)
            assert "example:" in capsys.readouterr().out
