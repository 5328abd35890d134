"""Every exact build must agree with the per-tuple solver bit-for-bit.

The shared-work solvers (``kinetic`` at d = 2, ``prune`` at d = 3)
exist purely for speed: the per-tuple solver behind the public
:func:`repro.core.exact.minimal_rank` defines the answer, and these
tests pin the builds to it on the inputs that historically broke
candidate enumeration — total ties, constant columns, collinear
points, binary (coincident-line) data and the degenerate sizes
n in {0, 1, 2}.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import exact, pipeline
from repro.core.exact import exact_build, exact_robust_layers, minimal_rank


@pytest.fixture(autouse=True)
def _force_kinetic(monkeypatch):
    # Below _KINETIC_MIN_N the kinetic solver quietly defers to the
    # per-tuple one (the sweep cannot pay for itself); zero the floor
    # so every d=2 test actually exercises the sweep.
    monkeypatch.setattr(exact, "_KINETIC_MIN_N", 0)


def assert_engines_agree(pts: np.ndarray, workers: int = 1):
    pts = np.asarray(pts, dtype=float)
    ref = np.array(
        [minimal_rank(pts, t) for t in range(pts.shape[0])], dtype=np.intp
    )
    got = exact_robust_layers(pts, workers=workers)
    assert got.tolist() == ref.tolist()
    return ref


class TestAdversarialInputs:
    @pytest.mark.parametrize("d", [2, 3])
    def test_all_duplicate_rows(self, d):
        pts = np.tile([[0.4] * d], (17, 1))
        layers = assert_engines_agree(pts)
        assert layers.tolist() == list(range(1, 18))

    @pytest.mark.parametrize("d", [2, 3])
    def test_constant_column(self, d, rng):
        pts = rng.random((30, d))
        pts[:, -1] = 0.5
        assert_engines_agree(pts)

    def test_collinear_points_2d(self):
        # All points on one line: every crossing event coincides.
        t = np.linspace(0.0, 1.0, 25)
        pts = np.column_stack([t, 1.0 - t])
        assert_engines_agree(pts)

    @pytest.mark.parametrize("d", [2, 3])
    def test_binary_data(self, d):
        # 0/1 attributes put score-difference lines exactly on the
        # simplex edges (the coincident-line regression regime).
        for seed in (5, 11):
            pts = np.random.default_rng(seed).integers(0, 2, (60, d))
            assert_engines_agree(pts.astype(float))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_sizes(self, d, n):
        pts = np.random.default_rng(n).random((n, d))
        assert_engines_agree(pts)

    def test_negative_corner_tie_2d(self):
        # Regression: at the corner query w = (0, 1) both points score
        # 0 and the tie goes to the smaller tid, so tid 1 is rank 2
        # there — but it is rank 1 under any interior weight.
        pts = np.array([[0.0, 0.0], [-1.0, 0.0]])
        layers = assert_engines_agree(pts)
        assert layers.tolist() == [1, 1]

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_agreement(self, d, rng):
        for n in (13, 37, 64):
            assert_engines_agree(rng.random((n, d)))


class TestTiedMatricesProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 32),
        d=st.integers(2, 3),
        n_values=st.integers(1, 4),
    )
    def test_heavily_tied_integer_matrices(self, seed, n, d, n_values):
        # Tiny integer value sets force massive score ties, coincident
        # lines and duplicate rows all at once.
        saved = exact._KINETIC_MIN_N
        exact._KINETIC_MIN_N = 0
        try:
            pts = (
                np.random.default_rng(seed)
                .integers(0, n_values, (n, d))
                .astype(float)
            )
            assert_engines_agree(pts)
        finally:
            exact._KINETIC_MIN_N = saved


class TestWorkerFanOut:
    def test_pool_refine_matches_serial(self, monkeypatch, rng):
        # Force the d=3 refine fan-out through the real process pool
        # even at test sizes; ranks must match the serial engines.
        monkeypatch.setattr(exact, "_POOL_MIN_OPEN", 0)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        pts = rng.random((48, 3))
        ref = assert_engines_agree(pts, workers=2)
        build = exact_build(pts, workers=2)
        assert build.layers.tolist() == ref.tolist()
        assert build.metrics["counters"].get("exact.pool_used", 0) == 1

    def test_workers_do_not_change_layers(self, rng):
        pts = rng.random((40, 3))
        serial = exact_build(pts, workers=1).layers
        fanned = exact_build(pts, workers=2).layers
        assert serial.tolist() == fanned.tolist()


class TestEngineSelection:
    def test_auto_resolves_by_dimension(self, rng):
        assert exact_build(rng.random((8, 2))).engine == "kinetic"
        assert exact_build(rng.random((8, 3))).engine == "prune"
        assert exact_build(rng.random((8, 1))).engine == "legacy"

    def test_engine_dimension_mismatch_rejected(self, rng):
        # The dimension picks the solver; none exists beyond d = 3.
        with pytest.raises(ValueError, match="d <= 3"):
            exact_build(rng.random((5, 4)))

    def test_unknown_engine_rejected(self, rng):
        # There is no engine option: the dimension picks the solver.
        with pytest.raises(TypeError, match="engine"):
            exact_build(rng.random((5, 2)), engine="sweepline")

    def test_bad_workers_rejected(self, rng):
        with pytest.raises(ValueError, match="workers"):
            exact_build(rng.random((5, 2)), workers=0)

    def test_build_metrics_namespace(self, rng):
        build = exact_build(rng.random((20, 3)))
        counters = build.metrics["counters"]
        assert counters["exact.builds"] == 1
        assert counters["exact.tuples"] == 20
        assert counters["exact.engine.prune"] == 1
        assert "exact.total" in build.metrics["timers"]
        refined = counters.get("exact.tuples_refined", 0)
        pruned = counters.get("exact.tuples_pruned", 0)
        assert refined + pruned == 20
