"""The build worker: every tight rebuild runs in one persistent process.

``DynamicRobustIndex.tight_layers`` hands its build to
``repro.core.pipeline.appri_layers_in_worker``.  The layers must be the
inline build's bit for bit, the worker's metrics must reach the
caller's collector (and so ``RebuildManager.metrics``), a build error
must reach the caller with its own type, a dead worker must be
replaced, and a program that rebuilt must leave no process behind.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import pipeline
from repro.core.appri import appri_layers
from repro.engine.rebuild import RebuildManager
from repro.indexes.dynamic import DynamicRobustIndex

SRC = Path(__file__).resolve().parents[2] / "src"


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def _tied(rng, n, d):
    """Few-valued data with duplicate rows and a duplicated column."""
    data = rng.integers(0, 4, (n, d)).astype(float)
    data[: n // 5] = data[n // 5 : 2 * (n // 5)]
    data[:, -1] = data[:, 0]
    return data


def _inline(points, n_partitions, **kwargs):
    with obs.collect() as metrics:
        layers = appri_layers(points, n_partitions=n_partitions, **kwargs)
    return layers, metrics


def _in_worker(points, n_partitions, **kwargs):
    with obs.collect() as metrics:
        layers = pipeline.appri_layers_in_worker(points, n_partitions, kwargs)
    return layers, metrics


class TestSameLayers:
    @pytest.mark.parametrize(
        "n_partitions, kwargs",
        [
            (10, {}),
            (3, {}),
            (6, {"systems": "families"}),
            (4, {"refine": "peel"}),
            (7, {"systems": "families", "refine": "peel", "workers": 3}),
        ],
    )
    @pytest.mark.parametrize("d", [2, 3])
    def test_bit_identical_to_inline(self, rng, n_partitions, kwargs, d):
        for points in (rng.random((150, d)), _tied(rng, 150, d)):
            layers, metrics = _in_worker(points, n_partitions, **kwargs)
            expected, inline = _inline(points, n_partitions, **kwargs)
            assert layers.dtype == expected.dtype
            assert np.array_equal(layers, expected)
            assert metrics.counters == inline.counters
            assert metrics.timers.keys() == inline.timers.keys()

    def test_pooled_build_nested_in_the_worker(self, rng):
        """``workers=2`` at ``POOL_MIN_N`` tuples starts a build pool
        inside the worker; its layers and counters are the inline
        build's."""
        points = _tied(rng, pipeline.POOL_MIN_N, 3)
        layers, metrics = _in_worker(points, 5, workers=2)
        expected, inline = _inline(points, 5)
        assert np.array_equal(layers, expected)
        assert (
            metrics.counters["counting.prefix_words"]
            == inline.counters["counting.prefix_words"]
        )
        # The worker sees the CPUs this (unpinned) process sees.
        assert metrics.counters["build.pool_used"] == int(
            pipeline._usable_cpus() > 1
        )

    def test_dynamic_index_rebuild(self, rng):
        data = _tied(rng, 120, 3)
        index = DynamicRobustIndex(data, n_partitions=6, systems="families")
        index.upsert_many([0, 5, 9], data[[1, 2, 3]])
        points, _ = index.begin_rebuild()
        assert index.rebuild() is True
        expected = appri_layers(points, n_partitions=6, systems="families")
        assert np.array_equal(index.layers, expected)


class TestMetrics:
    def test_manager_keeps_the_build_metrics(self, rng):
        index = DynamicRobustIndex(rng.random((200, 3)), n_partitions=5)
        for row in rng.random((4, 3)):
            index.insert(row)
        points, _ = index.begin_rebuild()
        _, inline = _inline(points, 5)
        manager = RebuildManager(index, threshold=1)
        assert manager.rebuild_now() is True
        counters = manager.metrics.counters
        for name, value in inline.counters.items():
            assert counters[name] == value, name
        assert set(inline.timers) <= set(manager.metrics.timers)
        assert any(name.startswith("counting.") for name in counters)
        assert manager.metrics.timers["rebuild.build"] > 0

    def test_metrics_reach_an_enclosing_collector(self, rng):
        index = DynamicRobustIndex(rng.random((80, 2)), n_partitions=4)
        index.insert(rng.random(2))
        with obs.collect() as metrics:
            assert index.rebuild() is True
        assert metrics.counters["build.n"] == 81
        assert metrics.counters["rebuild.swaps"] == 1


class TestFailures:
    def _index_with(self, rng, appri_kwargs):
        """An index whose stored build settings fail only in a rebuild
        (as a snapshot written with them would)."""
        index = DynamicRobustIndex(rng.random((40, 2)), n_partitions=4)
        arrays, meta = index.export_state()
        meta["appri_kwargs"] = appri_kwargs
        loaded = DynamicRobustIndex.from_state(arrays, meta)
        loaded.insert(rng.random(2))
        return loaded

    @pytest.mark.parametrize(
        "appri_kwargs, error, match",
        [
            ({"systems": "bogus"}, ValueError, "systems must be one of"),
            ({"no_such_option": 1}, TypeError, "no_such_option"),
        ],
    )
    def test_build_error_keeps_its_type(self, rng, appri_kwargs, error, match):
        index = self._index_with(rng, appri_kwargs)
        with pytest.raises(error, match=match):
            index.rebuild()
        assert index.staleness == 1
        with RebuildManager(index, threshold=1, poll_interval=0.01) as m:
            assert _wait_until(lambda: m.last_error is not None)
        assert type(m.last_error) is error
        # The worker survives a failed build.
        index._appri_kwargs = {}
        assert index.rebuild() is True

    def test_a_dead_worker_is_replaced(self, rng):
        index = DynamicRobustIndex(rng.random((40, 2)), n_partitions=4)
        index.insert(rng.random(2))
        worker = pipeline._build_worker()
        pid = worker.submit(os.getpid).result()
        assert pid != os.getpid()
        os.kill(pid, signal.SIGKILL)
        with pytest.raises(BrokenProcessPool):
            index.rebuild()
        assert index.staleness == 1
        assert index.rebuild() is True
        assert pipeline._build_worker() is not worker


def _rebuild_in_child(results):
    rng = np.random.default_rng(9)
    index = DynamicRobustIndex(rng.random((40, 2)), n_partitions=4)
    index.insert(rng.random(2))
    results.put(index.rebuild())


@pytest.mark.parametrize("method", ["fork", "spawn"])
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
def test_a_child_process_rebuilds_and_exits(rng, method):
    """A multiprocessing child that rebuilds gets its own worker (a
    forked child cannot use the parent's, whose threads did not
    survive the fork) and still exits: multiprocessing joins its
    children at exit, so the worker must be shut down first."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method")
    index = DynamicRobustIndex(rng.random((40, 2)), n_partitions=4)
    index.insert(rng.random(2))
    assert index.rebuild() is True  # this process's worker now exists
    context = multiprocessing.get_context(method)
    results = context.Queue()
    child = context.Process(target=_rebuild_in_child, args=(results,))
    child.start()
    try:
        assert results.get(timeout=120) is True
        child.join(60)
        assert not child.is_alive()
    finally:
        if child.is_alive():
            child.kill()
            child.join()
    assert child.exitcode == 0
    index.insert(rng.random(2))
    assert index.rebuild() is True  # this process's worker still serves


_SCRIPT = textwrap.dedent(
    """
    import time

    import numpy as np
    from repro.engine.rebuild import RebuildManager
    from repro.indexes.dynamic import DynamicRobustIndex

    if __name__ == "__main__":
        rng = np.random.default_rng(0)
        index = DynamicRobustIndex(rng.random((300, 3)), n_partitions=5)
        manager = RebuildManager(index, threshold=4, poll_interval=0.01)
        manager.start()
        for row in rng.random((8, 3)):
            index.insert(row)
        while index.staleness:
            time.sleep(0.01)
        manager.stop()
        assert manager.last_error is None
        assert index.rebuild() is True
        print("rebuilt", flush=True)
    """
)


def _session_members(session: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:  # exited while we looked
            continue
        # Fields 3 and 6 of stat: the state and the session id (an
        # exited process awaiting its reaper, state Z, runs nothing).
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry.name))
    return members


def _start_program(tmp_path, source):
    script = tmp_path / "program.py"
    script.write_text(source)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.Popen(
        [sys.executable, str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def _assert_session_ends(session: int) -> None:
    try:
        assert _wait_until(
            lambda: not _session_members(session), timeout=20.0
        ), f"left running: {_session_members(session)}"
    finally:
        for pid in _session_members(session):
            os.kill(pid, signal.SIGKILL)


_needs_proc = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


@_needs_proc
def test_a_program_that_rebuilt_leaves_no_process_behind(tmp_path):
    """The worker (and anything multiprocessing started for it) exits
    with the program: nothing is left in the program's session."""
    program = _start_program(tmp_path, _SCRIPT)
    try:
        out, err = program.communicate(timeout=120)
    finally:
        if program.poll() is None:
            os.killpg(program.pid, signal.SIGKILL)
    assert program.returncode == 0, err
    assert out.split() == ["rebuilt"]
    _assert_session_ends(program.pid)


_KILLED_SCRIPT = textwrap.dedent(
    """
    import os
    import time

    import numpy as np
    from repro.core import pipeline
    from repro.indexes.dynamic import DynamicRobustIndex

    if __name__ == "__main__":
        index = DynamicRobustIndex(np.random.default_rng(0).random((50, 2)))
        index.insert([0.5, 0.5])
        assert index.rebuild() is True
        print(pipeline._build_worker().submit(os.getpid).result(), flush=True)
        time.sleep(300)
    """
)


@_needs_proc
def test_the_worker_exits_when_its_program_is_killed(tmp_path):
    program = _start_program(tmp_path, _KILLED_SCRIPT)
    try:
        worker = int(program.stdout.readline())
        assert worker in _session_members(program.pid)
    finally:
        program.kill()  # SIGKILL: no exit handler runs
        program.wait(timeout=60)
        # Not communicate(): a worker left running holds the pipes open.
        program.stdout.close()
        program.stderr.close()
    _assert_session_ends(program.pid)
