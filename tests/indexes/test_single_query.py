"""The single-query path ``LayeredSlab.query``.

It is the one-vector case of the slab's ranking routine written out
for speed, so every test holds it to two references: the full
``(score, tid)`` lexsort of the k-layer prefix, and ``_reference_query``
below — the routine's general path (``check_query``, ``obs.timed``,
``_ranked`` over a one-vector batch), which is what the single-query
call ran before it was written out.  Answers, costs, errors and
metrics must match on in-memory and memory-mapped slabs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.engine.snapshot import load_snapshot, save_snapshot
from repro.indexes.base import QueryResult, check_query
from repro.indexes.dynamic import DynamicRobustIndex
from repro.indexes.robust import LayeredSlab, RobustIndex
from repro.queries.ranking import LinearQuery


def _reference_query(slab: LayeredSlab, query: LinearQuery, k: int):
    """The general path for one query, metrics included."""
    k = check_query(query, k, slab.points.shape)
    if k == 0:
        return QueryResult(np.zeros(0, dtype=np.intp), 0, 0)
    with obs.timed("index.query"):
        top, retrieved, layers_scanned = slab._ranked((query.weights,), k)
    obs.inc("index.queries")
    obs.inc("index.candidates", retrieved)
    obs.inc("index.layers_scanned", layers_scanned)
    return QueryResult(top[0], retrieved, layers_scanned)


def _lexsort_answer(slab: LayeredSlab, query: LinearQuery, k: int):
    """Top-k of the k-layer prefix by the full ``(score, tid)`` lexsort."""
    rows, tids, _ = slab.prefix(k)
    scores = rows @ query.weights
    return tids[np.lexsort((tids, scores))][:k]


def _mapped(slab: LayeredSlab, directory) -> LayeredSlab:
    """``slab`` adopted from ``np.memmap`` buffers (``np.load`` with
    ``mmap_mode``), the way a caller mapping its own files would."""
    arrays = {}
    for name, array in slab.arrays().items():
        path = directory / f"{name}.npy"
        np.save(path, array)
        arrays[name] = np.load(path, mmap_mode="r")
        assert isinstance(arrays[name], np.memmap)
    return LayeredSlab.from_arrays(arrays)


def _assert_same(result: QueryResult, expected: QueryResult) -> None:
    assert type(result) is QueryResult
    assert result.tids.dtype == np.intp
    assert np.array_equal(result.tids, expected.tids)
    assert result.retrieved == expected.retrieved
    assert result.layers_scanned == expected.layers_scanned
    assert result.extra == {}


def _check_query(slab: LayeredSlab, query: LinearQuery, k: int) -> None:
    """``slab.query`` against both references, answers and metrics."""
    with obs.collect() as got:
        result = slab.query(query, k)
    with obs.collect() as want:
        expected = _reference_query(slab, query, k)
    _assert_same(result, expected)
    assert np.array_equal(result.tids, _lexsort_answer(slab, query, k))
    assert result.retrieved == slab.retrieval_cost(k)
    assert got.counters == want.counters
    assert got.timers.keys() == want.timers.keys()


# ---------------------------------------------------------------------------
# Data with and without ties
# ---------------------------------------------------------------------------

_KINDS = ("distinct", "few_valued", "duplicate_column", "duplicate_rows")


def _data(kind: str, n: int, d: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        return rng.random((n, d))
    if kind == "few_valued":
        return rng.integers(0, 3, (n, d)).astype(float)
    if kind == "duplicate_column":
        data = rng.random((n, d))
        data[:, -1] = data[:, 0]
        return data
    # duplicate rows: a few distinct rows, each repeated
    base = rng.random((max(1, n // 3), d))
    return base[rng.integers(0, base.shape[0], n)]


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    data = _data(kind, n, d, draw(st.integers(0, 2**32 - 1)))
    # Few-valued weights with zeros tie many scores as well.
    weights = draw(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=d, max_size=d)
        .filter(lambda w: sum(w) > 0)
    )
    ks = draw(st.lists(st.integers(0, n + 3), min_size=1, max_size=4))
    return data, LinearQuery(weights), ks


class TestAgainstReferences:
    @settings(max_examples=120, deadline=None)
    @given(_cases())
    def test_robust_slab(self, case):
        data, query, ks = case
        slab = RobustIndex(data, n_partitions=4).layered
        for k in ks:
            _check_query(slab, query, k)

    @settings(max_examples=60, deadline=None)
    @given(_cases(), st.integers(0, 2**32 - 1))
    def test_dynamic_index_after_updates(self, case, seed):
        data, query, ks = case
        rng = np.random.default_rng(seed)
        index = DynamicRobustIndex(data, n_partitions=4)
        # Updates drawn from the data itself keep its ties.
        index.insert(data[rng.integers(data.shape[0])])
        index.upsert_many([0], data[rng.integers(data.shape[0], size=1)])
        for k in ks:
            result = index.query(query, k)
            _check_query(index._view.slab, query, k)
            _assert_same(result, _reference_query(index._view.slab, query, k))

    @pytest.mark.parametrize("kind", _KINDS)
    def test_memory_mapped_slabs(self, kind, tmp_path):
        data = _data(kind, 60, 3, seed=11)
        query = LinearQuery([1.0, 0.0, 2.0])
        index = RobustIndex(data, n_partitions=5)
        dynamic = DynamicRobustIndex(data, n_partitions=5)
        dynamic.upsert_many([3, 7], data[[5, 5]])
        for name, source in (("robust", index), ("dynamic", dynamic)):
            path = tmp_path / f"{kind}-{name}.snap"
            save_snapshot(source, path)
            loaded = load_snapshot(path, mmap=True)
            slab = loaded.layered if name == "robust" else loaded._view.slab
            folder = tmp_path / f"{kind}-{name}"
            folder.mkdir()
            mapped = _mapped(slab, folder)
            for k in (0, 1, 2, 5, 17, 60, 61, 1000):
                _check_query(slab, query, k)
                _check_query(mapped, query, k)
                _assert_same(loaded.query(query, k), slab.query(query, k))
                _assert_same(mapped.query(query, k), slab.query(query, k))


# ---------------------------------------------------------------------------
# Prefix shapes: empty layers, k = 0, k > n, empty relation
# ---------------------------------------------------------------------------


class TestPrefixShapes:
    def test_prefix_ending_in_empty_layers(self, tmp_path):
        # Layers 2 and 3 are empty: a top-2 or top-3 query reads layer
        # 1 only and its deepest scanned layer is 1.
        points = np.array([[0.2, 0.1], [0.1, 0.3], [0.9, 0.9], [0.5, 0.4]])
        slab = LayeredSlab.from_layers(points, [1, 1, 4, 1])
        assert slab.offsets.tolist() == [0, 3, 3, 3, 4]
        mapped = _mapped(slab, tmp_path)
        query = LinearQuery([1.0, 1.0])
        for each in (slab, mapped):
            for k in (2, 3):
                result = each.query(query, k)
                assert result.retrieved == 3
                assert result.layers_scanned == 1
                _check_query(each, query, k)
            assert each.query(query, 4).layers_scanned == 4
            _check_query(each, query, 4)

    def test_dynamic_insert_bounded_past_the_deepest_layer(self):
        # A tuple every other tuple dominates gets a bound deeper than
        # the layering, which adds empty layers before its own.
        data = np.random.default_rng(3).random((30, 2))
        index = DynamicRobustIndex(data, n_partitions=4)
        deepest = index._view.slab.n_layers
        index.insert([2.0, 2.0])
        slab = index._view.slab
        assert slab.n_layers > deepest + 1
        empty = np.flatnonzero(np.diff(slab.offsets) == 0) + 1
        assert empty.size
        query = LinearQuery([1.0, 3.0])
        for k in (*empty.tolist(), slab.n_layers, slab.n_layers + 5):
            _check_query(slab, query, k)
            _assert_same(index.query(query, k), slab.query(query, k))

    @pytest.mark.parametrize("k", [0, 30, 31, 10**6, np.int64(31)])
    def test_k_zero_and_k_beyond_n(self, k):
        data = np.random.default_rng(4).random((30, 3))
        slab = RobustIndex(data, n_partitions=4).layered
        query = LinearQuery([1.0, 2.0, 3.0])
        _check_query(slab, query, k)
        result = slab.query(query, k)
        assert result.tids.size == min(int(k), 30)
        if k == 0:
            assert (result.retrieved, result.layers_scanned) == (0, 0)

    def test_k_zero_records_no_metrics(self):
        slab = RobustIndex(np.eye(3), n_partitions=2).layered
        with obs.collect() as metrics:
            slab.query(LinearQuery([1.0, 1.0, 1.0]), 0)
        assert not metrics

    def test_empty_relation(self):
        slab = LayeredSlab.from_layers(np.zeros((0, 2)), [])
        for k in (0, 1, 5):
            _check_query(slab, LinearQuery([1.0, 1.0]), k)


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


def _error(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestErrors:
    @pytest.mark.parametrize(
        "weights, k",
        [
            ([1.0, 1.0], 3),  # too narrow
            ([1.0, 1.0, 1.0, 1.0], 3),  # too wide
            ([1.0, 1.0], -1),  # both wrong: the width is checked first
            ([1.0, 1.0, 1.0], -1),
            ([1.0, 1.0, 1.0], -(10**6)),
        ],
    )
    def test_same_type_and_message_as_the_general_path(self, weights, k):
        slab = RobustIndex(
            np.random.default_rng(5).random((20, 3)), n_partitions=3
        ).layered
        query = LinearQuery(weights)
        got = _error(lambda: slab.query(query, k))
        assert got == _error(lambda: _reference_query(slab, query, k))
        assert got[0] is ValueError

    def test_dynamic_index_raises_the_same(self):
        index = DynamicRobustIndex(
            np.random.default_rng(6).random((20, 3)), n_partitions=3
        )
        slab = index._view.slab
        for query, k in ((LinearQuery([1.0]), 2), (LinearQuery([1, 1, 1]), -2)):
            assert _error(lambda: index.query(query, k)) == _error(
                lambda: _reference_query(slab, query, k)
            )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_names_and_values(self):
        data = np.random.default_rng(8).random((50, 3))
        slab = RobustIndex(data, n_partitions=4).layered
        query = LinearQuery([1.0, 2.0, 1.0])
        with obs.collect() as metrics:
            for k in (1, 4, 9):
                slab.query(query, k)
        assert metrics.counters == {
            "index.queries": 3,
            "index.candidates": sum(slab.retrieval_cost(k) for k in (1, 4, 9)),
            "index.layers_scanned": sum(slab.prefix(k)[2] for k in (1, 4, 9)),
        }
        assert list(metrics.timers) == ["index.query"]
        assert metrics.timers["index.query"] > 0

    def test_nested_collectors_fold_into_the_outer_one(self):
        slab = RobustIndex(np.eye(4), n_partitions=2).layered
        query = LinearQuery([1.0, 1.0, 1.0, 1.0])
        with obs.collect() as outer:
            with obs.collect() as inner:
                slab.query(query, 2)
            with obs.collect(propagate=False):
                slab.query(query, 2)
        assert inner.counters["index.queries"] == 1
        assert outer.counters["index.queries"] == 1
