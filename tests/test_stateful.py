"""Stateful (model-based) property tests.

Hypothesis drives random operation sequences against the mutable
components — the dynamic robust index and the order-statistic AVL
tree — checking the invariants after every step.
Plus a grammar fuzz of the SQL parser: arbitrary input must either
parse or raise ``SqlError``, never anything else.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.index import violating_tids
from repro.dstruct.avl import OrderStatisticAVL
from repro.engine.sql import SqlError, parse
from repro.indexes.dynamic import DynamicRobustIndex
from repro.queries.ranking import LinearQuery

from .core.dynamic_reference import LayeringModel, assert_same_slab


_SLAB_FIELDS = ("points", "layers", "order", "offsets", "slab")


def _assert_sound(index, rng):
    """Every layer is at least 1 and no random top-k query is violated."""
    points, layers = index.points, index.layers
    assert layers.shape == (points.shape[0],)
    if points.shape[0]:
        assert layers.min() >= 1
        w = rng.dirichlet(np.ones(points.shape[1]))
        k = int(rng.integers(1, points.shape[0] + 1))
        assert violating_tids(points, layers, LinearQuery(w), k).size == 0


class DynamicIndexMachine(RuleBasedStateMachine):
    """Insert/delete/rebuild streams must keep the layering sound."""

    @initialize(seed=st.integers(0, 2**31))
    def setup(self, seed):
        self.rng = np.random.default_rng(seed)
        self.index = DynamicRobustIndex(
            self.rng.random((12, 2)), n_partitions=3
        )

    @rule()
    def insert(self):
        self.index.insert(self.rng.random(2))

    @precondition(lambda self: self.index.points.shape[0] > 3)
    @rule(data=st.data())
    def delete(self, data):
        position = data.draw(
            st.integers(0, self.index.points.shape[0] - 1), label="position"
        )
        self.index.delete(position)

    @rule()
    def rebuild(self):
        self.index.rebuild()

    @invariant()
    def layering_stays_sound(self):
        _assert_sound(self.index, self.rng)


class DynamicServingMachine(RuleBasedStateMachine):
    """The dynamic index's patched serving view against a list model.

    After every step the view equals a from-scratch pack of the
    :class:`LayeringModel` that replayed the same updates, the view
    grabbed before the step is unchanged, the layering is sound, and
    answers equal the brute-force top-k of the model's points.
    """

    @initialize(seed=st.integers(0, 2**31), n=st.integers(0, 10))
    def setup(self, seed, n):
        self.rng = np.random.default_rng(seed)
        rows = self._rows(n)
        self.model = LayeringModel(rows, n_partitions=3)
        self.index = DynamicRobustIndex(rows, n_partitions=3)

    def _rows(self, m):
        # A coarse grid makes ties (shared coordinates, equal scores).
        return np.round(self.rng.random((m, 3)), 1)

    def _step(self, update):
        before = self.index._view.slab
        copies = {name: getattr(before, name).copy() for name in _SLAB_FIELDS}
        update()
        for name in _SLAB_FIELDS:
            assert np.array_equal(getattr(before, name), copies[name]), name

    def _size(self):
        return len(self.model.rows)

    def _positions(self, data, m, shrink):
        size = self._size()
        return [
            data.draw(st.integers(0, size - 1 - i * shrink), label="position")
            for i in range(m)
        ]

    @rule()
    def insert(self):
        row = self._rows(1)[0]
        self._step(lambda: self.index.insert(row))
        self.model.insert(row)

    @precondition(lambda self: self._size() > 0)
    @rule(data=st.data())
    def delete(self, data):
        (position,) = self._positions(data, 1, shrink=1)
        self._step(lambda: self.index.delete(position))
        self.model.delete(position)

    @rule(m=st.integers(0, 4))
    def insert_many(self, m):
        rows = self._rows(m)
        self._step(lambda: self.index.insert_many(rows))
        for row in rows:
            self.model.insert(row)

    @rule(data=st.data())
    def delete_many(self, data):
        m = data.draw(st.integers(0, min(4, self._size())), label="m")
        positions = self._positions(data, m, shrink=1)
        self._step(lambda: self.index.delete_many(positions))
        for position in positions:
            self.model.delete(position)

    @precondition(lambda self: self._size() > 0)
    @rule(data=st.data(), m=st.integers(1, 4))
    def upsert_many(self, data, m):
        positions = self._positions(data, m, shrink=0)
        rows = self._rows(m)
        self._step(lambda: self.index.upsert_many(positions, rows))
        for position, row in zip(positions, rows):
            self.model.upsert(position, row)

    @rule()
    def rebuild(self):
        self._step(self.index.rebuild)
        self.model.rebuild()

    @rule(m=st.integers(1, 3))
    def delete_all_then_reinsert(self, m):
        rows = self._rows(m)
        size = self._size()

        def update():
            self.index.delete_many([0] * size)
            self.index.insert_many(rows)

        self._step(update)
        for _ in range(size):
            self.model.delete(0)
        for row in rows:
            self.model.insert(row)

    @invariant()
    def view_is_a_fresh_pack(self):
        assert_same_slab(self.index._view.slab, self.model.slab())

    @invariant()
    def layering_stays_sound(self):
        _assert_sound(self.index, self.rng)

    @invariant()
    def answers_equal_brute_force(self):
        points = self.model.points
        n = points.shape[0]
        weights = self.rng.dirichlet(np.ones(3), size=3)
        query = LinearQuery(weights[0])
        for k in {1, max(n // 2, 1), n + 1}:
            got = self.index.query(query, k).tids
            assert np.array_equal(got, query.top_k(points, k))
            batch = self.index.query_batch(weights, k)
            for w, result in zip(weights, batch):
                expected = LinearQuery(w).top_k(points, k)
                assert np.array_equal(result.tids, expected)


class AvlMachine(RuleBasedStateMachine):
    """The order-statistic tree against a plain list model."""

    def __init__(self):
        super().__init__()
        self.tree = OrderStatisticAVL()
        self.model: list[int] = []

    @rule(value=st.integers(-20, 20))
    def insert(self, value):
        self.tree.insert(value)
        self.model.append(value)

    @rule(query=st.integers(-25, 25))
    def count_matches_model(self, query):
        assert self.tree.count_le(query) == sum(
            1 for v in self.model if v <= query
        )
        assert self.tree.count_lt(query) == sum(
            1 for v in self.model if v < query
        )

    @invariant()
    def structure_is_valid(self):
        self.tree.check_invariants()
        assert len(self.tree) == len(self.model)


TestDynamicIndexMachine = DynamicIndexMachine.TestCase
TestDynamicIndexMachine.settings = settings(
    max_examples=15, stateful_step_count=12, deadline=None
)
TestDynamicServingMachine = DynamicServingMachine.TestCase
TestDynamicServingMachine.settings = settings(
    max_examples=40, stateful_step_count=20, deadline=None
)
TestAvlMachine = AvlMachine.TestCase
TestAvlMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)


class TestSqlFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_never_crashes(self, text):
        try:
            parse(text)
        except SqlError:
            pass  # the only acceptable failure mode

    @given(
        st.lists(
            st.sampled_from(
                ["SELECT", "TOP", "FROM", "ORDER", "BY", "WHERE", "USING",
                 "INDEX", "EXPLAIN", "layer", "<=", "5", "3.5", "t", "a",
                 "b", "+", "-", "*", ","]
            ),
            max_size=15,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_token_soup_never_crashes(self, tokens):
        try:
            parse(" ".join(tokens))
        except SqlError:
            pass

    @given(
        k=st.integers(0, 99),
        coefficients=st.lists(
            st.floats(0.1, 9.9, allow_nan=False), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_generated_valid_statements_round_trip(self, k, coefficients):
        attrs = [f"a{i}" for i in range(len(coefficients))]
        expr = " + ".join(
            f"{c:.2f}*{a}" for c, a in zip(coefficients, attrs)
        )
        query = parse(f"SELECT TOP {k} FROM t ORDER BY {expr}")
        assert query.k == k
        for c, a in zip(coefficients, attrs):
            assert abs(query.order_by[a] - round(c, 2)) < 1e-9
