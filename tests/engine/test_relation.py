"""Tests for column-major relations."""

import numpy as np
import pytest

from repro.engine.relation import Relation
from repro.engine.schema import Attribute, Schema


@pytest.fixture
def houses():
    return Relation.from_matrix(
        "houses",
        ["price", "distance", "age"],
        [[100.0, 2.0, 10.0], [250.0, 0.5, 3.0], [180.0, 1.0, 25.0]],
    )


class TestConstruction:
    def test_from_matrix(self, houses):
        assert houses.n_rows == 3
        assert houses.schema.names == ("price", "distance", "age")

    def test_rejects_ragged_columns(self):
        schema = Schema.of_floats("a", "b")
        with pytest.raises(ValueError, match="ragged"):
            Relation("t", schema, {"a": [1.0], "b": [1.0, 2.0]})

    def test_rejects_missing_columns(self):
        schema = Schema.of_floats("a", "b")
        with pytest.raises(ValueError, match="missing"):
            Relation("t", schema, {"a": [1.0]})

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError):
            Relation.from_matrix("2bad", ["a"], [[1.0]])

    def test_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            Relation.from_matrix("t", ["a", "b"], [[1.0]])


class TestAccess:
    def test_column_read_only(self, houses):
        col = houses.column("price")
        with pytest.raises(ValueError):
            col[0] = 0.0

    def test_matrix_selected_attributes(self, houses):
        m = houses.matrix(["distance", "price"])
        assert m.shape == (3, 2)
        assert m[0].tolist() == [2.0, 100.0]

    def test_matrix_all(self, houses):
        assert houses.matrix().shape == (3, 3)

    def test_row(self, houses):
        row = houses.row(1)
        assert row["price"] == 250.0
        with pytest.raises(IndexError):
            houses.row(3)

    def test_take(self, houses):
        sub = houses.take([2, 0])
        assert sub.n_rows == 2
        assert sub.column("price").tolist() == [180.0, 100.0]

    def test_take_many_equals_take(self, houses):
        groups = [[2, 0], [], [1], [0, 1, 2]]
        many = houses.take_many(groups)
        assert len(many) == len(groups)
        for tids, sub in zip(groups, many):
            one = houses.take(tids)
            assert sub.n_rows == one.n_rows == len(tids)
            assert sub.matrix().tolist() == one.matrix().tolist()
        assert houses.take_many([]) == []

    def test_from_matrix_keeps_its_matrix(self):
        data = np.random.default_rng(5).random((6, 3))
        rel = Relation.from_matrix("t", ["a", "b", "c"], data)
        full = rel.matrix()
        assert np.shares_memory(full, data)
        assert rel.matrix(["a", "b", "c"]) is full
        assert not full.flags.writeable
        with pytest.raises(ValueError):
            full[0, 0] = 1.0
        assert np.array_equal(full, data)
        # Other selections stack a fresh array.
        picked = rel.matrix(["c", "a"])
        assert not np.shares_memory(picked, data)
        assert picked.tolist() == data[:, [2, 0]].tolist()
        # Relations derived by take / with_column have no stored matrix.
        assert not np.shares_memory(rel.take([1, 0]).matrix(), data)


class TestWithColumn:
    def test_adds_layer_column(self, houses):
        extended = houses.with_column(Attribute("layer", "int"), [1, 2, 1])
        assert extended.column("layer").tolist() == [1, 2, 1]
        assert extended.column("layer").dtype == np.int64
        # Original relation untouched.
        assert "layer" not in houses.schema

    def test_rejects_wrong_length(self, houses):
        with pytest.raises(ValueError):
            houses.with_column(Attribute("layer", "int"), [1, 2])
