"""Column-major relations.

A :class:`Relation` stores one NumPy array per attribute plus an
implicit tid (the row position).  Layered indexes materialize their
layer assignment as an ordinary integer column, which is exactly how
the paper proposes shipping the robust index inside an off-the-shelf
RDBMS.
"""

from __future__ import annotations

import numpy as np

from .schema import Attribute, Schema

__all__ = ["Relation"]


class Relation:
    """An immutable-shape, column-major table.

    Examples
    --------
    >>> rel = Relation.from_matrix("houses", ["price", "distance"],
    ...                            [[1.0, 2.0], [3.0, 0.5]])
    >>> rel.n_rows
    2
    >>> rel.column("price").tolist()
    [1.0, 3.0]
    """

    def __init__(self, name: str, schema: Schema, columns: dict[str, np.ndarray]):
        if not name or not name.isidentifier():
            raise ValueError(f"relation name {name!r} must be an identifier")
        missing = [n for n in schema.names if n not in columns]
        if missing:
            raise ValueError(f"columns missing for attributes {missing}")
        lengths = {n: len(columns[n]) for n in schema.names}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self._name = name
        self._schema = schema
        self._columns = {
            a.name: np.asarray(columns[a.name], dtype=a.dtype) for a in schema
        }
        self._n_rows = next(iter(lengths.values())) if lengths else 0
        # The (n, d) matrix the columns view, when built from one.
        self._matrix = None
        self._tids = None  # arange(n_rows), built on first use

    @classmethod
    def _trusted(
        cls, name: str, schema: Schema, columns: dict[str, np.ndarray],
        n_rows: int,
    ) -> "Relation":
        """Wrap columns already known to be valid (correct names,
        dtypes and equal lengths) without re-checking them."""
        relation = cls.__new__(cls)
        relation._name = name
        relation._schema = schema
        relation._columns = columns
        relation._n_rows = n_rows
        relation._matrix = None
        relation._tids = None
        return relation

    @classmethod
    def from_matrix(cls, name: str, attribute_names, matrix) -> "Relation":
        """Build an all-float relation from a (n, d) matrix."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        names = list(attribute_names)
        if matrix.shape[1] != len(names):
            raise ValueError(
                f"matrix has {matrix.shape[1]} columns for {len(names)} names"
            )
        schema = Schema.of_floats(*names)
        columns = {n: matrix[:, i] for i, n in enumerate(names)}
        relation = cls(name, schema, columns)
        relation._matrix = matrix.view()
        relation._matrix.flags.writeable = False
        return relation

    @property
    def name(self) -> str:
        return self._name

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def n_rows(self) -> int:
        return self._n_rows

    def tids(self) -> np.ndarray:
        """Every tid in order (``arange(n_rows)``, read-only), built
        once per relation: a scan's candidate list."""
        if self._tids is None:
            tids = np.arange(self._n_rows)
            tids.flags.writeable = False
            self._tids = tids
        return self._tids

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one column."""
        col = self._columns[self._schema.attribute(name).name].view()
        col.flags.writeable = False
        return col

    def matrix(self, attribute_names=None) -> np.ndarray:
        """Float (n, d) matrix over the named attributes (``None``: all;
        an empty selection gives an ``(n, 0)`` matrix).

        A relation built by :meth:`from_matrix` returns that matrix
        (read-only, no copy) when asked for every attribute in schema
        order; any other selection is stacked into a new array.
        """
        if attribute_names is None:
            names = self._schema.names
        else:
            names = tuple(
                self._schema.attribute(n).name for n in attribute_names
            )
        if self._matrix is not None and names == self._schema.names:
            return self._matrix
        if not names:
            return np.zeros((self._n_rows, 0))
        return np.stack(
            [np.asarray(self._columns[n], dtype=float) for n in names],
            axis=1,
        )

    def float_matrix(self) -> np.ndarray:
        """``(n, f)`` matrix over the float attributes in schema order:
        the points every index on this table covers."""
        return self.matrix([a.name for a in self._schema if a.kind == "float"])

    def row(self, tid: int) -> dict:
        """One row as an attribute -> value mapping."""
        if not 0 <= tid < self._n_rows:
            raise IndexError(f"tid {tid} out of range [0, {self._n_rows})")
        return {n: self._columns[n][tid] for n in self._schema.names}

    def with_column(self, attribute: Attribute, values) -> "Relation":
        """A new relation extending this one by a column (e.g. layer)."""
        values = np.asarray(values)
        if len(values) != self._n_rows:
            raise ValueError(
                f"column has {len(values)} values for {self._n_rows} rows"
            )
        schema = self._schema.extended(attribute)
        columns = dict(self._columns)
        columns[attribute.name] = values
        return Relation(self._name, schema, columns)

    def take(self, tids) -> "Relation":
        """A new relation containing only the given rows, in order."""
        tids = np.asarray(tids, dtype=np.intp)
        columns = {n: col[tids] for n, col in self._columns.items()}
        return Relation._trusted(self._name, self._schema, columns, len(tids))

    def take_many(self, tid_arrays) -> list["Relation"]:
        """``[self.take(tids) for tids in tid_arrays]`` with one gather
        per column: each result holds its slice of the gathered rows."""
        tid_arrays = [np.asarray(t, dtype=np.intp) for t in tid_arrays]
        if not tid_arrays:
            return []
        flat = np.concatenate(tid_arrays)
        gathered = {n: col[flat] for n, col in self._columns.items()}
        out = []
        start = 0
        for tids in tid_arrays:
            stop = start + len(tids)
            columns = {n: col[start:stop] for n, col in gathered.items()}
            out.append(
                Relation._trusted(self._name, self._schema, columns, len(tids))
            )
            start = stop
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Relation({self._name!r}, {self._schema!r}, n={self._n_rows})"
