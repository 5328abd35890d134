"""Catalog: named tables and their attached ranked indexes.

The catalog also owns the persistence story for attached indexes: a
*snapshot directory* holds one ``<root>/<table>/<index>.snap`` file
per index (see :mod:`repro.engine.snapshot` for the format), each
stamped with the table's content version at save time.  Because
:meth:`Catalog.replace_table` bumps that version, snapshots of
replaced tables go stale automatically — :meth:`load_index_snapshots`
refuses to attach them, so a warm start can never serve answers
computed over old data.

A table's ``layer`` column is its layered storage:
:meth:`Catalog.layering` packs it into a
:class:`~repro.indexes.robust.LayeredSlab` once per table version, the
one layout the ``WHERE layer <= c`` plan and the planner read.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import obs
from ..indexes.base import RankedIndex
from ..indexes.robust import LayeredSlab
from .relation import Relation

__all__ = ["Catalog", "LAYER_COLUMN"]

#: File suffix of catalog-managed snapshot files.
SNAPSHOT_SUFFIX = ".snap"

#: Name of the integer column holding each row's layer.
LAYER_COLUMN = "layer"


class Catalog:
    """Registry mapping table names to relations and index sets.

    Examples
    --------
    >>> cat = Catalog()
    >>> rel = Relation.from_matrix("t", ["a", "b"], [[1.0, 2.0]])
    >>> cat.create_table(rel)
    >>> cat.table("t").n_rows
    1
    """

    def __init__(self):
        self._tables: dict[str, Relation] = {}
        self._indexes: dict[str, dict[str, RankedIndex]] = {}
        # Monotone per-name content version; bumped whenever the data
        # behind a name changes so result caches keyed on
        # (table, version) go stale automatically.  Survives drops so
        # a re-created table never reuses a version.
        self._versions: dict[str, int] = {}
        # table -> (table_version packed, its layer column's slab).
        self._layerings: dict[str, tuple[int, LayeredSlab]] = {}

    def _bump_version(self, name: str) -> None:
        self._versions[name] = self._versions.get(name, 0) + 1

    def create_table(self, relation: Relation) -> None:
        if relation.name in self._tables:
            raise ValueError(f"table {relation.name!r} already exists")
        self._tables[relation.name] = relation
        self._indexes[relation.name] = {}
        self._bump_version(relation.name)

    def replace_table(self, relation: Relation) -> None:
        """Swap a table's contents.

        An attached index survives only when its points equal the new
        relation's float attributes in schema order — as after adding
        a ``layer`` column; every other index described the old rows
        and is dropped.
        """
        if relation.name not in self._tables:
            raise KeyError(f"no table {relation.name!r}")
        points = relation.float_matrix()
        self._indexes[relation.name] = {
            name: index
            for name, index in self._indexes[relation.name].items()
            if np.array_equal(index.points, points)
        }
        self._tables[relation.name] = relation
        self._bump_version(relation.name)

    def table_version(self, name: str) -> int:
        """Content version of a table: starts at 1, increments on
        every :meth:`replace_table` (and re-creation after a drop)."""
        if name not in self._tables:
            raise KeyError(f"no table {name!r}")
        return self._versions[name]

    def drop_table(self, name: str) -> None:
        if name not in self._tables:
            raise KeyError(f"no table {name!r}")
        del self._tables[name]
        del self._indexes[name]
        self._layerings.pop(name, None)

    def table(self, name: str) -> Relation:
        if name not in self._tables:
            raise KeyError(f"no table {name!r}; known: {sorted(self._tables)}")
        return self._tables[name]

    def table_names(self) -> list[str]:
        return sorted(self._tables)

    def layering(self, name: str) -> LayeredSlab | None:
        """The table's int ``layer`` column as a :class:`LayeredSlab`
        over its float attributes in schema order, or ``None`` when it
        has no such column.

        Packed on first use and cached per :meth:`table_version`, so a
        :meth:`replace_table` re-packs it on the next call.
        """
        relation = self.table(name)
        if (
            LAYER_COLUMN not in relation.schema
            or relation.schema.attribute(LAYER_COLUMN).kind != "int"
        ):
            return None
        version = self._versions[name]
        cached = self._layerings.get(name)
        if cached is None or cached[0] != version:
            slab = LayeredSlab.from_layers(
                relation.float_matrix(), relation.column(LAYER_COLUMN)
            )
            cached = self._layerings[name] = (version, slab)
        return cached[1]

    def attach_index(self, table_name: str, index_name: str,
                     index: RankedIndex) -> None:
        if table_name not in self._tables:
            raise KeyError(f"no table {table_name!r}")
        if index.size != self._tables[table_name].n_rows:
            raise ValueError(
                f"index covers {index.size} tuples; table has "
                f"{self._tables[table_name].n_rows} rows"
            )
        self._indexes[table_name][index_name] = index

    def index(self, table_name: str, index_name: str) -> RankedIndex:
        indexes = self._indexes.get(table_name)
        if indexes is None:
            raise KeyError(f"no table {table_name!r}")
        if index_name not in indexes:
            raise KeyError(
                f"no index {index_name!r} on {table_name!r}; "
                f"known: {sorted(indexes)}"
            )
        return indexes[index_name]

    def indexes_on(self, table_name: str) -> dict[str, RankedIndex]:
        if table_name not in self._indexes:
            raise KeyError(f"no table {table_name!r}")
        return dict(self._indexes[table_name])

    # -- snapshot persistence (see repro.engine.snapshot) ------------

    def save_index_snapshots(self, root, table_name: str | None = None,
                             ) -> list[Path]:
        """Persist attached indexes as ``<root>/<table>/<index>.snap``.

        Each snapshot is written atomically and stamped with the
        table's current content version, so later loads can tell
        whether the data underneath has changed.  ``table_name=None``
        snapshots every table.  Returns the written paths.
        """
        from .snapshot import save_snapshot

        root = Path(root)
        tables = (
            [table_name] if table_name is not None else self.table_names()
        )
        written: list[Path] = []
        for table in tables:
            for index_name, index in self.indexes_on(table).items():
                table_dir = root / table
                table_dir.mkdir(parents=True, exist_ok=True)
                path = table_dir / f"{index_name}{SNAPSHOT_SUFFIX}"
                save_snapshot(
                    index,
                    path,
                    extra_meta={
                        "table": table,
                        "index_name": index_name,
                        "table_version": self.table_version(table),
                    },
                )
                written.append(path)
        return written

    def load_index_snapshots(self, root, table_name: str | None = None,
                             mmap: bool = True, verify: bool = True,
                             ) -> list[tuple[str, str]]:
        """Attach every current snapshot under ``root``; skip stale ones.

        A snapshot is attached only when its stamped ``table_version``
        equals the named table's *current* version — snapshots written
        before a :meth:`replace_table` (or for a dropped-and-recreated
        table) are silently skipped and counted as
        ``snapshot.stale_skipped``, because their layers may describe
        data the table no longer holds.  Returns the
        ``(table, index_name)`` pairs attached.
        """
        from .snapshot import load_snapshot, read_snapshot_header

        root = Path(root)
        tables = (
            [table_name] if table_name is not None else self.table_names()
        )
        attached: list[tuple[str, str]] = []
        for table in tables:
            table_dir = root / table
            if not table_dir.is_dir():
                continue
            current = self.table_version(table)
            for path in sorted(table_dir.glob(f"*{SNAPSHOT_SUFFIX}")):
                header = read_snapshot_header(path)
                meta = header["meta"]
                if meta.get("table_version") != current:
                    obs.inc("snapshot.stale_skipped")
                    continue
                index = load_snapshot(path, mmap=mmap, verify=verify)
                index_name = meta.get("index_name", path.stem)
                self.attach_index(table, index_name, index)
                attached.append((table, index_name))
        return attached
