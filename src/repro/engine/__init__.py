"""Mini relational engine: relations, layered storage, SQL, execution,
result caching, and persistent index snapshots."""

from .cache import ResultCache, cached_query
from .catalog import Catalog
from .executor import ExecutionResult, TopKExecutor, materialize_layers
from .rebuild import RebuildManager
from .relation import Relation
from .schema import Attribute, Schema
from .snapshot import (
    SnapshotError,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from .sql import ParsedQuery, SqlError, parse

__all__ = [
    "Attribute",
    "Schema",
    "Relation",
    "Catalog",
    "ResultCache",
    "cached_query",
    "TopKExecutor",
    "ExecutionResult",
    "materialize_layers",
    "RebuildManager",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "snapshot_info",
    "parse",
    "ParsedQuery",
    "SqlError",
]
