"""In-process relational engine — the storage substrate for CAR-CS.

Replaces the paper's Django + PostgreSQL stack with a dependency-free
relational store: typed schemas, primary/unique/foreign-key constraints,
hash indexes, many-to-many link tables, lazy queries, transactions,
MVCC snapshot reads (:meth:`Database.pinned`) and write-ahead-log
durability (:meth:`Database.open` / ``checkpoint``).
"""

from .engine import Change, Database
from .errors import (
    DatabaseError,
    ForeignKeyError,
    IntegrityError,
    NotNullViolation,
    RecoveryError,
    RowNotFound,
    SchemaError,
    TransactionError,
    UniqueViolation,
)
from .plan import PlanNode, QuerySpec, RangeBound, build_plan, render_plan
from .query import Query, query
from .relations import ManyToMany
from .schema import Column, ForeignKey, TableSchema
from .snapshot import (
    Snapshot,
    TableSnapshot,
    current_pin,
    database_to_dict,
    restore_database,
)
from .pager import BlockCache, BlockFileWriter, PagedRows
from .table import SortedIndex, Table
from .wal import WalReader, WalWriter, read_wal, truncate_wal

__all__ = [
    "BlockCache",
    "BlockFileWriter",
    "Change",
    "Column",
    "Database",
    "DatabaseError",
    "ForeignKey",
    "ForeignKeyError",
    "IntegrityError",
    "ManyToMany",
    "NotNullViolation",
    "PagedRows",
    "PlanNode",
    "Query",
    "QuerySpec",
    "RangeBound",
    "RecoveryError",
    "RowNotFound",
    "SchemaError",
    "Snapshot",
    "SortedIndex",
    "Table",
    "TableSchema",
    "TableSnapshot",
    "TransactionError",
    "UniqueViolation",
    "WalReader",
    "WalWriter",
    "build_plan",
    "current_pin",
    "database_to_dict",
    "query",
    "read_wal",
    "render_plan",
    "restore_database",
    "truncate_wal",
]
