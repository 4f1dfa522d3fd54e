"""Column and table schema definitions for the relational engine.

A :class:`TableSchema` is a declarative description of a table: ordered
columns, a primary key, unique constraints, and foreign keys.  The engine
(:mod:`repro.db.table`) enforces these constraints on every write, which is
what lets the CAR-CS data model (materials, ontology entries, many-to-many
mapping tables) rely on referential integrity exactly as the paper's
PostgreSQL schema did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from .errors import NotNullViolation, SchemaError

#: Sentinel for "no default value configured".
_NO_DEFAULT = object()


@dataclass(frozen=True)
class Column:
    """A single typed column.

    Parameters
    ----------
    name:
        Column name; must be unique within its table.
    type:
        Python type used for validation (``int``, ``str``, ``float``,
        ``bool``, ``tuple`` …).  Values must be instances of this type.
    nullable:
        Whether ``None`` is accepted.
    default:
        Value (or zero-argument callable producing a value) used when the
        column is omitted from an insert.
    """

    name: str
    type: type = object
    nullable: bool = False
    default: Any = _NO_DEFAULT

    def has_default(self) -> bool:
        return self.default is not _NO_DEFAULT

    def resolve_default(self) -> Any:
        value = self.default
        if callable(value):
            return value()
        return value

    def validate(self, value: Any) -> Any:
        """Check ``value`` against nullability and type; return it unchanged."""
        if value is None:
            if not self.nullable:
                raise NotNullViolation(
                    f"column {self.name!r} is not nullable"
                )
            return None
        if self.type is not object and not isinstance(value, self.type):
            # bool is an int subclass; keep them distinct so flags cannot
            # silently land in integer columns.
            if self.type is int and isinstance(value, bool):
                raise SchemaError(
                    f"column {self.name!r} expects int, got bool"
                )
            raise SchemaError(
                f"column {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}: {value!r}"
            )
        if self.type is int and isinstance(value, bool):
            raise SchemaError(f"column {self.name!r} expects int, got bool")
        return value


@dataclass(frozen=True)
class ForeignKey:
    """Declarative foreign key: ``column`` references ``ref_table.ref_column``.

    ``on_delete`` is one of ``"restrict"`` (default; deleting a referenced
    row raises) or ``"cascade"`` (referencing rows are deleted too).
    """

    column: str
    ref_table: str
    ref_column: str = "id"
    on_delete: str = "restrict"

    def __post_init__(self) -> None:
        if self.on_delete not in ("restrict", "cascade"):
            raise SchemaError(
                f"on_delete must be 'restrict' or 'cascade', got {self.on_delete!r}"
            )


@dataclass
class TableSchema:
    """Full declarative schema for one table."""

    name: str
    columns: Sequence[Column]
    primary_key: str = "id"
    unique: Sequence[tuple[str, ...]] = field(default_factory=tuple)
    foreign_keys: Sequence[ForeignKey] = field(default_factory=tuple)
    auto_increment: bool = True

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in table {self.name!r}")
        if self.primary_key not in names:
            raise SchemaError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )
        for group in self.unique:
            for col in group:
                if col not in names:
                    raise SchemaError(
                        f"unique constraint references unknown column {col!r}"
                    )
        for fk in self.foreign_keys:
            if fk.column not in names:
                raise SchemaError(
                    f"foreign key references unknown column {fk.column!r}"
                )
        self._by_name = {c.name: c for c in self.columns}

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name!r} has no column {name!r}") from None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]
