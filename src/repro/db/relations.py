"""Many-to-many relations over link tables.

The CAR-CS schema associates "tags, items in the classification, dataset
used, and authors ... with an assignment using a many-to-many relationship"
(paper, Section III-B).  :class:`ManyToMany` wraps the link-table idiom:
it creates the table with composite uniqueness, cascading deletes from both
endpoints, and indexed traversal in both directions.
"""

from __future__ import annotations

from typing import Any

from .engine import Database
from .errors import UniqueViolation
from .schema import Column, ForeignKey, TableSchema


class ManyToMany:
    """A bidirectional many-to-many relation between two tables.

    Example::

        links = ManyToMany(db, "material_tags", "materials", "tags")
        links.add(material_id, tag_id)
        links.right_of(material_id)   # -> [tag_id, ...]
    """

    def __init__(
        self,
        db: Database,
        name: str,
        left_table: str,
        right_table: str,
        *,
        left_column: str | None = None,
        right_column: str | None = None,
        extra_columns: tuple[Column, ...] = (),
    ) -> None:
        self.db = db
        self.name = name
        self.left_column = left_column or f"{left_table}_id"
        self.right_column = right_column or f"{right_table}_id"
        schema = TableSchema(
            name=name,
            columns=(
                Column("id", int),
                Column(self.left_column, int),
                Column(self.right_column, int),
                *extra_columns,
            ),
            unique=((self.left_column, self.right_column),),
            foreign_keys=(
                ForeignKey(self.left_column, left_table, on_delete="cascade"),
                ForeignKey(self.right_column, right_table, on_delete="cascade"),
            ),
        )
        # Reattaching to a restored/recovered database finds the link
        # table already present; creating is the fresh-schema path.
        if name not in db:
            db.create_table(schema)
        table = db.table(name)
        table.create_index(self.left_column)
        table.create_index(self.right_column)

    @property
    def table(self):
        """The link table — pin-aware, so reads inside a pinned snapshot
        scope resolve against that snapshot, not live state."""
        return self.db.table(self.name)

    # -- writes ---------------------------------------------------------------

    def add(self, left_id: int, right_id: int, **extra: Any) -> dict[str, Any]:
        """Link the pair; idempotent (re-adding returns the existing link)."""
        try:
            return self.db.insert(
                self.name,
                **{self.left_column: left_id, self.right_column: right_id},
                **extra,
            )
        except UniqueViolation:
            existing = self._link(left_id, right_id)
            assert existing is not None
            return existing

    def remove(self, left_id: int, right_id: int) -> bool:
        """Unlink the pair; returns whether a link existed."""
        row = self._link(left_id, right_id)
        if row is None:
            return False
        self.db.delete(self.name, row["id"])
        return True

    # -- reads ------------------------------------------------------------------

    def _link(self, left_id: int, right_id: int) -> dict[str, Any] | None:
        """The pair's link row, read off the left-column bucket alone
        (the one the unique check on the pair probes too).
        ``find_one`` on both columns would build the right-column
        bucket cold to pick the smaller one, and every later publish
        would then keep it up."""
        table = self.table
        for pk in table.eq_pks(self.left_column, left_id):
            row = table.row(pk)
            if row[self.right_column] == right_id:
                return dict(row)
        return None

    def has(self, left_id: int, right_id: int) -> bool:
        return self._link(left_id, right_id) is not None

    def right_of(self, left_id: int) -> list[int]:
        """Right ids linked to ``left_id``, in the order ``find`` yields
        their rows, read straight off the left-column index."""
        table, right = self.table, self.right_column
        return [table.row(pk)[right]
                for pk in table.eq_pks(self.left_column, left_id)]

    def links_of(self, left_id: int) -> list[dict[str, Any]]:
        """Full link rows (including extra columns) for ``left_id``."""
        return self.table.find(**{self.left_column: left_id})

    def pairs(self) -> list[tuple[int, int]]:
        return [
            (row[self.left_column], row[self.right_column]) for row in self.table
        ]

    def __len__(self) -> int:
        return len(self.table)
