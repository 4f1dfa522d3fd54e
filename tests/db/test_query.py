"""Query-builder behaviour."""

import pytest

from repro.db import Column, Database, ForeignKey, TableSchema, query
from repro.db.errors import SchemaError


@pytest.fixture()
def db():
    db = Database()
    db.create_table(TableSchema(
        "books",
        columns=(
            Column("id", int),
            Column("title", str),
            Column("year", int, nullable=True, default=None),
            Column("genre", str, default="misc"),
        ),
    ))
    rows = [
        ("A", 2001, "scifi"), ("B", 1999, "scifi"), ("C", 2010, "history"),
        ("D", None, "history"), ("E", 2005, "misc"),
    ]
    for title, year, genre in rows:
        db.insert("books", title=title, year=year, genre=genre)
    return db


class TestFilters:
    def test_filter_equality(self, db):
        titles = [r["title"] for r in query(db, "books").filter(genre="scifi")]
        assert sorted(titles) == ["A", "B"]

    def test_where_predicate(self, db):
        hits = query(db, "books").where(
            lambda r: r["year"] is not None and r["year"] > 2000
        ).all()
        assert sorted(r["title"] for r in hits) == ["A", "C", "E"]

    def test_where_in(self, db):
        hits = query(db, "books").where_in("title", ["A", "D"]).all()
        assert sorted(r["title"] for r in hits) == ["A", "D"]

    def test_chained_filters_conjunction(self, db):
        hits = (
            query(db, "books")
            .filter(genre="scifi")
            .where(lambda r: r["year"] == 1999)
            .all()
        )
        assert [r["title"] for r in hits] == ["B"]

    def test_builder_is_immutable(self, db):
        base = query(db, "books")
        narrowed = base.filter(genre="scifi")
        assert base.count() == 5
        assert narrowed.count() == 2


class TestOrderingAndSlicing:
    def test_order_by_ascending(self, db):
        titles = [
            r["title"]
            for r in query(db, "books").where(lambda r: r["year"] is not None)
            .order_by("year")
        ]
        assert titles == ["B", "A", "E", "C"]

    def test_order_by_descending(self, db):
        years = query(db, "books").where(
            lambda r: r["year"] is not None
        ).order_by("year", descending=True).values("year")
        assert years == sorted(years, reverse=True)

    def test_none_sorts_last(self, db):
        titles = [r["title"] for r in query(db, "books").order_by("year")]
        assert titles[-1] == "D"

    def test_limit_offset(self, db):
        page = query(db, "books").order_by("title").offset(1).limit(2).all()
        assert [r["title"] for r in page] == ["B", "C"]

    @pytest.mark.parametrize("size", ["limit", "offset"])
    def test_negative_size_is_rejected(self, db, size):
        q = query(db, "books")
        with pytest.raises(ValueError, match=f"{size} must be >= 0, got -1"):
            getattr(q, size)(-1)
        assert getattr(q, size)(0).count() == (0 if size == "limit" else 5)

    def test_first_and_exists(self, db):
        assert query(db, "books").filter(genre="misc").first()["title"] == "E"
        assert query(db, "books").filter(genre="nope").first() is None
        assert query(db, "books").filter(genre="misc").exists()
        assert not query(db, "books").filter(genre="nope").exists()


class TestProjectionAggregation:
    def test_select_projects_columns(self, db):
        rows = query(db, "books").select("title").limit(1).all()
        assert set(rows[0].keys()) == {"title"}

    def test_select_unknown_column(self, db):
        with pytest.raises(SchemaError):
            query(db, "books").select("bogus").all()

    def test_group_count(self, db):
        counts = query(db, "books").group_count("genre")
        assert counts == {"scifi": 2, "history": 2, "misc": 1}

    def test_aggregate(self, db):
        total = sum(query(db, "books").where(
            lambda r: r["year"] is not None
        ).values("year"))
        assert total == 2001 + 1999 + 2010 + 2005

    def test_values(self, db):
        assert sorted(query(db, "books").values("title")) == list("ABCDE")

    def test_unknown_table(self, db):
        with pytest.raises(SchemaError):
            query(db, "nope")


class TestJoin:
    def test_join_via_link_table(self, db):
        db.create_table(TableSchema("authors", columns=(Column("id", int), Column("name", str))))
        db.create_table(TableSchema(
            "book_authors",
            columns=(Column("id", int), Column("books_id", int), Column("authors_id", int)),
            foreign_keys=(
                ForeignKey("books_id", "books"),
                ForeignKey("authors_id", "authors"),
            ),
        ))
        a1 = db.insert("authors", name="Ann")["id"]
        a2 = db.insert("authors", name="Bob")["id"]
        db.insert("book_authors", books_id=1, authors_id=a1)
        db.insert("book_authors", books_id=2, authors_id=a1)
        db.insert("book_authors", books_id=3, authors_id=a2)
        authors = query(db, "books").filter(genre="scifi").join_via(
            "book_authors",
            local_column="books_id",
            remote_column="authors_id",
            remote_table="authors",
        )
        assert [a["name"] for a in authors] == ["Ann"]
