"""ManyToMany link-table behaviour."""

import pytest

from repro.db import Column, Database, ManyToMany, TableSchema


@pytest.fixture()
def db():
    db = Database()
    db.create_table(TableSchema("posts", columns=(Column("id", int), Column("t", str, default="")),))
    db.create_table(TableSchema("tags", columns=(Column("id", int), Column("n", str, default="")),))
    return db


@pytest.fixture()
def links(db):
    return ManyToMany(db, "post_tags", "posts", "tags")


def add_pair(db):
    p = db.insert("posts", t="p")
    t = db.insert("tags", n="t")
    return p["id"], t["id"]


class TestAddRemove:
    def test_add_links_pair(self, db, links):
        pid, tid = add_pair(db)
        links.add(pid, tid)
        assert links.has(pid, tid)
        assert links.right_of(pid) == [tid]

    def test_add_is_idempotent(self, db, links):
        pid, tid = add_pair(db)
        first = links.add(pid, tid)
        second = links.add(pid, tid)
        assert first["id"] == second["id"]
        assert len(links) == 1

    def test_add_requires_existing_endpoints(self, db, links):
        from repro.db.errors import ForeignKeyError
        with pytest.raises(ForeignKeyError):
            links.add(1, 999)

    def test_remove(self, db, links):
        pid, tid = add_pair(db)
        links.add(pid, tid)
        assert links.remove(pid, tid) is True
        assert not links.has(pid, tid)
        assert links.remove(pid, tid) is False



class TestCascade:
    def test_deleting_left_endpoint_cascades(self, db, links):
        pid, tid = add_pair(db)
        links.add(pid, tid)
        db.delete("posts", pid)
        assert len(links) == 0
        # the tag survives
        assert len(db.table("tags")) == 1

    def test_deleting_right_endpoint_cascades(self, db, links):
        pid, tid = add_pair(db)
        links.add(pid, tid)
        db.delete("tags", tid)
        assert len(links) == 0
        assert len(db.table("posts")) == 1


class TestExtras:
    def test_extra_columns_stored(self, db):
        links = ManyToMany(
            db, "weighted", "posts", "tags",
            extra_columns=(Column("weight", int, default=0),),
        )
        pid, tid = add_pair(db)
        links.add(pid, tid, weight=5)
        assert links.links_of(pid)[0]["weight"] == 5

    def test_pairs(self, db, links):
        pid, tid = add_pair(db)
        pid2 = db.insert("posts")["id"]
        links.add(pid, tid)
        links.add(pid2, tid)
        assert sorted(links.pairs()) == [(pid, tid), (pid2, tid)]
