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


def _right_of_by_find(links, left_id):
    """``right_of`` as it read before: one column of each ``find`` row."""
    return [
        row[links.right_column]
        for row in links.table.find(**{links.left_column: left_id})
    ]


class TestRightOf:
    """``right_of`` reads the left-column index and the stored rows; it
    must list exactly what the ``find``-based read lists, in its order,
    on live tables and on pins."""

    def _check(self, db, links, left_ids):
        for pid in left_ids:
            assert links.right_of(pid) == _right_of_by_find(links, pid)
            with db.pinned():
                assert links.right_of(pid) == _right_of_by_find(links, pid)

    def test_matches_find_live_and_pinned(self, db, links):
        posts = [db.insert("posts")["id"] for _ in range(3)]
        tags = [db.insert("tags")["id"] for _ in range(8)]
        for i, tid in enumerate(tags):
            links.add(posts[i % 3], tid)
            links.add(posts[0], tid)
        left_ids = posts + [999]
        self._check(db, links, left_ids)
        assert sorted(links.right_of(posts[0])) == tags
        assert links.right_of(999) == []

        links.remove(posts[0], tags[2])
        db.delete("tags", tags[4])          # cascades to its links
        db.delete("posts", posts[2])
        self._check(db, links, left_ids)
        assert tags[4] not in links.right_of(posts[1])

        before = {pid: links.right_of(pid) for pid in left_ids}
        with pytest.raises(RuntimeError):
            with db.transaction():
                db.delete("tags", tags[0])
                links.remove(posts[1], tags[1])
                self._check(db, links, left_ids)
                raise RuntimeError("abort")
        self._check(db, links, left_ids)
        assert {pid: sorted(links.right_of(pid)) for pid in left_ids} == {
            pid: sorted(ids) for pid, ids in before.items()
        }
