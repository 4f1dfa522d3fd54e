"""Property-based tests of the relational engine (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema
from repro.db.errors import UniqueViolation

names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8,
)


def fresh_table_db() -> Database:
    db = Database()
    db.create_table(TableSchema(
        "items",
        columns=(Column("id", int), Column("name", str), Column("v", int, default=0)),
        unique=(("name",),),
    ))
    return db


@given(st.lists(names, min_size=1, max_size=30))
def test_insert_count_matches_distinct_names(batch):
    """Inserting a batch with a unique column keeps exactly the distinct
    values, regardless of duplicate ordering."""
    db = fresh_table_db()
    for name in batch:
        try:
            db.insert("items", name=name)
        except UniqueViolation:
            pass
    assert len(db.table("items")) == len(set(batch))
    assert sorted(row["name"] for row in db.table("items")) == sorted(set(batch))


@given(st.lists(st.tuples(names, st.integers(-100, 100)), min_size=1, max_size=25))
def test_find_equals_bruteforce_scan(pairs):
    """Indexed find must agree with a brute-force scan for any data."""
    db = fresh_table_db()
    inserted = {}
    for name, v in pairs:
        if name not in inserted:
            db.insert("items", name=name, v=v)
            inserted[name] = v
    table = db.table("items")
    table.create_index("v")
    for probe in {v for _, v in pairs} | {0, 1}:
        via_index = sorted(r["name"] for r in table.find(v=probe))
        brute = sorted(name for name, v in inserted.items() if v == probe)
        assert via_index == brute


@given(
    st.lists(names, min_size=1, max_size=15, unique=True),
    st.data(),
)
def test_delete_then_reinsert_is_clean(batch, data):
    """After deleting any subset, the unique values become reusable and
    counts stay consistent."""
    db = fresh_table_db()
    ids = {}
    for name in batch:
        ids[name] = db.insert("items", name=name)["id"]
    to_delete = data.draw(st.lists(st.sampled_from(batch), unique=True))
    for name in to_delete:
        db.delete("items", ids[name])
    assert len(db.table("items")) == len(batch) - len(to_delete)
    for name in to_delete:
        db.insert("items", name=name)  # must not raise
    assert len(db.table("items")) == len(batch)


@given(st.lists(names, min_size=1, max_size=20, unique=True), st.integers(0, 19))
def test_transaction_rollback_restores_exact_state(batch, split_at):
    """Whatever happens inside an aborted transaction, the table afterwards
    equals the table before, row for row."""
    db = fresh_table_db()
    split_at = min(split_at, len(batch))
    for name in batch[:split_at]:
        db.insert("items", name=name)
    before = sorted(
        (r["id"], r["name"]) for r in db.table("items").find()
    )
    with pytest.raises(RuntimeError):
        with db.transaction():
            for name in batch[split_at:]:
                db.insert("items", name=name)
            if batch[:split_at]:
                db.delete("items", before[0][0])
            raise RuntimeError
    after = sorted((r["id"], r["name"]) for r in db.table("items").find())
    assert after == before


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(names, st.integers(-5, 5)), min_size=1, max_size=12),
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "update", "delete"]),
            names,
            st.integers(-5, 5),
            st.integers(0, 11),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_aborted_mutations_preserve_index_invariants(seed_rows, tx_ops):
    """Any aborted mutation sequence leaves secondary indexes, unique
    constraints, versions and the id counter exactly as they were.

    Regression for the snapshot-era engine, whose rollback restored rows
    but not index state touched inside the aborted transaction.
    """
    db = fresh_table_db()
    rows = {}
    seen_names = set()
    for name, v in seed_rows:
        if name not in seen_names:
            seen_names.add(name)
            rows[db.insert("items", name=name, v=v)["id"]] = name
    table = db.table("items")
    table.create_index("v")

    before_rows = sorted((r["id"], r["name"], r["v"]) for r in table.find())
    before_version = (db.version, table.version)
    before_by_v = {
        v: sorted(r["id"] for r in table.find(v=v)) for v in range(-5, 6)
    }

    ids = sorted(rows)
    with pytest.raises(RuntimeError):
        with db.transaction():
            for op, name, v, pick in tx_ops:
                try:
                    if op == "insert":
                        db.insert("items", name=name, v=v)
                    elif op == "update" and ids:
                        db.update("items", ids[pick % len(ids)], v=v)
                    elif op == "delete" and ids:
                        db.delete("items", ids[pick % len(ids)])
                        ids = [i for i in ids if i != ids[pick % len(ids)]]
                except UniqueViolation:
                    pass
            raise RuntimeError

    # Rows, versions, and the indexed view all match the pre-tx state.
    assert sorted((r["id"], r["name"], r["v"]) for r in table.find()) == before_rows
    assert (db.version, table.version) == before_version
    for v in range(-5, 6):
        via_index = sorted(r["id"] for r in table.find(v=v))
        assert via_index == before_by_v[v]
        brute = sorted(rid for rid, name, rv in before_rows if rv == v)
        assert via_index == brute

    # Unique names deleted in the aborted tx are NOT reusable (the rows
    # are back); names inserted in the aborted tx ARE reusable.
    tx_inserted = {
        name for op, name, _, _ in tx_ops if op == "insert"
    } - {name for _, name, _ in before_rows}
    for name in tx_inserted:
        db.insert("items", name=name)  # must not raise
    # And fresh inserts resume from the pre-transaction id counter.
    existing = {rid for rid, _, _ in before_rows}
    new_id = db.insert("items", name="zz-post-rollback")["id"]
    assert new_id not in existing


@settings(max_examples=30)
@given(st.lists(st.tuples(names, st.integers(0, 5)), min_size=1, max_size=30))
def test_group_count_sums_to_total(pairs):
    db = fresh_table_db()
    seen = set()
    for name, v in pairs:
        if name in seen:
            continue
        seen.add(name)
        db.insert("items", name=name, v=v)
    from repro.db import query

    counts = query(db, "items").group_count("v")
    assert sum(counts.values()) == len(seen)
