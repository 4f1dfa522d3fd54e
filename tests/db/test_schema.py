"""Column/TableSchema validation behaviour."""

import pytest

from repro.db import Column, ForeignKey, TableSchema
from repro.db.errors import NotNullViolation, SchemaError


class TestColumn:
    def test_validate_accepts_matching_type(self):
        col = Column("n", int)
        assert col.validate(5) == 5

    def test_validate_rejects_wrong_type(self):
        col = Column("n", int)
        with pytest.raises(SchemaError):
            col.validate("five")

    def test_validate_rejects_bool_for_int(self):
        # bool is an int subclass; must not silently pass
        col = Column("n", int)
        with pytest.raises(SchemaError):
            col.validate(True)

    def test_nullable_accepts_none(self):
        col = Column("n", int, nullable=True)
        assert col.validate(None) is None

    def test_non_nullable_rejects_none(self):
        col = Column("n", int)
        with pytest.raises(NotNullViolation):
            col.validate(None)

    def test_object_type_accepts_anything(self):
        col = Column("x", object)
        assert col.validate([1, 2]) == [1, 2]

    def test_default_value(self):
        col = Column("s", str, default="hi")
        assert col.has_default()
        assert col.resolve_default() == "hi"

    def test_callable_default(self):
        col = Column("s", str, default=lambda: "generated")
        assert col.resolve_default() == "generated"

    def test_no_default(self):
        assert not Column("s", str).has_default()


class TestTableSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            TableSchema("t", columns=(Column("a", int), Column("a", str)))

    def test_primary_key_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema("t", columns=(Column("a", int),), primary_key="id")

    def test_unique_references_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                columns=(Column("id", int),),
                unique=(("missing",),),
            )

    def test_fk_column_must_exist(self):
        with pytest.raises(SchemaError):
            TableSchema(
                "t",
                columns=(Column("id", int),),
                foreign_keys=(ForeignKey("missing", "other"),),
            )

    def test_column_lookup(self):
        schema = TableSchema("t", columns=(Column("id", int), Column("x", str)))
        assert schema.column("x").type is str
        with pytest.raises(SchemaError):
            schema.column("nope")

    def test_column_names_order(self):
        schema = TableSchema("t", columns=(Column("id", int), Column("b", str)))
        assert schema.column_names() == ["id", "b"]


class TestForeignKey:
    def test_valid_on_delete_modes(self):
        ForeignKey("x", "t", on_delete="restrict")
        ForeignKey("x", "t", on_delete="cascade")

    def test_invalid_on_delete_rejected(self):
        with pytest.raises(SchemaError):
            ForeignKey("x", "t", on_delete="set_null")
