"""ClassificationSet algebra and validation."""

import pytest

from repro.core.classification import (
    ClassificationItem,
    ClassificationSet,
    expand_to_ancestors,
    validate_against,
)
from repro.core.ontology import BloomLevel, NodeKind, Ontology


@pytest.fixture()
def onto():
    o = Ontology("T")
    o.add("T/A", "A", NodeKind.AREA)
    o.add("T/A/u", "u", NodeKind.UNIT, "T/A")
    o.add("T/A/u/t", "t", NodeKind.TOPIC, "T/A/u")
    o.add("T/A/u/t2", "t2", NodeKind.TOPIC, "T/A/u")
    o.validate()
    return o


class TestBasics:
    def test_add_and_has(self):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t")
        assert cs.has("T", "T/A/u/t")
        assert not cs.has("T", "T/A")
        assert len(cs) == 1
        assert bool(cs)

    def test_empty_set_is_falsy(self):
        assert not ClassificationSet()

    def test_add_with_bloom(self):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t", BloomLevel.APPLY)
        assert cs.bloom("T", "T/A/u/t") is BloomLevel.APPLY

    def test_re_add_overwrites_bloom(self):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t", BloomLevel.KNOW)
        cs.add("T", "T/A/u/t", BloomLevel.APPLY)
        assert len(cs) == 1
        assert cs.bloom("T", "T/A/u/t") is BloomLevel.APPLY

    def test_remove(self):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t")
        assert cs.remove("T", "T/A/u/t") is True
        assert cs.remove("T", "T/A/u/t") is False
        assert len(cs) == 0
        assert cs.ontologies() == []

    def test_items_sorted_and_round_trip(self):
        cs = ClassificationSet()
        cs.add("B", "B/x")
        cs.add("A", "A/y", BloomLevel.USAGE)
        items = cs.items()
        assert [i.ontology for i in items] == ["A", "B"]
        rebuilt = ClassificationSet()
        for item in items:
            rebuilt.add(item.ontology, item.key, item.bloom)
        assert rebuilt.items() == items

    def test_item_str(self):
        assert str(ClassificationItem("T", "T/x")) == "T/x"
        assert str(ClassificationItem("T", "T/x", BloomLevel.APPLY)) == "T/x @apply"

    def test_keys_per_ontology(self):
        cs = ClassificationSet()
        cs.add("A", "A/1")
        cs.add("B", "B/1")
        assert cs.keys("A") == frozenset({"A/1"})
        assert cs.keys("C") == frozenset()


class TestSetAlgebra:
    def test_shared_with(self):
        a, b = ClassificationSet(), ClassificationSet()
        a.add("T", "T/x"); a.add("T", "T/y")
        b.add("T", "T/y"); b.add("T", "T/z")
        assert a.shared_with(b, "T") == frozenset({"T/y"})

    def test_shared_count_across_ontologies(self):
        a, b = ClassificationSet(), ClassificationSet()
        a.add("T", "T/x"); a.add("U", "U/x")
        b.add("T", "T/x"); b.add("U", "U/x"); b.add("U", "U/y")
        assert a.shared_count(b) == 2

    def test_jaccard(self):
        a, b = ClassificationSet(), ClassificationSet()
        a.add("T", "T/x"); a.add("T", "T/y")
        b.add("T", "T/y"); b.add("T", "T/z")
        assert a.jaccard(b) == pytest.approx(1 / 3)

    def test_jaccard_of_empty_sets(self):
        assert ClassificationSet().jaccard(ClassificationSet()) == 0.0

    def test_jaccard_symmetry(self):
        a, b = ClassificationSet(), ClassificationSet()
        a.add("T", "T/x")
        b.add("T", "T/x"); b.add("T", "T/y")
        assert a.jaccard(b) == b.jaccard(a)


class TestValidation:
    def test_valid_set(self, onto):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t")
        assert validate_against(cs, {"T": onto}) == []

    def test_unknown_ontology(self, onto):
        cs = ClassificationSet()
        cs.add("X", "X/whatever")
        problems = validate_against(cs, {"T": onto})
        assert any("unknown ontology" in p for p in problems)

    def test_unknown_key(self, onto):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/ghost")
        problems = validate_against(cs, {"T": onto})
        assert any("unknown entry" in p for p in problems)


class TestAncestorExpansion:
    def test_expansion_adds_unit_and_area(self, onto):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t", BloomLevel.APPLY)
        expanded = expand_to_ancestors(cs, {"T": onto})
        assert expanded.keys("T") == frozenset({"T/A/u/t", "T/A/u", "T/A"})
        # original bloom preserved on the leaf, ancestors carry none
        assert expanded.bloom("T", "T/A/u/t") is BloomLevel.APPLY
        assert expanded.bloom("T", "T/A") is None

    def test_expansion_does_not_duplicate(self, onto):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t")
        cs.add("T", "T/A/u/t2")
        expanded = expand_to_ancestors(cs, {"T": onto})
        assert len(expanded.keys("T")) == 4

    def test_original_set_untouched(self, onto):
        cs = ClassificationSet()
        cs.add("T", "T/A/u/t")
        expand_to_ancestors(cs, {"T": onto})
        assert len(cs) == 1
