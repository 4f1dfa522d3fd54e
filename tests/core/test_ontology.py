"""Ontology tree structure and traversal."""

from collections import Counter

import pytest

from repro.core.ontology import BloomLevel, NodeKind, Ontology, Tier


@pytest.fixture()
def small():
    onto = Ontology("T", "test ontology")
    onto.add("T/A", "Area A", NodeKind.AREA, code="A")
    onto.add("T/B", "Area B", NodeKind.AREA, code="B")
    onto.add("T/A/u1", "Unit one", NodeKind.UNIT, "T/A", tier=Tier.CORE1)
    onto.add("T/A/u1/t1", "Topic alpha", NodeKind.TOPIC, "T/A/u1",
             bloom=BloomLevel.APPLY)
    onto.add("T/A/u1/t2", "Topic beta", NodeKind.TOPIC, "T/A/u1")
    onto.add("T/A/u1/o1", "Explain alpha", NodeKind.LEARNING_OUTCOME,
             "T/A/u1", bloom=BloomLevel.FAMILIARITY)
    onto.add("T/B/u1", "Unit two", NodeKind.UNIT, "T/B")
    onto.validate()
    return onto


class TestConstruction:
    def test_len_excludes_root(self, small):
        assert len(small) == 7

    def test_duplicate_key_rejected(self, small):
        with pytest.raises(ValueError):
            small.add("T/A", "again", NodeKind.AREA)

    def test_unknown_parent_rejected(self, small):
        with pytest.raises(KeyError):
            small.add("T/X/y", "y", NodeKind.TOPIC, "T/X")

    def test_default_parent_is_root(self):
        onto = Ontology("T")
        node = onto.add("T/A", "A", NodeKind.AREA)
        assert node.parent == "T"

    def test_validate_detects_parent_child_mismatch(self, small):
        small._nodes["T/A/u1"].parent = "T/B"
        with pytest.raises(ValueError):
            small.validate()

    def test_validate_detects_unknown_child(self, small):
        small._nodes["T/A"].children.append("T/ghost")
        with pytest.raises(ValueError):
            small.validate()

    def test_validate_detects_bad_cross_link(self, small):
        object.__setattr__  # noqa: B018 - dataclass not frozen; direct set ok
        small._nodes["T/A/u1/t1"].cross_links = ("T/nonexistent",)
        with pytest.raises(ValueError):
            small.validate()

    def test_cross_links_resolve(self):
        onto = Ontology("T")
        onto.add("T/A", "A", NodeKind.AREA)
        onto.add("T/B", "B", NodeKind.AREA)
        onto.add("T/B/x", "x", NodeKind.TOPIC, "T/B", cross_links=("T/A",))
        onto.validate()


class TestLookups:
    def test_node_and_get(self, small):
        assert small.node("T/A/u1/t1").label == "Topic alpha"
        assert small.get("T/none") is None
        with pytest.raises(KeyError):
            small.node("T/none")

    def test_contains(self, small):
        assert "T/A" in small
        assert "T/zzz" not in small

    def test_children(self, small):
        labels = [n.label for n in small.children("T/A/u1")]
        assert labels == ["Topic alpha", "Topic beta", "Explain alpha"]

    def test_parent(self, small):
        assert small.parent("T/A/u1").key == "T/A"
        assert small.parent("T").is_leaf() is False if small.parent("T") else True

    def test_areas(self, small):
        assert [a.code for a in small.areas()] == ["A", "B"]


class TestTraversal:
    def test_walk_preorder(self, small):
        keys = [n.key for n in small.walk()]
        assert keys[0] == "T"
        assert keys.index("T/A") < keys.index("T/A/u1") < keys.index("T/A/u1/t1")
        assert keys.index("T/A/u1/t2") < keys.index("T/B")

    def test_walk_subtree(self, small):
        keys = set(small.subtree_keys("T/A"))
        assert keys == {"T/A", "T/A/u1", "T/A/u1/t1", "T/A/u1/t2", "T/A/u1/o1"}

    def test_ancestors(self, small):
        keys = [n.key for n in small.ancestors("T/A/u1/t1")]
        assert keys == ["T/A/u1", "T/A", "T"]

    def test_path_and_path_string(self, small):
        assert [n.key for n in small.path("T/A/u1/t1")] == [
            "T", "T/A", "T/A/u1", "T/A/u1/t1"
        ]
        assert small.path_string("T/A/u1/t1") == "Area A::Unit one::Topic alpha"

    def test_depth(self, small):
        assert small.depth("T") == 0
        assert small.depth("T/A") == 1
        assert small.depth("T/A/u1/t1") == 3

    def test_area_of(self, small):
        assert small.area_of("T/A/u1/t1").key == "T/A"
        assert small.area_of("T/A").key == "T/A"
        assert small.area_of("T") is None

    def test_leaves(self, small):
        leaf_keys = {n.key for n in small.leaves()}
        assert leaf_keys == {"T/A/u1/t1", "T/A/u1/t2", "T/A/u1/o1", "T/B/u1"}

    def test_nodes_excludes_root(self, small):
        assert all(n.kind is not NodeKind.ROOT for n in small.nodes())
        assert len(small.nodes()) == len(small)


class TestSearch:
    def test_substring_case_insensitive(self, small):
        assert [n.key for n in small.search("ALPHA")] == [
            "T/A/u1/t1", "T/A/u1/o1"
        ]

    def test_kind_filter(self, small):
        hits = small.search("alpha", kinds=[NodeKind.TOPIC])
        assert [n.key for n in hits] == ["T/A/u1/t1"]

    def test_limit(self, small):
        assert len(small.search("a", limit=2)) == 2

    def test_empty_phrase(self, small):
        assert small.search("   ") == []

    def test_count_by_kind(self, small):
        counts = Counter(node.kind for node in small.nodes())
        assert counts[NodeKind.AREA] == 2
        assert counts[NodeKind.TOPIC] == 2
        assert counts[NodeKind.LEARNING_OUTCOME] == 1


class TestBloomLevels:
    def test_rank_ordering_pdc_scale(self):
        assert (
            BloomLevel.KNOW.rank()
            < BloomLevel.COMPREHEND.rank()
            < BloomLevel.APPLY.rank()
        )

    def test_rank_ordering_cs13_scale(self):
        assert (
            BloomLevel.FAMILIARITY.rank()
            < BloomLevel.USAGE.rank()
            < BloomLevel.ASSESSMENT.rank()
        )

    def test_scales_are_comparable(self):
        assert BloomLevel.KNOW.rank() == BloomLevel.FAMILIARITY.rank()
        assert BloomLevel.APPLY.rank() == BloomLevel.ASSESSMENT.rank()
