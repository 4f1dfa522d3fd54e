"""ACM CS2013 ontology fidelity checks."""

import pytest

from repro.core.ontology import BloomLevel, NodeKind, Tier
from repro.ontologies.cs2013 import topic_key, unit_key


class TestScale:
    def test_about_3000_entries(self, cs13):
        # "the CS13 classification contains about 3000 entries" (IV-A)
        assert 2700 <= len(cs13) <= 3400

    def test_eighteen_knowledge_areas(self, cs13):
        assert len(cs13.areas()) == 18

    def test_real_area_codes(self, cs13):
        codes = {a.code for a in cs13.areas()}
        assert codes == {
            "AL", "AR", "CN", "DS", "GV", "HCI", "IAS", "IM", "IS", "NC",
            "OS", "PBD", "PD", "PL", "SDF", "SE", "SF", "SP",
        }

    def test_163_knowledge_units(self, cs13):
        # the real CS2013 body of knowledge has 163 KUs
        units = [n for n in cs13.nodes() if n.kind is NodeKind.UNIT]
        assert len(units) == 163

    def test_every_unit_has_topics_and_outcomes(self, cs13):
        for area in cs13.areas():
            for unit in cs13.children(area.key):
                kinds = {n.kind for n in cs13.children(unit.key)}
                assert NodeKind.TOPIC in kinds, unit.key
                assert NodeKind.LEARNING_OUTCOME in kinds, unit.key


class TestStructure:
    def test_parallelism_in_three_places(self, cs13):
        """IV-A: "parallelism related topics appear in three different
        places: System Fundamental, Computational Science::Processing,
        and in Parallel and Distributed Computing"."""
        hits = cs13.search("parallel", kinds=[NodeKind.TOPIC])
        areas = {cs13.area_of(n.key).code for n in hits}
        assert {"SF", "CN", "PD"} <= areas

    def test_task_based_decompositions_entry_exists(self, cs13):
        # IV-A: "CS13 has an entry for Task-Based Decompositions"
        hits = cs13.search("task-based decompositions")
        assert hits
        assert cs13.area_of(hits[0].key).code == "PD"

    def test_runtime_systems_under_programming_languages(self, cs13):
        # IV-A: "Runtime systems appear under Programming Languages in CS13"
        key = unit_key("PL", "Runtime Systems")
        assert cs13.area_of(key).code == "PL"

    def test_numerical_integration_under_cn(self, cs13):
        key = topic_key(
            "CN", "Numerical Analysis",
            "Numerical differentiation and integration",
        )
        node = cs13.node(key)
        assert node.kind is NodeKind.TOPIC
        assert cs13.path_string(key).startswith("Computational Science")

    def test_arrays_in_fundamental_data_structures(self, cs13):
        key = topic_key("SDF", "Fundamental Data Structures", "Arrays")
        assert "Fundamental Data Structures" in cs13.path_string(key)

    def test_unit_tier_structure(self, cs13):
        # SDF units are all core-1; PD has core-1, core-2 and elective units
        for unit in cs13.children("CS13/SDF"):
            assert unit.tier is Tier.CORE1
        pd_tiers = {u.tier for u in cs13.children("CS13/PD")}
        assert {Tier.CORE1, Tier.CORE2, Tier.ELECTIVE} <= pd_tiers

    def test_outcomes_carry_cs13_levels(self, cs13):
        levels = {
            n.bloom
            for n in cs13.nodes()
            if n.kind is NodeKind.LEARNING_OUTCOME
        }
        assert levels == {
            BloomLevel.FAMILIARITY, BloomLevel.USAGE, BloomLevel.ASSESSMENT
        }

    def test_build_is_deterministic(self):
        from repro.ontologies.cs2013 import build
        a, b = build(), build()
        assert len(a) == len(b)
        for na, nb in zip(a.nodes(), b.nodes()):
            assert na.key == nb.key and na.label == nb.label


class TestKeyResolution:
    def test_topic_key_round_trips(self, cs13):
        key = topic_key("SDF", "Fundamental Programming Concepts",
                        "Conditional and iterative control structures")
        assert cs13.node(key).label == (
            "Conditional and iterative control structures"
        )

    def test_topic_key_unknown_area(self):
        with pytest.raises(KeyError):
            topic_key("XX", "Nope", "Nope")

    def test_topic_key_unknown_unit(self):
        with pytest.raises(KeyError):
            topic_key("SDF", "Not A Unit", "Arrays")

    def test_topic_key_unknown_topic(self):
        with pytest.raises(KeyError):
            topic_key("SDF", "Fundamental Data Structures", "Quantum Arrays")

    def test_topic_key_on_generated_unit(self):
        with pytest.raises(KeyError):
            topic_key("PBD", "Web Platforms", "anything")

    def test_unit_key_resolves(self, cs13):
        key = unit_key("PD", "Parallel Decomposition")
        assert cs13.node(key).label == "Parallel Decomposition"

    def test_validate_passes(self, cs13):
        cs13.validate()
