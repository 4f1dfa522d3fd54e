"""Repository facade: CRUD, classification links, roles, curation."""

import threading

import pytest

from repro.core.classification import ClassificationSet
from repro.core.material import Material, MaterialKind
from repro.core.ontology import BloomLevel
from repro.core.repository import PermissionError_, Role, SubmissionStatus
from repro.corpus import keys as K
from repro.db import Database


def simple_material(**overrides):
    defaults = dict(
        title="Sorting lab",
        description="Implement quicksort",
        authors=("Ada", "Bob"),
        tags=("sorting",),
        languages=("Python",),
        datasets=("numbers",),
        collection="demo",
        year=2018,
    )
    defaults.update(overrides)
    return Material(**defaults)


class TestMaterialCrud:
    def test_add_assigns_id(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        assert stored.id == 1

    def test_round_trip_preserves_relations(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        fetched = fresh_repo.get_material(stored.id)
        assert fetched.authors == ("Ada", "Bob")
        assert fetched.tags == ("sorting",)
        assert fetched.languages == ("Python",)
        assert fetched.datasets == ("numbers",)
        assert fetched.collection == "demo"
        assert fetched.year == 2018

    def test_named_entities_are_shared(self, fresh_repo):
        fresh_repo.add_material(simple_material(title="A"))
        fresh_repo.add_material(simple_material(title="B"))
        assert len(fresh_repo.db.table("authors")) == 2  # Ada, Bob once each

    def test_materials_by_collection(self, fresh_repo):
        fresh_repo.add_material(simple_material(title="A"))
        fresh_repo.add_material(simple_material(title="B", collection="other"))
        assert [m.title for m in fresh_repo.materials("demo")] == ["A"]
        assert fresh_repo.material_count("demo") == 1
        assert fresh_repo.material_count() == 2
        assert fresh_repo.collections() == ["demo", "other"]

    def test_update_material(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        updated = fresh_repo.update_material(stored.id, title="Renamed")
        assert updated.title == "Renamed"

    def test_update_rejects_unknown_fields(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        with pytest.raises(ValueError):
            fresh_repo.update_material(stored.id, kind="exam")

    def test_delete_material_cascades_links(self, fresh_repo):
        cs = ClassificationSet()
        cs.add("CS13", K.SDF_ARRAYS)
        stored = fresh_repo.add_material(simple_material(), cs)
        fresh_repo.delete_material(stored.id)
        assert fresh_repo.material_count() == 0
        assert len(fresh_repo.material_classifications) == 0


class TestClassification:
    def test_classify_and_read_back(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        fresh_repo.classify(stored.id, "CS13", K.SDF_ARRAYS, bloom=BloomLevel.USAGE)
        cs = fresh_repo.classification_of(stored.id)
        assert cs.has("CS13", K.SDF_ARRAYS)
        assert cs.bloom("CS13", K.SDF_ARRAYS) is BloomLevel.USAGE

    def test_classify_unknown_key(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        with pytest.raises(KeyError):
            fresh_repo.classify(stored.id, "CS13", "CS13/NOPE")

    def test_classify_unknown_ontology(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        with pytest.raises(KeyError):
            fresh_repo.classify(stored.id, "XX", "XX/a")

    def test_classify_is_idempotent(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        fresh_repo.classify(stored.id, "CS13", K.SDF_ARRAYS)
        fresh_repo.classify(stored.id, "CS13", K.SDF_ARRAYS)
        assert len(fresh_repo.classification_of(stored.id)) == 1

    def test_declassify(self, fresh_repo):
        stored = fresh_repo.add_material(simple_material())
        fresh_repo.classify(stored.id, "CS13", K.SDF_ARRAYS)
        assert fresh_repo.declassify(stored.id, K.SDF_ARRAYS) is True
        assert fresh_repo.declassify(stored.id, K.SDF_ARRAYS) is False
        assert len(fresh_repo.classification_of(stored.id)) == 0

    def test_add_material_with_invalid_classification_rolls_back(self, fresh_repo):
        cs = ClassificationSet()
        cs.add("CS13", "CS13/NOT/REAL")
        with pytest.raises(ValueError):
            fresh_repo.add_material(simple_material(), cs)
        assert fresh_repo.material_count() == 0

    def test_materials_with(self, fresh_repo):
        cs = ClassificationSet()
        cs.add("CS13", K.SDF_ARRAYS)
        a = fresh_repo.add_material(simple_material(title="A"), cs)
        fresh_repo.add_material(simple_material(title="B"))
        hits = fresh_repo.materials_with(K.SDF_ARRAYS)
        assert [m.id for m in hits] == [a.id]
        assert fresh_repo.materials_with("CS13/NOPE") == []

    def test_classification_pairs_filters_by_collection(self, fresh_repo):
        cs = ClassificationSet(); cs.add("CS13", K.SDF_ARRAYS)
        fresh_repo.add_material(simple_material(title="A"), cs)
        fresh_repo.add_material(
            simple_material(title="B", collection="other"), cs
        )
        pairs = fresh_repo.classification_pairs("demo")
        assert len(pairs) == 1


class TestOntologyMirroring:
    def test_entries_mirrored_relationally(self, fresh_repo):
        count = fresh_repo.db.table("ontology_entries").count(ontology="PDC12")
        assert count == len(fresh_repo.ontology("PDC12"))

    def test_double_load_rejected(self, fresh_repo):
        from repro.ontologies import load
        with pytest.raises(ValueError):
            fresh_repo.add_ontology(load("PDC12"))

    def test_entry_id_lookup(self, fresh_repo):
        eid = fresh_repo.entry_id(K.SDF_ARRAYS)
        row = fresh_repo.db.table("ontology_entries").get(eid)
        assert row["label"] == "Arrays"
        with pytest.raises(KeyError):
            fresh_repo.entry_id("CS13/NOPE")

    def test_entry_id_sees_an_entry_inserted_in_its_transaction(
            self, fresh_repo):
        class Abort(Exception):
            pass

        with pytest.raises(Abort):
            with fresh_repo.db.transaction():
                row = fresh_repo.db.insert(
                    "ontology_entries", ontology="PDC12", key="PDC12/NEW",
                    label="New", kind="topic")
                assert fresh_repo.entry_id("PDC12/NEW") == row["id"]
                raise Abort
        with pytest.raises(KeyError):
            fresh_repo.entry_id("PDC12/NEW")


class TestRolesAndCuration:
    def test_submission_flow_approved(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        submitter = fresh_repo.add_user("sue", Role.SUBMITTER)
        sid = fresh_repo.submit_material(
            simple_material(), None, submitted_by=submitter
        )
        assert len(fresh_repo.pending_submissions()) == 1
        status = fresh_repo.review_submission(sid, editor=editor, approve=True)
        assert status is SubmissionStatus.APPROVED
        assert fresh_repo.pending_submissions() == []
        assert fresh_repo.material_count() == 1

    def test_submission_flow_rejected_deletes_material(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        submitter = fresh_repo.add_user("sue", Role.SUBMITTER)
        sid = fresh_repo.submit_material(
            simple_material(), None, submitted_by=submitter
        )
        fresh_repo.review_submission(sid, editor=editor, approve=False)
        assert fresh_repo.material_count() == 0

    def test_only_editors_review(self, fresh_repo):
        user = fresh_repo.add_user("u", Role.USER)
        submitter = fresh_repo.add_user("s", Role.SUBMITTER)
        sid = fresh_repo.submit_material(
            simple_material(), None, submitted_by=submitter
        )
        with pytest.raises(PermissionError_):
            fresh_repo.review_submission(sid, editor=user, approve=True)

    def test_double_review_rejected(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        sid = fresh_repo.submit_material(
            simple_material(), None, submitted_by=editor
        )
        fresh_repo.review_submission(sid, editor=editor, approve=True)
        with pytest.raises(ValueError):
            fresh_repo.review_submission(sid, editor=editor, approve=True)

    def test_suggestion_add_flow(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        user = fresh_repo.add_user("u", Role.USER)
        stored = fresh_repo.add_material(simple_material())
        sug = fresh_repo.suggest_classification(
            stored.id, K.SDF_ARRAYS, action="add", suggested_by=user
        )
        fresh_repo.review_suggestion(sug, editor=editor, approve=True)
        assert fresh_repo.classification_of(stored.id).has("CS13", K.SDF_ARRAYS)

    def test_suggestion_remove_flow(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        user = fresh_repo.add_user("u", Role.USER)
        stored = fresh_repo.add_material(simple_material())
        fresh_repo.classify(stored.id, "CS13", K.SDF_ARRAYS)
        sug = fresh_repo.suggest_classification(
            stored.id, K.SDF_ARRAYS, action="remove", suggested_by=user
        )
        fresh_repo.review_suggestion(sug, editor=editor, approve=True)
        assert not fresh_repo.classification_of(stored.id).has("CS13", K.SDF_ARRAYS)

    def test_rejected_suggestion_changes_nothing(self, fresh_repo):
        editor = fresh_repo.add_user("ed", Role.EDITOR)
        user = fresh_repo.add_user("u", Role.USER)
        stored = fresh_repo.add_material(simple_material())
        sug = fresh_repo.suggest_classification(
            stored.id, K.SDF_ARRAYS, action="add", suggested_by=user
        )
        fresh_repo.review_suggestion(sug, editor=editor, approve=False)
        assert len(fresh_repo.classification_of(stored.id)) == 0

    def test_suggestion_validates_action(self, fresh_repo):
        user = fresh_repo.add_user("u", Role.USER)
        stored = fresh_repo.add_material(simple_material())
        with pytest.raises(ValueError):
            fresh_repo.suggest_classification(
                stored.id, K.SDF_ARRAYS, action="upsert", suggested_by=user
            )

    def test_stats_exposes_classification_links(self, fresh_repo):
        cs = ClassificationSet(); cs.add("CS13", K.SDF_ARRAYS)
        fresh_repo.add_material(simple_material(), cs)
        assert fresh_repo.stats()["classification_links"] == 1


class TestEnsureUser:
    """Find-or-create of the system accounts the review and classify
    paths act as."""

    @staticmethod
    def _rows(repo, name):
        return [r for r in repo.db.table("users") if r["name"] == name]

    def test_finding_an_existing_user_opens_no_transaction(
            self, fresh_repo, monkeypatch):
        uid = fresh_repo.ensure_user("carcs-ml", Role.USER)
        entered = []
        original = Database.transaction

        def counting(db):
            entered.append(1)
            return original(db)

        monkeypatch.setattr(Database, "transaction", counting)
        assert fresh_repo.ensure_user("carcs-ml", Role.USER) == uid
        assert entered == []

    def test_finds_a_user_added_earlier_in_its_transaction(self, fresh_repo):
        with fresh_repo.db.transaction():
            uid = fresh_repo.add_user("carcs-ml", Role.USER)
            assert fresh_repo.ensure_user("carcs-ml", Role.USER) == uid
        assert [r["id"] for r in self._rows(fresh_repo, "carcs-ml")] == [uid]

    def test_racing_threads_create_one_row(self, fresh_repo, monkeypatch):
        # Both callers miss the name before either creates it: each
        # waits for the other at the transaction's door.
        barrier = threading.Barrier(2, timeout=10)
        original = Database.transaction

        def after_both_looked(db):
            barrier.wait()
            return original(db)

        monkeypatch.setattr(Database, "transaction", after_both_looked)
        ids = []
        threads = [
            threading.Thread(target=lambda: ids.append(
                fresh_repo.ensure_user("carcs-editor", Role.EDITOR)))
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(ids) == 2 and ids[0] == ids[1]
        assert len(self._rows(fresh_repo, "carcs-editor")) == 1

    def test_rolled_back_creation_leaves_no_row(self, fresh_repo):
        class Abort(Exception):
            pass

        with pytest.raises(Abort):
            with fresh_repo.db.transaction():
                fresh_repo.ensure_user("carcs-ml", Role.USER)
                assert self._rows(fresh_repo, "carcs-ml")
                raise Abort
        assert self._rows(fresh_repo, "carcs-ml") == []
        uid = fresh_repo.ensure_user("carcs-ml", Role.USER)
        assert [r["id"] for r in self._rows(fresh_repo, "carcs-ml")] == [uid]


def _pairs_by_copy(repo, material_ids):
    """The scoped ``classification_pairs_of`` as it read before: whole
    link rows copied through ``links_of``, sorted by link id."""
    entries = repo.db.table("ontology_entries")
    rows = sorted(
        (row for mid in set(material_ids)
         for row in repo.material_classifications.links_of(mid)),
        key=lambda row: row["id"],
    )
    return [(row["materials_id"], entries.get(row["ontology_entries_id"])["key"])
            for row in rows]


class TestClassificationPairsOf:
    """The scoped read goes through the link index and the stored rows;
    it must list what the row-copying read lists, in link-id order, on
    live tables and on pins."""

    def _check(self, repo, scopes):
        for ids in scopes:
            assert repo.classification_pairs_of(ids) == _pairs_by_copy(repo, ids)
            with repo.db.pinned():
                assert repo.classification_pairs_of(ids) == _pairs_by_copy(
                    repo, ids)

    def test_matches_row_copies_live_and_pinned(self, fresh_repo):
        repo = fresh_repo
        entries = list(repo.db.table("ontology_entries"))[:9]
        mids = [repo.add_material(simple_material(title=f"M{i}")).id
                for i in range(4)]
        # Interleave materials so link ids do not follow material ids.
        for i, entry in enumerate(entries):
            for mid in (mids[i % 4], mids[(i + 1) % 4]):
                repo.classify(mid, entry["ontology"], entry["key"])
        scopes = [mids, mids[::-1], [mids[2], mids[0], mids[2]], [999], []]
        self._check(repo, scopes)
        assert len(repo.classification_pairs_of(mids)) == 2 * len(entries)
        ids = [mid for mid, _ in repo.classification_pairs_of([mids[1]])]
        assert ids and set(ids) == {mids[1]}

        repo.declassify(mids[0], entries[0]["key"])
        repo.delete_material(mids[3])
        self._check(repo, scopes)
        assert not repo.classification_pairs_of([mids[3]])

        before = repo.classification_pairs_of(mids)
        with pytest.raises(RuntimeError):
            with repo.db.transaction():
                repo.delete_material(mids[1])
                repo.declassify(mids[2], entries[2]["key"])
                self._check(repo, scopes)
                raise RuntimeError("abort")
        self._check(repo, scopes)
        assert repo.classification_pairs_of(mids) == before
