"""The CAR-CS repository: materials + ontologies + classifications.

This is the system of Section III: a relational store of pedagogical
materials where "tags, items in the classification, dataset used, and
authors are associated with an assignment using a many-to-many
relationship", plus the user-account/role machinery the conclusion calls
for ("a proper user account system, and roles (editor, submitter, user)
need to be integrated to enable a larger scale curation") — implemented
here rather than left as future work.

The web layer (:mod:`repro.web`) and every analysis (coverage, gaps,
similarity) run on top of this facade.
"""

from __future__ import annotations

import enum
import threading
from typing import Iterable, Mapping

from repro.db import Column, Database, ForeignKey, ManyToMany, TableSchema
from repro.db import query as db_query
from repro.db.errors import RowNotFound
from repro.obs import trace as _trace

from .cache import AnalyticsCache, Memo
from .classification import ClassificationSet, validate_against
from .material import CourseLevel, Material, MaterialKind, normalize_authors
from .ontology import BloomLevel, NodeKind, Ontology, Tier

# Tables whose mutation changes the classification-pair export (and with
# it every coverage/similarity/recommendation result derived from it).
_CLASSIFICATION_TABLES = (
    "material_classifications", "ontology_entries", "materials",
)


class Role(enum.Enum):
    """User roles from the paper's curation model (Section III-A)."""

    EDITOR = "editor"
    SUBMITTER = "submitter"
    USER = "user"


class SubmissionStatus(enum.Enum):
    PENDING = "pending"
    APPROVED = "approved"
    REJECTED = "rejected"


class PermissionError_(Exception):
    """An operation requires a role the acting user does not have."""


#: System account the automatic classification service suggests as.
MACHINE_USER = "carcs-ml"
#: System editor used by the unauthenticated review endpoints.
SYSTEM_EDITOR = "carcs-editor"


class Repository:
    """Facade over the relational engine implementing the CAR-CS model."""

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database("carcs")
        self._ontologies: dict[str, Ontology] = {}
        self._create_schema()
        # Version-keyed memo for the analytics hot paths (coverage,
        # similarity, recommendation, classification-pair export).
        self.cache = AnalyticsCache(self.db)
        self._view = None
        self._view_init_lock = threading.Lock()

    @property
    def version(self) -> int:
        """Monotonic mutation counter of the underlying database.

        Any committed insert/update/delete (materials, classifications,
        users, …) bumps it; rollback restores it.  The web layer derives
        HTTP ETags from this value.
        """
        return self.db.version

    # ------------------------------------------------------------------ DDL

    def _create_schema(self) -> None:
        db = self.db
        if "materials" in db:
            # Reattaching to a restored/recovered database
            # (Database.open(), persist.import_repository): the tables
            # already exist — bind the link-table helpers and reload the
            # ontology trees instead of re-creating the schema.
            self._bind_link_tables(db)
            self._load_ontologies()
            return
        db.create_table(TableSchema(
            "authors",
            columns=(Column("id", int), Column("name", str)),
            unique=(("name",),),
        ))
        db.create_table(TableSchema(
            "tags",
            columns=(Column("id", int), Column("name", str)),
            unique=(("name",),),
        ))
        db.create_table(TableSchema(
            "datasets",
            columns=(Column("id", int), Column("name", str)),
            unique=(("name",),),
        ))
        db.create_table(TableSchema(
            "languages",
            columns=(Column("id", int), Column("name", str)),
            unique=(("name",),),
        ))
        db.create_table(TableSchema(
            "users",
            columns=(
                Column("id", int),
                Column("name", str),
                Column("role", str),
            ),
            unique=(("name",),),
        ))
        db.create_table(TableSchema(
            "materials",
            columns=(
                Column("id", int),
                Column("title", str),
                Column("description", str, default=""),
                Column("kind", str, default=MaterialKind.ASSIGNMENT.value),
                Column("url", str, default=""),
                Column("course_level", str, nullable=True, default=None),
                Column("collection", str, default=""),
                Column("year", int, nullable=True, default=None),
            ),
        ))
        # Ontology entries mirrored relationally, exactly as Section III-B
        # describes: "a key, the key of the parent, a string description,
        # and type (separating topics and learning outcomes)".
        db.create_table(TableSchema(
            "ontology_entries",
            columns=(
                Column("id", int),
                Column("ontology", str),
                Column("key", str),
                Column("parent_key", str, nullable=True, default=None),
                Column("label", str),
                Column("kind", str),
                Column("tier", str, default=Tier.NONE.value),
                Column("bloom", str, nullable=True, default=None),
            ),
            unique=(("key",),),
        ))
        db.table("ontology_entries").create_index("ontology")
        db.table("ontology_entries").create_index("parent_key")
        db.table("ontology_entries").create_index("key")  # entry_id() hot path
        db.table("materials").create_index("collection")
        # Sorted: ordered material listings and year-range analytics go
        # through planner index scans instead of full sorts.
        db.table("materials").create_sorted_index("title")
        db.table("materials").create_sorted_index("year")

        self._bind_link_tables(db)
        db.create_table(TableSchema(
            "submissions",
            columns=(
                Column("id", int),
                Column("material_id", int),
                Column("submitted_by", int),
                Column("status", str, default=SubmissionStatus.PENDING.value),
                Column("reviewed_by", int, nullable=True, default=None),
                Column("note", str, default=""),
            ),
            foreign_keys=(
                ForeignKey("material_id", "materials", on_delete="cascade"),
                ForeignKey("submitted_by", "users"),
            ),
        ))
        db.table("submissions").create_index("status")
        db.create_table(TableSchema(
            "suggestions",
            columns=(
                Column("id", int),
                Column("material_id", int),
                Column("suggested_by", int),
                Column("ontology_key", str),
                Column("action", str),  # "add" | "remove"
                Column("status", str, default=SubmissionStatus.PENDING.value),
                Column("reviewed_by", int, nullable=True, default=None),
                # Machine-assist metadata: the classifier's confidence in
                # [0, 1] and which model produced it ("nb", "knn",
                # "nb+knn"); human suggestions leave both at defaults.
                Column("confidence", float, nullable=True, default=None),
                Column("origin", str, default="human"),
            ),
            foreign_keys=(
                ForeignKey("material_id", "materials", on_delete="cascade"),
                ForeignKey("suggested_by", "users"),
            ),
        ))
        # material_id, a foreign key, is hash-indexed by create_table:
        # machine_suggest's duplicate check probes it.
        db.table("suggestions").create_index("status")

    def _bind_link_tables(self, db: Database) -> None:
        """Bind the many-to-many helpers (creating their tables only when
        they don't already exist — ManyToMany reattaches otherwise)."""
        self.material_authors = ManyToMany(db, "material_authors", "materials", "authors")
        self.material_tags = ManyToMany(db, "material_tags", "materials", "tags")
        self.material_datasets = ManyToMany(db, "material_datasets", "materials", "datasets")
        self.material_languages = ManyToMany(db, "material_languages", "materials", "languages")
        self.material_classifications = ManyToMany(
            db, "material_classifications", "materials", "ontology_entries",
            extra_columns=(Column("bloom", str, nullable=True, default=None),),
        )

    def refresh_bindings(self) -> None:
        """Re-bind to the database after its state was replaced in place
        (:meth:`Database.load_state` — a replica applying a snapshot
        checkpoint).

        Link-table helpers resolve through the database by name, so they
        only need re-binding when the incoming state introduced tables;
        the ontology trees are rebuilt from the mirrored rows because
        the loaded corpus may carry different ontologies.  Version-keyed
        caches (analytics memos, the search index) notice the version
        jump on their next read and rebuild themselves.
        """
        self._bind_link_tables(self.db)
        self._ontologies.clear()
        self._load_ontologies()

    def _load_ontologies(self) -> None:
        """Reload ontology trees for a reattached database.

        Built-in ontologies come back from the registry with full
        fidelity (hours, codes, cross-links); unknown names rebuild a
        best-effort tree from the mirrored ``ontology_entries`` rows.
        Format-2 persist dumps overwrite both with the exact serialized
        trees afterwards."""
        entries = self.db.table("ontology_entries")
        names = sorted({row["ontology"] for row in entries})
        for name in names:
            try:
                from repro.ontologies import load as load_builtin

                self._ontologies[name] = load_builtin(name)
            except Exception:
                self._ontologies[name] = self._ontology_from_rows(name)

    def _ontology_from_rows(self, name: str) -> Ontology:
        rows = sorted(
            self.db.table("ontology_entries").find(ontology=name),
            key=lambda r: r["id"],
        )
        onto = Ontology(name)
        for row in rows:
            onto.add(
                row["key"], row["label"], NodeKind(row["kind"]),
                row["parent_key"],
                tier=Tier(row["tier"]),
                bloom=BloomLevel(row["bloom"]) if row["bloom"] else None,
            )
        onto.validate()
        return onto

    # ----------------------------------------------------------- ontologies

    def add_ontology(self, ontology: Ontology) -> int:
        """Mirror an ontology tree into the relational store.

        Returns the number of entries inserted.  Idempotent per ontology
        name (re-adding the same ontology raises).
        """
        if ontology.name in self._ontologies:
            raise ValueError(f"ontology {ontology.name!r} already loaded")
        inserted = 0
        with self.db.transaction():
            for node in ontology.nodes():
                parent = node.parent
                self.db.insert(
                    "ontology_entries",
                    ontology=ontology.name,
                    key=node.key,
                    parent_key=None if parent == ontology.root.key else parent,
                    label=node.label,
                    kind=node.kind.value,
                    tier=node.tier.value,
                    bloom=node.bloom.value if node.bloom else None,
                )
                inserted += 1
        self._ontologies[ontology.name] = ontology
        return inserted

    @property
    def ontologies(self) -> Mapping[str, Ontology]:
        return dict(self._ontologies)

    def ontology(self, name: str) -> Ontology:
        try:
            return self._ontologies[name]
        except KeyError:
            raise KeyError(
                f"ontology {name!r} not loaded; have {sorted(self._ontologies)}"
            ) from None

    def entry_id(self, key: str) -> int:
        row = self.db.table("ontology_entries").find_one(key=key)
        if row is None:
            raise KeyError(f"no ontology entry with key {key!r}")
        return row["id"]

    # ------------------------------------------------------------ materials

    def _link_named(self, m2m: ManyToMany, table: str, material_id: int,
                    names: Iterable[str]) -> None:
        for name in names:
            existing = self.db.table(table).find_one(name=name)
            row = existing if existing is not None else self.db.insert(table, name=name)
            m2m.add(material_id, row["id"])

    def add_material(
        self,
        material: Material,
        classification: ClassificationSet | None = None,
    ) -> Material:
        """Insert a material (and its relations); returns it with an id."""
        if classification is not None:
            problems = validate_against(classification, self._ontologies)
            if problems:
                raise ValueError(
                    f"invalid classification for {material.title!r}: {problems}"
                )
        with self.db.transaction():
            row = self.db.insert(
                "materials",
                title=material.title,
                description=material.description,
                kind=material.kind.value,
                url=material.url,
                course_level=(
                    material.course_level.value if material.course_level else None
                ),
                collection=material.collection,
                year=material.year,
            )
            mid = row["id"]
            self._link_named(
                self.material_authors, "authors", mid,
                normalize_authors(material.authors),
            )
            self._link_named(self.material_tags, "tags", mid, material.tags)
            self._link_named(
                self.material_datasets, "datasets", mid, material.datasets
            )
            self._link_named(
                self.material_languages, "languages", mid, material.languages
            )
            if classification is not None:
                for item in classification.items():
                    self.classify(
                        mid, item.ontology, item.key, bloom=item.bloom
                    )
        return material.with_id(mid)

    def _row_to_material(self, row: dict) -> Material:
        mid = row["id"]
        authors = tuple(
            self.db.table("authors").get(aid)["name"]
            for aid in sorted(self.material_authors.right_of(mid))
        )
        tags = tuple(
            self.db.table("tags").get(tid)["name"]
            for tid in sorted(self.material_tags.right_of(mid))
        )
        datasets = tuple(
            self.db.table("datasets").get(did)["name"]
            for did in sorted(self.material_datasets.right_of(mid))
        )
        languages = tuple(
            self.db.table("languages").get(lid)["name"]
            for lid in sorted(self.material_languages.right_of(mid))
        )
        return Material(
            id=mid,
            title=row["title"],
            description=row["description"],
            kind=MaterialKind(row["kind"]),
            url=row["url"],
            course_level=(
                CourseLevel(row["course_level"]) if row["course_level"] else None
            ),
            collection=row["collection"],
            year=row["year"],
            authors=authors,
            tags=tags,
            datasets=datasets,
            languages=languages,
        )

    def get_material(self, material_id: int) -> Material:
        with self.db.pinned():
            return self._row_to_material(
                self.db.table("materials").get(material_id)
            )

    def materials(self, collection: str | None = None) -> list[Material]:
        with self.db.pinned():
            q = db_query(self.db, "materials")
            if collection:
                q = q.filter(collection=collection)
            return [
                self._row_to_material(r) for r in q.order_by("id").all()
            ]

    def material_ids(self, collection: str) -> list[int]:
        """Ids of a collection's materials in id order, found through the
        ``collection`` index."""
        return sorted(db_query(self.db, "materials").filter(
            collection=collection
        ).values("id"))

    def material_count(self, collection: str | None = None) -> int:
        if collection is None:
            return len(self.db.table("materials"))
        return self.db.table("materials").count(collection=collection)

    def collections(self) -> list[str]:
        return sorted(
            {r["collection"] for r in self.db.table("materials") if r["collection"]}
        )

    def delete_material(self, material_id: int) -> None:
        # m2m link tables cascade; submissions/suggestions cascade.
        self.db.delete("materials", material_id)

    def update_material(self, material_id: int, **changes) -> Material:
        allowed = {"title", "description", "url", "collection", "year"}
        bad = set(changes) - allowed
        if bad:
            raise ValueError(f"cannot update column(s) {sorted(bad)}")
        self.db.update("materials", material_id, **changes)
        return self.get_material(material_id)

    # -------------------------------------------------------- classification

    def classify(
        self,
        material_id: int,
        ontology: str,
        key: str,
        *,
        bloom: BloomLevel | None = None,
    ) -> None:
        """Attach one ontology entry to a material (idempotent)."""
        onto = self.ontology(ontology)
        if key not in onto:
            raise KeyError(f"{ontology} has no entry {key!r}")
        self.db.table("materials").get(material_id)  # raises if missing
        self.material_classifications.add(
            material_id,
            self.entry_id(key),
            bloom=bloom.value if bloom else None,
        )

    def declassify(self, material_id: int, key: str) -> bool:
        try:
            eid = self.entry_id(key)
        except KeyError:
            return False
        return self.material_classifications.remove(material_id, eid)

    def classification_of(self, material_id: int) -> ClassificationSet:
        with self.db.pinned():
            cs = ClassificationSet()
            entries = self.db.table("ontology_entries")
            for link in self.material_classifications.links_of(material_id):
                entry = entries.get(link["ontology_entries_id"])
                bloom = BloomLevel(link["bloom"]) if link["bloom"] else None
                cs.add(entry["ontology"], entry["key"], bloom)
            return cs

    def materials_with(self, key: str) -> list[Material]:
        """All materials classified under the ontology entry ``key``.

        Runs as a planner semi-join: the entry resolves through the
        ``key`` hash index and the link table is probed per entry pk,
        never materialized."""
        with self.db.pinned():
            rows = db_query(self.db, "ontology_entries").filter(
                key=key
            ).join_via(
                "material_classifications",
                local_column="ontology_entries_id",
                remote_column="materials_id",
                remote_table="materials",
            )
            return [self._row_to_material(r) for r in rows]

    @Memo(*_CLASSIFICATION_TABLES)
    def classification_pairs(
        self, collection: str | None = None
    ) -> tuple[tuple[int, str], ...]:
        """(material_id, ontology key) pairs — the bulk export the
        coverage/similarity analyses consume in one pass.

        Memoized on the classification tables' versions; the tuple is
        immutable, so every caller shares the cached one."""
        with _trace.span(
            "repo.classification_pairs", collection=collection or "*"
        ) as span_:
            out = self.classification_pairs_of(
                None if collection is None else self.material_ids(collection)
            )
            span_.set(pairs=len(out))
            return tuple(out)

    def classification_pairs_of(
        self, material_ids: Iterable[int] | None
    ) -> list[tuple[int, str]]:
        """(material_id, ontology key) pairs of ``material_ids`` (``None``:
        every material).  A scoped call reads each material's links
        through the link table's index, in link-id order; only ``None``
        walks the whole table."""
        links = self.material_classifications
        pairs = links.pairs() if material_ids is None else [
            (row["materials_id"], row["ontology_entries_id"])
            for row in sorted(
                (row for mid in set(material_ids)
                 for row in links.links_of(mid)),
                key=lambda row: row["id"],
            )
        ]
        entries = self.db.table("ontology_entries")
        return [(mid, entries.get(eid)["key"]) for mid, eid in pairs]

    @Memo(*_CLASSIFICATION_TABLES)
    def classification_keys(self) -> dict[int, frozenset[str]]:
        """Material id → frozenset of classified ontology keys, for every
        material, in one pass over the link table: the batch form of
        :meth:`classification_of` for full index rebuilds and model fits.
        Memoized and **shared** — treat it as read-only."""
        with _trace.span("repo.classification_keys") as span_:
            keys: dict[int, set[str]] = {
                r["id"]: set() for r in self.db.table("materials")
            }
            for mid, key in self.classification_pairs_of(None):
                keys.setdefault(mid, set()).add(str(key))
            span_.set(materials=len(keys))
            return {mid: frozenset(ks) for mid, ks in keys.items()}

    # ------------------------------------------------------ users & curation

    def add_user(self, name: str, role: Role) -> int:
        return self.db.insert("users", name=name, role=role.value)["id"]

    def user_role(self, user_id: int) -> Role:
        return Role(self.db.table("users").get(user_id)["role"])

    def _require_role(self, user_id: int, *roles: Role) -> None:
        role = self.user_role(user_id)
        if role not in roles:
            raise PermissionError_(
                f"user {user_id} has role {role.value!r}; needs one of "
                f"{[r.value for r in roles]}"
            )

    def submit_material(
        self,
        material: Material,
        classification: ClassificationSet | None,
        *,
        submitted_by: int,
    ) -> int:
        """Crowdsourced path: any registered user may submit; the material
        is stored but flagged pending until an editor approves it."""
        self._require_role(
            submitted_by, Role.SUBMITTER, Role.EDITOR, Role.USER
        )
        stored = self.add_material(material, classification)
        sub = self.db.insert(
            "submissions", material_id=stored.id, submitted_by=submitted_by
        )
        return sub["id"]

    def review_submission(
        self, submission_id: int, *, editor: int, approve: bool, note: str = ""
    ) -> SubmissionStatus:
        """Editors 'can appropriately edit or fix classification issues
        with a submitted material' — or reject it (deleting the material)."""
        self._require_role(editor, Role.EDITOR)
        sub = self.db.table("submissions").get(submission_id)
        if sub["status"] != SubmissionStatus.PENDING.value:
            raise ValueError("submission already reviewed")
        status = SubmissionStatus.APPROVED if approve else SubmissionStatus.REJECTED
        self.db.update(
            "submissions", submission_id,
            status=status.value, reviewed_by=editor, note=note,
        )
        if not approve:
            # Deleting the material cascades into the submission row too,
            # so record the review *then* delete.
            self.db.delete("materials", sub["material_id"])
        return status

    def pending_submissions(self) -> list[dict]:
        return db_query(self.db, "submissions").filter(
            status=SubmissionStatus.PENDING.value
        ).order_by("id").all()

    def approved_material_ids(self) -> set[int]:
        return set(
            db_query(self.db, "submissions").filter(
                status=SubmissionStatus.APPROVED.value
            ).values("material_id")
        )

    def suggest_classification(
        self, material_id: int, key: str, *, action: str, suggested_by: int
    ) -> int:
        """'Less knowledgeable users can suggest changes to the metadata
        which must be verified by an editor.'"""
        if action not in ("add", "remove"):
            raise ValueError("action must be 'add' or 'remove'")
        self.entry_id(key)  # must exist
        self.db.table("materials").get(material_id)
        return self.db.insert(
            "suggestions",
            material_id=material_id,
            suggested_by=suggested_by,
            ontology_key=key,
            action=action,
        )["id"]

    def review_suggestion(
        self, suggestion_id: int, *, editor: int, approve: bool
    ) -> SubmissionStatus:
        self._require_role(editor, Role.EDITOR)
        sug = self.db.table("suggestions").get(suggestion_id)
        if sug["status"] != SubmissionStatus.PENDING.value:
            raise ValueError("suggestion already reviewed")
        status = SubmissionStatus.APPROVED if approve else SubmissionStatus.REJECTED
        self.db.update(
            "suggestions", suggestion_id,
            status=status.value, reviewed_by=editor,
        )
        if approve:
            entry = self.db.table("ontology_entries").find_one(
                key=sug["ontology_key"]
            )
            assert entry is not None
            if sug["action"] == "add":
                self.classify(
                    sug["material_id"], entry["ontology"], sug["ontology_key"]
                )
            else:
                self.declassify(sug["material_id"], sug["ontology_key"])
        return status

    # ------------------------------------------- machine-assist suggestions

    def ensure_user(self, name: str, role: Role) -> int:
        """Find-or-create a (system) user account; returns its id.

        Finding an existing account is a read; only creating one opens
        a transaction, which looks again so that two racing callers
        create one row."""
        with self.db.pinned():
            row = self.db.table("users").find_one(name=name)
        if row is not None:
            return row["id"]
        with self.db.transaction():
            row = self.db.table("users").find_one(name=name)
            if row is not None:
                return row["id"]
            return self.add_user(name, role)

    def machine_suggest(
        self, material_id: int, key: str, *,
        confidence: float, source: str = "nb+knn",
    ) -> int | None:
        """File a machine ``add`` suggestion, idempotently.

        Returns the new suggestion id, or ``None`` when the write would
        duplicate existing state: the material is already classified
        under ``key``, or an equivalent suggestion is already pending /
        was already machine-filed.  This per-``(material, key)``
        idempotency is what makes classification jobs safe to re-run
        after a worker crash or lease re-issue.

        Every check is a point lookup on live state: the link table's
        ``(material, entry)`` pair and the suggestions' ``material_id``
        index.  A memoized whole-corpus map would bypass the analytics
        cache inside this transaction and be rebuilt on every call.
        """
        entry_id = self.entry_id(key)  # must exist
        self.db.table("materials").get(material_id)
        with self.db.transaction():
            if self.material_classifications.has(material_id, entry_id):
                return None
            for row in self.db.table("suggestions").find(
                material_id=material_id, ontology_key=key,
            ):
                if row["action"] != "add":
                    continue
                if (row["status"] == SubmissionStatus.PENDING.value
                        or row.get("origin") == "machine"):
                    return None
            suggested_by = self.ensure_user(MACHINE_USER, Role.USER)
            return self.db.insert(
                "suggestions",
                material_id=material_id,
                suggested_by=suggested_by,
                ontology_key=key,
                action="add",
                confidence=float(confidence),
                origin="machine",
            )["id"]

    def suggestions(
        self, *, status: str | None = None,
        material_id: int | None = None, origin: str | None = None,
    ) -> list[dict]:
        """Suggestion rows, highest confidence first (``None`` last).

        Filters compose; each row additionally carries the entry's
        ontology name (joined from ``ontology_entries``)."""
        with self.db.pinned():
            q = db_query(self.db, "suggestions")
            if status is not None:
                q = q.filter(status=status)
            if material_id is not None:
                q = q.filter(material_id=material_id)
            if origin is not None:
                # Residual predicate (tolerates rows restored from dumps
                # that predate the origin column).
                q = q.where(
                    lambda r: r.get("origin", "human") == origin
                )
            rows = q.all()
            entries = self.db.table("ontology_entries")
            out = []
            for row in rows:
                enriched = dict(row)
                entry = entries.find_one(key=row["ontology_key"])
                enriched["ontology"] = entry["ontology"] if entry else None
                out.append(enriched)
            out.sort(key=lambda r: (
                -(r.get("confidence") if r.get("confidence") is not None
                  else -1.0),
                r["id"],
            ))
            return out

    def accept_suggestion(self, suggestion_id: int,
                          *, editor: int | None = None) -> SubmissionStatus:
        """Approve a pending suggestion (applying it) as ``editor``, or
        as the system editor account when none is given."""
        if editor is None:
            editor = self.ensure_user(SYSTEM_EDITOR, Role.EDITOR)
        return self.review_suggestion(suggestion_id, editor=editor,
                                      approve=True)

    def reject_suggestion(self, suggestion_id: int,
                          *, editor: int | None = None) -> SubmissionStatus:
        if editor is None:
            editor = self.ensure_user(SYSTEM_EDITOR, Role.EDITOR)
        return self.review_suggestion(suggestion_id, editor=editor,
                                      approve=False)

    # ------------------------------------------------- cached analytics

    def coverage(self, ontology_name: str, *, collection: str | None = None,
                 material_ids: Iterable[int] | None = None):
        """Memoized :func:`repro.core.coverage.compute_coverage`.

        Treat the returned report as read-only: hits share one object.
        """
        from .coverage import compute_coverage

        with _trace.span(
            "repo.coverage", ontology=ontology_name, collection=collection or "*"
        ):
            with self.db.pinned():
                return compute_coverage(
                    self, ontology_name,
                    collection=collection, material_ids=material_ids,
                )

    def similarity(self, left_ids, right_ids=None, *, threshold: int = 2,
                   ontologies: Iterable[str] | None = None,
                   left_group: str = "left", right_group: str = "right"):
        """Memoized :func:`repro.core.similarity.similarity_graph`.

        The graph is immutable: every call with the same arguments and
        table versions returns the one cached graph.
        """
        from .similarity import similarity_graph

        with _trace.span("repo.similarity", threshold=threshold):
            with self.db.pinned():
                return similarity_graph(
                    self, left_ids, right_ids,
                    threshold=threshold, ontologies=ontologies,
                    left_group=left_group, right_group=right_group,
                )

    def material_view(self):
        """The repository's change-journal view: one cursor feeding the
        search index and the classify model's training features."""
        from .view import MaterialView

        if self._view is None:
            with self._view_init_lock:
                if self._view is None:
                    self._view = MaterialView(self)
        return self._view

    def search_engine(self):
        """The repository's shared, version-tracking search engine."""
        from .search import SearchEngine

        return self.material_view().shared(
            "search", lambda: SearchEngine(self)
        )

    def search(self, text: str = "", filters=None, *, limit: int = 20):
        """Facet + full-text search.  The BM25 inverted index catches up
        incrementally from the db change journal when the repository
        version has moved."""
        return self.search_engine().search(text, filters, limit=limit)

    def recommender(self):
        """A :class:`~repro.core.recommend.HybridRecommender` over the
        repository's shared classify model (memoized until a model table
        mutates)."""
        from .recommend import HybridRecommender

        return HybridRecommender(self).fit()

    def recommend(self, text: str = "", selected=(), *, top: int = 10):
        selected = tuple(selected)
        with _trace.span("repo.recommend", top=top, selected=len(selected)):
            with self.db.pinned():
                return self.recommender().recommend(text, selected, top=top)

    # ------------------------------------------------------------- summary

    def stats(self) -> dict[str, int]:
        """Row counts of the main tables (used by reports and benches),
        plus the repository version, the analytics-cache counters, the
        change-journal and WAL counters, and — once a search engine
        exists — the search-index counters."""
        with self.db.pinned():
            base = self.db.stats()
            base["classification_links"] = len(self.material_classifications)
            base["version"] = self.db.version
            base["cache_entries"] = len(self.cache)
        for key, value in self.cache.stats.as_dict().items():
            base[f"cache_{key}"] = value
        for key, value in self.db.changelog_stats().items():
            base[f"changelog_{key}"] = value
        for key, value in self.db.wal_stats().items():
            base[f"wal_{key}"] = value
        for key, value in self.db.storage_stats().items():
            base[f"storage_{key}"] = value
        engine = self._view.peek("search") if self._view else None
        if engine is not None:
            for key, value in engine.stats().items():
                base[f"search_{key}"] = value
        return base
