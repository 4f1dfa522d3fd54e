#!/usr/bin/env python3
"""The crowdsourced curation model (Sections III-A and Conclusion).

"Instructors can upload their own material in the system and a number of
editors can review the uploaded materials ... Less knowledgeable users
can suggest changes to the metadata which must be verified by an
editor."  This example drives that full role-based workflow, including
the auto-suggest assist that shrinks the paper's 15-25 minute manual
classification cost.

Run:  python examples/crowdsourced_curation.py
"""

from repro import Material, Role, seeded_repository
from repro.core.classification import ClassificationSet
from repro.corpus import keys as K


def main() -> None:
    repo = seeded_repository()

    editor = repo.add_user("Dr. Expert", Role.EDITOR)
    submitter = repo.add_user("New Instructor", Role.SUBMITTER)
    user = repo.add_user("Student Volunteer", Role.USER)

    print("1. The instructor submits a material with a rough classification")
    rough = ClassificationSet()
    rough.add("CS13", K.SDF_CTRL)
    submission = repo.submit_material(
        Material(
            title="Parallel Pi with Threads",
            description=(
                "Estimate pi by throwing random darts from multiple "
                "pthreads and combining the per-thread tallies with a "
                "guarded shared counter."
            ),
            collection="community",
        ),
        rough,
        submitted_by=submitter,
    )
    pending = repo.pending_submissions()
    print(f"   pending submissions: {len(pending)}")
    material_id = pending[0]["material_id"]

    print("\n2. The recommender proposes the missing classifications")
    text = repo.get_material(material_id).text()
    selected = [str(item.key) for item in rough.items()]
    for rec in repo.recommend(text, selected=selected, top=5):
        print(f"   suggested ({rec.score:.2f}): {rec.key}")

    print("\n3. The editor fixes the classification and approves")
    repo.classify(material_id, "PDC12", K.P_PTHREADS)
    repo.classify(material_id, "PDC12", K.P_CRITICAL)
    repo.classify(material_id, "PDC12", K.A_MONTECARLO)
    status = repo.review_submission(submission, editor=editor, approve=True)
    print(f"   submission status: {status.value}")

    print("\n4. A user later suggests one more entry; the editor verifies")
    suggestion = repo.suggest_classification(
        material_id, K.P_SPEEDUP, action="add", suggested_by=user
    )
    repo.review_suggestion(suggestion, editor=editor, approve=True)

    final = repo.classification_of(material_id)
    print(f"\nFinal classification ({len(final)} entries):")
    for item in final.items():
        print(f"   {item}")


if __name__ == "__main__":
    main()
