"""CAR-CS core: the paper's primary contribution.

Ontology trees, the material model, classification sets, the repository,
and the analyses built on them (coverage, similarity, gaps, search,
recommendation, reports).
"""

from .cache import AnalyticsCache, CacheStats, Memo
from .classification import (
    ClassificationItem,
    ClassificationSet,
    expand_to_ancestors,
    validate_against,
)
from .coverage import CoverageNode, CoverageReport, compare_coverage, compute_coverage
from .gaps import GapEntry, GapReport, alignment_score, curriculum_holes, find_gaps
from .material import CourseLevel, Material, MaterialKind, normalize_authors
from .ontology import BloomLevel, NodeKind, Ontology, OntologyNode, Tier
from .recommend import (
    CooccurrenceRecommender,
    HybridRecommender,
    Recommendation,
    classify_model,
    evaluate_leave_one_out,
)
from .report import ClassReport, class_report, coverage_summary_table
from .repository import PermissionError_, Repository, Role, SubmissionStatus
from .search import SearchEngine, SearchFilters, SearchHit
from .similarity import (
    MaterialVectorSpace,
    SimilarityEdge,
    clusters,
    edges_with_shared_keys,
    incidence,
    isolated_materials,
    jaccard_matrix,
    shared_item_matrix,
    similarity_graph,
)

__all__ = [
    "AnalyticsCache",
    "BloomLevel",
    "CacheStats",
    "ClassReport",
    "ClassificationItem",
    "ClassificationSet",
    "CooccurrenceRecommender",
    "CourseLevel",
    "CoverageNode",
    "CoverageReport",
    "GapEntry",
    "GapReport",
    "HybridRecommender",
    "Material",
    "MaterialKind",
    "MaterialVectorSpace",
    "Memo",
    "NodeKind",
    "Ontology",
    "OntologyNode",
    "PermissionError_",
    "Recommendation",
    "Repository",
    "Role",
    "SearchEngine",
    "SearchFilters",
    "SearchHit",
    "SimilarityEdge",
    "SubmissionStatus",
    "Tier",
    "alignment_score",
    "class_report",
    "classify_model",
    "clusters",
    "compare_coverage",
    "compute_coverage",
    "coverage_summary_table",
    "curriculum_holes",
    "edges_with_shared_keys",
    "evaluate_leave_one_out",
    "expand_to_ancestors",
    "find_gaps",
    "incidence",
    "isolated_materials",
    "jaccard_matrix",
    "normalize_authors",
    "shared_item_matrix",
    "similarity_graph",
    "validate_against",
]
