"""Embedding-space data curation for text corpora.

Semantic deduplication, prototype pruning, and their composition D4,
plus the supporting machinery: corpus synthesis, feature-hash embeddings,
MinHash LSH dedup, spherical k-means, dataset diagnostics, and epoch/cost
scheduling.

The public names below are loaded on first use (PEP 562), so importing
``d4kit`` or one of its modules loads only the modules that it needs.
"""

import importlib

_EXPORTS = {
    "cluster": (
        "Clustering",
        "KmeansConfig",
        "assign",
        "default_k",
        "kmeans_spherical",
        "objective",
        "read_clustering",
        "write_clustering",
    ),
    "corpus": (
        "Document",
        "DocumentSet",
        "SynthSpec",
        "count_tokens",
        "load_corpus",
        "synthesize_corpus",
        "write_corpus",
    ),
    "diagnostics": (
        "BinnedScores",
        "DiagnosticsReport",
        "FlaggedCluster",
        "NnReport",
        "OverlapMatrix",
        "analyze_clustering",
        "binned_score_analysis",
        "cluster_balance",
        "ecdf_mean_distance",
        "find_duplicate_driven_clusters",
        "nn_to_train",
        "selection_overlap",
    ),
    "embed": (
        "EmbedderSpec",
        "EmbeddingMatrix",
        "embed_corpus",
        "feature_hash_embed",
        "read_embeddings",
        "write_embeddings",
    ),
    "errors": ("FormatError", "ParseError", "ValidationError"),
    "minhash": ("DedupResult", "LshConfig", "MinHashSignature", "lsh_dedup", "shingles", "signature"),
    "schedule_cost": (
        "CostModel",
        "EpochPlan",
        "embed_cost",
        "naive_gain",
        "overall_gain",
        "plan_epochs",
    ),
    "select": ("D4Config", "SelectionResult", "d4", "select_random", "semdedup", "ssl_prototypes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Only the exported names: any other name raises, so that
    # ``from d4kit import cli`` falls back to importing the submodule.
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
