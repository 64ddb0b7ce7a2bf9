"""Embedding-space data curation for text corpora.

Semantic deduplication, prototypicality pruning, and their composition D4,
plus the supporting machinery: corpus synthesis, feature-hash embeddings,
MinHash LSH dedup, spherical k-means, dataset diagnostics, and epoch/cost
scheduling.
"""

from .cluster import (
    Clustering,
    KmeansConfig,
    assign,
    default_k,
    kmeans_spherical,
    objective,
    read_clustering,
    write_clustering,
)
from .corpus import (
    Document,
    DocumentSet,
    SynthSpec,
    count_tokens,
    load_corpus,
    synthesize_corpus,
    write_corpus,
)
from .diagnostics import (
    BinnedScores,
    DiagnosticsReport,
    FlaggedCluster,
    NnReport,
    OverlapMatrix,
    analyze_clustering,
    binned_score_analysis,
    cluster_balance,
    ecdf_mean_distance,
    find_duplicate_driven_clusters,
    nn_to_train,
    selection_overlap,
)
from .embed import (
    EmbedderSpec,
    EmbeddingMatrix,
    embed_corpus,
    feature_hash_embed,
    read_embeddings,
    write_embeddings,
)
from .errors import FormatError, ParseError, ValidationError
from .minhash import DedupResult, LshConfig, MinHashSignature, lsh_dedup, shingles, signature
from .schedule_cost import (
    CostModel,
    EpochPlan,
    embed_cost,
    naive_gain,
    overall_gain,
    plan_epochs,
)
from .select import D4Config, SelectionResult, d4, select_random, semdedup, ssl_prototypes

__version__ = "0.1.0"
