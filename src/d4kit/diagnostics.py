"""Analysis machinery for curated corpora and their clusterings.

Covers cluster balance, duplicate-driven-cluster detection (low standard
deviation of member distance to centroid), per-cluster mean-distance
ECDFs, selection overlap matrices, exact nearest-neighbor train/validation
reports, and binned aggregation of externally supplied per-document scores
(before/after selection).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .cluster import Clustering, _check_clustering, _nearest
from .embed import _MATRICES, EmbeddingMatrix, _cosine_matrix, _row_dots
from .errors import ValidationError, _index, _instance, _real

if TYPE_CHECKING:
    from .select import SelectionResult

STD_THRESHOLD = 0.03


@dataclass(frozen=True)
class FlaggedCluster:
    """A cluster whose member distances are suspiciously uniform."""

    cluster_index: int
    std: float
    mean_distance: float
    size: int


@dataclass(frozen=True)
class DiagnosticsReport:
    cluster_balance: float | None
    duplicate_driven: tuple[FlaggedCluster, ...]
    ecdf: tuple[tuple[float, float], ...]
    notes: tuple[str, ...] = ()


@dataclass(frozen=True)
class OverlapMatrix:
    """Pairwise selected-set intersection, percent of the smaller set."""

    labels: tuple[str, ...]
    cells: np.ndarray


@dataclass(frozen=True)
class NnEntry:
    valid_id: str
    train_id: str
    distance: float


@dataclass(frozen=True)
class NnReport:
    entries: tuple[NnEntry, ...]
    mean: float
    median: float


@dataclass(frozen=True)
class BinStat:
    count: int
    mean_distance: float | None
    mean_before: float | None
    mean_delta: float | None


@dataclass(frozen=True)
class BinnedScores:
    edges: tuple[float, ...]
    bins: tuple[BinStat, ...]


def cluster_balance(clustering: Clustering) -> float:
    """Mean over unordered nonempty-cluster pairs of smaller/larger size.

    1.0 means perfectly even clusters; values near 0 mean a few clusters
    dominate. Empty clusters are excluded from the pairing.
    """
    if _instance("clustering", clustering, Clustering).k < 2:
        raise ValidationError("cluster balance needs k >= 2")
    sizes = np.bincount(clustering.assignment, minlength=clustering.k)
    sizes = np.sort(sizes[sizes > 0]).astype(np.float64)
    m = sizes.shape[0]
    if m < 2:
        raise ValidationError("cluster balance needs at least 2 nonempty clusters")
    # Sorted ascending, so each size divides the sum of the sizes before it;
    # those sums are exact integers, so equal sizes give exactly 1.0.
    total = float((np.cumsum(sizes)[:-1] / sizes[1:]).sum())
    return total / (m * (m - 1) / 2)


def find_duplicate_driven_clusters(
    emb: EmbeddingMatrix,
    clustering: Clustering,
    std_threshold: float = STD_THRESHOLD,
) -> list[FlaggedCluster]:
    """Clusters of >= 2 members whose distance std falls below the threshold.

    Population standard deviation, sorted by ascending std. Tight clusters
    like these are characteristic of templated near-duplicate text.
    """
    _check_clustering(clustering, emb)
    return _duplicate_driven(clustering, std_threshold)


def _duplicate_driven(clustering: Clustering, std_threshold: float) -> list[FlaggedCluster]:
    """:func:`find_duplicate_driven_clusters` on a clustering already checked against its matrix."""
    std_threshold = _real("std_threshold", std_threshold, "[0, inf)")
    flagged: list[FlaggedCluster] = []
    for j, idx in enumerate(clustering.members()):
        if idx.size < 2:
            continue
        dists = clustering.distance[idx]
        std = float(np.std(dists))
        if std < std_threshold:
            flagged.append(
                FlaggedCluster(
                    cluster_index=j,
                    std=std,
                    mean_distance=float(dists.mean()),
                    size=int(idx.size),
                )
            )
    flagged.sort(key=lambda f: (f.std, f.cluster_index))
    return flagged


def ecdf_mean_distance(
    emb: EmbeddingMatrix, clustering: Clustering
) -> tuple[tuple[float, float], ...]:
    """Empirical CDF of per-cluster mean member distance to centroid.

    Returns (value, cumulative fraction) pairs with fractions i/k over the
    k nonempty clusters, ending at exactly 1.0.
    """
    _check_clustering(clustering, emb)
    return _ecdf(clustering)


def _ecdf(clustering: Clustering) -> tuple[tuple[float, float], ...]:
    """:func:`ecdf_mean_distance` on a clustering already checked against its matrix."""
    means = [
        float(clustering.distance[idx].mean())
        for idx in clustering.members()
        if idx.size > 0
    ]
    means.sort()
    m = len(means)
    if m == 0:
        return ()
    return tuple((v, (i + 1) / m) for i, v in enumerate(means))


def ecdf_value(ecdf: tuple[tuple[float, float], ...], x: float) -> float:
    """Evaluate an ECDF at x: the fraction of values <= x."""
    frac = 0.0
    for v, f in ecdf:
        if v <= x:
            frac = f
        else:
            break
    return frac


def selection_overlap(results: Iterable[SelectionResult]) -> OverlapMatrix:
    """Pairwise overlap of kept sets, as a percentage of the smaller set.

    ``results`` is any iterable, read once. All results must come from the
    same source id sequence. The matrix is exactly symmetric with a 100.0
    diagonal.
    """
    from .select import SelectionResult

    results = list(_instance("results", results, Iterable))
    if not results:
        raise ValidationError("need at least one selection result")
    first = results[0]
    for i, r in enumerate(results):
        _instance(f"results[{i}]", r, SelectionResult)
        if r.fingerprint != first.fingerprint or r.n_source != first.n_source:
            raise ValidationError(
                f"mismatched source sets: {r.method} vs {first.method}"
            )
    m = len(results)
    kept = [set(r.kept_ids) for r in results]
    cells = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        cells[i, i] = 100.0
        for j in range(i + 1, m):
            smaller = min(len(kept[i]), len(kept[j]))
            value = 100.0 * len(kept[i] & kept[j]) / smaller if smaller else 0.0
            cells[i, j] = cells[j, i] = value
    return OverlapMatrix(labels=tuple(r.method for r in results), cells=cells)


def nn_to_train(valid_emb: EmbeddingMatrix, train_emb: EmbeddingMatrix) -> NnReport:
    """Exact brute-force nearest neighbor in train for each validation row.

    ``train_emb`` is an :class:`EmbeddingMatrix` or a checked ``.d4em``
    file read a block at a time (``embed._scan_embeddings``). Neighbors
    follow :func:`cluster._nearest` over the train blocks: near-ties ranked by exact dots, and ties to the
    lowest train id whatever either block split. Memory is the validation
    rows and their chosen train rows, in float64, plus one train block and
    one float64 block of validation rows. A distance is ``1 - _row_dots`` of
    the validation row and its chosen row, clipped into [0, 2], so it
    depends on that pair alone.
    """
    if _cosine_matrix("valid_emb", valid_emb).d != _cosine_matrix("train_emb", train_emb, _MATRICES).d:
        raise ValidationError(
            f"dimension mismatch: validation {valid_emb.d}, train {train_emb.d}"
        )
    if train_emb.n == 0:
        raise ValidationError("train matrix is empty")
    if valid_emb.n == 0:
        raise ValidationError("validation matrix is empty")

    chosen = np.empty((valid_emb.n, valid_emb.d))
    nearest, _ = _nearest(valid_emb._rows(), train_emb._blocks(), train_emb.ids, chosen)
    dists = np.empty(valid_emb.n)
    for rows, block in valid_emb._blocks():
        dists[rows] = np.clip(1.0 - _row_dots(block, chosen[rows]), 0.0, 2.0)
    entries = tuple(
        NnEntry(valid_id=v, train_id=train_emb.ids[t], distance=float(dist))
        for v, t, dist in zip(valid_emb.ids, nearest.tolist(), dists)
    )
    return NnReport(
        entries=entries,
        mean=float(dists.mean()),
        median=_median(dists),
    )


def _median(values: np.ndarray) -> float:
    """``np.median`` of a non-empty 1-d float array, bit for bit.

    ``np.median`` imports ``numpy.ma`` (~1.3 MB RSS); this takes the middle
    order statistics from one ``np.partition`` and averages two of them the
    way ``np.mean`` does, as their sum over 2.
    """
    k = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, k)[k])
    p = np.partition(values, (k - 1, k))
    return float((p[k - 1] + p[k]) / 2)


def binned_score_analysis(
    nn: NnReport,
    score_before: Mapping[str, float],
    score_after: Mapping[str, float],
    n_bins: int = 20,
) -> BinnedScores:
    """Aggregate score deltas in equal-width bins of NN distance.

    Per bin: count, mean distance, mean before-score, and mean delta
    (after minus before). Empty bins report count 0 and None means. Each
    validation id's scores, and each bin's means, must be real numbers
    (:func:`d4kit.errors._real`), so finite scores whose mean overflows raise.
    """
    _instance("nn", nn, NnReport)
    _instance("score_before", score_before, Mapping)
    _instance("score_after", score_after, Mapping)
    n_bins = _index("n_bins", n_bins, 1)
    before, after = [], []
    for e in nn.entries:
        for name, scores, column in (("score_before", score_before, before), ("score_after", score_after, after)):
            if e.valid_id not in scores:
                raise ValidationError(f"{name} missing id: {e.valid_id!r}")
            column.append(_real(f"{name}[{e.valid_id!r}]", scores[e.valid_id], "(-inf, inf)"))
    if not nn.entries:
        raise ValidationError("nearest-neighbor report is empty")

    dists = np.array([e.distance for e in nn.entries])
    lo, hi = float(dists.min()), float(dists.max())
    width = hi - lo
    if width > 0:
        indices = np.minimum(((dists - lo) / width * n_bins).astype(int), n_bins - 1)
    else:
        indices = np.zeros(len(dists), dtype=int)

    edges = tuple(lo + width * i / n_bins for i in range(n_bins + 1))
    bins: list[BinStat] = []
    with np.errstate(over="ignore"):  # an overflow gives inf, which _real refuses
        before = np.array(before)
        delta = np.array(after) - before
        for b in range(n_bins):
            mask = indices == b
            count = int(mask.sum())
            if count == 0:
                bins.append(BinStat(count=0, mean_distance=None, mean_before=None, mean_delta=None))
                continue
            bins.append(
                BinStat(
                    count=count,
                    mean_distance=float(dists[mask].mean()),
                    mean_before=_real(f"bin {b} mean score before", float(before[mask].mean()), "(-inf, inf)"),
                    mean_delta=_real(f"bin {b} mean score delta", float(delta[mask].mean()), "(-inf, inf)"),
                )
            )
    return BinnedScores(edges=edges, bins=tuple(bins))


def analyze_clustering(
    emb: EmbeddingMatrix,
    clustering: Clustering,
    std_threshold: float = STD_THRESHOLD,
) -> DiagnosticsReport:
    """Bundle balance, duplicate-driven detection, and the ECDF.

    The clustering is checked against ``emb`` once, before anything else.
    """
    _check_clustering(clustering, emb)
    notes: list[str] = []
    balance: float | None = None
    try:
        balance = cluster_balance(clustering)
    except ValidationError as exc:
        notes.append(f"cluster balance unavailable: {exc}")
    flagged = _duplicate_driven(clustering, std_threshold)
    ecdf = _ecdf(clustering)
    notes.append(
        f"{len(flagged)} of {clustering.k} clusters flagged duplicate-driven "
        f"(std < {std_threshold:g})"
    )
    return DiagnosticsReport(
        cluster_balance=balance,
        duplicate_driven=tuple(flagged),
        ecdf=ecdf,
        notes=tuple(notes),
    )
