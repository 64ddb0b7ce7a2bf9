"""Data-selection strategies over a clustered embedding space.

Four methods, all document-granular and deterministic:

- ``select_random``: the uniform baseline.
- ``semdedup``: within each cluster, connect members whose cosine
  similarity exceeds 1 - epsilon and collapse each connected component to
  one representative. Epsilon is read off each cluster's maximum spanning
  tree so the kept fraction is the achievable one closest to the target.
- ``ssl_prototypes``: rank all points globally by distance to their
  centroid and discard the most prototypical (smallest-distance) points.
- ``d4``: semdedup, re-cluster the survivors, then prototypes; the overall
  ratio is the product of the two stage ratios.

The component representative kept by semdedup is the member farthest from
its cluster centroid (diversity-preserving); ``keep_rule="nearest"`` flips
that for sensitivity checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cluster import Clustering, KmeansConfig, _check_clustering, _rounding_band, kmeans_spherical
from .embed import EmbeddingMatrix, _cosine_matrix
from .errors import ValidationError, _index, _instance, _real, _str_ids
from .graph import components
from .hashing import sha256

SEMDEDUP_RATIO_TOL = 0.005
D4_RATIO_TOL = 0.01
# Fewest joined rows the spanning-tree loop drops from its block at a time.
_COMPACT_ROWS = 64


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def source_fingerprint(ids: tuple[str, ...] | list[str]) -> str:
    """Stable digest of an id sequence, used to detect source mismatches.

    The first 16 hex digits of sha256 over each id's UTF-8 bytes followed by
    a newline. ``overlap`` compares fingerprints across selection
    directories, so this digest must never change.
    """
    # The trailing "" ends the last id with a newline and keeps no ids at b"".
    return sha256("\n".join([*ids, ""]).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class SelectionResult:
    """The product of a selection method.

    ``kept_ids`` preserve source order; ``scores`` align with ``kept_ids``
    and are method-specific: 0.0 for random, distance to cluster centroid
    for semdedup/prototypes/d4.
    """

    method: str
    r_target: float
    kept_ids: tuple[str, ...]
    scores: tuple[float, ...]
    n_source: int
    fingerprint: str
    epsilon_used: float | None = None
    stages: tuple["SelectionResult", ...] = ()
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "kept_ids", _str_ids("kept", self.kept_ids))
        if len(self.kept_ids) != len(self.scores):
            raise ValidationError("scores must align with kept ids")

    @property
    def n_kept(self) -> int:
        return len(self.kept_ids)

    @property
    def r_achieved(self) -> float:
        return self.n_kept / self.n_source if self.n_source else 0.0


@dataclass(frozen=True)
class D4Config:
    r_dedup: float = 0.75
    r_proto: float = 1.0
    recluster: bool = True
    kmeans: KmeansConfig = field(default_factory=KmeansConfig)

    def __post_init__(self):
        object.__setattr__(self, "r_dedup", _real("r_dedup", self.r_dedup, "(0, 1]"))
        object.__setattr__(self, "r_proto", _real("r_proto", self.r_proto, "(0, 1]"))
        _instance("recluster", self.recluster, bool)
        _instance("kmeans", self.kmeans, KmeansConfig)

    @property
    def r_overall(self) -> float:
        return self.r_dedup * self.r_proto


def _result(
    method: str, r_target: float, ids: tuple[str, ...], rows: np.ndarray, scores: np.ndarray, **extra
) -> SelectionResult:
    """The result of keeping ``ids[rows]``; ``rows`` ascend and ``scores`` align with them."""
    return SelectionResult(
        method=method,
        r_target=r_target,
        kept_ids=tuple(ids[i] for i in rows.tolist()),
        scores=tuple(scores.tolist()),
        n_source=len(ids),
        fingerprint=source_fingerprint(ids),
        **extra,
    )


def select_random(ids: tuple[str, ...] | list[str], r: float, seed: int = 0) -> SelectionResult:
    """Uniform sample without replacement of round(r * n) ids."""
    r, seed = _real("selection ratio", r, "(0, 1]"), _index("seed", seed)
    ids = _str_ids("source", ids)
    n = len(ids)
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    rows = np.sort(rng.choice(n, size=_round_half_up(r * n), replace=False))
    return _result(f"random(seed={seed})", r, ids, rows, np.zeros(rows.size))


def _id_rank(ids: tuple[str, ...]) -> np.ndarray:
    """Each id's position in sorted order, as a lexsort key."""
    rank = np.empty(len(ids), dtype=np.intp)
    rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return rank


def _spanning_forest(
    emb: EmbeddingMatrix, clustering: Clustering
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximum-similarity spanning tree of every cluster, by Prim's algorithm.

    Returns the edges, heaviest first, as global endpoint indices plus
    their cosine similarities clipped to [-1, 1]; a cluster of m members
    gives m - 1 edges. Each head is the tree parent of its tail, and every
    member but the first of its cluster is a tail exactly once. For every
    threshold t, the components of a cluster's "sim > t" graph are exactly
    those its tree edges of weight > t leave (the single-linkage/MST
    equivalence). Each step computes one row of similarities, so no m x m
    matrix is built, and rows that joined the tree are dropped from it as
    the tree grows, so the steps' gemvs cover about (4/7) m^2 rows in all,
    not m^2. Ties go to the lowest member.
    """
    X = emb._rows()
    empty = np.zeros(0, dtype=np.intp)
    heads, tails, weights = [empty], [empty], [np.zeros(0)]
    for idx in clustering.members():
        m = idx.size
        if m < 2:
            continue
        # ``rows`` holds every member still outside the tree, in member
        # order, and those that joined since it was last compacted, as
        # float64; ``at`` names the member of each row.
        rows = X[idx]
        at = np.arange(m)
        best = np.full(m, -np.inf)  # similarity to the nearest tree member
        parent = np.zeros(m, dtype=np.intp)
        outside = np.ones(m, dtype=bool)
        head = np.empty(m - 1, dtype=np.intp)
        tail = np.empty(m - 1, dtype=np.intp)
        weight = np.empty(m - 1)
        v = member = 0
        for step in range(m - 1):
            outside[v] = False
            best[v] = -np.inf
            x = rows[v]
            left = m - 1 - step
            # Once a quarter of ``rows``, and at least _COMPACT_ROWS, have
            # joined, drop them: a gemv then covers at most about 4/3 of the
            # rows still outside. Dropping fewer saves less than the copy costs.
            if at.size - left >= max(_COMPACT_ROWS, at.size // 4):
                rows, at, best, parent = rows[outside], at[outside], best[outside], parent[outside]
                outside = np.ones(left, dtype=bool)
            sims = rows @ x
            closer = outside & (sims > best)
            best[closer] = sims[closer]
            parent[closer] = member
            v = int(best.argmax())  # ties to the lowest member, as rows keep member order
            member = int(at[v])
            head[step], tail[step], weight[step] = parent[v], member, best[v]
        heads.append(idx[head])
        tails.append(idx[tail])
        weights.append(weight)
    # Clipping is monotone, so the trees stay maximal under it.
    weights = np.clip(np.concatenate(weights), -1.0, 1.0)
    order = np.argsort(-weights, kind="stable")
    return np.concatenate(heads)[order], np.concatenate(tails)[order], weights[order]


def _choose_cut(
    X, heads: np.ndarray, tails: np.ndarray, weights: np.ndarray, r_target: float
) -> tuple[int, float, np.ndarray]:
    """How many of the heaviest forest edges to merge, and the epsilon that does it.

    ``weights`` run heaviest first; ``X`` is a float64 array or a matrix's
    rows (``EmbeddingMatrix._rows()``), n x d. Merging m edges keeps n - m
    documents; m is achievable when m = 0 or when the weights drop by more
    than the rounding of a dot (``cluster._rounding_band``) after the m-th edge, so
    every rounding of the forest, in any row order, leaves the same
    components; an edge of weight -1 never merges. The achievable kept
    count closest to ``r_target * n`` wins, ties toward the smaller kept
    set, except that m = 0 (epsilon 0) is used whenever it is already
    within ``SEMDEDUP_RATIO_TOL``. Returns (m, epsilon, achievable kept
    counts in decreasing order).
    """
    n, d = X.shape
    w = weights[weights > -1.0]
    drops = np.flatnonzero(w[:-1] - w[1:] > _rounding_band(d)) + 1
    # drops ascend strictly inside (0, w.size), so these counts are distinct;
    # an empty forest merges only 0.
    merged = np.concatenate(([0], drops, [w.size])) if w.size else np.zeros(1, dtype=np.int64)
    kept = n - merged
    if abs(1.0 - r_target) <= SEMDEDUP_RATIO_TOL:
        m = 0
    else:
        gap = np.abs(kept - r_target * n)
        m = int(merged[gap.size - 1 - np.argmin(gap[::-1])])
    if m == 0:
        eps = 0.0
    elif m == w.size:
        eps = 2.0
    else:
        # Midway through the gap, so rounding cannot move an edge across it; from
        # the two edges' exact dots, though row order can pick which edges of the
        # rounding band these are, and so move epsilon by an ulp.
        exact = [min(1.0, max(-1.0, math.fsum(X[heads[i]] * X[tails[i]]))) for i in (m - 1, m)]
        eps = 1.0 - 0.5 * (exact[0] + exact[1])
    return m, eps, kept


def _semdedup(
    emb: EmbeddingMatrix, clustering: Clustering, r_dedup: float, keep_rule: str
) -> tuple[np.ndarray, SelectionResult]:
    """SemDeDup's kept rows, ascending, and its result, on checked inputs."""
    n = emb.n
    heads, tails, weights = _spanning_forest(emb, clustering)
    m, eps, achievable = _choose_cut(emb._rows(), heads, tails, weights, r_dedup)
    # The m heaviest forest edges join each epsilon-component; its label is
    # its lowest index, used only to group members in the lexsort below.
    labels = components(n, heads[:m], tails[:m])

    # Each component keeps its member farthest from (or nearest to) the
    # centroid, ties to the lowest id.
    distance = clustering.distance
    sign = -1.0 if keep_rule == "farthest" else 1.0
    order = np.lexsort((_id_rank(emb.ids), sign * distance, labels))
    first = np.ones(n, dtype=bool)
    first[1:] = labels[order[1:]] != labels[order[:-1]]
    rows = np.sort(order[first])

    warnings = ()
    if n and abs(rows.size / n - r_dedup) > SEMDEDUP_RATIO_TOL:
        # Achievable counts run high to low: the nearest on either side.
        below = achievable[achievable < r_dedup * n][:1]
        above = achievable[achievable > r_dedup * n][-1:]
        nearest = " / ".join(f"{k / n:.4f}" for k in (*below, *above))
        warnings = (
            f"target kept fraction {r_dedup:.4f} unreachable; "
            f"closest achievable: {nearest}; "
            f"kept {rows.size / n:.4f} at epsilon {eps:.6g}",
        )
    method = f"semdedup(r_dedup={r_dedup:g}, keep_rule={keep_rule})"
    return rows, _result(method, r_dedup, emb.ids, rows, distance[rows], epsilon_used=eps, warnings=warnings)


def semdedup(
    emb: EmbeddingMatrix,
    clustering: Clustering,
    r_dedup: float,
    keep_rule: str = "farthest",
) -> SelectionResult:
    """Semantic dedup: one representative per within-cluster epsilon-component.

    Each cluster's maximum spanning tree fixes the kept count at every
    epsilon, so epsilon is chosen exactly: the achievable kept fraction
    closest to ``r_dedup`` (ties toward the smaller kept set), or
    epsilon 0 when keeping everything is already within
    ``SEMDEDUP_RATIO_TOL``. When no achievable fraction is within it (the
    kept-fraction step function jumps over the target, or the floor of
    one-per-cluster is above it), a warning naming the nearest achievable
    fractions on either side is recorded on the result.
    """
    r_dedup = _real("r_dedup", r_dedup, "(0, 1]")
    if keep_rule not in ("farthest", "nearest"):
        raise ValidationError(f"unknown keep_rule: {keep_rule!r}")
    _check_clustering(clustering, _cosine_matrix("emb", emb))
    return _semdedup(emb, clustering, r_dedup, keep_rule)[1]


def _prototypes(
    ids: tuple[str, ...], distance: np.ndarray, r_proto: float
) -> tuple[np.ndarray, SelectionResult]:
    """Prototype pruning's kept rows, ascending, and its result, on checked inputs."""
    n_discard = _round_half_up((1.0 - r_proto) * len(ids))
    keep = np.ones(len(ids), dtype=bool)
    keep[np.lexsort((_id_rank(ids), distance))[:n_discard]] = False
    rows = np.flatnonzero(keep)
    return rows, _result(f"prototypes(r_proto={r_proto:g})", r_proto, ids, rows, distance[rows])


def ssl_prototypes(
    emb: EmbeddingMatrix, clustering: Clustering, r_proto: float
) -> SelectionResult:
    """Discard the round((1 - r) * n) points closest to their centroid.

    Ranking is global across clusters; ties break by discarding the lowest
    id first. Scores are distances to the assigned (nearest) centroid.
    """
    r_proto = _real("r_proto", r_proto, "(0, 1]")
    _check_clustering(clustering, emb)
    return _prototypes(emb.ids, clustering.distance, r_proto)[1]


def d4(
    emb: EmbeddingMatrix,
    cfg: D4Config,
    clustering: Clustering | None = None,
    artifacts: dict | None = None,
) -> SelectionResult:
    """Dedup, re-cluster the survivors, then prune prototypes.

    Stage 1 runs semdedup at ``cfg.r_dedup`` on a clustering of the full
    matrix (fit here with ``cfg.kmeans`` when not supplied). Stage 2
    re-clusters the surviving rows, with k defaulting to round(sqrt(n'))
    unless ``cfg.kmeans.k`` overrides it; with ``recluster=False`` the
    original centroids and restricted assignments are reused instead.
    Stage 3 applies prototype pruning at ``cfg.r_proto``.

    Passing a dict as ``artifacts`` exposes the intermediate products
    (keys ``stage1_clustering``, ``stage2_embeddings``,
    ``stage2_clustering``) for diagnostics.
    """
    _instance("cfg", cfg, D4Config)
    if artifacts is not None:
        _instance("artifacts", artifacts, dict)
    if clustering is None:  # a fit describes ``emb`` by construction, so only a given clustering is checked
        clustering = kmeans_spherical(emb, cfg.kmeans)
    else:
        _check_clustering(clustering, _cosine_matrix("emb", emb))

    rows1, stage1 = _semdedup(emb, clustering, cfg.r_dedup, "farthest")
    sub = emb.subset(rows1)
    # Either clustering describes ``sub`` by construction, so stage 3 needs no check.
    if cfg.recluster:
        sub_clustering = kmeans_spherical(sub, cfg.kmeans)
    else:
        sub_clustering = Clustering(
            centroids=clustering.centroids,
            assignment=clustering.assignment[rows1],
            distance=clustering.distance[rows1],
            seed=clustering.seed,
        )
    rows3, stage3 = _prototypes(sub.ids, sub_clustering.distance, cfg.r_proto)
    if artifacts is not None:
        artifacts["stage1_clustering"] = clustering
        artifacts["stage2_embeddings"] = sub
        artifacts["stage2_clustering"] = sub_clustering

    warnings = list(stage1.warnings)
    if emb.n and abs(rows3.size / emb.n - cfg.r_overall) > D4_RATIO_TOL:
        warnings.append(
            f"overall kept fraction {rows3.size / emb.n:.4f} outside {D4_RATIO_TOL} of "
            f"target {cfg.r_overall:.4f}"
        )
    return _result(
        (
            f"d4(r_dedup={cfg.r_dedup:g}, r_proto={cfg.r_proto:g}, "
            f"recluster={str(cfg.recluster).lower()})"
        ),
        cfg.r_overall,
        emb.ids,
        rows1[rows3],
        sub_clustering.distance[rows3],
        epsilon_used=stage1.epsilon_used,
        stages=(stage1, stage3),
        warnings=tuple(warnings),
    )
