"""Spherical k-means over unit-norm embeddings.

Lloyd iterations with cosine-similarity assignment and renormalized-mean
centroid updates. Initialization samples k distinct data rows under the
seed, by Floyd's algorithm on the package's keyed hash (:func:`_sample_rows`);
k defaults to round(sqrt(n)) when not set explicitly. No cluster balancing
is performed during the fit; balance is reported as a diagnostic instead.

Empty clusters are repaired by reseeding the empty centroid with the point
currently farthest from its assigned centroid (next-farthest points for
multiple empties). This guarantees no empty clusters in the result as long
as the data has at least k distinct rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import graph, hashing
from .corpus import open_output
from .embed import _MATRICES, EmbeddingMatrix, _check_size, _cosine_matrix, _float_array, _read_array, _read_header
from .embed import _row_dots, _unit_rows, _write_header
from .errors import FormatError, ValidationError, _index, _instance, _path, _real

MAGIC = b"D4KM"
DIST_TOL = 1e-5
# A product block of a matrix's rows, which it gathers as float64, has at most
# 1 / _GATHER_PARTS of them, so the gather takes at most a quarter of float32
# rows' bytes; or _GATHER_ROWS rows if more, since a smaller gemm costs more
# Python per row than its float64 copy saves.
_GATHER_PARTS = 8
_GATHER_ROWS = 256


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def default_k(n: int) -> int:
    """Cluster-count heuristic: round(sqrt(n)), at least 1 as n is."""
    return _round_half_up(math.sqrt(_index("point count", n, 1)))


@dataclass(frozen=True)
class KmeansConfig:
    """Fit parameters. ``k=None`` means round(sqrt(n)) at fit time.

    There are no balancing knobs on purpose: the minimum points per
    centroid is effectively 1 and the maximum unbounded, so cluster sizes
    fall where the data puts them (balance is a diagnostic, not a
    constraint). Integer fields are stored as ``int`` (:func:`d4kit.errors._index`).
    """

    k: int | None = None
    iters: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.k is not None:
            object.__setattr__(self, "k", _index("k", self.k, 1))
        object.__setattr__(self, "iters", _index("iters", self.iters, 1))
        object.__setattr__(self, "seed", _index("seed", self.seed))


@dataclass(frozen=True)
class Clustering:
    """k unit-norm centroids plus per-point assignment and cosine distance.

    Centroids are held as float64 (converted once here); stored as float32 on disk.
    ``seed`` and ``objective_history`` describe the fit that produced the
    clustering; they are not persisted by the binary format. ``k`` and
    ``iters_run`` are computed from the fields.
    """

    centroids: np.ndarray
    assignment: np.ndarray
    distance: np.ndarray
    seed: int = 0
    objective_history: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        object.__setattr__(self, "centroids", _unit_rows("centroids", self.centroids))
        if not (isinstance(self.assignment, np.ndarray) and np.issubdtype(self.assignment.dtype, np.integer)):
            raise ValidationError(f"assignment must be an integer array, got {type(self.assignment).__name__}")
        if not isinstance(self.distance, np.ndarray):
            raise ValidationError(f"distances must be an array, got {type(self.distance).__name__}")
        object.__setattr__(self, "distance", _float_array("distances", self.distance))
        if self.assignment.shape != self.distance.shape:
            raise ValidationError("assignment and distance lengths differ")
        if not np.isfinite(self.distance).all():
            raise ValidationError("distances must be finite (no NaN or infinity)")
        if self.n and (self.assignment.min() < 0 or self.assignment.max() >= self.k):
            raise ValidationError("cluster index out of range [0, k)")
        if self.n and (self.distance.min() < 0.0 or self.distance.max() > 2.0):
            raise ValidationError("cosine distances must lie in [0, 2]")
        object.__setattr__(self, "seed", _index("seed", self.seed))
        history = _instance("objective_history", self.objective_history, tuple)
        history = tuple(_real(f"objective_history[{i}]", v, "(-inf, inf)") for i, v in enumerate(history))
        object.__setattr__(self, "objective_history", history)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def iters_run(self) -> int:
        """Lloyd iterations of the fit: one per objective after the first."""
        return max(len(self.objective_history) - 1, 0)

    @property
    def n(self) -> int:
        return self.assignment.shape[0]

    @property
    def d(self) -> int:
        return self.centroids.shape[1]

    def validate_for(self, emb: EmbeddingMatrix) -> None:
        """Check that this clustering describes ``emb``.

        ``emb`` is an :class:`EmbeddingMatrix` or a checked ``.d4em`` file
        read again a block at a time (``embed._scan_embeddings``). Each
        stored distance is checked against its row's dot with its centroid,
        one row block at a time, so no n x d gather of rows or centroids is
        built.
        """
        if _cosine_matrix("emb", emb, _MATRICES).n != self.n:
            raise ValidationError(f"clustering covers {self.n} points, matrix has {emb.n}")
        if emb.d != self.d:
            raise ValidationError(f"clustering dimension {self.d} != matrix {emb.d}")
        worst = 0.0
        for rows, block in emb._blocks():
            dots = _row_dots(block, self.centroids[self.assignment[rows]])
            worst = max(worst, float(np.abs(self.distance[rows] - np.clip(1.0 - dots, 0.0, 2.0)).max()))
        if worst > DIST_TOL:
            raise ValidationError(
                f"stored distances inconsistent with matrix (max error {worst:.2e})"
            )

    def members(self) -> list[np.ndarray]:
        """Point indices per cluster, ascending within each cluster."""
        return list(graph.members(self.assignment, self.k))


def _check_clustering(clustering, emb: EmbeddingMatrix) -> None:
    """``ValidationError`` unless ``clustering`` is a :class:`Clustering`
    that describes ``emb`` (:meth:`Clustering.validate_for`)."""
    _instance("clustering", clustering, Clustering).validate_for(emb)


def _sample_rows(seed: int, n: int, k: int) -> list[int]:
    """k distinct rows of range(n) under ``seed``, in the order picked.

    Floyd's algorithm (Bentley & Floyd, "A sample of brilliance", CACM 1987):
    for j in ``range(n - k, n)`` the candidate is ``h_j * (j + 1) >> 64``,
    a row in [0, j], where ``h_j`` is :func:`d4kit.hashing.keyed_digests` of
    j's 8 little-endian bytes keyed by ``seed``; row j is taken instead if
    the candidate is already picked. O(k) time and memory.
    """
    tail = range(n - k, n)
    digests = hashing.keyed_digests((j.to_bytes(8, "little") for j in tail), seed).tolist()
    picked: dict[int, None] = {}
    for j, h in zip(tail, digests):
        row = h * (j + 1) >> 64
        picked[j if row in picked else row] = None
    return list(picked)


def _block_rows(a, b: np.ndarray) -> int:
    """Rows of ``a @ b.T`` per block: within half the larger input's entry
    count and within the gather cap (``_GATHER_PARTS``, ``_GATHER_ROWS``).
    The cap does not look at the held dtype: a gemm's bits depend on its
    block's shape, so the same values held as float32 or float64 must split
    alike to give the same products."""
    n, d = a.shape
    rows = max(n * d, b.size) // max(2 * b.shape[0], 1)
    return min(rows, max(-(-n // _GATHER_PARTS), _GATHER_ROWS))


def _product_blocks(a, b: np.ndarray):
    """Yield ``(start, stop, a[start:stop] @ b.T)`` over the rows of ``a``, in float64.

    ``a`` is a matrix's rows (``EmbeddingMatrix._rows()``), which each block
    gathers as float64. The rows split into near-equal blocks of at most
    :func:`_block_rows` rows, so no block holds more than half the entries
    of the larger of ``a`` and ``b`` and the product takes O(n * d) memory
    whatever its shape. Half is the floor: smaller blocks give each gemm
    fewer rows, and ``nn_to_train`` slows more than the memory saved is
    worth. The rows split at least ``_GATHER_PARTS`` ways, or into
    ``_GATHER_ROWS``-row blocks: as one block, every ``assign`` would gather
    them all as float64, twice a float32 matrix's bytes. No block has
    a single row unless ``a`` has one, because numpy computes a one-row
    product with gemv, which rounds differently from gemm; so a block may
    reach three rows when :func:`_block_rows` is below that (d <= 5).
    Blocks of two or more rows go through gemm, but BLAS picks its kernel
    by shape and by an entry's place in its tiles, so a block's bits need
    not equal the full product's. Only distances carry these bits:
    :func:`_nearest` ranks near-ties by exact dots.

    Every block is written into one buffer, so each is overwritten by the
    next and only one is held at a time.
    """
    n = a.shape[0]
    if n == 0:
        return
    parts = min(-(-n // max(_block_rows(a, b), 2)), max(n // 2, 1))
    edges = (n * np.arange(parts + 1) // parts).tolist()
    buf = np.empty((-(-n // parts), b.shape[0]))
    for start, stop in zip(edges[:-1], edges[1:]):
        block = buf[: stop - start]
        np.matmul(a[start:stop], b.T, out=block)
        yield start, stop, block


def _rounding_band(d: int) -> float:
    """How far apart two roundings of one dot of unit d-vectors may fall: ``2 * d * eps``."""
    return 2 * d * np.finfo(np.float64).eps


def _nearest(a, blocks, ties, chosen: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``a``'s nearest row of b by dot product, and its largest gemm dot.

    ``a`` is a matrix's rows (``EmbeddingMatrix._rows()``), gathered as
    float64. b comes as ``(rows, b[rows])`` blocks in order: all centroids
    as one block, or ``EmbeddingMatrix._blocks()``. Each block's dots come
    in row blocks of ``a`` (:func:`_product_blocks`). Across blocks, each
    row of ``a`` carries its incumbent: the largest gemm dot so far, the
    chosen index and, in ``chosen`` (a float64 array of ``a``'s shape,
    needed when b has more than one block), the chosen row. Candidates
    within :func:`_rounding_band` of the largest dot, the incumbent among
    them, are ranked again by ``math.fsum`` dots, which round alike wherever
    a row falls, and the lowest ``ties[c]`` wins among the exact best. So the
    choice depends on neither BLAS tiles nor either block split.
    """
    band = _rounding_band(a.shape[1])
    nearest = np.zeros(a.shape[0], dtype=np.intp)
    best = np.full(a.shape[0], -np.inf)
    for rows, b in blocks:
        for start, stop, sims in _product_blocks(a, b):
            top = sims.argmax(axis=1)
            s = sims[np.arange(stop - start), top]
            held = best[start:stop] >= s - band  # the incumbent is a candidate
            np.maximum(best[start:stop], s, out=best[start:stop])
            close = sims >= (best[start:stop] - band)[:, None]
            count = np.count_nonzero(close, axis=1)
            count += held
            won = (count == 1) & ~held  # the block's best, alone
            if chosen is not None:
                chosen[start:stop][won] = b[top[won]]
            top += rows.start
            np.copyto(nearest[start:stop], top, where=won)
            for i in (start + np.flatnonzero(count > 1)).tolist():
                candidates = [(rows.start + c, b[c]) for c in np.flatnonzero(close[i - start]).tolist()]
                if held[i - start]:
                    candidates.append((nearest[i], chosen[i]))
                nearest[i], row = min(candidates, key=lambda c: (-math.fsum(a[i] * c[1]), ties[c[0]]))
                if chosen is not None:
                    chosen[i] = row
    return nearest, best


def assign(emb: EmbeddingMatrix, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign each row to the centroid with the largest dot product.

    Returns (assignment, cosine distance) by :func:`_nearest`: near-ties
    are ranked by exact dots and go to the lowest centroid index, whatever
    the block split, so a duplicated centroid never takes a point from its
    first copy. All centroids are one block, and a distance is ``1 - s``
    for the row's largest gemm dot ``s``, clipped into [0, 2].
    """
    centroids = _unit_rows("centroids", centroids, _cosine_matrix("emb", emb).d)
    k = centroids.shape[0]
    nearest, best = _nearest(emb._rows(), [(slice(0, k), centroids)], range(k))
    return nearest.astype(np.uint32), np.clip(1.0 - best, 0.0, 2.0)


def _cluster_sums(X, assignment: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-cluster sums of the rows of X, bit-equal to ``np.add.at``.

    X is a float64 array or a matrix's rows (``EmbeddingMatrix._rows()``),
    gathered as float64 a cluster at a time. Each cluster's rows
    (:func:`d4kit.graph.members`) are added in index order, as ``np.add.at``
    adds them. numpy sums a lone column pairwise, so d = 1 goes through
    ``bincount``, which also adds in index order.
    """
    k = counts.shape[0]
    if X.shape[1] == 1:
        return np.bincount(assignment, weights=X[:, 0], minlength=k)[:, None]
    sums = np.zeros((k, X.shape[1]), dtype=np.float64)
    for j, rows in enumerate(graph.members(assignment, k)):
        if rows.size:
            sums[j] = X[rows].sum(axis=0)
    return sums


def _update_centroids(
    X,
    centroids: np.ndarray,
    assignment: np.ndarray,
    distance: np.ndarray,
    k: int,
) -> np.ndarray:
    counts = np.bincount(assignment, minlength=k)
    sums = _cluster_sums(X, assignment, counts)
    norms = np.linalg.norm(sums, axis=1)
    movable = (counts > 0) & (norms > 0)
    new = np.divide(sums, norms[:, None], out=centroids.copy(), where=movable[:, None])

    empties = np.flatnonzero(counts == 0)
    if empties.size:
        # Farthest points first; each empty centroid grabs the next one.
        order = np.argsort(-distance, kind="stable")
        for j, p in zip(empties, order[: empties.size]):
            new[j] = X[p]
    return new


def kmeans_spherical(
    emb: EmbeddingMatrix,
    cfg: KmeansConfig | None = None,
    init_centroids: np.ndarray | None = None,
) -> Clustering:
    """Fit spherical k-means; deterministic for fixed inputs and seed.

    Runs exactly ``cfg.iters`` Lloyd iterations unless the assignment stops
    changing earlier. By default the fit starts from the k data rows that
    :func:`_sample_rows` picks under ``cfg.seed`` mod 2**64, in the order
    picked. ``init_centroids`` overrides that initialization (and fixes k to
    its row count); its rows must be unit-norm within ``embed.NORM_TOL`` and
    start the fit as given, not renormalized.
    """
    cfg = KmeansConfig() if cfg is None else _instance("cfg", cfg, KmeansConfig)
    n = _cosine_matrix("emb", emb).n
    if n < 1:
        raise ValidationError("cannot cluster an empty matrix")

    X = emb._rows()
    if init_centroids is not None:
        # Used as given: the same rows start the same fit as a seeded draw.
        C = _unit_rows("init_centroids", init_centroids, emb.d)
        k = C.shape[0]
        if not k:
            raise ValidationError("init_centroids must be (k, d) with k >= 1")
        if cfg.k is not None and cfg.k != k:
            raise ValidationError("cfg.k disagrees with init_centroids row count")
    else:
        k = cfg.k if cfg.k is not None else default_k(n)
        if k > n:
            raise ValidationError(f"k ({k}) exceeds point count ({n})")
        C = X[_sample_rows(cfg.seed, n, k)]  # float64, as every update keeps it

    assignment, distance = assign(emb, C)
    history = [float(distance.sum())]
    for iteration in range(1, cfg.iters + 1):
        C = _update_centroids(X, C, assignment, distance, k)
        new_assignment, new_distance = assign(emb, C)
        obj = float(new_distance.sum())
        # Lloyd never increases the objective; tolerate only rounding noise.
        if obj > history[-1] + 1e-9 * max(1.0, history[-1]):
            raise ValidationError(
                f"k-means objective rose at iteration {iteration}: {history[-1]!r} -> {obj!r}"
            )
        history.append(obj)
        unchanged = np.array_equal(new_assignment, assignment)
        assignment, distance = new_assignment, new_distance
        if unchanged:
            break

    return Clustering(
        centroids=C, assignment=assignment, distance=distance, seed=cfg.seed, objective_history=tuple(history)
    )


def objective(emb: EmbeddingMatrix, clustering: Clustering) -> float:
    """Sum of cosine distances to assigned centroids."""
    _check_clustering(clustering, emb)
    return float(clustering.distance.sum())


def write_clustering(c: Clustering, path: str) -> None:
    """Persist a clustering (fit metadata is not stored)."""
    _instance("c", c, Clustering)
    with open_output(path, "wb") as fh:
        _write_header(fh, MAGIC, "IIQ", c.k, c.d, c.n)
        fh.write(np.ascontiguousarray(c.centroids, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(c.assignment, dtype="<u4").tobytes())
        fh.write(np.ascontiguousarray(c.distance, dtype="<f4").tobytes())


def read_clustering(path: str) -> Clustering:
    """Inverse of :func:`write_clustering`; the header is checked as a ``.d4em`` header is."""
    with open(_path(path), "rb") as fh:
        k, d, n = _read_header(fh, MAGIC, "IIQ")
        _check_size(fh, (k * d + 2 * n) * 4)
        centroids = _read_array(fh, (k, d), "<f4", 24)
        assignment = _read_array(fh, (n,), "<u4", 24 + k * d * 4, claim=16)
        distance = _read_array(fh, (n,), "<f4", 24 + (k * d + n) * 4, claim=16)
        if fh.read(1):
            raise FormatError("trailing bytes after distances", 24 + (k * d + 2 * n) * 4)
    return Clustering(centroids=centroids, assignment=assignment, distance=distance)
