import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from d4kit import (
    Clustering,
    D4Config,
    EmbeddingMatrix,
    KmeansConfig,
    ValidationError,
    assign,
    d4,
    kmeans_spherical,
    select_random,
    semdedup,
    ssl_prototypes,
)
import d4kit.select as select_mod
from d4kit.diagnostics import find_duplicate_driven_clusters
from d4kit.select import SEMDEDUP_RATIO_TOL, _choose_cut, _spanning_forest, source_fingerprint

from oracles import prototypes_oracle, scalar_dot, semdedup_oracle


def _random_emb(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(
        ids=tuple(f"p{i:03d}" for i in range(n)),
        vectors=rows.astype(np.float32),
        normalized=True,
    )


def _kept_counts(emb, clustering, epsilons):
    """Kept-document counts at each epsilon: n minus the forest edges heavier than 1 - epsilon."""
    weights = _spanning_forest(emb, clustering)[2]
    return [emb.n - int(np.count_nonzero(weights > 1.0 - e)) for e in epsilons]


def _clustering_from_centroids(emb, centroids):
    a, dist = assign(emb, centroids)
    return Clustering(
        centroids=np.asarray(centroids, dtype=np.float64),
        assignment=a,
        distance=dist,
    )


class TestSourceFingerprint:
    @given(st.lists(st.text(st.characters(blacklist_categories=("Cs",))), max_size=20))
    @example([])
    @example(["é", "文書-7", "a\nb", ""])
    def test_equals_per_id_stream(self, ids):
        # ``overlap`` compares fingerprints across selection directories, so
        # the digest stays that of each id's UTF-8 bytes and a newline.
        h = hashlib.sha256()
        for doc_id in ids:
            h.update(doc_id.encode("utf-8"))
            h.update(b"\n")
        assert source_fingerprint(ids) == h.hexdigest()[:16]


class TestRandom:
    def test_r_one_keeps_everything(self):
        r = select_random(("a", "b", "c"), 1.0, seed=1)
        assert r.kept_ids == ("a", "b", "c")

    def test_exact_count_and_source_order(self):
        ids = tuple(f"i{j:02d}" for j in range(100))
        r = select_random(ids, 0.37, seed=5)
        assert r.n_kept == 37
        assert list(r.kept_ids) == sorted(r.kept_ids)
        assert set(r.kept_ids) <= set(ids)

    def test_deterministic(self):
        ids = tuple(f"i{j}" for j in range(50))
        assert select_random(ids, 0.5, seed=9).kept_ids == select_random(ids, 0.5, seed=9).kept_ids

    def test_ratio_validation(self):
        with pytest.raises(ValidationError):
            select_random(("a",), 0.0)
        with pytest.raises(ValidationError):
            select_random(("a",), 1.5)

    @pytest.mark.parametrize("ids", [("a", "a"), ("a", "a", "b")])
    def test_duplicate_ids_rejected(self, ids):
        with pytest.raises(ValidationError, match="ids must be unique"):
            select_random(ids, 0.5, seed=1)


class TestSemdedup:
    def test_no_duplicates_r1_keeps_all_at_no_edges_end(self):
        emb = _random_emb(30, 8, seed=0)
        c = kmeans_spherical(emb, KmeansConfig(k=5, seed=0))
        r = semdedup(emb, c, 1.0)
        assert r.kept_ids == emb.ids
        assert r.epsilon_used == 0.0
        assert not r.warnings

    def test_identical_points_collapse(self):
        row = np.zeros(8)
        row[3] = 1.0
        emb = EmbeddingMatrix(
            ids=("a", "b", "c", "d"),
            vectors=np.tile(row, (4, 1)).astype(np.float32),
            normalized=True,
        )
        c = kmeans_spherical(emb, KmeansConfig(k=1, seed=0))
        r = semdedup(emb, c, 0.25)
        assert r.n_kept == 1

    def test_planted_corpus_matches_union_find_oracle(
        self, planted_docs, planted_emb, planted_clustering
    ):
        r = semdedup(planted_emb, planted_clustering, 920 / 1000)
        assert not r.warnings
        assert abs(r.r_achieved - 0.92) <= 0.005

        oracle_kept = semdedup_oracle(
            planted_emb.vectors.tolist(),
            planted_emb.ids,
            planted_clustering.assignment.tolist(),
            planted_clustering.distance.tolist(),
            r.epsilon_used,
        )
        assert set(r.kept_ids) == oracle_kept

        survivors_per_group: dict[str, int] = {}
        kept = set(r.kept_ids)
        for d in planted_docs:
            g = d.meta["group"]
            if g != "none":
                survivors_per_group[g] = survivors_per_group.get(g, 0) + (d.id in kept)
            else:
                assert d.id in kept
        assert set(survivors_per_group.values()) == {1}

    def test_kept_count_monotone_in_epsilon(self, planted_emb, planted_clustering):
        eps_grid = [0.0, 0.05, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0]
        counts = _kept_counts(planted_emb, planted_clustering, eps_grid)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_unreachable_ratio_warns_with_closest(self, planted_emb, planted_clustering):
        # One survivor per cluster is the floor; ask for less than that.
        floor = planted_clustering.k / planted_emb.n
        r = semdedup(planted_emb, planted_clustering, floor / 2)
        assert r.warnings
        assert abs(r.r_achieved - floor) <= 0.005

    def test_keep_rule_flips_representative(self):
        # Two clusters of two mutual near-duplicates each; the farthest
        # rule keeps the outer point, the nearest rule the inner one.
        centroid = np.array([[1.0, 0.0, 0.0]])
        inner = np.array([0.999, np.sqrt(1 - 0.999**2), 0.0])
        outer = np.array([0.99, np.sqrt(1 - 0.99**2), 0.0])
        emb = EmbeddingMatrix(
            ids=("inner", "outer"),
            vectors=np.stack([inner, outer]).astype(np.float32),
            normalized=True,
        )
        c = _clustering_from_centroids(emb, centroid)
        far = semdedup(emb, c, 0.5, keep_rule="farthest")
        near = semdedup(emb, c, 0.5, keep_rule="nearest")
        assert far.kept_ids == ("outer",)
        assert near.kept_ids == ("inner",)

    def test_permutation_equivariance(self, planted_emb, planted_clustering):
        perm = np.random.default_rng(0).permutation(planted_emb.n)
        permuted, permuted_clustering = _permuted(planted_emb, planted_clustering, perm)
        a = semdedup(planted_emb, planted_clustering, 0.92)
        b = semdedup(permuted, permuted_clustering, 0.92)
        assert set(a.kept_ids) == set(b.kept_ids)
        assert a.epsilon_used == b.epsilon_used

    def test_unreachable_warning_names_both_neighbours(self):
        # One cluster: three copies of e_3 and the orthogonal e_0, e_1, e_2.
        # Forest weights are 1, 1, 0, 0, 0, so only 6, 4 and 1 kept docs
        # are achievable.
        rows = np.eye(4, dtype=np.float32)[[3, 3, 3, 0, 1, 2]]
        emb = EmbeddingMatrix(ids=tuple("abcdef"), vectors=rows, normalized=True)
        c = kmeans_spherical(emb, KmeansConfig(k=1, seed=0))
        low = semdedup(emb, c, 0.4)
        assert low.kept_ids == ("d",)
        assert low.epsilon_used == 2.0
        assert "closest achievable: 0.1667 / 0.6667" in low.warnings[0]
        high = semdedup(emb, c, 0.6)
        assert high.kept_ids == ("a", "d", "e", "f")
        assert 0.0 < high.epsilon_used < 1.0
        assert "closest achievable: 0.1667 / 0.6667" in high.warnings[0]

    def test_antipodal_points_never_merge(self):
        # Similarity -1 never exceeds 1 - epsilon for epsilon in [0, 2].
        emb = EmbeddingMatrix(
            ids=("a", "b"),
            vectors=np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32),
            normalized=True,
        )
        c = _clustering_from_centroids(emb, np.array([[0.0, 1.0]]))
        assert _kept_counts(emb, c, [0.0, 1.0, 2.0]) == [2, 2, 2]
        r = semdedup(emb, c, 0.5)
        assert r.kept_ids == ("a", "b")
        assert "closest achievable: 1.0000;" in r.warnings[0]

    @pytest.mark.parametrize("weights", [np.zeros(0), np.full(3, -1.0)], ids=["empty", "all_antipodal"])
    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_forest_that_merges_nothing_keeps_everything(self, weights, r):
        n, X = 4, np.eye(4)
        edges = np.arange(weights.size, dtype=np.intp)
        m, eps, kept = _choose_cut(X, edges, edges + 1, weights, r)
        assert (m, eps) == (0, 0.0)
        assert kept.tolist() == [n]


@st.composite
def _small_clustering(draw):
    """A few unit rows, some duplicated, in random clusters plus one singleton."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(2, 16))
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    n_dups = draw(st.integers(0, n // 2))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows.astype(np.float32)
    rows[rng.integers(0, n, n_dups)] = rows[rng.integers(0, n, n_dups)]
    emb = EmbeddingMatrix(ids=tuple(f"q{i:02d}" for i in range(n)), vectors=rows, normalized=True)
    assignment = rng.integers(0, k, size=n).astype(np.uint32)
    assignment[-1] = k  # a single-member cluster
    X = rows.astype(np.float64)
    centroids = np.zeros((k + 1, d))
    centroids[:, 0] = 1.0
    for j in range(k + 1):
        total = X[assignment == j].sum(axis=0)
        if np.linalg.norm(total) > 1e-6:
            centroids[j] = total / np.linalg.norm(total)
    distance = np.clip(1.0 - np.einsum("ij,ij->i", X, centroids[assignment]), 0.0, 2.0)
    c = Clustering(centroids=centroids, assignment=assignment, distance=distance)
    return emb, c


@st.composite
def _arc_clustering(draw):
    """Clusters whose points lie in index order along an arc, plus singletons.

    Similarity falls with arc distance, so Prim's tree from a cluster's
    first member is one path through all of them: the deepest tree there is.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 40))
    d = 4
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, k, size=n).astype(np.uint32)
    assignment[:k] = np.arange(k)  # no empty cluster
    rows = np.zeros((n, d))
    for j in range(k):
        idx = np.flatnonzero(assignment == j)
        gaps = draw(st.lists(st.floats(1e-3, 0.05), min_size=idx.size, max_size=idx.size))
        angles = np.cumsum(gaps)
        plane = np.linalg.qr(rng.normal(size=(d, 2)))[0]
        rows[idx] = np.cos(angles)[:, None] * plane[:, 0] + np.sin(angles)[:, None] * plane[:, 1]
    rows = rows.astype(np.float32)
    singletons = draw(st.integers(0, 3))
    rows = np.vstack([rows, np.eye(d, dtype=np.float32)[np.arange(singletons) % d]])
    assignment = np.concatenate([assignment, np.arange(k, k + singletons, dtype=np.uint32)])
    emb = EmbeddingMatrix(
        ids=tuple(f"a{i:02d}" for i in range(rows.shape[0])), vectors=rows, normalized=True
    )
    X = rows.astype(np.float64)
    centroids = np.array([X[assignment == j].sum(axis=0) for j in range(k + singletons)])
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    distance = np.clip(1.0 - np.einsum("ij,ij->i", X, centroids[assignment]), 0.0, 2.0)
    c = Clustering(centroids=centroids, assignment=assignment, distance=distance)
    return emb, c


def _oracle_args(emb, c):
    return emb.vectors.tolist(), emb.ids, c.assignment.tolist(), c.distance.tolist()


def _achievable_counts(emb, c) -> set[int]:
    """Every kept count some epsilon in [0, 2] gives, by brute force.

    The library compares similarities clipped to [-1, 1], so epsilon 0 keeps
    everything; every other count is the oracle's at a threshold midway
    between two consecutive distinct pairwise similarities, or at -1. The
    library also skips cuts within its rounding band (``2 * d * eps``);
    exact duplicates give equal levels here, and random rows put no other
    two levels that close, so the band removes none of these counts.
    """
    rows = emb.vectors.tolist()
    sims = {1.0}
    for idx in c.members():
        for a in idx:
            for b in idx:
                if a < b:
                    sims.add(min(1.0, max(-1.0, scalar_dot(rows[a], rows[b]))))
    levels = sorted(sims)
    thresholds = [-1.0] + [0.5 * (lo + hi) for lo, hi in zip(levels, levels[1:])]
    counts = {emb.n}
    for t in thresholds:
        counts.add(len(semdedup_oracle(*_oracle_args(emb, c), 1.0 - t)))
    return counts


class TestSpanningForest:
    @given(_arc_clustering(), st.one_of(st.just(1.0), st.just(1e-3), st.floats(0.01, 0.99)))
    def test_path_trees_match_union_find_oracle(self, case, r):
        # r = 1 merges no edge and r = 1e-3 every edge (one kept per
        # cluster); in between, merged runs of a path are many links long.
        emb, c = case
        got = semdedup(emb, c, r)
        assert set(got.kept_ids) == semdedup_oracle(*_oracle_args(emb, c), got.epsilon_used)
        if r == 1.0:
            assert got.n_kept == emb.n
        if r == 1e-3:
            assert got.n_kept == c.k

    @given(_small_clustering(), st.lists(st.floats(1e-6, 2.0), min_size=1, max_size=5))
    def test_kept_counts_match_union_find_oracle(self, case, epsilons):
        emb, c = case
        expected = [len(semdedup_oracle(*_oracle_args(emb, c), e)) for e in epsilons]
        assert _kept_counts(emb, c, epsilons) == expected

    @given(_small_clustering(), st.integers(1, 32), st.floats(0.01, 1.0), st.booleans())
    def test_kept_ratio_is_closest_achievable(self, case, half_steps, r_free, on_half_step):
        emb, c = case
        n = emb.n
        # Half-step targets make equidistant achievable counts likely.
        r = min(1.0, half_steps / (2 * n)) if on_half_step else r_free
        got = semdedup(emb, c, r)

        achievable = _achievable_counts(emb, c)
        if abs(1.0 - r) <= SEMDEDUP_RATIO_TOL:
            expected = n
        else:
            expected = min(achievable, key=lambda kept: (abs(kept - r * n), kept))
        assert got.n_kept == expected
        if got.epsilon_used == 0.0:
            assert got.kept_ids == emb.ids
        else:
            assert set(got.kept_ids) == semdedup_oracle(*_oracle_args(emb, c), got.epsilon_used)
        assert bool(got.warnings) == (abs(expected / n - r) > SEMDEDUP_RATIO_TOL)


    @given(st.lists(st.integers(0, 15), min_size=2, max_size=40), st.integers(1, 3), st.sampled_from([1, 2, 64]))
    def test_ties_go_to_the_lowest_member(self, signs, k, compact_rows):
        # Rows of +-1/2 have exact dots, so copies tie exactly and the tree
        # is the one Prim's algorithm grows in member order: each step takes
        # the lowest outside member of highest similarity, whose parent is
        # the first tree member to reach that similarity. Small
        # ``_COMPACT_ROWS`` drop joined rows from these small clusters too.
        rows = np.array([[0.5 if s >> b & 1 else -0.5 for b in range(4)] for s in signs])
        emb = EmbeddingMatrix(ids=tuple(f"r{i:02d}" for i in range(len(signs))), vectors=rows, normalized=True)
        c = kmeans_spherical(emb, KmeansConfig(k=min(k, len(set(signs))), iters=3, seed=len(signs)))
        expected = []
        for idx in c.members():
            member = rows[idx].tolist()
            m = len(member)
            inside, best, parent, v = [False] * m, [-np.inf] * m, [0] * m, 0
            for _ in range(m - 1):
                inside[v] = True
                for u in range(m):
                    if not inside[u] and scalar_dot(member[u], member[v]) > best[u]:
                        best[u], parent[u] = scalar_dot(member[u], member[v]), v
                v = max((u for u in range(m) if not inside[u]), key=lambda u: (best[u], -u))
                expected.append((int(idx[parent[v]]), int(idx[v]), best[v]))
        expected.sort(key=lambda edge: -edge[2])  # stable, as the library's sort
        with mock.patch.object(select_mod, "_COMPACT_ROWS", compact_rows):
            heads, tails, weights = _spanning_forest(emb, c)
        assert list(zip(heads.tolist(), tails.tolist(), weights.tolist())) == expected


@st.composite
def _duplicated_rows(draw):
    """A k-means clustering of float32 unit rows, a third of them exact copies
    of other rows, and a row permutation."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(75, 200))
    d = draw(st.sampled_from([16, 64, 128]))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows.astype(np.float32)
    rows[rng.choice(n, n // 3, replace=False)] = rows[rng.integers(0, n, n // 3)]
    emb = EmbeddingMatrix(ids=tuple(f"r{i:03d}" for i in range(n)), vectors=rows, normalized=True)
    c = kmeans_spherical(emb, KmeansConfig(k=draw(st.integers(2, 7)), iters=5, seed=seed))
    return emb, c, rng.permutation(n)


def _permuted(emb, c, perm):
    """``emb`` with its rows (and ids) in the order ``perm``, and ``c`` moved with them."""
    return (
        EmbeddingMatrix(ids=tuple(emb.ids[i] for i in perm), vectors=emb.vectors[perm], normalized=True),
        Clustering(centroids=c.centroids, assignment=c.assignment[perm], distance=c.distance[perm]),
    )


class TestRowOrder:
    @given(_duplicated_rows())
    def test_kept_sets_and_epsilon_ignore_row_order(self, case):
        # A duplicate pair's forest weight rounds to 1.0 or a few ulps below
        # it by the pair's position; no cut may fall inside that noise, and
        # epsilon may not move with it.
        emb, c, perm = case
        pemb, pc = _permuted(emb, c, perm)
        # Targets among the duplicate edges, whose weights differ by ulps.
        distinct = np.unique(emb.vectors, axis=0).shape[0]
        inside = [(distinct + (emb.n - distinct) * f) / emb.n for f in (0.25, 0.5, 0.75)]
        for r in (0.9, 0.7, 0.5, *inside):
            a, b = semdedup(emb, c, r), semdedup(pemb, pc, r)
            assert set(a.kept_ids) == set(b.kept_ids)
            assert a.epsilon_used == b.epsilon_used
            assert set(ssl_prototypes(emb, c, r).kept_ids) == set(ssl_prototypes(pemb, pc, r).kept_ids)

    @given(_duplicated_rows(), st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    def test_kept_sets_nested_across_ratios(self, case, r1, r2):
        # Components only merge as epsilon grows, and a merged component
        # keeps the member its parts ranked first.
        emb, c, _ = case
        lo, hi = sorted((r1, r2))
        assert set(semdedup(emb, c, lo).kept_ids) <= set(semdedup(emb, c, hi).kept_ids)
        assert set(ssl_prototypes(emb, c, lo).kept_ids) <= set(ssl_prototypes(emb, c, hi).kept_ids)


class TestPrototypes:
    def test_r_one_keeps_all(self):
        emb = _random_emb(10, 4, seed=1)
        c = kmeans_spherical(emb, KmeansConfig(k=2, seed=0))
        assert ssl_prototypes(emb, c, 1.0).kept_ids == emb.ids

    def test_most_prototypical_discarded(self):
        centroid = np.array([[1.0, 0.0, 0.0]])
        rows = []
        for cos in (0.9, 0.8, 0.7):  # distances 0.1, 0.2, 0.3
            rows.append([cos, np.sqrt(1 - cos**2), 0.0])
        emb = EmbeddingMatrix(
            ids=("close", "mid", "far"),
            vectors=np.array(rows, dtype=np.float32),
            normalized=True,
        )
        c = _clustering_from_centroids(emb, centroid)
        r = ssl_prototypes(emb, c, 2 / 3)
        assert r.kept_ids == ("mid", "far")

    def test_matches_sort_oracle_with_ties(self):
        emb = _random_emb(50, 6, seed=3)
        # Force ties: duplicate a few rows so distances coincide exactly.
        vecs = emb.vectors.copy()
        vecs[10] = vecs[3]
        vecs[20] = vecs[3]
        emb = EmbeddingMatrix(ids=emb.ids, vectors=vecs, normalized=True)
        c = kmeans_spherical(emb, KmeansConfig(k=7, seed=1))
        for r_target in (0.2, 0.5, 0.9):
            got = ssl_prototypes(emb, c, r_target)
            expected = prototypes_oracle(emb.ids, c.distance.tolist(), r_target)
            assert list(got.kept_ids) == expected

    def test_permutation_equivariance(self):
        emb = _random_emb(25, 5, seed=8)
        c = kmeans_spherical(emb, KmeansConfig(k=4, seed=0))
        permuted, pc = _permuted(emb, c, np.random.default_rng(1).permutation(25))
        a = ssl_prototypes(emb, c, 0.6)
        b = ssl_prototypes(permuted, pc, 0.6)
        assert set(a.kept_ids) == set(b.kept_ids)


class TestD4:
    def test_identity_when_both_ratios_one(self):
        emb = _random_emb(40, 6, seed=2)
        r = d4(emb, D4Config(r_dedup=1.0, r_proto=1.0, kmeans=KmeansConfig(k=5, seed=0)))
        assert r.kept_ids == emb.ids

    def test_composition_and_nesting(self, planted_emb, planted_clustering):
        cfg = D4Config(r_dedup=0.75, r_proto=1 / 3, kmeans=KmeansConfig(seed=0))
        r = d4(planted_emb, cfg, clustering=planted_clustering)
        assert abs(r.r_achieved - 0.25) <= 0.01
        stage1 = r.stages[0]
        assert set(r.kept_ids) <= set(stage1.kept_ids)
        assert abs(stage1.r_achieved - 0.75) <= 0.005
        assert r.epsilon_used == stage1.epsilon_used

    def test_reclustering_removes_duplicate_driven_clusters(
        self, planted_emb, planted_clustering
    ):
        cfg = D4Config(r_dedup=0.92, r_proto=0.9, kmeans=KmeansConfig(seed=0))
        artifacts: dict = {}
        d4(planted_emb, cfg, clustering=planted_clustering, artifacts=artifacts)
        before = find_duplicate_driven_clusters(planted_emb, planted_clustering)
        after = find_duplicate_driven_clusters(
            artifacts["stage2_embeddings"], artifacts["stage2_clustering"]
        )
        frac_before = len(before) / planted_clustering.k
        frac_after = len(after) / artifacts["stage2_clustering"].k
        assert frac_after < frac_before

    def test_no_recluster_restricts_original_assignment(self, planted_emb, planted_clustering):
        cfg = D4Config(r_dedup=0.9, r_proto=0.8, recluster=False)
        artifacts: dict = {}
        r = d4(planted_emb, cfg, clustering=planted_clustering, artifacts=artifacts)
        sub_clustering = artifacts["stage2_clustering"]
        assert np.array_equal(sub_clustering.centroids, planted_clustering.centroids)
        kept1 = set(r.stages[0].kept_ids)
        idx = [i for i, doc_id in enumerate(planted_emb.ids) if doc_id in kept1]
        assert np.array_equal(sub_clustering.assignment, planted_clustering.assignment[idx])

    def test_overlap_exceeds_independent_random_expectation(
        self, planted_emb, planted_clustering
    ):
        a = semdedup(planted_emb, planted_clustering, 0.75)
        b = ssl_prototypes(planted_emb, planted_clustering, 0.75)
        inter = len(set(a.kept_ids) & set(b.kept_ids))
        observed = 100.0 * inter / min(a.n_kept, b.n_kept)
        expected_random = 100.0 * max(a.n_kept, b.n_kept) / planted_emb.n
        assert observed > expected_random

    def test_ratio_validation(self):
        with pytest.raises(ValidationError):
            D4Config(r_dedup=0.0, r_proto=0.5)
        with pytest.raises(ValidationError):
            D4Config(r_dedup=0.5, r_proto=1.2)
