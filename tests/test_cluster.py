from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import d4kit.cluster as cluster_mod
from d4kit import (
    Clustering,
    EmbeddingMatrix,
    FormatError,
    KmeansConfig,
    ValidationError,
    assign,
    default_k,
    kmeans_spherical,
    objective,
    read_clustering,
    read_embeddings,
    write_clustering,
    write_embeddings,
)
from d4kit.cluster import _sample_rows
from d4kit.embed import _Float64Rows

from oracles import best_two_partition, scalar_dot


def _random_emb(n, d, seed):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(
        ids=tuple(f"p{i:03d}" for i in range(n)),
        vectors=rows.astype(np.float32),
        normalized=True,
    )


def _emb_from_rows(rows):
    rows = np.asarray(rows, dtype=np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return EmbeddingMatrix(
        ids=tuple(f"p{i:03d}" for i in range(rows.shape[0])),
        vectors=rows.astype(np.float32),
        normalized=True,
    )


def _two_group_rows(seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for center in ([1.0, 0.0, 0.0], [-1.0, 0.05, 0.0]):
        for _ in range(4):
            rows.append(np.array(center) + rng.normal(scale=0.05, size=3))
    return rows


class TestDefaultK:
    def test_square(self):
        assert default_k(100) == 10

    def test_floor_case(self):
        assert default_k(1) == 1

    def test_matches_reported_cluster_count(self):
        assert default_k(121_000_000) == 11000


class TestKmeans:
    def test_k_equals_n_objective_zero(self):
        emb = _random_emb(6, 4, seed=1)
        c = kmeans_spherical(emb, KmeansConfig(k=6, seed=0))
        assert objective(emb, c) <= 1e-6

    def test_k1_centroid_is_renormalized_mean(self):
        emb = _random_emb(10, 5, seed=2)
        c = kmeans_spherical(emb, KmeansConfig(k=1, seed=0))
        mean = emb.vectors.astype(np.float64).sum(axis=0)
        mean /= np.linalg.norm(mean)
        np.testing.assert_allclose(c.centroids[0], mean, atol=1e-7)
        assert set(np.unique(c.assignment)) == {0}

    def test_two_tight_groups_match_exhaustive_partition(self):
        rows = _two_group_rows()
        emb = _emb_from_rows(rows)
        c = kmeans_spherical(emb, KmeansConfig(k=2, seed=3))
        labels = c.assignment
        assert len(set(labels[:4])) == 1
        assert len(set(labels[4:])) == 1
        assert labels[0] != labels[4]
        best_obj, _ = best_two_partition(emb.vectors.tolist())
        assert abs(objective(emb, c) - best_obj) <= 1e-6

    def test_objective_history_monotone(self):
        for seed in range(20):
            emb = _random_emb(40, 6, seed=seed)
            c = kmeans_spherical(emb, KmeansConfig(k=5, seed=seed))
            hist = c.objective_history
            assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        emb = _random_emb(30, 4, seed=9)
        a = kmeans_spherical(emb, KmeansConfig(k=4, seed=7))
        b = kmeans_spherical(emb, KmeansConfig(k=4, seed=7))
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignment, b.assignment)
        assert np.array_equal(a.distance, b.distance)
        assert a.iters_run == b.iters_run

    def test_empty_cluster_repair(self):
        v = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        emb = _emb_from_rows([v, v, v, w])
        # Duplicate initial centroids force every point into cluster 0 on
        # the first pass, leaving cluster 1 empty until the repair runs.
        init = np.stack([v, v]).astype(np.float64)
        c = kmeans_spherical(emb, KmeansConfig(k=2, iters=5), init_centroids=init)
        sizes = np.bincount(c.assignment, minlength=2)
        assert sizes.min() >= 1

    def test_distance_bounds(self):
        emb = _random_emb(50, 3, seed=4)
        c = kmeans_spherical(emb, KmeansConfig(k=6, seed=1))
        assert c.distance.min() >= 0.0
        assert c.distance.max() <= 2.0

    def test_early_stop_records_iters(self):
        emb = _random_emb(12, 3, seed=5)
        c = kmeans_spherical(emb, KmeansConfig(k=2, iters=50, seed=2))
        assert 1 <= c.iters_run <= 50

    def test_unnormalized_rejected(self):
        emb = EmbeddingMatrix(
            ids=("a", "b"),
            vectors=np.array([[2.0, 0.0], [0.0, 3.0]], dtype=np.float32),
            normalized=False,
        )
        with pytest.raises(ValidationError):
            kmeans_spherical(emb, KmeansConfig(k=1))

    def test_k_exceeding_n_rejected(self):
        emb = _random_emb(3, 3, seed=0)
        with pytest.raises(ValidationError):
            kmeans_spherical(emb, KmeansConfig(k=5))

    def test_rising_objective_raises(self, monkeypatch):
        # Rows in the positive orthant: the negated initial centroids lie in
        # the negative one, farther from every row than the sampled rows.
        rows = np.abs(np.random.default_rng(0).normal(size=(20, 4)))
        emb = _emb_from_rows(rows)
        monkeypatch.setattr(cluster_mod, "_update_centroids", lambda X, C, *rest: -C)
        with pytest.raises(ValidationError, match="objective rose at iteration 1"):
            kmeans_spherical(emb, KmeansConfig(k=3, seed=0))


class TestSampleRows:
    """``_sample_rows``, the seeded draw of k-means's k distinct start rows."""

    def test_pinned(self):
        # Literal draws, so d4kit's seeding stays fixed across versions.
        assert _sample_rows(0, 10, 4) == [4, 2, 8, 9]
        assert _sample_rows(2**32, 100, 6) == [59, 29, 55, 18, 40, 43]
        pinned = [6190, 11472, 9946, 5905, 1147, 8334, 10621, 744]
        assert _sample_rows(2**64 - 1, 12_000, 8) == pinned
        assert _sample_rows(-1, 12_000, 8) == pinned  # the seed is taken mod 2**64
        tail = _sample_rows(12345, 20_000, 500)
        assert tail[:5] == [10669, 1283, 12882, 6575, 12722]
        assert tail[-5:] == [6730, 650, 10119, 14823, 15789]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 2000), data=st.data())
    def test_distinct_rows_in_range(self, seed, n, data):
        k = data.draw(st.integers(0, n))
        rows = _sample_rows(seed, n, k)
        assert len(set(rows)) == k and all(0 <= r < n for r in rows)
        assert _sample_rows(seed, n, k) == rows

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_every_row_at_k_equal_n_and_none_at_k_zero(self, n):
        assert sorted(_sample_rows(5, n, n)) == list(range(n))
        assert _sample_rows(5, n, 0) == []

    def test_rows_picked_equally_often(self):
        # Each of 10 rows is one of 3 picks with probability 0.3.
        counts = np.zeros(10)
        for seed in range(10_000):
            counts[_sample_rows(seed, 10, 3)] += 1
        np.testing.assert_allclose(counts / 10_000, 0.3, atol=0.02)

    @staticmethod
    def _assert_seeded_fit_starts_from_sample(emb: EmbeddingMatrix, cfg: KmeansConfig) -> None:
        got = kmeans_spherical(emb, cfg)
        want = kmeans_spherical(emb, cfg, init_centroids=emb.vectors[_sample_rows(cfg.seed, emb.n, cfg.k)])
        np.testing.assert_array_equal(got.centroids, want.centroids)
        np.testing.assert_array_equal(got.assignment, want.assignment)
        np.testing.assert_array_equal(got.distance, want.distance)
        assert got.objective_history == want.objective_history

    @pytest.mark.parametrize("k", [40, 300])
    def test_kmeans_seeding_equals_sample_rows(self, k):
        rng = np.random.default_rng(k)
        rows = rng.normal(size=(12_000, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        emb = EmbeddingMatrix(tuple(f"p{i:05d}" for i in range(len(rows))), rows, True)
        self._assert_seeded_fit_starts_from_sample(emb, KmeansConfig(k=k, iters=5, seed=-7))

    def test_kmeans_seeding_equals_sample_rows_on_float32_rows(self, tmp_path):
        # Rows stored as float32 read back with float64 norms off 1.0 by rounding;
        # ``init_centroids`` starts from them as they are, as the seeded draw does.
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(12_000, 16))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        path = str(tmp_path / "rows.d4em")
        ids = tuple(f"p{i:05d}" for i in range(len(rows)))
        write_embeddings(EmbeddingMatrix(ids, rows.astype(np.float32), True), path)
        emb = read_embeddings(path)
        assert (np.linalg.norm(emb.vectors.astype(np.float64), axis=1) != 1.0).all()
        self._assert_seeded_fit_starts_from_sample(emb, KmeansConfig(k=40, iters=5, seed=3))


def _update_centroids_add_at(X, centroids, assignment, distance, k):
    """The centroid update with its sums taken by ``np.add.at``."""
    sums = _add_at_sums(X, assignment, k)
    counts = np.bincount(assignment, minlength=k)
    new = centroids.copy()
    norms = np.linalg.norm(sums, axis=1)
    movable = (counts > 0) & (norms > 0)
    new[movable] = sums[movable] / norms[movable, None]
    empties = np.flatnonzero(counts == 0)
    order = np.argsort(-distance, kind="stable")
    for j, p in zip(empties, order[: empties.size]):
        new[j] = X[p]
    return new


@st.composite
def _centroid_update_inputs(draw):
    n = draw(st.integers(1, 120))
    d = draw(st.sampled_from([1, 2, 3, 7]))
    k = draw(st.integers(1, 12))
    # Only some cluster indices are used, so k exceeds the occupied count
    # and some clusters are empty.
    used = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    assignment = np.array(draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)), dtype=np.int64)
    floats = st.one_of(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), st.sampled_from([0.0, -0.0, 1e-300, 3.0])
    )
    X = draw(hnp.arrays(np.float64, (n, d), elements=floats))
    centroids = draw(hnp.arrays(np.float64, (k, d), elements=st.floats(-1, 1)))
    distance = draw(hnp.arrays(np.float64, n, elements=st.floats(0, 2)))
    return X, centroids, assignment, distance, k


def _add_at_sums(X, assignment, k):
    sums = np.zeros((k, X.shape[1]), dtype=np.float64)
    np.add.at(sums, assignment, X)
    return sums


class TestUpdateCentroids:
    @given(_centroid_update_inputs())
    def test_sums_bit_equal_to_add_at(self, inputs):
        X, _, assignment, _, k = inputs
        got = cluster_mod._cluster_sums(X, assignment, np.bincount(assignment, minlength=k))
        assert got.shape == (k, X.shape[1])
        assert got.tobytes() == _add_at_sums(X, assignment, k).tobytes()

    @given(_centroid_update_inputs())
    def test_update_bit_equal_to_add_at(self, inputs):
        X, centroids, assignment, distance, k = inputs
        got = cluster_mod._update_centroids(X, centroids, assignment, distance, k)
        want = _update_centroids_add_at(X, centroids, assignment, distance, k)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, d, k", [(4000, 128, 63), (3000, 1, 20), (500, 64, 200)])
    def test_bit_equal_to_add_at_at_scale(self, n, d, k):
        rng = np.random.default_rng(n + d + k)
        X = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 6, size=(n, 1))
        assignment = rng.integers(0, k, size=n)
        centroids = rng.normal(size=(k, d))
        distance = rng.uniform(0, 2, size=n)
        sums = cluster_mod._cluster_sums(X, assignment, np.bincount(assignment, minlength=k))
        assert sums.tobytes() == _add_at_sums(X, assignment, k).tobytes()
        got = cluster_mod._update_centroids(X, centroids, assignment, distance, k)
        assert got.tobytes() == _update_centroids_add_at(X, centroids, assignment, distance, k).tobytes()


def _assign_case(seed, n, d, k, copies):
    """Unit rows and unit centroids, ``copies`` of the centroids copied from others.

    About half the rows lie near a copy, where the copies tie. BLAS tiles a
    wide product, so copies far apart in a large k can round apart.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.normal(size=(k, d))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    copied = rng.integers(0, k, copies)
    centroids[copied] = centroids[rng.integers(0, k, copies)]
    rows = rng.normal(size=(n, d))
    if copies:
        near = rng.random(n) < 0.5
        rows[near] = 0.05 * rows[near] + centroids[rng.choice(copied, int(near.sum()))]
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    emb = EmbeddingMatrix(
        ids=tuple(f"p{i:03d}" for i in range(n)), vectors=rows.astype(np.float32), normalized=True
    )
    return emb, centroids


@st.composite
def _assign_inputs(draw):
    """An :func:`_assign_case` with k both below and above d, and a block size."""
    emb, centroids = _assign_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 60))),
        draw(st.sampled_from([2, 3, 5, 8, 16, 64, 128])),
        draw(st.one_of(st.integers(1, 20), st.integers(100, 300))),
        draw(st.integers(0, 3)),
    )
    return emb, centroids, draw(st.integers(1, 6))


def _one_block(a, b):
    return a.shape[0]


class TestAssign:
    def test_exact_match_distance_zero(self):
        emb = _emb_from_rows([[0.0, 1.0, 0.0]])
        centroids = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        a, d = assign(emb, centroids)
        assert a[0] == 1
        assert d[0] == 0.0

    def test_tie_breaks_to_lowest_index(self):
        x = np.float32(1.0 / np.sqrt(2.0))
        emb = EmbeddingMatrix(
            ids=("p",),
            vectors=np.array([[x, x, 0.0, 0.0]], dtype=np.float32),
            normalized=True,
        )
        centroids = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [0.0, 1.0, 0.0, 0.0],
            ]
        )
        a, _ = assign(emb, centroids)
        # Equidistant from centroids 1 and 3; the lower index wins.
        assert a[0] == 1

    def test_matches_scalar_argmax_oracle(self):
        emb = _random_emb(10, 4, seed=11)
        centroids = _random_emb(3, 4, seed=12).vectors.astype(np.float64)
        a, d = assign(emb, centroids)
        for i in range(10):
            sims = [scalar_dot(emb.vectors[i].tolist(), c.tolist()) for c in centroids]
            best = max(range(3), key=lambda j: (sims[j], -j))
            assert a[i] == best
            assert abs(d[i] - (1.0 - sims[best])) <= 1e-9

    def test_dimension_mismatch(self):
        emb = _random_emb(4, 3, seed=1)
        with pytest.raises(ValidationError):
            assign(emb, np.eye(2))

    def test_nan_centroids_rejected(self):
        emb = _random_emb(4, 3, seed=1)
        with pytest.raises(ValidationError, match="finite"):
            assign(emb, np.full((2, 3), np.nan))
        with pytest.raises(ValidationError, match="finite"):
            kmeans_spherical(emb, init_centroids=np.full((2, 3), np.nan))

    def test_empty_init_centroids_rejected(self):
        emb = _random_emb(4, 3, seed=1)
        with pytest.raises(ValidationError, match="k >= 1"):
            kmeans_spherical(emb, init_centroids=np.zeros((0, 3)))

    def test_init_centroids_start_the_fit_as_given(self):
        emb = _random_emb(30, 4, seed=2)
        # Float32-rounded rows: unit-norm within NORM_TOL, but not exactly.
        init = emb.vectors[[0, 5, 9]].astype(np.float32).astype(np.float64)
        assert (np.linalg.norm(init, axis=1) != 1.0).any()
        before = init.copy()
        c = kmeans_spherical(emb, KmeansConfig(k=3, iters=1), init_centroids=init)
        assert c.objective_history[0] == float(assign(emb, init)[1].sum())
        np.testing.assert_array_equal(init, before)
        assert not np.shares_memory(c.centroids, init)

    @pytest.mark.parametrize("n, d, k", [(2000, 64, 16), (4000, 128, 63), (3, 8, 8)])
    def test_one_block_while_k_at_most_d(self, n, d, k):
        emb = _random_emb(n, d, seed=n)
        centroids = _random_emb(k, d, seed=k).vectors.astype(np.float64)
        # The first _GATHER_ROWS rows, or all if fewer, are one block; more
        # rows split into _GATHER_PARTS blocks of at least _GATHER_ROWS rows.
        X = emb.vectors.astype(np.float64)
        head = emb.subset(np.arange(min(n, cluster_mod._GATHER_ROWS)))
        assert len(list(cluster_mod._product_blocks(head._rows(), centroids))) == 1
        parts = -(-n // max(-(-n // cluster_mod._GATHER_PARTS), cluster_mod._GATHER_ROWS))
        assert len(list(cluster_mod._product_blocks(emb._rows(), centroids))) == parts
        a, dist = assign(emb, centroids)
        sims = X @ centroids.T
        want = np.argmax(sims, axis=1)
        assert a.dtype == np.uint32 and np.array_equal(a, want)
        assert dist.tobytes() == np.clip(1.0 - sims[np.arange(n), want], 0.0, 2.0).tobytes()

    @given(_assign_inputs())
    def test_blocked_matches_full_product(self, inputs):
        self._check_blocked_matches_one_block(*inputs)

    @pytest.mark.parametrize("d", [16, 128])
    def test_blocked_matches_full_product_at_wide_k(self, d):
        # 60 rows against k = 300: one gemm rounds copies apart here.
        for seed in range(10):
            emb, centroids = _assign_case(seed, 60, d, 300, 3)
            for rows in range(1, 7):
                self._check_blocked_matches_one_block(emb, centroids, rows)

    @staticmethod
    def _check_blocked_matches_one_block(emb, centroids, rows):
        # A block's gemm may round a dot differently from the full product's,
        # but near-ties are ranked by exact dots, so every assignment equals
        # the one-block one, duplicated centroids included; distances agree
        # within the rounding of a d-term dot of unit vectors, and with one
        # block they are the same bytes.
        with mock.patch.object(cluster_mod, "_block_rows", lambda a, b: rows):
            a, dist = assign(emb, centroids)
        with mock.patch.object(cluster_mod, "_block_rows", _one_block):
            want, full_dist = assign(emb, centroids)
        assert np.array_equal(a, want)
        assert np.abs(dist - full_dist).max() <= cluster_mod._rounding_band(emb.d)
        sims = emb.vectors.astype(np.float64) @ centroids.T
        assert full_dist.tobytes() == np.clip(1.0 - sims.max(axis=1), 0.0, 2.0).tobytes()

    @pytest.mark.parametrize("d", [16, 64, 128])
    def test_duplicated_centroid_keeps_lowest_index(self, d):
        # Centroid 0 copied to the last index: every point near it ties
        # between the two, and the lower index must win.
        rng = np.random.default_rng(d)
        centroids = rng.normal(size=(300, d))
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        centroids[299] = centroids[0]
        rows = centroids[0] + rng.normal(scale=0.05, size=(1000, d))
        a, _ = assign(_emb_from_rows(rows), centroids)
        assert np.all(a == 0)


class TestBlockedKmeans:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([2, 3, 5, 8, 16]),
        st.integers(4, 20),
        st.integers(2, 4),
        st.integers(1, 6),
    )
    def test_same_clustering_at_any_block_split(self, seed, d, distinct, copies, rows):
        self._check_same_clustering(seed, d, distinct, copies, rows)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_clustering_at_any_block_split_at_wide_k(self, seed):
        # k = 300: one gemm rounds duplicated centroids apart here.
        for rows in (1, 4):
            self._check_same_clustering(seed, 16, 299, 2, rows)

    @staticmethod
    def _check_same_clustering(seed, d, distinct, copies, rows):
        # Every row appears ``copies`` times, and k exceeds the distinct-row
        # count, so the initial sample draws duplicate rows and duplicated
        # centroids tie; the result must not depend on the block split.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(distinct, d))
        emb = _emb_from_rows(base[rng.permutation(np.repeat(np.arange(distinct), copies))])
        cfg = KmeansConfig(k=distinct + 1, iters=5, seed=seed)
        with mock.patch.object(cluster_mod, "_block_rows", lambda a, b: rows):
            got = kmeans_spherical(emb, cfg)
        with mock.patch.object(cluster_mod, "_block_rows", _one_block):
            want = kmeans_spherical(emb, cfg)
        assert np.array_equal(got.assignment, want.assignment)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.iters_run == want.iters_run
        assert np.abs(got.distance - want.distance).max() <= cluster_mod._rounding_band(d)


class TestProductBlocks:
    @given(
        st.integers(1, 80), st.integers(1, 30), st.sampled_from([1, 2, 3, 8]), st.integers(1, 9)
    )
    def test_blocks_cover_rows_without_single_row_blocks(self, n, m, d, rows):
        a, b = np.ones((n, d)), np.ones((m, d))
        with mock.patch.object(cluster_mod, "_block_rows", lambda a, b: rows):
            spans = [(start, stop) for start, stop, _ in cluster_mod._product_blocks(a, b)]
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(prev[1] == nxt[0] for prev, nxt in zip(spans, spans[1:]))
        sizes = [stop - start for start, stop in spans]
        assert max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2 or n == 1
        assert max(sizes) <= max(rows, 3)

    @pytest.mark.parametrize("n, m, d", [(1000, 16000, 64), (4000, 63, 16), (7, 5, 1), (9, 40, 2)])
    def test_block_entries_within_larger_input(self, n, m, d):
        a, b = np.ones((n, d)), np.ones((m, d))
        for start, stop, block in cluster_mod._product_blocks(a, b):
            assert block.shape == (stop - start, m)
            assert block.size <= max(a.size, b.size) or (d <= 2 and stop - start <= 3)


    @pytest.mark.parametrize("n, m, d", [(1000, 16000, 64), (4000, 63, 16), (16000, 16, 64), (3000, 55, 128)])
    def test_block_entries_within_half_larger_input(self, n, m, d):
        a, b = np.ones((n, d)), np.ones((m, d))
        for start, stop, block in cluster_mod._product_blocks(a, b):
            assert 2 * block.size <= max(a.size, b.size)

    @pytest.mark.parametrize("d", [8, 64, 128])
    def test_one_block_exactly_while_k_at_most_half_d(self, d):
        rows = _Float64Rows(np.ones((cluster_mod._GATHER_ROWS, d), dtype=np.float32))
        assert len(list(cluster_mod._product_blocks(rows, np.ones((d // 2, d))))) == 1
        assert len(list(cluster_mod._product_blocks(rows, np.ones((d // 2 + 1, d))))) == 2

class TestObjective:
    def test_identical_points_k1(self):
        emb = _emb_from_rows([[1.0, 0.0]] * 4)
        c = kmeans_spherical(emb, KmeansConfig(k=1))
        assert objective(emb, c) == 0.0

    def test_matches_scalar_sum(self):
        emb = _random_emb(12, 4, seed=3)
        c = kmeans_spherical(emb, KmeansConfig(k=3, seed=1))
        manual = 0.0
        for i in range(12):
            manual += 1.0 - scalar_dot(
                emb.vectors[i].tolist(), c.centroids[c.assignment[i]].tolist()
            )
        assert abs(objective(emb, c) - manual) <= 1e-6


class TestClusteringValidation:
    def test_non_finite_distance_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            Clustering(
                centroids=np.eye(2),
                assignment=np.array([0, 1], dtype=np.uint32),
                distance=np.array([0.0, np.nan]),
            )

    def test_non_finite_centroid_rejected(self):
        centroids = np.eye(2)
        centroids[1, 0] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            Clustering(
                centroids=centroids,
                assignment=np.array([0, 1], dtype=np.uint32),
                distance=np.zeros(2),
            )

    def test_float32_centroids_held_as_float64(self):
        emb = _random_emb(15, 4, seed=6)
        c = kmeans_spherical(emb, KmeansConfig(k=3, seed=2))
        centroids32 = c.centroids.astype(np.float32)
        held = Clustering(
            centroids=centroids32, assignment=c.assignment, distance=c.distance
        )
        assert held.centroids.dtype == np.float64
        assert np.array_equal(held.centroids, centroids32)
        held.validate_for(emb)

    def test_distance_off_its_own_centroid_rejected(self):
        emb = _random_emb(30, 4, seed=7)
        c = kmeans_spherical(emb, KmeansConfig(k=4, seed=1))
        for i in (0, 17, 29):
            other = (int(c.assignment[i]) + 1) % c.k
            moved = c.assignment.copy()
            moved[i] = other
            for assignment, distance in (
                (c.assignment, c.distance + np.where(np.arange(30) == i, 1e-3, 0.0)),
                (moved, c.distance),
            ):
                bad = Clustering(
                    centroids=c.centroids, assignment=assignment, distance=distance
                )
                with pytest.raises(ValidationError, match="inconsistent"):
                    bad.validate_for(emb)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        emb = _random_emb(15, 4, seed=6)
        c = kmeans_spherical(emb, KmeansConfig(k=3, seed=2))
        path = tmp_path / "c.d4km"
        write_clustering(c, str(path))
        back = read_clustering(str(path))
        assert back.k == c.k
        assert np.array_equal(back.assignment, c.assignment)
        np.testing.assert_allclose(back.centroids, c.centroids, atol=1e-6)
        np.testing.assert_allclose(back.distance, c.distance, atol=1e-6)
        back.validate_for(emb)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.d4km"
        path.write_bytes(b"WHAT" + b"\x00" * 24)
        with pytest.raises(FormatError, match="offset 0"):
            read_clustering(str(path))

    def test_truncated(self, tmp_path):
        emb = _random_emb(8, 3, seed=1)
        c = kmeans_spherical(emb, KmeansConfig(k=2, seed=0))
        path = tmp_path / "c.d4km"
        write_clustering(c, str(path))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="truncated"):
            read_clustering(str(path))
