import contextlib
import itertools
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import d4kit.cluster as cluster_mod
import d4kit.embed as embed_mod
from d4kit import (
    Clustering,
    D4Config,
    analyze_clustering,
    EmbeddingMatrix,
    KmeansConfig,
    SynthSpec,
    ValidationError,
    binned_score_analysis,
    cluster_balance,
    d4,
    ecdf_mean_distance,
    embed_corpus,
    find_duplicate_driven_clusters,
    nn_to_train,
    select_random,
    selection_overlap,
    semdedup,
    synthesize_corpus,
    write_embeddings,
)
from d4kit import EmbedderSpec
from d4kit.diagnostics import _median, ecdf_value
from d4kit.embed import _row_dots, _scan_embeddings
from d4kit.select import ssl_prototypes

from oracles import brute_force_nn


def _emb(rows, ids=None):
    rows = np.asarray(rows, dtype=np.float64)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    ids = ids or tuple(f"p{i:03d}" for i in range(rows.shape[0]))
    return EmbeddingMatrix(ids=tuple(ids), vectors=rows.astype(np.float32), normalized=True)


def _sized_clustering(sizes, d=4):
    """A clustering whose only meaningful content is the cluster sizes."""
    k = len(sizes)
    centroids = np.zeros((k, d))
    for j in range(k):
        centroids[j, j % d] = 1.0
    assignment = np.repeat(np.arange(k, dtype=np.uint32), sizes)
    distance = np.zeros(int(sum(sizes)))
    return Clustering(centroids=centroids, assignment=assignment, distance=distance)


def _labeled_clustering(emb, labels):
    """Ground-truth clustering: assignment by label, centroids = renormalized means."""
    names = sorted(set(labels))
    index = {name: j for j, name in enumerate(names)}
    assignment = np.array([index[l] for l in labels], dtype=np.uint32)
    X = emb.vectors.astype(np.float64)
    centroids = np.zeros((len(names), emb.d))
    for j in range(len(names)):
        mean = X[assignment == j].sum(axis=0)
        centroids[j] = mean / np.linalg.norm(mean)
    distance = np.clip(1.0 - np.einsum("ij,ij->i", X, centroids[assignment]), 0.0, 2.0)
    return Clustering(centroids=centroids, assignment=assignment, distance=distance)


class TestClusterBalance:
    def test_equal_sizes(self):
        assert cluster_balance(_sized_clustering([7, 7, 7])) == 1.0

    def test_single_pair(self):
        assert cluster_balance(_sized_clustering([10, 20])) == 0.5

    def test_three_sizes_hand_enumerated(self):
        # Pairs (10,20), (10,40), (20,40): mean(0.5, 0.25, 0.5) = 0.41666...
        got = cluster_balance(_sized_clustering([10, 20, 40]))
        assert abs(got - 0.4167) <= 5e-5

    def test_scale_free(self):
        a = cluster_balance(_sized_clustering([10, 20, 40]))
        b = cluster_balance(_sized_clustering([20, 40, 80]))
        assert a == b

    def test_needs_two_clusters(self):
        with pytest.raises(ValidationError):
            cluster_balance(_sized_clustering([5]))

    @given(st.lists(st.integers(1, 1000), min_size=2, max_size=60))
    def test_matches_pairwise_mean(self, sizes):
        # The mean of min/max over every pair, summed in float64: the O(k)
        # prefix-sum form rounds differently, by far less than 1e-12.
        pairs = [min(a, b) / max(a, b) for i, a in enumerate(sizes) for b in sizes[i + 1 :]]
        got = cluster_balance(_sized_clustering(sizes))
        assert abs(got - sum(pairs) / len(pairs)) <= 1e-12

    def test_equal_sizes_exact_at_large_k(self):
        assert cluster_balance(_sized_clustering([3] * 5000)) == 1.0

    def test_empty_clusters_excluded(self):
        c = _sized_clustering([10, 20])
        widened = Clustering(
            centroids=np.vstack([c.centroids, np.array([[0.0, 0.0, 0.0, 1.0]])]),
            assignment=c.assignment,
            distance=c.distance,
        )
        assert cluster_balance(widened) == 0.5


class TestDuplicateDriven:
    def test_identical_points_flagged_with_zero_std(self):
        emb = _emb([[1.0, 0.0]] * 3)
        c = _labeled_clustering(emb, ["a", "a", "a"])
        flagged = find_duplicate_driven_clusters(emb, c)
        assert len(flagged) == 1
        assert flagged[0].std == 0.0
        assert flagged[0].size == 3

    def test_spread_cluster_not_flagged(self):
        # Distances 0.1 and 0.9 from the centroid: population std 0.4.
        centroid = np.array([[1.0, 0.0]])
        rows = [[0.9, np.sqrt(1 - 0.81)], [0.1, np.sqrt(1 - 0.01)]]
        emb = _emb(rows)
        X = emb.vectors.astype(np.float64)
        distance = np.clip(1.0 - X @ centroid[0], 0.0, 2.0)
        c = Clustering(
            centroids=centroid,
            assignment=np.zeros(2, dtype=np.uint32),
            distance=distance,
        )
        assert find_duplicate_driven_clusters(emb, c, 0.03) == []
        wide = find_duplicate_driven_clusters(emb, c, 0.41)
        assert len(wide) == 1
        assert abs(wide[0].std - 0.4) <= 1e-5

    def test_every_exact_template_group_host_flagged(self):
        spec = SynthSpec(
            n_topics=4,
            docs_per_topic=25,
            n_template_groups=6,
            dupes_per_group=5,
            template_mutation_rate=0.0,
            vocab_size=1000,
            doc_length_range=(150, 250),
            seed=21,
        )
        docs = synthesize_corpus(spec)
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=128, seed=5))
        labels = [
            d.meta["group"] if d.meta["group"] != "none" else d.meta["topic"] for d in docs
        ]
        c = _labeled_clustering(emb, labels)
        flagged = {f.cluster_index for f in find_duplicate_driven_clusters(emb, c)}
        names = sorted(set(labels))
        group_clusters = {j for j, n in enumerate(names) if n.startswith("g")}
        topic_clusters = {j for j, n in enumerate(names) if n.startswith("t")}
        assert group_clusters <= flagged
        assert not (topic_clusters & flagged)

    def test_singletons_excluded(self):
        emb = _emb([[1.0, 0.0], [0.0, 1.0]])
        c = _labeled_clustering(emb, ["a", "b"])
        assert find_duplicate_driven_clusters(emb, c) == []


class TestEcdf:
    def test_singleton_clusters_step_at_zero(self):
        emb = _emb([[1.0, 0.0], [0.0, 1.0]])
        c = _labeled_clustering(emb, ["a", "b"])
        ecdf = ecdf_mean_distance(emb, c)
        assert [v for v, _ in ecdf] == [0.0, 0.0]
        assert [f for _, f in ecdf] == [0.5, 1.0]

    def test_two_cluster_values(self):
        centroids = np.array([[1.0, 0.0], [0.0, 1.0]])
        rows = [
            [0.9, np.sqrt(1 - 0.81)],  # cluster 0, distance 0.1
            [np.sqrt(1 - 0.49), 0.7],  # cluster 1, distance 0.3
        ]
        emb = _emb(rows)
        X = emb.vectors.astype(np.float64)
        assignment = np.array([0, 1], dtype=np.uint32)
        distance = np.clip(1.0 - np.einsum("ij,ij->i", X, centroids[assignment]), 0, 2)
        c = Clustering(centroids=centroids, assignment=assignment, distance=distance)
        ecdf = ecdf_mean_distance(emb, c)
        assert len(ecdf) == 2
        assert abs(ecdf[0][0] - 0.1) < 1e-6 and ecdf[0][1] == 0.5
        assert abs(ecdf[1][0] - 0.3) < 1e-6 and ecdf[1][1] == 1.0

    def test_monotone_and_ends_at_one(self, planted_emb, planted_clustering):
        ecdf = ecdf_mean_distance(planted_emb, planted_clustering)
        fracs = [f for _, f in ecdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_reclustered_ecdf_weakly_below_at_low_end(
        self, planted_emb, planted_clustering
    ):
        artifacts: dict = {}
        d4(
            planted_emb,
            D4Config(r_dedup=0.92, r_proto=0.9, kmeans=KmeansConfig(seed=0)),
            clustering=planted_clustering,
            artifacts=artifacts,
        )
        before = ecdf_mean_distance(planted_emb, planted_clustering)
        after = ecdf_mean_distance(
            artifacts["stage2_embeddings"], artifacts["stage2_clustering"]
        )
        median_before = before[len(before) // 2][0]
        for x in [v for v, _ in before if v <= median_before]:
            assert ecdf_value(after, x) <= ecdf_value(before, x) + 1e-12

    def test_subadditivity_under_fixed_centroids(self, planted_emb, planted_clustering):
        # With centroids held fixed, removing points must not create new
        # duplicate-driven clusters on this corpus.
        artifacts: dict = {}
        d4(
            planted_emb,
            D4Config(r_dedup=0.92, r_proto=0.9, recluster=False),
            clustering=planted_clustering,
            artifacts=artifacts,
        )
        before = {f.cluster_index for f in find_duplicate_driven_clusters(planted_emb, planted_clustering)}
        after = {
            f.cluster_index
            for f in find_duplicate_driven_clusters(
                artifacts["stage2_embeddings"], artifacts["stage2_clustering"]
            )
        }
        assert after <= before


class TestAnalyzeClustering:
    def test_validates_once(self, planted_emb, planted_clustering):
        # The clustering is checked against the matrix once, not once per
        # part of the report; each check is an O(n * d) pass.
        with mock.patch.object(
            Clustering, "validate_for", autospec=True, side_effect=Clustering.validate_for
        ) as validate:
            report = analyze_clustering(planted_emb, planted_clustering)
        assert validate.call_count == 1
        assert report.duplicate_driven == tuple(find_duplicate_driven_clusters(planted_emb, planted_clustering))
        assert report.ecdf == ecdf_mean_distance(planted_emb, planted_clustering)

    def test_mismatch_still_rejected(self, planted_emb, planted_clustering):
        with pytest.raises(ValidationError, match="clustering covers"):
            analyze_clustering(planted_emb.subset(np.arange(10)), planted_clustering)


class TestSelectionOverlap:
    def test_self_is_100(self):
        ids = tuple(f"i{j}" for j in range(20))
        r = select_random(ids, 0.5, seed=0)
        m = selection_overlap([r, r])
        assert m.cells[0, 1] == 100.0
        assert m.cells[0, 0] == 100.0

    def test_disjoint_is_zero(self, planted_emb, planted_clustering):
        ids = planted_emb.ids
        half = len(ids) // 2
        import d4kit.select as sel

        a = sel.SelectionResult(
            method="first-half", r_target=0.5, kept_ids=ids[:half],
            scores=(0.0,) * half, n_source=len(ids),
            fingerprint=sel.source_fingerprint(ids),
        )
        b = sel.SelectionResult(
            method="second-half", r_target=0.5, kept_ids=ids[half:],
            scores=(0.0,) * (len(ids) - half), n_source=len(ids),
            fingerprint=sel.source_fingerprint(ids),
        )
        m = selection_overlap([a, b])
        assert m.cells[0, 1] == 0.0

    def test_random_vs_random_near_half(self):
        ids = tuple(f"i{j:05d}" for j in range(10_000))
        a = select_random(ids, 0.5, seed=1)
        b = select_random(ids, 0.5, seed=2)
        m = selection_overlap([a, b])
        # Hypergeometric: mean 50%, sigma 0.50%; allow 3 sigma.
        assert abs(m.cells[0, 1] - 50.0) <= 1.5

    def test_symmetry_and_diagonal_exact(self, planted_emb, planted_clustering):
        r1 = semdedup(planted_emb, planted_clustering, 0.8)
        r2 = ssl_prototypes(planted_emb, planted_clustering, 0.6)
        r3 = select_random(planted_emb.ids, 0.7, seed=3)
        m = selection_overlap([r1, r2, r3])
        assert np.array_equal(m.cells, m.cells.T)
        assert np.array_equal(np.diag(m.cells), [100.0, 100.0, 100.0])

    def test_mismatched_sources_rejected(self):
        a = select_random(("a", "b", "c"), 0.5, seed=0)
        b = select_random(("x", "y", "z"), 0.5, seed=0)
        with pytest.raises(ValidationError, match="mismatched"):
            selection_overlap([a, b])


class TestNnToTrain:
    def test_identical_row_distance_zero(self):
        train = _emb([[1.0, 0.0], [0.0, 1.0]], ids=("t0", "t1"))
        valid = _emb([[0.0, 1.0]], ids=("v0",))
        report = nn_to_train(valid, train)
        assert report.entries[0].train_id == "t1"
        assert report.entries[0].distance == 0.0

    def test_orthogonal_singletons(self):
        train = _emb([[1.0, 0.0]], ids=("t0",))
        valid = _emb([[0.0, 1.0]], ids=("v0",))
        report = nn_to_train(valid, train)
        assert report.entries[0].distance == 1.0

    def test_tie_breaks_to_lowest_train_id(self):
        row = [0.6, 0.8]
        train = _emb([row, row], ids=("zz", "aa"))
        valid = _emb([row], ids=("v",))
        assert nn_to_train(valid, train).entries[0].train_id == "aa"

    def test_matches_scalar_oracle_20x8(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(8, 5))
        v = rng.normal(size=(20, 5))
        train = _emb(t, ids=tuple(f"t{i}" for i in range(8)))
        valid = _emb(v, ids=tuple(f"v{i}" for i in range(20)))
        got = nn_to_train(valid, train)
        expected = brute_force_nn(
            valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids
        )
        for e, (vid, tid, dist) in zip(got.entries, expected):
            assert (e.valid_id, e.train_id) == (vid, tid)
            assert abs(e.distance - dist) <= 1e-9

    @given(st.integers(min_value=0, max_value=9999))
    def test_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        n, m, dim = rng.integers(1, 7), rng.integers(1, 7), rng.integers(2, 5)
        train = _emb(rng.normal(size=(m, dim)), ids=tuple(f"t{i}" for i in range(m)))
        valid = _emb(rng.normal(size=(n, dim)), ids=tuple(f"v{i}" for i in range(n)))
        got = nn_to_train(valid, train)
        expected = brute_force_nn(
            valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids
        )
        assert [(e.valid_id, e.train_id) for e in got.entries] == [
            (a, b) for a, b, _ in expected
        ]

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            nn_to_train(_emb([[1.0, 0.0]]), _emb([[1.0, 0.0, 0.0]]))

    def test_summary_stats(self):
        train = _emb([[1.0, 0.0]], ids=("t",))
        valid = _emb([[1.0, 0.0], [0.0, 1.0]], ids=("a", "b"))
        report = nn_to_train(valid, train)
        assert report.mean == 0.5
        assert report.median == 0.5

    def test_empty_validation_rejected(self):
        train = _emb([[1.0, 0.0]], ids=("t",))
        valid = EmbeddingMatrix(ids=(), vectors=np.zeros((0, 2)), normalized=True)
        with pytest.raises(ValidationError, match="validation matrix is empty"):
            nn_to_train(valid, train)

    def test_duplicated_train_rows_tie_at_any_position(self):
        # 300 train rows put the last few in BLAS's edge tile, whose dots can
        # round differently from the same rows' elsewhere; copies of one row
        # at the front and the back must still tie.
        rng = np.random.default_rng(0)
        t = rng.normal(size=(300, 16))
        t[299] = t[0]
        ids = tuple(f"t{i:03d}" for i in range(300))
        train = _emb(t, ids=ids[::-1])  # row 299 holds the lowest id
        valid = _emb(t[[0]] + rng.normal(scale=0.3, size=(30, 16)), ids=tuple(f"v{i}" for i in range(30)))
        got = nn_to_train(valid, train)
        expected = brute_force_nn(valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids)
        assert [e.train_id for e in got.entries] == [tid for _, tid, _ in expected]


@st.composite
def _nn_inputs(draw):
    """Validation and train rows, with duplicated train rows under shuffled ids."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 3, 5, 8, 64]))
    n_valid = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(4, 40)))
    n_distinct = draw(st.integers(1, 20))
    sources = draw(st.lists(st.integers(0, n_distinct - 1), min_size=1, max_size=60))
    rng = np.random.default_rng(seed)
    distinct = rng.normal(size=(n_distinct, d))
    train_rows = distinct[sources]
    # Some validation rows copy a train row, so the best similarity is an
    # exact tie between that row's duplicates.
    valid_rows = rng.normal(size=(n_valid, d))
    copies = rng.random(n_valid) < 0.3
    valid_rows[copies] = distinct[rng.integers(0, n_distinct, size=int(copies.sum()))]
    order = rng.permutation(len(sources))
    train = _emb(train_rows, ids=tuple(f"t{i:03d}" for i in order))
    valid = _emb(valid_rows, ids=tuple(f"v{i:03d}" for i in range(n_valid)))
    return valid, train, draw(st.integers(1, 6))


class TestMedian:
    # Distances lie in [0, 2]; a small pool of values makes repeats common.
    @given(
        st.lists(
            st.floats(0.0, 2.0) | st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            min_size=1,
            max_size=40,
        )
    )
    @example([0.3, 1.0, 0.1])
    @example([1.0, 0.1, 0.1, 0.3])
    def test_bit_equal_to_np_median(self, values):
        dists = np.array(values)
        assert _median(dists).hex() == float(np.median(dists)).hex()


class TestBlockedNn:
    @given(_nn_inputs())
    def test_blocked_matches_oracle(self, inputs):
        valid, train, rows = inputs
        with mock.patch.object(cluster_mod, "_block_rows", lambda a, b: rows):
            got = nn_to_train(valid, train)
        expected = brute_force_nn(valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids)
        assert [(e.valid_id, e.train_id) for e in got.entries] == [(v, t) for v, t, _ in expected]

    @given(_nn_inputs())
    def test_train_blocks_match_oracle(self, inputs):
        # Train rows come a block at a time, from memory or read again from a
        # file, and a near-tie can straddle two blocks: each validation row's
        # incumbent joins the next block's re-rank.
        valid, train, rows = inputs
        expected = brute_force_nn(valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(embed_mod, "_block_step", lambda n: rows):
            write_embeddings(train, f"{tmp}/train.d4em")
            for source in (train, _scan_embeddings(f"{tmp}/train.d4em")):
                got = nn_to_train(valid, source)
                assert [(e.valid_id, e.train_id) for e in got.entries] == [(v, t) for v, t, _ in expected]

    @given(_nn_inputs())
    def test_distances_match_full_product(self, inputs):
        # A block's gemm may round a dot differently from the full product's
        # (BLAS picks kernels by shape and tile position), so blocked
        # distances agree within the rounding of a d-term dot of unit
        # vectors. Each distance is its chosen pair's own row dot, so it is
        # bit for bit the same at every validation-side and train-side split.
        valid, train, rows = inputs
        full = np.clip(1.0 - (valid.vectors.astype(np.float64) @ train.vectors.T.astype(np.float64)).max(axis=1), 0.0, 2.0)
        with mock.patch.object(cluster_mod, "_block_rows", lambda a, b: rows):
            blocked = np.array([e.distance for e in nn_to_train(valid, train).entries])
        assert np.abs(blocked - full).max() <= 2 * valid.d * np.finfo(np.float64).eps
        position = {t: i for i, t in enumerate(train.ids)}
        chosen = train.vectors[[position[t] for _, t, _ in brute_force_nn(
            valid.vectors.tolist(), valid.ids, train.vectors.tolist(), train.ids)]]
        pair = np.clip(1.0 - _row_dots(valid.vectors.astype(np.float64), chosen.astype(np.float64)), 0.0, 2.0)
        for valid_rows, train_rows in itertools.product((rows, None), (1, 2, 3, 6, None)):
            with contextlib.ExitStack() as patches:
                if valid_rows:
                    patches.enter_context(mock.patch.object(cluster_mod, "_block_rows", lambda a, b: valid_rows))
                if train_rows:
                    patches.enter_context(mock.patch.object(embed_mod, "_block_step", lambda n: train_rows))
                split = np.array([e.distance for e in nn_to_train(valid, train).entries])
            assert split.tobytes() == pair.tobytes(), (valid_rows, train_rows)


class TestBinnedScores:
    def _report(self, distances):
        train = _emb([[1.0, 0.0]], ids=("t",))
        rows = [[1 - d, np.sqrt(1 - (1 - d) ** 2)] for d in distances]
        valid = _emb(rows, ids=tuple(f"v{i}" for i in range(len(distances))))
        return nn_to_train(valid, train)

    def test_constant_scores_zero_delta(self):
        report = self._report([0.1, 0.4, 0.7])
        before = {e.valid_id: 5.0 for e in report.entries}
        binned = binned_score_analysis(report, before, dict(before), n_bins=2)
        for b in binned.bins:
            if b.count:
                assert b.mean_delta == 0.0

    def test_single_bin_gives_global_means(self):
        report = self._report([0.1, 0.5])
        before = {"v0": 1.0, "v1": 3.0}
        after = {"v0": 2.0, "v1": 5.0}
        binned = binned_score_analysis(report, before, after, n_bins=1)
        (b,) = binned.bins
        assert b.count == 2
        assert b.mean_before == 2.0
        assert b.mean_delta == 1.5

    def test_delta_tracks_distance_monotonically(self):
        distances = [0.05, 0.15, 0.3, 0.45, 0.6, 0.8]
        report = self._report(distances)
        before = {e.valid_id: 0.0 for e in report.entries}
        after = {e.valid_id: 1.0 - e.distance for e in report.entries}
        binned = binned_score_analysis(report, before, after, n_bins=3)
        deltas = [b.mean_delta for b in binned.bins if b.count]
        assert all(a > b for a, b in zip(deltas, deltas[1:]))

    def test_empty_bins_reported(self):
        report = self._report([0.0, 1.0])
        scores = {e.valid_id: 1.0 for e in report.entries}
        binned = binned_score_analysis(report, scores, scores, n_bins=4)
        assert [b.count for b in binned.bins] == [1, 0, 0, 1]
        assert binned.bins[1].mean_delta is None

    def test_missing_id_named(self):
        report = self._report([0.2])
        with pytest.raises(ValidationError, match="v0"):
            binned_score_analysis(report, {}, {"v0": 1.0}, n_bins=1)
