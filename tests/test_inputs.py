"""The library's input contract for integer counts, sizes and seeds, real numbers, ids and arrays.

Every integer parameter goes through ``errors._index``: a numpy integer acts
exactly as the ``int`` it equals, and a ``bool``, float, string, ``None`` or
a value below the minimum raises ``ValidationError``. Every real parameter
goes through ``errors._real``: a number inside its interval is held as a
``float``, and anything else raises. Every id sequence goes through
``errors._unique``, whose error names the repeated id. An embedding matrix,
a clustering, and the centroids given to ``assign`` or as ``init_centroids``
must be an array of real numbers, and a path a ``str`` or ``os.PathLike``.
Every object argument (an embedding, a clustering, a config, a spec, a cost
model, a selection, a result, an object to write) goes through
``errors._instance``, whose error names the parameter, the type it needs and
the type it got. A value the other fields determine is computed, not taken.
Every routine that reads a cosine distance as ``1 - dot`` takes only a matrix
flagged normalized, through ``embed._cosine_matrix``.
"""

import contextlib
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d4kit import (
    Clustering,
    CostModel,
    D4Config,
    Document,
    DocumentSet,
    EmbedderSpec,
    EmbeddingMatrix,
    EpochPlan,
    KmeansConfig,
    LshConfig,
    SelectionResult,
    SynthSpec,
    ValidationError,
    analyze_clustering,
    assign,
    binned_score_analysis,
    cluster_balance,
    count_tokens,
    d4,
    default_k,
    ecdf_mean_distance,
    embed_corpus,
    embed_cost,
    find_duplicate_driven_clusters,
    kmeans_spherical,
    lsh_dedup,
    naive_gain,
    nn_to_train,
    objective,
    overall_gain,
    plan_epochs,
    load_corpus,
    read_clustering,
    read_embeddings,
    select_random,
    selection_overlap,
    semdedup,
    shingles,
    signature,
    ssl_prototypes,
    synthesize_corpus,
    write_clustering,
    write_corpus,
    write_embeddings,
)
from d4kit import cluster as cluster_mod
from d4kit import diagnostics as diagnostics_mod
from d4kit import select as select_mod
from d4kit.corpus import iter_records
from d4kit.diagnostics import NnEntry, NnReport
from d4kit.embed import _scan_embeddings
from d4kit.errors import _instance


def _integer_arg(least):
    """Any value a caller might pass as an integer of at least ``least`` (None: any integer)."""
    if least is None:
        ints, small = st.integers(-(2**70), 2**70), st.integers(-(2**31), 2**31 - 1)
    else:
        ints = small = st.integers(least - 2, least + 4)
    return st.one_of(
        ints,
        small.map(np.int32),
        small.map(np.int64),
        small.filter(lambda v: v >= 0).map(np.uint64),
        st.booleans(),
        ints.map(float),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=2),
        st.none(),
    )


def _valid(value, least) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, np.integer))
        and (least is None or value >= least)
    )


_DOCS = DocumentSet.from_documents([Document(f"d{i}", "a b c", 3) for i in range(6)])
_NN = NnReport(entries=tuple(NnEntry(f"v{i}", "t", 0.1 * i) for i in range(4)), mean=0.15, median=0.15)
_SCORES = {f"v{i}": float(i) for i in range(4)}

# name -> (call on the drawn integer arguments, {argument: least}, arguments for which
# None means unset, the integers the result holds, each of which must be an int).
_TARGETS = {
    "Document": (
        lambda a: Document("a", "x", a["token_count"]), {"token_count": 0}, (),
        lambda r: [r.token_count],
    ),
    "EmbedderSpec": (
        lambda a: EmbedderSpec(kind="hash", **a), {"dim": 2, "seed": None, "chunk_size": 1}, ("chunk_size",),
        lambda r: [r.dim, r.seed] + ([] if r.chunk_size is None else [r.chunk_size]),
    ),
    "KmeansConfig": (
        lambda a: KmeansConfig(**a), {"k": 1, "iters": 1, "seed": None}, ("k",),
        lambda r: [r.iters, r.seed] + ([] if r.k is None else [r.k]),
    ),
    "LshConfig": (
        lambda a: LshConfig(**a),
        {"bands": 1, "rows_per_band": 1, "shingle_width": 1, "seed": None}, (),
        lambda r: [r.num_hashes, r.bands, r.rows_per_band, r.shingle_width, r.seed],
    ),
    "SynthSpec": (
        lambda a: SynthSpec(doc_length_range=(a.pop("lo"), a.pop("hi")), **a),
        {"n_topics": 1, "docs_per_topic": 1, "n_template_groups": 0, "dupes_per_group": 2,
         "vocab_size": None, "lo": 1, "hi": None, "seed": None}, (),
        lambda r: [r.n_topics, r.docs_per_topic, r.n_template_groups, r.dupes_per_group,
                   r.vocab_size, *r.doc_length_range, r.seed],
    ),
    "select_random": (
        lambda a: select_random(_DOCS.ids, 0.5, **a), {"seed": None}, (),
        lambda r: [],
    ),
    "plan_epochs": (
        lambda a: plan_epochs(_DOCS, reshuffle_each_epoch=True, **a), {"t_total": 1, "seed": None}, (),
        lambda r: [r.t_total, r.reshuffle_seed],
    ),
    "shingles": (lambda a: shingles("a b c d e f", **a), {"w": 1}, (), lambda r: []),
    "default_k": (lambda a: default_k(**a), {"n": 1}, (), lambda r: [r]),
    "binned_score_analysis": (
        lambda a: binned_score_analysis(_NN, _SCORES, _SCORES, **a), {"n_bins": 1}, (),
        lambda r: [b.count for b in r.bins],
    ),
}


@pytest.mark.parametrize("target", list(_TARGETS))
@given(data=st.data())
def test_integer_arguments_give_ints_or_validation_error(target, data):
    call, least, nullable, held = _TARGETS[target]
    args = {name: data.draw(_integer_arg(m), label=name) for name, m in least.items()}
    invalid = [n for n, v in args.items() if not (v is None and n in nullable or _valid(v, least[n]))]
    try:
        result = call(dict(args))
    except ValidationError:
        return
    assert not invalid, f"accepted invalid {invalid}"
    assert all(type(v) is int for v in held(result)), held(result)


def _real_arg():
    """Any value a caller might pass as a real number: in and out of every interval used, or not a number."""
    near = st.floats(-2, 3)
    return st.one_of(
        near,
        st.floats(allow_nan=True, allow_infinity=True),
        st.integers(-3, 4),
        near.map(np.float64),
        st.floats(-2, 3, width=32).map(np.float32),
        st.booleans(),
        st.sampled_from([10**400, -(10**400), float("nan"), np.float64("nan"), float("inf"), -float("inf"),
                         np.True_, 0.5j]),
        st.text(max_size=3),
        st.none(),
    )


def _valid_real(value, interval) -> bool:
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float, np.floating))
        and (abs(value) < 10**308 if isinstance(value, int) else math.isfinite(value))
        and (lo <= value if interval[0] == "[" else lo < value)
        and (value <= hi if interval[-1] == "]" else value < hi)
    )


_EMB = embed_corpus(synthesize_corpus(SynthSpec(n_topics=3, docs_per_topic=6, seed=1)),
                    EmbedderSpec(kind="hash", dim=16, seed=1))
_CLUSTERING = kmeans_spherical(_EMB, KmeansConfig(k=3))

# name -> (call on the drawn real arguments, {argument: interval}, the reals the result holds,
# each of which must be a float).
_REAL_TARGETS = {
    "CostModel": (
        lambda a: CostModel(**a),
        {"baseline_train_gpu_hours": "[0, inf)", "fraction_updates_saved": "[0, 1)",
         "embed_gpu_hours": "[0, inf)", "cpu_stage_gpu_hour_equivalent": "[0, inf)"},
        lambda r: [r.baseline_train_gpu_hours, r.fraction_updates_saved, r.embed_gpu_hours,
                   r.cpu_stage_gpu_hour_equivalent],
    ),
    "embed_cost": (
        lambda a: embed_cost(**a), {"tokens_to_embed": "[0, inf)", "tokens_per_gpu_hour": "(0, inf)"},
        lambda r: [r],
    ),
    "SynthSpec": (
        lambda a: SynthSpec(n_topics=2, docs_per_topic=2, **a), {"template_mutation_rate": "[0, 1]"},
        lambda r: [r.template_mutation_rate],
    ),
    "find_duplicate_driven_clusters": (
        lambda a: find_duplicate_driven_clusters(_EMB, _CLUSTERING, **a), {"std_threshold": "[0, inf)"},
        lambda r: [],
    ),
    "analyze_clustering": (
        lambda a: analyze_clustering(_EMB, _CLUSTERING, **a), {"std_threshold": "[0, inf)"},
        lambda r: [],
    ),
    "binned_score_analysis": (
        lambda a: binned_score_analysis(_NN, *[{**_SCORES, "v1": a["score"]}] * 2), {"score": "(-inf, inf)"},
        lambda r: [v for b in r.bins if b.count for v in (b.mean_before, b.mean_delta)],
    ),
}


@pytest.mark.parametrize("target", list(_REAL_TARGETS))
@given(data=st.data())
def test_real_arguments_give_floats_or_validation_error(target, data):
    call, intervals, held = _REAL_TARGETS[target]
    args = {name: data.draw(_real_arg(), label=name) for name in intervals}
    invalid = [n for n, v in args.items() if not _valid_real(v, intervals[n])]
    try:
        result = call(args)
    except ValidationError:
        return
    assert not invalid, f"accepted invalid {invalid}"
    assert all(type(v) is float for v in held(result)), held(result)


class TestRealArguments:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: SynthSpec(n_topics=2, docs_per_topic=3, template_mutation_rate="0.1"),
            lambda: SynthSpec(n_topics=2, docs_per_topic=3, template_mutation_rate=True),
            lambda: CostModel("1", 0.1),
            lambda: CostModel(True, 0.1),
            lambda: CostModel(10**400, 0.1),
            lambda: CostModel(1.0, 0.1, embed_gpu_hours=10**400),
            lambda: embed_cost("1", 2.0),
            lambda: embed_cost(True, True),
            lambda: D4Config(r_dedup=10**400),
            lambda: find_duplicate_driven_clusters(_EMB, _CLUSTERING, float("nan")),
            lambda: find_duplicate_driven_clusters(_EMB, _CLUSTERING, "0.03"),
            lambda: analyze_clustering(_EMB, _CLUSTERING, float("nan")),
            lambda: analyze_clustering(_EMB, _CLUSTERING, "0.03"),
            lambda: binned_score_analysis(_NN, {**_SCORES, "v2": float("nan")}, _SCORES),
            lambda: binned_score_analysis(_NN, _SCORES, {**_SCORES, "v0": -float("inf")}),
            lambda: binned_score_analysis(_NN, {**_SCORES, "v3": "1.0"}, _SCORES),
            lambda: binned_score_analysis(_NN, _SCORES, {**_SCORES, "v1": True}),
            lambda: overall_gain(CostModel(1.0, 0.5, 1e308, 1e308)),
        ],
        ids=["rate-str", "rate-bool", "cost-str", "cost-bool", "cost-10**400", "embed-hours-10**400",
             "embed_cost-str", "embed_cost-bool", "ratio-10**400", "find-std-nan", "find-std-str",
             "analyze-std-nan", "analyze-std-str", "binned-before-nan", "binned-after-inf", "binned-str",
             "binned-bool", "overall_gain-overflow"],
    )
    def test_rejected_with_the_interval(self, build):
        with pytest.raises(ValidationError, match=r"must be a number in [\[(]"):
            build()

    @pytest.mark.parametrize(
        "before, after, which",
        [({"v0": -1e308, "v1": 0.0}, {"v0": 1e308, "v1": 0.0}, "delta"),
         ({"v0": 1e308, "v1": 1e308}, {"v0": 0.0, "v1": 0.0}, "before"),
         ({"v0": -1e308, "v1": -1e308}, {"v0": -1e308, "v1": -1e308}, "before")],
        ids=["delta", "before", "before-negative"],
    )
    def test_binned_means_that_overflow_rejected(self, before, after, which):
        # Both rows fall in the one bin; every score is finite, and one mean overflows.
        nn = NnReport(entries=(NnEntry("v0", "t", 0.5), NnEntry("v1", "t", 0.5)), mean=0.5, median=0.5)
        with pytest.raises(ValidationError, match=rf"bin 0 mean score {which} must be a number in \(-inf, inf\)"):
            binned_score_analysis(nn, before, after, 1)

    def test_numpy_and_int_reals_stored_as_float(self):
        model = CostModel(np.float32(1.5), np.float64(0.25), embed_gpu_hours=2)
        assert model == CostModel(1.5, 0.25, embed_gpu_hours=2.0)
        assert {type(v) for v in vars(model).values()} == {float}
        assert type(embed_cost(np.float32(3.0), 2)) is float
        assert type(SynthSpec(n_topics=2, docs_per_topic=3, template_mutation_rate=np.float32(0.5))
                    .template_mutation_rate) is float
        assert type(D4Config(r_dedup=np.float64(0.5), r_proto=1).r_proto) is float


def _repeated_in_embedding_file(tmp_path, read):
    path = tmp_path / "e.d4em"
    write_embeddings(EmbeddingMatrix(("a", "b"), np.eye(2), True), str(path))
    path.write_bytes(path.read_bytes()[:-1] + b"a")  # the last id, "b", becomes a second "a"
    return read(str(path))


_ID_ENTRY_POINTS = {
    "EmbeddingMatrix": lambda tmp: EmbeddingMatrix(("a", "b", "a"), np.eye(3), True),
    "read_embeddings": lambda tmp: _repeated_in_embedding_file(tmp, read_embeddings),
    "_scan_embeddings": lambda tmp: _repeated_in_embedding_file(tmp, _scan_embeddings),
    "DocumentSet": lambda tmp: DocumentSet.from_documents([Document(i, "x", 1) for i in ("a", "b", "a")]),
    "lsh_dedup": lambda tmp: lsh_dedup([Document(i, "x y", 2) for i in ("a", "b", "a")]),
    "select_random": lambda tmp: select_random(("a", "b", "a"), 0.5),
    "SelectionResult": lambda tmp: SelectionResult("m", 1.0, ("a", "b", "a"), (0.0,) * 3, 3, "f"),
}


@pytest.mark.parametrize("entry", list(_ID_ENTRY_POINTS))
def test_repeated_id_rejected_and_named(tmp_path, entry):
    with pytest.raises(ValidationError, match="ids must be unique, 'a' repeats"):
        _ID_ENTRY_POINTS[entry](tmp_path)


def _object_row(*values) -> np.ndarray:
    """A 1 x n object array holding each of ``values`` as it is, a 0-d array too."""
    row = np.empty((1, len(values)), dtype=object)
    for i, value in enumerate(values):
        row[0, i] = value
    return row


class TestNonNumberInputs:
    @pytest.mark.parametrize("args", [(5,), (None,), ("a b", 5), (b"a b",)])
    def test_count_tokens_needs_str(self, args):
        with pytest.raises(ValidationError, match="must be str"):
            count_tokens(*args)

    @pytest.mark.parametrize("pair", [5, None, (4,), (4, 9, 12)])
    def test_doc_length_range_must_be_a_pair(self, pair):
        with pytest.raises(ValidationError, match=r"a \(min, max\) pair"):
            SynthSpec(n_topics=2, docs_per_topic=3, doc_length_range=pair)

    @pytest.mark.parametrize(
        "vectors",
        [
            np.array([["x"]]), np.array([[{}, 1.0]], dtype=object),
            [["1.0", "0"]], np.array([[b"1"]]), np.array([[True, False]]), [[False, True]],
            np.array([["1.0", 0]], dtype=object), np.array([[True, 0]], dtype=object),
            np.array([[b"1", 0]], dtype=object), _object_row(np.array("1.0"), 0), _object_row(np.array(True), 0),
        ],
    )
    def test_vectors_numpy_cannot_cast_rejected(self, vectors):
        with pytest.raises(ValidationError, match="vectors must be numbers"):
            EmbeddingMatrix(ids=("a",), vectors=vectors, normalized=False)

    @pytest.mark.parametrize("nn", [[], None, _SCORES], ids=["list", "None", "dict"])
    def test_binned_scores_need_an_nn_report(self, nn):
        with pytest.raises(ValidationError, match="must be an NnReport"):
            binned_score_analysis(nn, _SCORES, _SCORES, 3)

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: ecdf_mean_distance(_EMB, c),
            lambda c: analyze_clustering(_EMB, c),
            lambda c: objective(_EMB, c),
            lambda c: cluster_balance(c),
            lambda c: find_duplicate_driven_clusters(_EMB, c),
            lambda c: semdedup(_EMB, c, 0.5),
            lambda c: ssl_prototypes(_EMB, c, 0.5),
        ],
        ids=["ecdf", "analyze", "objective", "balance", "duplicate-driven", "semdedup", "prototypes"],
    )
    @pytest.mark.parametrize("clustering", [None, "c", (1, 2)], ids=["None", "str", "tuple"])
    def test_clustering_functions_need_a_clustering(self, call, clustering):
        with pytest.raises(ValidationError, match=f"clustering must be a Clustering, got {type(clustering).__name__}"):
            call(clustering)

    @pytest.mark.parametrize("clustering", ["c", (1, 2)], ids=["str", "tuple"])
    def test_d4_needs_a_clustering_or_none(self, clustering):
        with pytest.raises(ValidationError, match=f"clustering must be a Clustering, got {type(clustering).__name__}"):
            d4(_EMB, D4Config(), clustering)

    def test_ecdf_of_none_needs_a_clustering(self):
        with pytest.raises(ValidationError, match="got NoneType"):
            ecdf_mean_distance(None, None)

    def test_numeric_object_vectors_accepted(self):
        emb = EmbeddingMatrix(ids=("a",), vectors=np.array([[1, 0.0]], dtype=object), normalized=True)
        assert emb.vectors.dtype == np.float64 and emb.vectors.tolist() == [[1.0, 0.0]]


class TestIntegerFields:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: KmeansConfig(k=2.5),
            lambda: KmeansConfig(k=True),
            lambda: KmeansConfig(seed=7.0),
            lambda: LshConfig(bands=2.0),
            lambda: LshConfig(seed="7"),
            lambda: SynthSpec(n_topics=2.5, docs_per_topic=3),
            lambda: SynthSpec(n_topics=2, docs_per_topic=3, doc_length_range=(4.0, 9)),
        ],
        ids=["k-float", "k-bool", "kmeans-seed-float", "bands-float", "lsh-seed-str",
             "n_topics-float", "doc_length-float"],
    )
    def test_non_integers_rejected_at_construction(self, build):
        with pytest.raises(ValidationError, match="must be an integer"):
            build()

    def test_numpy_integers_stored_as_int(self):
        spec = SynthSpec(n_topics=np.int64(2), docs_per_topic=np.uint64(3), doc_length_range=(np.int32(4), 9))
        assert spec == SynthSpec(n_topics=2, docs_per_topic=3, doc_length_range=(4, 9))
        assert {type(v) for v in (spec.n_topics, spec.docs_per_topic, *spec.doc_length_range)} == {int}
        assert type(Document("a", "x", np.uint64(3)).token_count) is int


# Each of the five seeded stages run end to end, as a value that compares by bytes.
_SEEDED = {
    "kmeans_spherical": lambda s: _clustering_bytes(kmeans_spherical(_emb(), KmeansConfig(k=3, seed=s))),
    "lsh_dedup": lambda s: lsh_dedup(_corpus(0), LshConfig(bands=4, seed=s)),
    "select_random": lambda s: select_random(_corpus(0).ids, 0.4, seed=s),
    "plan_epochs": lambda s: plan_epochs(_corpus(0), 2_000, seed=s, reshuffle_each_epoch=True),
    "synthesize_corpus": lambda s: _corpus(s),
}


def _corpus(seed):
    return synthesize_corpus(SynthSpec(n_topics=3, docs_per_topic=8, n_template_groups=2,
                                       template_mutation_rate=0.05, doc_length_range=(8, 20), seed=seed))


def _emb():
    return embed_corpus(_corpus(0), EmbedderSpec(kind="hash", dim=16, seed=1))


def _clustering_bytes(c):
    return c.centroids.tobytes(), c.assignment.tobytes(), c.distance.tobytes(), c.seed, c.iters_run


@pytest.mark.parametrize("stage", list(_SEEDED))
@pytest.mark.parametrize("seed, same", [(np.int64(7), 7), (np.uint64(7), 7), (np.int32(-7), -7)])
def test_numpy_seed_gives_the_int_seeds_result(stage, seed, same):
    assert _SEEDED[stage](seed) == _SEEDED[stage](same)


class TestRatios:
    @pytest.mark.parametrize("r", ["0.5", True, False, None, 0.5j, np.True_, 0.0, 1.5, float("nan")])
    def test_non_real_or_out_of_range_ratio_rejected(self, r):
        emb = _emb()
        c = kmeans_spherical(emb, KmeansConfig(k=3))
        for call in (
            lambda: semdedup(emb, c, r),
            lambda: ssl_prototypes(emb, c, r),
            lambda: select_random(emb.ids, r),
            lambda: D4Config(r_dedup=r),
            lambda: D4Config(r_proto=r),
        ):
            with pytest.raises(ValidationError, match=r"in \(0, 1\]"):
                call()

    @pytest.mark.parametrize("r", [0.5, 1, np.float32(0.5), np.float64(1.0)])
    def test_real_ratios_accepted(self, r):
        assert select_random(_DOCS.ids, r, seed=1).r_target == r

    def test_semdedup_has_no_tolerance_knob(self):
        emb = _emb()
        with pytest.raises(TypeError):
            semdedup(emb, kmeans_spherical(emb, KmeansConfig(k=3)), 0.5, tol=0.1)


class TestRealArrays:
    def test_complex_vectors_rejected(self):
        vectors = np.eye(3, dtype=np.complex128)
        with pytest.raises(ValidationError, match="complex"):
            EmbeddingMatrix(ids=("a", "b", "c"), vectors=vectors, normalized=True)
        with pytest.raises(ValidationError, match="complex"):
            EmbeddingMatrix(ids=("a",), vectors=[[1 + 0j, 0j]], normalized=True)

    @pytest.mark.parametrize("field", ["centroids", "distance"])
    def test_complex_clustering_rejected(self, field):
        c = kmeans_spherical(_emb(), KmeansConfig(k=3))
        parts = {"centroids": c.centroids, "assignment": c.assignment, "distance": c.distance}
        parts[field] = parts[field].astype(np.complex128)
        with pytest.raises(ValidationError, match="complex"):
            type(c)(**parts)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EmbeddingMatrix(ids=("a", "b"), vectors=[[1.0, 0.0], [1.0]], normalized=True),
            lambda: Clustering(centroids=np.array([["x"]]), assignment=np.zeros(1, np.uint32), distance=np.zeros(1)),
            lambda: Clustering(centroids=np.eye(2), assignment=[0, 1], distance=np.zeros(2)),
            lambda: Clustering(centroids=np.eye(2), assignment=np.array([0.0, 1.0]), distance=np.zeros(2)),
            lambda: Clustering(centroids=np.eye(2), assignment=np.zeros(2, np.uint32), distance=[0.0, 0.0]),
        ],
        ids=["ragged-vectors", "str-centroids", "list-assignment", "float-assignment", "list-distance"],
    )
    def test_arrays_numpy_cannot_use_rejected(self, build):
        with pytest.raises(ValidationError, match="must be"):
            build()

    @pytest.mark.parametrize(
        "centroids, match",
        [
            ([["a"] * 16] * 3, "must be numbers"),
            ([[1.0] + [0.0] * 15, [1.0]], "must be numbers"),
            (np.eye(3, 16) * (1 + 1j) / np.sqrt(2), "complex"),
            (np.eye(3, 16, dtype=np.complex128), "complex"),
        ],
        ids=["str", "ragged", "complex", "complex-zero-imaginary"],
    )
    @pytest.mark.parametrize("call", ["assign", "init_centroids"])
    def test_centroids_numpy_cannot_use_rejected(self, call, centroids, match):
        emb = _emb()
        with pytest.raises(ValidationError, match=match):
            if call == "assign":
                assign(emb, centroids)
            else:
                kmeans_spherical(emb, init_centroids=centroids)


# Each library reader and writer that takes a path, as a call given ``fd`` instead.
_PATH_CALLS = {
    "load_corpus": lambda fd: load_corpus(fd),
    "iter_records": lambda fd: list(iter_records(fd)),
    "read_embeddings": lambda fd: read_embeddings(fd),
    "_scan_embeddings": lambda fd: _scan_embeddings(fd),
    "read_clustering": lambda fd: read_clustering(fd),
    "embed_corpus": lambda fd: embed_corpus(_corpus(0), EmbedderSpec(kind="external", path=fd)),
    "write_corpus": lambda fd: write_corpus(_corpus(0), fd),
    "write_embeddings": lambda fd: write_embeddings(_emb(), fd),
    "write_clustering": lambda fd: write_clustering(kmeans_spherical(_emb(), KmeansConfig(k=2)), fd),
}


class TestPaths:
    @pytest.mark.parametrize("name", sorted(_PATH_CALLS))
    def test_descriptor_refused_and_left_open(self, name):
        # An int is not taken for a file descriptor: open() would read or
        # write the caller's descriptor and then close it. A reader gets a
        # pipe at its end, so that a read would not wait for a writer.
        read, write = os.pipe()
        writer = name.startswith("write")
        if not writer:
            os.close(write)
        try:
            with pytest.raises(ValidationError, match="path must be a str or os.PathLike"):
                _PATH_CALLS[name](write if writer else read)
            os.fstat(write if writer else read)  # still open
        finally:
            for fd in (read, write) if writer else (read,):
                with contextlib.suppress(OSError):
                    os.close(fd)

    @pytest.mark.parametrize("path", [b"corpus.jsonl", None, 3.0])
    def test_other_types_refused(self, path):
        with pytest.raises(ValidationError, match="path must be"):
            load_corpus(path)


class TestDocumentText:
    @pytest.mark.parametrize("doc", [Document(3, "a b", 1), Document("a", 5, 1), Document("a", None, 0)])
    def test_non_str_id_or_text_rejected_where_read(self, doc):
        with pytest.raises(ValidationError, match="must be str"):
            lsh_dedup([Document("b", "x y", 2), doc])
        with pytest.raises(ValidationError, match="must be str"):
            embed_corpus([doc], EmbedderSpec(kind="hash", dim=8))


# Each public function given a wrong object where it takes one: (call, parameter, type it needs).
_C = _CLUSTERING
_OBJECT_CALLS = {
    "objective": (lambda x: objective(x, _C), "emb", "an EmbeddingMatrix"),
    "analyze_clustering": (lambda x: analyze_clustering(x, _C), "emb", "an EmbeddingMatrix"),
    "find_duplicate_driven_clusters": (
        lambda x: find_duplicate_driven_clusters(x, _C), "emb", "an EmbeddingMatrix"
    ),
    "ecdf_mean_distance": (lambda x: ecdf_mean_distance(x, _C), "emb", "an EmbeddingMatrix"),
    "validate_for": (lambda x: _C.validate_for(x), "emb", "an EmbeddingMatrix"),
    "semdedup": (lambda x: semdedup(x, _C, 0.5), "emb", "an EmbeddingMatrix"),
    "ssl_prototypes": (lambda x: ssl_prototypes(x, _C, 0.5), "emb", "an EmbeddingMatrix"),
    "d4-emb": (lambda x: d4(x, D4Config(), _C), "emb", "an EmbeddingMatrix"),
    "d4-cfg": (lambda x: d4(_EMB, x, _C), "cfg", "a D4Config"),
    "d4-artifacts": (lambda x: d4(_EMB, D4Config(), _C, artifacts=x), "artifacts", "a dict"),
    "D4Config-recluster": (lambda x: D4Config(recluster=x), "recluster", "a bool"),
    "D4Config-kmeans": (lambda x: D4Config(kmeans=x), "kmeans", "a KmeansConfig"),
    "binned_score_analysis-before": (lambda x: binned_score_analysis(_NN, x, _SCORES), "score_before", "a Mapping"),
    "binned_score_analysis-after": (lambda x: binned_score_analysis(_NN, _SCORES, x), "score_after", "a Mapping"),
    "nn_to_train-valid": (lambda x: nn_to_train(x, _EMB), "valid_emb", "an EmbeddingMatrix"),
    "nn_to_train-train": (lambda x: nn_to_train(_EMB, x), "train_emb", "an EmbeddingMatrix"),
    "assign": (lambda x: assign(x, _C.centroids), "emb", "an EmbeddingMatrix"),
    "kmeans_spherical-emb": (lambda x: kmeans_spherical(x), "emb", "an EmbeddingMatrix"),
    "kmeans_spherical-cfg": (lambda x: kmeans_spherical(_EMB, x), "cfg", "a KmeansConfig"),
    "lsh_dedup": (lambda x: lsh_dedup(_DOCS, x), "cfg", "an LshConfig"),
    "signature": (lambda x: signature(frozenset({"a"}), x), "cfg", "an LshConfig"),
    "embed_corpus": (lambda x: embed_corpus(_DOCS, x), "spec", "an EmbedderSpec"),
    "synthesize_corpus": (lambda x: synthesize_corpus(x), "spec", "a SynthSpec"),
    "plan_epochs": (lambda x: plan_epochs(x, 10), "selected", "a DocumentSet"),
    "naive_gain": (lambda x: naive_gain(x), "model", "a CostModel"),
    "overall_gain": (lambda x: overall_gain(x), "model", "a CostModel"),
    "selection_overlap": (lambda x: selection_overlap([select_random(_DOCS.ids, 0.5), x]), "results[1]",
                          "a SelectionResult"),
}
# Where None stands for the default config, or for no artifacts.
_NONE_MEANS_DEFAULT = {
    "kmeans_spherical-cfg": _clustering_bytes(kmeans_spherical(_EMB)),
    "lsh_dedup": lsh_dedup(_DOCS),
    "d4-artifacts": d4(_EMB, D4Config(), _C, artifacts={}),
}
# Each writer given a wrong object: (call on the object and a path, parameter, type it needs).
_WRITER_CALLS = {
    "write_clustering": (write_clustering, "c", "a Clustering"),
    "write_embeddings": (write_embeddings, "m", "an EmbeddingMatrix"),
    "write_corpus": (write_corpus, "docs", "a DocumentSet"),
}


class TestObjectArguments:
    @pytest.mark.parametrize("name", list(_OBJECT_CALLS))
    @pytest.mark.parametrize("value", [None, "x", (1, 2)], ids=["None", "str", "tuple"])
    def test_wrong_object_rejected_and_named(self, name, value):
        call, param, kind = _OBJECT_CALLS[name]
        if value is None and name in _NONE_MEANS_DEFAULT:
            got = call(value)
            assert (_clustering_bytes(got) if isinstance(got, Clustering) else got) == _NONE_MEANS_DEFAULT[name]
            return
        with pytest.raises(ValidationError, match=rf"^{re.escape(param)} must be {kind}, got {type(value).__name__}$"):
            call(value)

    @pytest.mark.parametrize("name", list(_WRITER_CALLS))
    @pytest.mark.parametrize("value", [None, _CLUSTERING.centroids, [Document("a", "x", 1)]], ids=["None", "array", "list"])
    def test_writer_refuses_a_wrong_object_before_writing(self, tmp_path, name, value):
        write, param, kind = _WRITER_CALLS[name]
        with pytest.raises(ValidationError, match=rf"^{param} must be {kind}, got {type(value).__name__}$"):
            write(value, str(tmp_path / "out"))
        assert not list(tmp_path.iterdir())

    def test_checked_file_accepted_where_blocks_suffice(self, tmp_path):
        path = tmp_path / "e.d4em"
        write_embeddings(_EMB, str(path))
        scanned = _scan_embeddings(str(path))
        assert objective(scanned, _C) == objective(_EMB, _C)
        assert ecdf_mean_distance(scanned, _C) == ecdf_mean_distance(_EMB, _C)
        assert find_duplicate_driven_clusters(scanned, _C) == find_duplicate_driven_clusters(_EMB, _C)
        assert analyze_clustering(scanned, _C) == analyze_clustering(_EMB, _C)
        assert ssl_prototypes(scanned, _C, 0.5) == ssl_prototypes(_EMB, _C, 0.5)
        assert nn_to_train(_EMB, scanned) == nn_to_train(_EMB, _EMB)
        with pytest.raises(ValidationError, match="emb must be an EmbeddingMatrix, got _EmbeddingFile"):
            semdedup(scanned, _C, 0.5)


class TestStringIds:
    """``EmbeddingMatrix``, ``select_random`` and ``SelectionResult`` hold their ids as a
    tuple of ``str`` (``errors._str_ids``); ``DocumentSet`` takes any id, which ``write_corpus`` writes."""

    @pytest.mark.parametrize(
        "call, what",
        [
            (lambda ids: EmbeddingMatrix(ids, np.eye(3), True), "embedding"),
            (lambda ids: select_random(ids, 0.5), "source"),
            (lambda ids: SelectionResult("m", 1.0, ids, (0.0,) * 3, 3, "f"), "kept"),
        ],
        ids=["EmbeddingMatrix", "select_random", "SelectionResult"],
    )
    @pytest.mark.parametrize("ids, bad", [((1, 2, 3), "1"), (("a", b"b", "c"), "b'b'"), (["a", "b", None], "None")],
                             ids=["ints", "bytes", "None"])
    def test_non_str_rejected_and_named(self, call, what, ids, bad):
        with pytest.raises(ValidationError, match=rf"^{what} ids must be str, got {re.escape(bad)}$"):
            call(ids)

    @pytest.mark.parametrize("ids", [None, 3], ids=["None", "int"])
    def test_non_iterable_rejected(self, ids):
        with pytest.raises(ValidationError, match=rf"^embedding ids must be an Iterable, got {type(ids).__name__}$"):
            EmbeddingMatrix(ids, np.eye(3), True)

    def test_held_as_a_tuple(self):
        for ids in (["a", "b", "c"], iter("abc"), np.array(["a", "b", "c"])):
            emb = EmbeddingMatrix(ids, np.eye(3), True)
            assert type(emb.ids) is tuple and emb.ids == ("a", "b", "c")
        result = SelectionResult("m", 1.0, ["a", "b"], (0.0, 0.0), 2, "f")
        assert type(result.kept_ids) is tuple and result.kept_ids == ("a", "b")
        assert select_random(["a", "b", "c", "d"], 0.5) == select_random(("a", "b", "c", "d"), 0.5)


def _unit_matrix_rows(seed: int, n: int, d: int) -> np.ndarray:
    rows = np.random.default_rng(seed).normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


# Each routine that reads a cosine distance as 1 - dot, on a matrix ``e`` and a clustering ``c`` of
# the same rows flagged normalized, and the parameter that takes ``e``.
_COSINE_CALLS = {
    "assign": (lambda e, c, t: assign(e, c.centroids), "emb"),
    "kmeans_spherical": (lambda e, c, t: kmeans_spherical(e, KmeansConfig(k=2)), "emb"),
    "validate_for": (lambda e, c, t: c.validate_for(e), "emb"),
    "objective": (lambda e, c, t: objective(e, c), "emb"),
    "semdedup": (lambda e, c, t: semdedup(e, c, 0.5), "emb"),
    "ssl_prototypes": (lambda e, c, t: ssl_prototypes(e, c, 0.5), "emb"),
    "d4": (lambda e, c, t: d4(e, D4Config(r_dedup=0.75, r_proto=0.75, kmeans=KmeansConfig(k=2)), c), "emb"),
    "d4-fit": (lambda e, c, t: d4(e, D4Config(r_dedup=0.75, r_proto=0.75, kmeans=KmeansConfig(k=2))), "emb"),
    "analyze_clustering": (lambda e, c, t: analyze_clustering(e, c), "emb"),
    "find_duplicate_driven_clusters": (lambda e, c, t: find_duplicate_driven_clusters(e, c), "emb"),
    "ecdf_mean_distance": (lambda e, c, t: ecdf_mean_distance(e, c), "emb"),
    "nn_to_train-valid": (lambda e, c, t: nn_to_train(e, t), "valid_emb"),
    "nn_to_train-train": (lambda e, c, t: nn_to_train(t, e), "train_emb"),
}


def _comparable(value):
    """``value`` as something ``==`` compares by value: arrays and clusterings as bytes."""
    if isinstance(value, Clustering):
        return _clustering_bytes(value)
    if isinstance(value, tuple):
        return tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in value)
    return value


@contextlib.contextmanager
def _flag_unchecked():
    """The cosine routines with ``embed._cosine_matrix`` checking only the type, as a
    routine that never read the flag would."""
    unchecked = lambda name, emb, types=EmbeddingMatrix: _instance(name, emb, types)  # noqa: E731
    with contextlib.ExitStack() as stack:
        for module in (cluster_mod, select_mod, diagnostics_mod):
            stack.enter_context(mock.patch.object(module, "_cosine_matrix", unchecked))
        yield


class TestCosineMatrix:
    """Unit rows flagged ``normalized=False`` are refused by every cosine routine with one
    message (``embed._cosine_matrix``); flagged ``True`` they give what a routine that
    never read the flag gives."""

    @pytest.mark.parametrize("name", list(_COSINE_CALLS))
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 12), d=st.integers(2, 5))
    def test_flag_refused_or_result_unchanged(self, name, seed, n, d):
        rows = _unit_matrix_rows(seed, n, d)
        ids = tuple(f"d{i}" for i in range(n))
        on, off = EmbeddingMatrix(ids, rows, True), EmbeddingMatrix(ids, rows, False)
        clustering = kmeans_spherical(on, KmeansConfig(k=2))
        train = EmbeddingMatrix(("t0", "t1", "t2"), _unit_matrix_rows(seed + 1, 3, d), True)
        call, param = _COSINE_CALLS[name]
        with pytest.raises(ValidationError, match=rf"^{param} must be a normalized embedding matrix$"):
            call(off, clustering, train)
        with _flag_unchecked():
            unchecked = call(off, clustering, train)
        assert _comparable(call(on, clustering, train)) == _comparable(unchecked)

    def test_rows_of_other_norms_refused(self):
        # Read as 1 - dot, row [1, 1] would sit at distance 0 from e_0, not 0.293, and cluster 0
        # would be flagged duplicate-driven with std 0.
        emb = EmbeddingMatrix(("a", "b", "c"), np.array([[3.0, 0.0], [0.0, 2.0], [1.0, 1.0]]), False)
        for call in (lambda: assign(emb, np.eye(2)),
                     lambda: analyze_clustering(emb, Clustering(np.eye(2), np.array([0, 1, 0]), np.zeros(3)))):
            with pytest.raises(ValidationError, match=r"^emb must be a normalized embedding matrix$"):
                call()


class TestDerivedValues:
    """``Clustering.k``/``iters_run``, ``LshConfig.num_hashes``, ``DocumentSet.total_tokens`` and
    ``EpochPlan.epochs`` follow from the other fields, so no constructor takes them."""

    def test_on_the_objects_the_library_builds(self, tmp_path):
        c = kmeans_spherical(_emb(), KmeansConfig(k=3, iters=20, seed=1))
        assert c.k == c.centroids.shape[0] == 3 and c.k == len(c.members())
        assert c.iters_run == len(c.objective_history) - 1 >= 1
        write_clustering(c, str(tmp_path / "c.d4km"))
        back = read_clustering(str(tmp_path / "c.d4km"))
        assert (back.k, back.iters_run, back.objective_history) == (3, 0, ())
        write_corpus(_corpus(0), str(tmp_path / "c.jsonl"))
        docs = load_corpus(str(tmp_path / "c.jsonl"))
        assert docs.total_tokens == sum(d.token_count for d in docs) > 0
        plan = plan_epochs(docs, 2 * docs.total_tokens + 1)
        assert plan.t_selected == docs.total_tokens
        assert plan.epochs == plan.t_total / plan.t_selected > 2
        assert LshConfig(bands=5, rows_per_band=3).num_hashes == 15

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Clustering(np.eye(2), np.zeros(2, np.uint32), np.zeros(2), k=2),
            lambda: Clustering(np.eye(2), np.zeros(2, np.uint32), np.zeros(2), iters_run=0),
            lambda: LshConfig(num_hashes=20),
            lambda: DocumentSet(docs=(), total_tokens=0),
            lambda: EpochPlan(t_total=2, t_selected=1, epochs=2.0, order=("a",), reshuffle_seed=0),
        ],
        ids=["k", "iters_run", "num_hashes", "total_tokens", "epochs"],
    )
    def test_not_a_parameter(self, build):
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            build()


class TestCollectionMembers:
    """Each member of a document collection goes through ``errors._instance`` where it is
    read, and ``selection_overlap`` reads any iterable of results once."""

    @pytest.mark.parametrize("member", ["abc", 1, None, ("a", "b")], ids=["str", "int", "None", "tuple"])
    def test_non_documents_rejected_and_named(self, tmp_path, member):
        doc = Document("a", "x y", 2)
        want = rf"^docs\[1\] must be a Document or Record, got {type(member).__name__}$"
        with pytest.raises(ValidationError, match=want.replace(" or Record", "")):
            DocumentSet.from_documents([doc, member])
        with pytest.raises(ValidationError, match=want):
            lsh_dedup([doc, member])
        with pytest.raises(ValidationError, match=want):
            embed_corpus([doc, member], EmbedderSpec(kind="hash", dim=8))
        path = tmp_path / "e.d4em"
        write_embeddings(_EMB, str(path))
        with pytest.raises(ValidationError, match=want):
            spec = EmbedderSpec(kind="external", dim=_EMB.d, path=str(path))
            embed_corpus([Document(_EMB.ids[0], "x", 1), member], spec)

    def test_overlap_of_a_generator_equals_the_list(self):
        results = [select_random(_DOCS.ids, r, seed=s) for r, s in ((0.5, 0), (0.25, 1), (0.75, 2))]
        got, want = selection_overlap(r for r in results), selection_overlap(results)
        assert got.labels == want.labels and np.array_equal(got.cells, want.cells)

    @pytest.mark.parametrize("results", [None, 5], ids=["None", "int"])
    def test_overlap_of_a_non_iterable_rejected(self, results):
        with pytest.raises(ValidationError, match=rf"^results must be an Iterable, got {type(results).__name__}$"):
            selection_overlap(results)


class TestClusteringFitFields:
    """``Clustering.seed`` goes through ``errors._index`` and ``objective_history`` must be a
    tuple of finite reals, held as floats."""

    @staticmethod
    def _build(**fields):
        return Clustering(np.eye(2), np.zeros(2, np.uint32), np.zeros(2), **fields)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"seed": "x", "objective_history": "abc"}, r"^seed must be an integer, got 'x'$"),
            ({"seed": True}, r"^seed must be an integer, got True$"),
            ({"seed": 1.0}, r"^seed must be an integer, got 1\.0$"),
            ({"objective_history": "abc"}, r"^objective_history must be a tuple, got str$"),
            ({"objective_history": [1.0]}, r"^objective_history must be a tuple, got list$"),
            ({"objective_history": (2.0, math.nan)}, r"^objective_history\[1\] must be a number in \(-inf, inf\), got nan$"),
            ({"objective_history": (math.inf,)}, r"^objective_history\[0\] must be a number in \(-inf, inf\), got inf$"),
            ({"objective_history": ("1",)}, r"^objective_history\[0\] must be a number in \(-inf, inf\), got '1'$"),
            ({"objective_history": (True,)}, r"^objective_history\[0\] must be a number in \(-inf, inf\), got True$"),
        ],
        ids=[
            "str-seed-and-history", "bool-seed", "float-seed", "str-history", "list-history",
            "nan", "inf", "str-entry", "bool-entry",
        ],
    )
    def test_rejected_and_named(self, fields, message):
        with pytest.raises(ValidationError, match=message):
            self._build(**fields)

    def test_numpy_values_stored_as_python_numbers(self):
        c = self._build(seed=np.uint64(2**64 - 1), objective_history=(np.float64(2.5), 2, np.float32(1.5)))
        assert type(c.seed) is int and c.seed == 2**64 - 1
        assert c.objective_history == (2.5, 2.0, 1.5) and all(type(v) is float for v in c.objective_history)
        assert c.iters_run == 2
        assert self._build(seed=-3).seed == -3


class TestSelectionResultFields:
    """Every field of ``SelectionResult`` but ``stages`` and ``warnings`` is checked on
    construction, so a result that builds has a kept fraction in [0, 1]."""

    _FIELDS = {
        "method": "random", "r_target": 0.5, "kept_ids": ("a", "b", "c"), "scores": (0.0, 0.5, 2.0),
        "n_source": 4, "fingerprint": "f", "epsilon_used": None,
    }

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("r_target", math.nan, r"^r_target must be a number in \(0, 1\], got nan$"),
            ("r_target", math.inf, r"^r_target must be a number in \(0, 1\], got inf$"),
            ("r_target", -math.inf, r"^r_target must be a number in \(0, 1\], got -inf$"),
            ("r_target", 0, r"^r_target must be a number in \(0, 1\], got 0$"),
            ("r_target", 1.5, r"^r_target must be a number in \(0, 1\], got 1\.5$"),
            ("r_target", True, r"^r_target must be a number in \(0, 1\], got True$"),
            ("n_source", True, r"^n_source must be an integer, got True$"),
            ("n_source", -2, r"^n_source must be >= 3, got -2$"),
            ("n_source", 2, r"^n_source must be >= 3, got 2$"),
            ("method", 3, r"^method must be a str, got int$"),
            ("method", None, r"^method must be a str, got NoneType$"),
            ("fingerprint", None, r"^fingerprint must be a str, got NoneType$"),
            ("fingerprint", b"f", r"^fingerprint must be a str, got bytes$"),
            ("scores", (0.0, math.nan, 1.0), r"^scores must be finite numbers \(no NaN, infinity or bool\)$"),
            ("scores", (0.0, math.inf, 1.0), r"^scores must be finite numbers \(no NaN, infinity or bool\)$"),
            ("scores", (0.0, True, 1.0), r"^scores must be finite numbers \(no NaN, infinity or bool\)$"),
            ("scores", (0.0, np.False_, 1.0), r"^scores must be finite numbers \(no NaN, infinity or bool\)$"),
            ("scores", (True, False, True), r"^scores must be numbers"),
            ("scores", (0.0, "x", 1.0), r"^scores must be numbers"),
            ("scores", ("0", "1", "2"), r"^scores must be numbers"),
            ("scores", (0.0, 1.0), r"^scores must align with kept ids$"),
            ("scores", ((0.0,), (1.0,), (2.0,)), r"^scores must align with kept ids$"),
            ("epsilon_used", "x", r"^epsilon_used must be a number in \[0, 2\], got 'x'$"),
            ("epsilon_used", math.nan, r"^epsilon_used must be a number in \[0, 2\], got nan$"),
            ("epsilon_used", 2.5, r"^epsilon_used must be a number in \[0, 2\], got 2\.5$"),
        ],
        ids=[
            "r_target-nan", "r_target-inf", "r_target--inf", "r_target-0", "r_target-1.5", "r_target-bool",
            "n_source-bool", "n_source-negative", "n_source-below-kept", "method-int", "method-None",
            "fingerprint-None", "fingerprint-bytes", "score-nan", "score-inf", "score-bool", "score-numpy-bool",
            "scores-all-bool", "score-str", "scores-numeric-str", "scores-short", "scores-2d",
            "epsilon-str", "epsilon-nan", "epsilon-2.5",
        ],
    )
    def test_rejected_and_named(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            SelectionResult(**{**self._FIELDS, field: value})

    def test_numbers_stored_as_python_numbers(self):
        result = SelectionResult(
            **{**self._FIELDS, "r_target": np.float32(0.5), "n_source": np.int64(3), "epsilon_used": 2}
        )
        assert (result.r_target, result.n_source, result.epsilon_used) == (0.5, 3, 2.0)
        assert (type(result.r_target), type(result.n_source), type(result.epsilon_used)) == (float, int, float)
        assert result.r_achieved == 1.0

    def test_d4_ratio_product_that_underflows_rejected(self):
        with pytest.raises(ValidationError, match=r"^r_dedup \* r_proto must be a number in \(0, 1\], got 0\.0$"):
            D4Config(r_dedup=1e-200, r_proto=1e-200)

    _ODD = st.sampled_from([math.nan, math.inf, -math.inf, True, False, np.True_, "1", None, -1, 0, 1.5])

    @given(st.integers(0, 5), st.one_of(st.floats(0, 1), _ODD), st.one_of(st.integers(-3, 8), _ODD), st.data())
    def test_a_result_that_builds_keeps_a_fraction(self, n_kept, r_target, n_source, data):
        scores = data.draw(st.lists(st.floats(-1e300, 1e300), min_size=n_kept, max_size=n_kept))
        if scores and data.draw(st.booleans()):
            scores[data.draw(st.integers(0, n_kept - 1))] = data.draw(self._ODD)
        try:
            result = SelectionResult("m", r_target, tuple(map(str, range(n_kept))), tuple(scores), n_source, "f")
        except ValidationError:
            return
        assert 0.0 <= result.r_achieved <= 1.0
        assert 0.0 < result.r_target <= 1.0 and all(math.isfinite(s) and type(s) is not bool for s in result.scores)
