"""The library's input contract for integer counts, sizes and seeds, ratios and arrays.

Every integer parameter goes through ``errors._index``: a numpy integer acts
exactly as the ``int`` it equals, and a ``bool``, float, string, ``None`` or
a value below the minimum raises ``ValidationError``. A ratio must be a real
number in (0, 1], and an embedding matrix or clustering must be real.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from d4kit import (
    D4Config,
    Document,
    DocumentSet,
    EmbedderSpec,
    EmbeddingMatrix,
    KmeansConfig,
    LshConfig,
    SynthSpec,
    ValidationError,
    binned_score_analysis,
    embed_corpus,
    kmeans_spherical,
    lsh_dedup,
    plan_epochs,
    select_random,
    semdedup,
    shingles,
    ssl_prototypes,
    synthesize_corpus,
)
from d4kit.diagnostics import NnEntry, NnReport


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
        {"num_hashes": 1, "bands": 1, "rows_per_band": 1, "shingle_width": 1, "seed": None}, (),
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


class TestIntegerFields:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: KmeansConfig(k=2.5),
            lambda: KmeansConfig(k=True),
            lambda: KmeansConfig(seed=7.0),
            lambda: LshConfig(num_hashes=2.0, bands=2),
            lambda: LshConfig(seed="7"),
            lambda: SynthSpec(n_topics=2.5, docs_per_topic=3),
            lambda: SynthSpec(n_topics=2, docs_per_topic=3, doc_length_range=(4.0, 9)),
        ],
        ids=["k-float", "k-bool", "kmeans-seed-float", "num_hashes-float", "lsh-seed-str",
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
    "lsh_dedup": lambda s: lsh_dedup(_corpus(0), LshConfig(num_hashes=4, bands=4, seed=s)),
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
            type(c)(k=c.k, **parts)


class TestDocumentText:
    @pytest.mark.parametrize("doc", [Document(3, "a b", 1), Document("a", 5, 1), Document("a", None, 0)])
    def test_non_str_id_or_text_rejected_where_read(self, doc):
        with pytest.raises(ValidationError, match="must be str"):
            lsh_dedup([Document("b", "x y", 2), doc])
        with pytest.raises(ValidationError, match="must be str"):
            embed_corpus([doc], EmbedderSpec(kind="hash", dim=8))
