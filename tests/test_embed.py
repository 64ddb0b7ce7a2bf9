import hashlib
import os
import struct
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from d4kit import (
    Document,
    DocumentSet,
    EmbedderSpec,
    EmbeddingMatrix,
    FormatError,
    SynthSpec,
    ValidationError,
    embed_corpus,
    feature_hash_embed,
    read_embeddings,
    synthesize_corpus,
    write_embeddings,
)
from d4kit import embed as embed_mod
from d4kit.corpus import Record
from d4kit.embed import MAGIC, _chunk_lengths, _EmbeddingFile, _normalize_rows, _scan_embeddings, _unit_rows

from oracles import feature_hash_oracle, scalar_cosine


def _docs(texts):
    return DocumentSet.from_documents(
        [Document(id=f"d{i}", text=t, token_count=len(t.split())) for i, t in enumerate(texts)]
    )


class TestFeatureHash:
    def test_empty_text_is_basis_sentinel(self):
        v = feature_hash_embed("", 8, seed=0)
        expected = np.zeros(8, dtype=np.float32)
        expected[0] = 1.0
        assert np.array_equal(v, expected)

    def test_deterministic(self):
        a = feature_hash_embed("the same text", 32, seed=7)
        b = feature_hash_embed("the same text", 32, seed=7)
        assert np.array_equal(a, b)

    def test_word_order_matters_through_bigrams(self):
        # Re-derive the documented bucket layout by hand for d=8: word
        # order changes only the bigram feature, which must change the
        # vector unless both bigrams hash to the same signed bucket.
        def bucket(feat: bytes, seed: int = 0):
            h = int.from_bytes(
                hashlib.blake2b(feat, digest_size=8, key=seed.to_bytes(8, "little")).digest(),
                "little",
            )
            return (h >> 1) % 8, 1.0 if h & 1 else -1.0

        ab = bucket(b"b:a b")
        ba = bucket(b"b:b a")
        assert ab != ba  # holds for this seed; the premise of the test
        va = feature_hash_embed("a b", 8, seed=0)
        vb = feature_hash_embed("b a", 8, seed=0)
        assert not np.array_equal(va, vb)

    def test_hand_constructed_vector_matches(self):
        def bucket(feat: bytes, seed: int = 3):
            h = int.from_bytes(
                hashlib.blake2b(feat, digest_size=8, key=seed.to_bytes(8, "little")).digest(),
                "little",
            )
            return (h >> 1) % 8, 1.0 if h & 1 else -1.0

        acc = np.zeros(8)
        for feat in (b"u:x", b"u:y", b"b:x y"):
            i, s = bucket(feat)
            acc[i] += s
        expected = (acc / np.linalg.norm(acc)).astype(np.float32)
        assert np.array_equal(feature_hash_embed("x y", 8, seed=3), expected)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            feature_hash_embed("x", 1)

    @pytest.mark.parametrize("d", [True, 8.0, 8.5, "8", None])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValidationError):
            feature_hash_embed("x y", d)


class TestEmbedderSpec:
    @pytest.mark.parametrize(
        "field, value",
        [("dim", True), ("dim", 64.0), ("dim", 64.5), ("dim", "64"),
         ("chunk_size", True), ("chunk_size", 2.0), ("chunk_size", 2.5), ("chunk_size", "2")],
    )
    def test_non_integer_rejected(self, field, value):
        with pytest.raises(ValidationError, match="must be an integer"):
            EmbedderSpec(kind="hash", **{field: value})

    def test_external_kind_ignores_dim(self):
        assert EmbedderSpec(kind="external", dim=64.5, path="vectors.d4em").dim == 64.5

    @pytest.mark.parametrize("np_int", [np.int64, np.int32, np.uint64, np.uint8])
    def test_numpy_integers_embed_like_int(self, np_int):
        spec = EmbedderSpec(kind="hash", dim=np_int(16), seed=7, chunk_size=np_int(3))
        assert (type(spec.dim), type(spec.chunk_size)) == (int, int)
        assert spec == EmbedderSpec(kind="hash", dim=16, seed=7, chunk_size=3)
        docs = synthesize_corpus(SynthSpec(n_topics=2, docs_per_topic=10, seed=3))
        assert embed_corpus(docs, spec).vectors.tobytes() == embed_corpus(
            docs, EmbedderSpec(kind="hash", dim=16, seed=7, chunk_size=3)
        ).vectors.tobytes()
        assert feature_hash_embed("a b c", np_int(8), 7).tobytes() == feature_hash_embed("a b c", 8, 7).tobytes()


    @pytest.mark.parametrize("seed", [True, 7.0, "7", None])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            EmbedderSpec(kind="hash", seed=seed)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            feature_hash_embed("a b c d", 16, seed)

    @pytest.mark.parametrize("np_int", [np.int64, np.uint64, np.int8])
    def test_numpy_integer_seed_embeds_like_int(self, np_int):
        spec = EmbedderSpec(kind="hash", dim=16, seed=np_int(7))
        assert type(spec.seed) is int and spec == EmbedderSpec(kind="hash", dim=16, seed=7)
        docs = synthesize_corpus(SynthSpec(n_topics=2, docs_per_topic=10, seed=3))
        assert embed_corpus(docs, spec).vectors.tobytes() == embed_corpus(
            docs, EmbedderSpec(kind="hash", dim=16, seed=7)
        ).vectors.tobytes()
        assert feature_hash_embed("a b c d", 16, np_int(7)).tobytes() == feature_hash_embed("a b c d", 16, 7).tobytes()


class TestEmbedCorpus:
    def test_identical_texts_identical_rows(self):
        emb = embed_corpus(_docs(["same words", "same words"]), EmbedderSpec(kind="hash", dim=16))
        assert np.array_equal(emb.vectors[0], emb.vectors[1])

    def test_row_norms_unit(self):
        docs = synthesize_corpus(SynthSpec(n_topics=3, docs_per_topic=5, seed=2))
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=32, seed=1))
        norms = np.linalg.norm(emb.vectors.astype(np.float64), axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-5

    def test_topic_geometry_with_scalar_cosines(self):
        # Two docs per topic from two topics: within-topic cosine must
        # exceed cross-topic cosine, checked with a scalar reference.
        docs = synthesize_corpus(
            SynthSpec(n_topics=2, docs_per_topic=2, vocab_size=200, doc_length_range=(80, 120), seed=11)
        )
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=64, seed=1))
        rows = [emb.vectors[i].tolist() for i in range(4)]
        within = min(scalar_cosine(rows[0], rows[1]), scalar_cosine(rows[2], rows[3]))
        cross = max(
            scalar_cosine(rows[0], rows[2]),
            scalar_cosine(rows[0], rows[3]),
            scalar_cosine(rows[1], rows[2]),
            scalar_cosine(rows[1], rows[3]),
        )
        assert cross < within

    @pytest.mark.parametrize("kind, chunk_size", [("hash", None), ("hash", 16), ("external", None)])
    def test_one_pass_iterable_equals_document_set(self, tmp_path, kind, chunk_size):
        # Records, as corpus.iter_records yields them, in a one-shot iterator
        # long enough to span several hashing blocks.
        docs = synthesize_corpus(SynthSpec(n_topics=3, docs_per_topic=100, doc_length_range=(5, 300), seed=4))
        path = tmp_path / "pre.d4em"
        write_embeddings(embed_corpus(docs, EmbedderSpec(kind="hash", dim=16, seed=2)), str(path))
        spec = EmbedderSpec(kind=kind, dim=16, seed=1, chunk_size=chunk_size, path=str(path))
        streamed = embed_corpus(iter([Record(d.id, d.text, d.meta) for d in docs]), spec)
        whole = embed_corpus(docs, spec)
        assert streamed.ids == whole.ids == docs.ids
        assert streamed.vectors.tobytes() == whole.vectors.tobytes()

    @given(st.permutations(list(range(6))))
    def test_permutation_equivariance(self, perm):
        texts = [f"doc number {i} words w{i} w{i+1}" for i in range(6)]
        spec = EmbedderSpec(kind="hash", dim=16, seed=2)
        base = embed_corpus(_docs(texts), spec)
        permuted = embed_corpus(_docs([texts[i] for i in perm]), spec)
        assert np.array_equal(permuted.vectors, base.vectors[list(perm)])


def _normalize(v: np.ndarray) -> np.ndarray:
    """L2-normalize in float64; zero vectors fall back to the e_0 sentinel."""
    v = v.astype(np.float64, copy=False)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return np.eye(1, v.shape[0])[0]
    return v / norm


def _oracle_row(text, d, seed, chunk_size=None):
    """One ``embed_corpus`` row from the per-text oracle: the hash embedding
    (mean of the chunks' embeddings, renormalized, for a text longer than one
    chunk), cast to float32, then normalized again in float64 and cast back."""

    def base(t):
        return np.asarray(feature_hash_oracle(t, d, seed), dtype=np.float32)

    tokens = text.split()
    if chunk_size is None or len(tokens) <= chunk_size:
        v = base(text)
    else:
        chunks = [" ".join(tokens[i : i + chunk_size]) for i in range(0, len(tokens), chunk_size)]
        mean = np.mean([base(c).astype(np.float64) for c in chunks], axis=0)
        v = _normalize(mean).astype(np.float32)
    return _normalize(v).astype(np.float32)


_TOKENS = ["a", "b", "a", "the", "é", "naïve", "日本語", "ß", "🙂", "x_1", "Ωmega"] + [f"w{i}" for i in range(30)]
_SEPARATORS = [" ", "  ", "\t", "\n", "\u3000"]
_texts = st.one_of(
    st.sampled_from(["", " ", "\t\n  "]),
    st.lists(st.tuples(st.sampled_from(_SEPARATORS), st.sampled_from(_TOKENS)), max_size=40).map(
        lambda parts: "".join(sep + tok for sep, tok in parts)
    ),
)


class TestBlockEmbedderOracle:
    @given(
        texts=st.lists(_texts, max_size=12),
        d=st.sampled_from([2, 3, 128]),
        seed=st.one_of(st.integers(-(2**70), 2**70), st.sampled_from([-1, 2**64, 2**64 + 3, 2**80])),
        chunk_size=st.one_of(st.none(), st.integers(1, 4)),
        block=st.integers(1, 400),
    )
    def test_rows_equal_per_text_oracle(self, texts, d, seed, chunk_size, block):
        # A small block size makes the corpus span several blocks.
        with mock.patch.object(embed_mod, "_BLOCK_SIZE", block):
            emb = embed_corpus(_docs(texts), EmbedderSpec(kind="hash", dim=d, seed=seed, chunk_size=chunk_size))
        assert emb.vectors.shape == (len(texts), d)
        for text, row in zip(texts, emb.vectors):
            expected = _oracle_row(text, d, seed, chunk_size)
            assert row.astype(np.float32).tobytes() == expected.tobytes(), repr(text)

    @given(text=_texts, d=st.sampled_from([2, 3, 128]), seed=st.integers(-(2**70), 2**70))
    def test_feature_hash_embed_equals_oracle(self, text, d, seed):
        expected = np.asarray(feature_hash_oracle(text, d, seed), dtype=np.float32)
        assert feature_hash_embed(text, d, seed).tobytes() == expected.tobytes()

    def test_corpus_spanning_real_blocks(self):
        docs = synthesize_corpus(SynthSpec(n_topics=4, docs_per_topic=200, seed=5))
        d = 128
        assert sum(len(doc.text.split()) + d // 8 for doc in docs) > 2 * embed_mod._BLOCK_SIZE
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=d, seed=9))
        for doc, row in zip(docs, emb.vectors):
            assert row.astype(np.float32).tobytes() == _oracle_row(doc.text, d, 9).tobytes()

    def test_cancelling_chunks_give_basis_sentinel(self):
        # A non-empty text has 2t - 1 features of weight +-1, an odd total,
        # so its own counts never cancel. Chunk means can: two one-token
        # chunks hashed to opposite signed buckets average to zero -> e_0.
        d, seed = 2, 4
        base = {f"t{i}": feature_hash_oracle(f"t{i}", d, seed) for i in range(40)}
        x, y = next(
            (x, y) for x in base for y in base if [-v for v in base[x]] == base[y]
        )
        emb = embed_corpus(_docs([f"{x} {y}"]), EmbedderSpec(kind="hash", dim=d, seed=seed, chunk_size=1))
        assert emb.vectors[0].tolist() == [1.0, 0.0]
        assert emb.vectors[0].astype(np.float32).tobytes() == _oracle_row(f"{x} {y}", d, seed, 1).tobytes()


class TestChunkBlocks:
    # TestBlockEmbedderOracle patches _BLOCK_SIZE to 1-400 with chunk sizes
    # 1-4, which also sets how documents are grouped into hashing calls here.
    def test_corpus_spanning_real_blocks(self):
        docs = synthesize_corpus(SynthSpec(n_topics=4, docs_per_topic=100, seed=8))
        d, chunk_size = 64, 16
        tokens = [len(doc.text.split()) for doc in docs]
        assert sum(t + len(_chunk_lengths(t, chunk_size)) * d // 8 for t in tokens) > 2 * embed_mod._BLOCK_SIZE
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=d, seed=4, chunk_size=chunk_size))
        for doc, row in zip(docs, emb.vectors):
            assert row.astype(np.float32).tobytes() == _oracle_row(doc.text, d, 4, chunk_size).tobytes()

    def test_peak_allocation_linear_in_n(self):
        # One hashing call per block of documents, not per corpus: the chunk
        # rows of one block are held at a time, so the peak grows with n as
        # the plain path's does and stays under the same 3 n*d*8 bytes.
        d = 128
        peaks = {}
        for n in (1000, 4000):
            docs = synthesize_corpus(
                SynthSpec(n_topics=10, docs_per_topic=n // 10, doc_length_range=(20, 40), seed=3)
            )
            tracemalloc.start()
            try:
                emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=d, seed=1, chunk_size=8))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert emb.n == n
            assert peaks[n] < 3 * n * d * 8, (n, peaks[n])
        assert peaks[4000] <= 4.5 * peaks[1000], peaks


_BLOCK_NS = (0, 1, 2, 17, 1000)


class TestBlockNormalizer:
    @given(
        n=st.sampled_from(_BLOCK_NS),
        d=st.sampled_from([2, 3, 5, 64, 128]),
        dtype=st.sampled_from([np.float32, np.float64]),
        scale=st.sampled_from([1.0, 1e-3, 1e30, 1e-170]),
        zero_every=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        permute=st.booleans(),
    )
    def test_equals_per_row_normalize(self, n, d, dtype, scale, zero_every, seed, permute):
        rng = np.random.default_rng(seed)
        src = (rng.standard_normal((n, d)) * scale).astype(dtype)
        src[::zero_every] = 0.0
        if n > 1:
            src[1] = -0.0  # a negative-zero row also becomes e_0
        order = rng.permutation(n) if permute else None
        rows = src if order is None else src[order]
        for out_dtype in (np.float64, np.float32):
            out = np.full((n, d), np.nan, dtype=out_dtype)
            _normalize_rows(src, out, order)
            expected = np.array([_normalize(r) for r in rows], dtype=np.float64).reshape(n, d)
            assert out.tobytes() == expected.astype(out_dtype).tobytes()

    @pytest.mark.parametrize("n, passes", [(1, 1), (350, 1), (512, 1), (513, 2), (600 * 600, 600)])
    def test_blocks_have_a_floor(self, n, passes):
        # A hashing or payload block of a few hundred rows is normalized in
        # one pass, not in ceil(sqrt(n))-row steps of fixed cost each.
        rows = np.ones((n, 2))
        with mock.patch.object(embed_mod, "_row_norms", wraps=embed_mod._row_norms) as norms:
            _normalize_rows(rows, rows)
        assert norms.call_count == passes
        assert rows.tobytes() == np.full((n, 2), _normalize(np.ones(2))[0]).tobytes()

    def test_in_place_on_float32_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((50, 7)).astype(np.float32)
        expected = np.array([_normalize(r) for r in rows]).astype(np.float32)
        _normalize_rows(rows, rows)
        assert rows.tobytes() == expected.tobytes()


class TestEmbedMemory:
    def test_peak_allocation_linear_in_n(self):
        # O(n*d) memory: 4x the documents may take at most ~4.5x the peak,
        # and the peak stays under 3 n*d*8 bytes. The float32 rows, the
        # float64 matrix and its norm check alone take 2.5 n*d*8; hashing's
        # working set must fit in the remaining half.
        d = 128
        peaks = {}
        for n in (1000, 4000):
            docs = synthesize_corpus(
                SynthSpec(n_topics=10, docs_per_topic=n // 10, doc_length_range=(20, 40), seed=3)
            )
            tracemalloc.start()
            try:
                emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=d, seed=1))
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert emb.n == n
            assert peaks[n] < 3 * n * d * 8, (n, peaks[n])
        assert peaks[4000] <= 4.5 * peaks[1000], peaks


def _hash_rows(texts, d, chunk_size=None):
    spec = EmbedderSpec(kind="hash", dim=d, seed=0, chunk_size=chunk_size)
    return embed_corpus(_docs(texts), spec).vectors


class TestChunkAverage:
    # Chunked rows against the plain rows of the same texts, all through embed_corpus.
    def test_short_document_equals_base(self):
        text = "only four words here"
        assert np.array_equal(_hash_rows([text], 16, chunk_size=10), _hash_rows([text], 16))

    def test_identical_chunks_equal_one_chunk(self):
        out = _hash_rows(["a b a b"], 16, chunk_size=2)[0]
        np.testing.assert_allclose(out, _hash_rows(["a b"], 16)[0], atol=1e-6)

    def test_orthogonal_chunks_land_at_45_degrees(self):
        # Find two single tokens hashed to different buckets, so their
        # embeddings are orthogonal basis vectors.
        tokens = [f"t{i}" for i in range(20)]
        base = dict(zip(tokens, _hash_rows(tokens, 8)))
        pair = next(
            ((a, b) for a in tokens for b in tokens if a != b and np.dot(base[a], base[b]) == 0.0),
            None,
        )
        assert pair is not None
        out = _hash_rows([f"{pair[0]} {pair[1]}"], 8, chunk_size=1)[0]
        np.testing.assert_allclose(np.dot(out, base[pair[0]]), 1 / np.sqrt(2), atol=1e-6)
        np.testing.assert_allclose(np.dot(out, base[pair[1]]), 1 / np.sqrt(2), atol=1e-6)

    def test_empty_text_sentinel_passthrough(self):
        assert np.array_equal(_hash_rows([""], 8, chunk_size=3), _hash_rows([""], 8))


class TestUnitNormCheck:
    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_off_unit_and_nan_rows_fail_with_message(self, bad):
        rows = np.eye(2)
        rows[1, 1] = bad
        with pytest.raises(ValidationError) as info:
            _unit_rows("centroids", rows)
        assert str(info.value) == (
            "centroids must be finite (no NaN or infinity)" if np.isnan(bad)
            else "centroids must have unit-norm rows, one deviates by 5.00e-01"
        )

    def test_unit_rows_and_no_rows_pass(self):
        _unit_rows("centroids", np.eye(3, 5))
        _unit_rows("centroids", np.empty((0, 4)))


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        docs = synthesize_corpus(SynthSpec(n_topics=2, docs_per_topic=4, seed=6))
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=24, seed=3))
        path = tmp_path / "m.d4em"
        write_embeddings(emb, str(path))
        back = read_embeddings(str(path))
        assert back.ids == emb.ids
        assert back.normalized == emb.normalized
        assert back.vectors.tobytes() == emb.vectors.tobytes()
        # float32 input is held as float32, as it is ...
        rows32 = emb.vectors.astype(np.float32)
        held = EmbeddingMatrix(ids=emb.ids, vectors=rows32, normalized=True)
        assert held.vectors.dtype == np.float32
        assert np.array_equal(held.vectors, rows32)
        # ... and the rows read back equal the file's float32 payload.
        payload = np.frombuffer(
            path.read_bytes(), dtype="<f4", count=emb.n * emb.d, offset=24
        ).reshape(emb.n, emb.d)
        assert back.vectors.dtype == np.float32
        assert np.array_equal(back.vectors, payload)

    def test_overlong_id_writes_nothing(self, tmp_path):
        emb = EmbeddingMatrix(
            ids=("a", "x" * 70_000), vectors=np.eye(2), normalized=True
        )
        path = tmp_path / "m.d4em"
        with pytest.raises(ValidationError, match="too long"):
            write_embeddings(emb, str(path))
        assert not path.exists()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.d4em"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError, match="offset 0"):
            read_embeddings(str(path))

    def test_truncated_payload(self, tmp_path):
        docs = _docs(["a", "b"])
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=8))
        path = tmp_path / "m.d4em"
        write_embeddings(emb, str(path))
        data = path.read_bytes()
        # Keep the header claiming 2 rows but only one row of floats.
        path.write_bytes(data[: 24 + 8 * 4])
        with pytest.raises(FormatError, match="truncated"):
            read_embeddings(str(path))

    def test_trailing_garbage(self, tmp_path):
        emb = embed_corpus(_docs(["a"]), EmbedderSpec(kind="hash", dim=8))
        path = tmp_path / "m.d4em"
        write_embeddings(emb, str(path))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            read_embeddings(str(path))


def _unblocked_file(m: EmbeddingMatrix) -> bytes:
    """The ``.d4em`` bytes of ``m`` laid out in one piece, straight from the format."""
    ids = b"".join(struct.pack("<H", len(i.encode())) + i.encode() for i in m.ids)
    header = b"D4EM" + struct.pack("<IQII", 1, m.n, m.d, int(m.normalized))
    return header + m.vectors.astype("<f4").tobytes() + ids


_FORMAT_FAULTS = [
    (lambda b: b"NOPE" + b[4:], "bad magic, expected b'D4EM'", 0),
    (lambda b: b[:10], "truncated header", 10),
    (lambda b: b[:4] + struct.pack("<I", 2) + b[8:], "unsupported version 2", 4),
    (lambda b: b[: 24 + 40], "truncated payload: expected 48 bytes of vectors", 64),
    (lambda b: b[:73], "truncated id table", 73),
    (lambda b: b[: 24 + 48 + 2 + 1 + 2 + 1], "truncated id entry", 78),
    (lambda b: b + b"junk", "trailing bytes after id table", 24 + 48 + 12),
    # The id "bb" starts after "a" and two length prefixes.
    (lambda b: b[:77] + b"\xff" + b[78:], "id is not valid UTF-8", 77),
    (lambda b: b[:16] + struct.pack("<I", 0) + b[20:], "dimension must be >= 1", 16),
]


class TestBlockedSerialization:
    @pytest.mark.parametrize("n", _BLOCK_NS)
    @pytest.mark.parametrize("d", [2, 3, 64])
    def test_roundtrip_at_block_boundaries(self, tmp_path, n, d):
        rng = np.random.default_rng(n * 131 + d)
        rows = rng.standard_normal((n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        m = EmbeddingMatrix(tuple(f"id-{i}-é" for i in range(n)), rows.astype(np.float32), True)
        path = tmp_path / "m.d4em"
        write_embeddings(m, str(path))
        assert path.read_bytes() == _unblocked_file(m)
        back = read_embeddings(str(path))
        assert back.ids == m.ids and back.normalized
        assert back.vectors.shape == (n, d) and back.vectors.tobytes() == m.vectors.tobytes()

    @staticmethod
    def _file(tmp_path) -> tuple[str, bytes]:
        m = EmbeddingMatrix(("a", "bb", "ccc"), np.eye(3, 4), True)
        path = tmp_path / "m.d4em"
        write_embeddings(m, str(path))
        return str(path), path.read_bytes()

    @pytest.mark.parametrize("corrupt, message, offset", _FORMAT_FAULTS)
    def test_format_errors_keep_message_and_offset(self, tmp_path, corrupt, message, offset):
        path, data = self._file(tmp_path)
        with open(path, "wb") as fh:
            fh.write(corrupt(data))
        with pytest.raises(FormatError) as info:
            read_embeddings(path)
        assert str(info.value) == f"{message} (at byte offset {offset})"
        assert info.value.offset == offset

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_stream_ending_mid_payload(self, tmp_path):
        # A pipe has no size to check up front, so the short read in the
        # block loop reports how many bytes the stream held.
        _, data = self._file(tmp_path)
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(data[: 24 + 30])

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(FormatError) as info:
                read_embeddings(fifo)
        finally:
            writer.join()
        assert str(info.value) == "truncated payload: expected 48 bytes of vectors (at byte offset 54)"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("count, dim", [(2**40, 2**16), (2**40, 2**24)])
    def test_stream_claiming_unallocatable_shape(self, tmp_path, count, dim):
        # 2**59 bytes is past any address space and 2**67 past numpy's size
        # limit, so the matrix is never allocated and the claim is named.
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as fh:
                fh.write(b"D4EM" + struct.pack("<IQII", 1, count, dim, 1))

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with pytest.raises(FormatError) as info:
                read_embeddings(fifo)
        finally:
            writer.join()
        assert str(info.value) == f"claimed shape ({count}, {dim}) cannot be allocated (at byte offset 8)"


def _raw_d4em(rows: np.ndarray, ids: list[str], normalized: bool) -> bytes:
    """A ``.d4em`` file of any rows, finite or not."""
    rows = np.asarray(rows, dtype="<f4")
    raw = [i.encode("utf-8") for i in ids]
    return (
        MAGIC + struct.pack("<IQII", 1, *rows.shape, int(normalized)) + rows.tobytes()
        + b"".join(struct.pack("<H", len(i)) + i for i in raw)
    )


class TestScan:
    """``_scan_embeddings`` checks a file as ``read_embeddings`` does but
    keeps only its ids, and reads its rows again a block at a time."""

    @pytest.mark.parametrize("corrupt, message, offset", _FORMAT_FAULTS)
    def test_format_errors_as_read_embeddings(self, tmp_path, corrupt, message, offset):
        path, data = TestBlockedSerialization._file(tmp_path)
        with open(path, "wb") as fh:
            fh.write(corrupt(data))
        with pytest.raises(FormatError) as info:
            _scan_embeddings(path)
        assert str(info.value) == f"{message} (at byte offset {offset})"

    @pytest.mark.parametrize("n", _BLOCK_NS)
    @pytest.mark.parametrize("d", [2, 64])
    def test_ids_and_blocks_equal_the_matrix(self, tmp_path, n, d):
        rows = np.random.default_rng(n + d).standard_normal((n, d))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        path = str(tmp_path / "m.d4em")
        write_embeddings(EmbeddingMatrix(tuple(f"i{k}" for k in range(n)), rows.astype(np.float32), True), path)
        scanned, m = _scan_embeddings(path), read_embeddings(path)
        assert isinstance(scanned, _EmbeddingFile)
        assert (scanned.ids, scanned.n, scanned.d, scanned.normalized) == (m.ids, m.n, m.d, m.normalized)
        blocks = list(scanned._blocks())
        assert [rows for rows, _ in blocks] == [rows for rows, _ in m._blocks()]
        for rows, block in blocks:
            assert block.dtype == np.float64 and block.tobytes() == m.vectors[rows].astype(np.float64).tobytes()

    @given(
        n=st.integers(1, 40),
        faults=st.lists(
            st.tuples(st.integers(0, 39), st.sampled_from([1.02, 0.95, 1.0 + 1e-6, np.nan, np.inf])), max_size=3
        ),
        normalized=st.booleans(),
    )
    def test_row_faults_named_over_all_rows(self, tmp_path_factory, n, faults, normalized):
        # Blocks of ceil(sqrt(n)) rows: a NaN in a late block is named before
        # a bad norm in an early one, and the norm message gives the largest
        # deviation of any block.
        rows = np.random.default_rng(n).standard_normal((n, 3))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        faults = {i % n: f for i, f in faults}  # one fault per row
        for i, f in faults.items():
            if np.isfinite(f):
                rows[i] *= f
            else:
                rows[i, 0] = f
        scales = [f for f in faults.values() if np.isfinite(f)]
        if any(not np.isfinite(f) for f in faults.values()):
            expected = "vectors must be finite (no NaN or infinity)"
        elif normalized and max((abs(f - 1.0) for f in scales), default=0.0) > 1e-5:
            expected = f"vectors must have unit-norm rows, one deviates by {max(abs(f - 1.0) for f in scales):.2e}"
        else:
            expected = None
        path = str(tmp_path_factory.mktemp("faults") / "m.d4em")
        with open(path, "wb") as fh:
            fh.write(_raw_d4em(rows, [f"i{k}" for k in range(n)], normalized))
        for read in (
            lambda: EmbeddingMatrix(tuple(f"i{k}" for k in range(n)), rows.astype(np.float32), normalized),
            lambda: read_embeddings(path),
            lambda: _scan_embeddings(path),
        ):
            if expected is None:
                read()
            else:
                with pytest.raises(ValidationError) as info:
                    read()
                assert str(info.value) == expected

    def test_changed_file_refused(self, tmp_path):
        path = str(tmp_path / "m.d4em")
        write_embeddings(EmbeddingMatrix(("a", "b"), np.eye(2, 3), True), path)
        scanned = _scan_embeddings(path)
        # Same size, new rows: write_embeddings replaces the file.
        write_embeddings(EmbeddingMatrix(("a", "b"), np.eye(2, 3)[::-1], True), path)
        with pytest.raises(FormatError, match="changed after it was checked"):
            list(scanned._blocks())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_read_whole(self, tmp_path):
        # A pipe cannot be read twice, so its rows are held as read_embeddings holds them.
        path, data = TestBlockedSerialization._file(tmp_path)
        fifo = str(tmp_path / "pipe")
        os.mkfifo(fifo)
        writer = threading.Thread(target=Path(fifo).write_bytes, args=(data,), daemon=True)
        writer.start()
        scanned = _scan_embeddings(fifo)
        writer.join(timeout=60)
        m = read_embeddings(path)
        assert isinstance(scanned, EmbeddingMatrix)
        assert scanned.ids == m.ids and scanned.vectors.tobytes() == m.vectors.tobytes()


class TestExternalEmbeddings:
    def test_reorders_to_corpus_order(self, tmp_path):
        docs = _docs(["first text", "second text"])
        emb = embed_corpus(docs, EmbedderSpec(kind="hash", dim=8, seed=1))
        path = tmp_path / "pre.d4em"
        # Store rows in reversed order; ingestion must realign by id.
        write_embeddings(
            emb.subset(np.array([1, 0])),
            str(path),
        )
        loaded = embed_corpus(docs, EmbedderSpec(kind="external", dim=8, path=str(path)))
        assert loaded.ids == docs.ids
        np.testing.assert_allclose(loaded.vectors, emb.vectors, atol=1e-6)

    def test_missing_ids_listed(self, tmp_path):
        docs = _docs(["x", "y"])
        partial = embed_corpus(_docs(["x"]), EmbedderSpec(kind="hash", dim=8))
        path = tmp_path / "pre.d4em"
        write_embeddings(partial, str(path))
        big = DocumentSet.from_documents(
            [
                Document(id="d0", text="x", token_count=1),
                Document(id="missing-1", text="y", token_count=1),
            ]
        )
        with pytest.raises(ValidationError, match="missing-1"):
            embed_corpus(big, EmbedderSpec(kind="external", dim=8, path=str(path)))

    def test_external_requires_path(self):
        with pytest.raises(ValidationError):
            EmbedderSpec(kind="external", dim=8)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("normalized", [True, False])
    def test_non_finite_rows_rejected(self, bad, normalized):
        rows = np.eye(3, dtype=np.float32)
        rows[1, 2] = bad
        with pytest.raises(ValidationError, match="finite"):
            EmbeddingMatrix(ids=("a", "b", "c"), vectors=rows, normalized=normalized)
