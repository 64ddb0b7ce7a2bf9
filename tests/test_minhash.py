import itertools
import operator
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from d4kit import (
    Document,
    DocumentSet,
    LshConfig,
    SynthSpec,
    ValidationError,
    lsh_dedup,
    shingles,
    signature,
    synthesize_corpus,
)

from d4kit import minhash as minhash_mod
from d4kit.corpus import Record
from d4kit.minhash import _band_heads, _signatures

from oracles import OracleUnionFind, exact_jaccard, minhash_signature_oracle, shingles_oracle


def _docs(texts, ids=None):
    ids = ids or [f"d{i}" for i in range(len(texts))]
    return DocumentSet.from_documents(
        [Document(id=i, text=t, token_count=len(t.split())) for i, t in zip(ids, texts)]
    )


class TestShingles:
    def test_bigram_definition(self):
        assert shingles("a b c", 2) == {"a b", "b c"}

    def test_short_text_whole_text_rule(self):
        assert shingles("a", 3) == {"a"}

    def test_identical_texts_identical_sets(self):
        assert shingles("x y z w", 2) == shingles("x y z w", 2)

    @given(st.text(alphabet="ab ", max_size=40), st.integers(min_value=1, max_value=4))
    def test_never_empty(self, text, w):
        assert len(shingles(text, w)) >= 1

    @given(st.text(alphabet="ab\u00e9\u6f22 \t\n\u00a0\u3000", max_size=40), st.integers(1, 6))
    def test_matches_index_definition(self, text, w):
        assert shingles(text, w) == shingles_oracle(text, w)


class TestSignature:
    def test_identical_sets_identical_signatures(self):
        cfg = LshConfig(seed=4)
        assert signature({"a", "b"}, cfg) == signature({"b", "a"}, cfg)

    def test_empty_set_rejected(self):
        with pytest.raises(ValidationError):
            signature(set(), LshConfig())

    def test_disjoint_singletons_mostly_differ(self):
        cfg = LshConfig(seed=0)
        sa = signature({"left"}, cfg)
        sb = signature({"right"}, cfg)
        # Singleton sets make every position a direct hash of the element;
        # matches would be 64-bit collisions.
        assert all(x != y for x, y in zip(sa.values, sb.values))

    @pytest.mark.parametrize("overlap,jaccard", [(30, 0.2), (60, 0.5), (80, 0.8)])
    def test_positionwise_match_estimates_jaccard(self, overlap, jaccard):
        # Size-90 sets with controlled overlap give exact Jaccard values;
        # the estimator must land within 2 sigma of binomial(20, J).
        A = {f"s{i}" for i in range(90)}
        B = {f"s{i}" for i in range(90 - overlap, 180 - overlap)}
        assert exact_jaccard(A, B) == jaccard
        cfg = LshConfig(seed=0)
        sa = signature(A, cfg)
        sb = signature(B, cfg)
        match = sum(1 for x, y in zip(sa.values, sb.values) if x == y) / cfg.num_hashes
        sigma = (jaccard * (1 - jaccard) / cfg.num_hashes) ** 0.5
        assert abs(match - jaccard) <= 2 * sigma

    @pytest.mark.parametrize("overlap,jaccard", [(30, 0.2), (60, 0.5), (80, 0.8)])
    def test_match_fraction_unbiased_over_seeds(self, overlap, jaccard):
        # Over 200 seeds x 20 positions the mean match fraction must lie
        # within 3 standard errors of the exact Jaccard value.
        A = {f"s{i}" for i in range(90)}
        B = {f"s{i}" for i in range(90 - overlap, 180 - overlap)}
        trials = 0
        matches = 0
        for seed in range(200):
            cfg = LshConfig(seed=seed)
            sa, sb = signature(A, cfg), signature(B, cfg)
            matches += sum(x == y for x, y in zip(sa.values, sb.values))
            trials += cfg.num_hashes
        se = (jaccard * (1 - jaccard) / trials) ** 0.5
        assert abs(matches / trials - jaccard) <= 3 * se

    @given(
        st.frozensets(st.text(max_size=12), min_size=1, max_size=30),
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=40),
    )
    def test_matches_scalar_oracle(self, sh, seed, num_hashes):
        cfg = LshConfig(bands=num_hashes, rows_per_band=1, seed=seed)
        assert signature(sh, cfg).values == minhash_signature_oracle(sh, seed, num_hashes)

    def test_negative_band_shape_rejected(self):
        with pytest.raises(ValidationError):
            LshConfig(bands=-1, rows_per_band=-20)

    @pytest.mark.parametrize("bands, rows", [(20, 1), (5, 1), (7, 3)])
    def test_signature_length_is_bands_times_rows(self, bands, rows):
        cfg = LshConfig(bands=bands, rows_per_band=rows)
        assert cfg.num_hashes == bands * rows
        assert len(signature(frozenset({"a b"}), cfg).values) == bands * rows
        with pytest.raises(TypeError):
            LshConfig(num_hashes=bands * rows, bands=bands, rows_per_band=rows)


# Few distinct words make repeated windows likely; the alphabet holds
# non-ASCII letters and Unicode whitespace (no-break and ideographic space).
_WORDY_TEXT = st.text(alphabet="ab\u00e9\u00df\u6f22\U0001f600 \t\n\u00a0\u2003\u3000", max_size=60)


class TestSignatures:
    @given(
        texts=st.lists(_WORDY_TEXT, max_size=12),
        w=st.integers(1, 6),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        num_hashes=st.integers(1, 8),
        block=st.integers(1, 64),
    )
    # Sets of 3, 3, 10 and 1 shingles in blocks of 4: the first block closes
    # inside the second set, the third set alone exceeds a block, and the
    # last set is signed after the loop.
    @example(
        texts=["a b c", "b c d", " ".join("abcdefghij"), ""], w=1, seed=2**65 + 3, num_hashes=3, block=4
    )
    def test_rows_match_scalar_oracle(self, texts, w, seed, num_hashes, block):
        cfg = LshConfig(bands=num_hashes, rows_per_band=1, shingle_width=w, seed=seed)
        with mock.patch.object(minhash_mod, "_SIGN_BLOCK", block):
            rows = _signatures((shingles(t, w) for t in texts), cfg)
        assert rows.shape == (len(texts), num_hashes) and rows.dtype == np.uint64
        for text, row in zip(texts, rows.tolist()):
            assert tuple(row) == minhash_signature_oracle(shingles_oracle(text, w), seed, num_hashes)

    def test_empty_corpus(self):
        rows = _signatures(iter(()), LshConfig(bands=4, seed=1))
        assert rows.shape == (0, 4) and rows.dtype == np.uint64

    def test_single_document(self):
        sh = shingles("one document of several words", 2)
        rows = _signatures([sh], LshConfig(seed=9))
        assert rows.tolist() == [list(minhash_signature_oracle(sh, 9, 20))]
        assert tuple(rows[0].tolist()) == signature(sh, LshConfig(seed=9)).values

    def test_empty_set_rejected_mid_corpus(self):
        with pytest.raises(ValidationError):
            _signatures([frozenset({"a"}), frozenset()], LshConfig())


class TestLshDedup:
    def test_identical_docs_collapse_to_one(self):
        docs = _docs(["same text here okay", "same text here okay", "another doc entirely"])
        res = lsh_dedup(docs)
        assert res.kept_ids == ("d0", "d2")
        assert len(res.groups) == 1
        assert res.groups[0].member_ids == ("d0", "d1")

    def test_random_corpus_mostly_kept(self):
        docs = synthesize_corpus(
            SynthSpec(n_topics=10, docs_per_topic=100, vocab_size=2000, doc_length_range=(40, 120), seed=13)
        )
        res = lsh_dedup(docs, LshConfig(seed=0))
        assert len(res.kept_ids) / len(docs) >= 0.95

    def test_template_group_collapses(self):
        spec = SynthSpec(
            n_topics=1,
            docs_per_topic=5,
            n_template_groups=1,
            dupes_per_group=4,
            template_mutation_rate=0.0,
            seed=2,
        )
        docs = synthesize_corpus(spec)
        res = lsh_dedup(docs)
        group_ids = {d.id for d in docs if d.meta["group"] != "none"}
        kept_from_group = group_ids & set(res.kept_ids)
        assert len(kept_from_group) == 1
        assert kept_from_group == {min(group_ids)}
        assert any(set(g.member_ids) == group_ids for g in res.groups)

    def test_kept_set_invariant_under_permutation(self):
        texts = ["alpha beta gamma delta"] * 2 + [f"doc {i} unique words here {i}" for i in range(8)]
        docs = _docs(texts)
        flipped = DocumentSet.from_documents(list(docs.docs[::-1]))
        a = lsh_dedup(docs, LshConfig(seed=1))
        b = lsh_dedup(flipped, LshConfig(seed=1))
        assert set(a.kept_ids) == set(b.kept_ids)

    def test_collision_iff_any_position_matches(self):
        # With one row per band, the LSH groups must equal the transitive
        # closure of the "some signature position matches" relation.
        docs = synthesize_corpus(
            SynthSpec(
                n_topics=2,
                docs_per_topic=10,
                n_template_groups=2,
                dupes_per_group=3,
                template_mutation_rate=0.05,
                doc_length_range=(10, 20),
                seed=8,
            )
        )
        cfg = LshConfig(seed=3)
        sigs = {d.id: signature(shingles(d.text, cfg.shingle_width), cfg) for d in docs}
        uf = OracleUnionFind()
        ids = list(sigs)
        for i in ids:
            uf.find(i)
        for a in ids:
            for b in ids:
                if a < b and any(x == y for x, y in zip(sigs[a].values, sigs[b].values)):
                    uf.union(a, b)
        expected_groups = {frozenset(g) for g in uf.groups() if len(g) > 1}
        res = lsh_dedup(docs, cfg)
        got_groups = {frozenset(g.member_ids) for g in res.groups}
        assert got_groups == expected_groups
        expected_kept = {min(g) for g in uf.groups()}
        assert set(res.kept_ids) == expected_kept

    @pytest.mark.parametrize("bands,rows", [(10, 2), (5, 4)])
    def test_multi_row_bands_match_oracle_closure(self, planted_docs, bands, rows):
        # Groups must equal the closure of "some band matches in every row",
        # in lowest-member order with corpus-ordered members.
        cfg = LshConfig(bands=bands, rows_per_band=rows, seed=3)
        ids = planted_docs.ids
        band_keys = []
        for d in planted_docs:
            values = signature(shingles(d.text, cfg.shingle_width), cfg).values
            band_keys.append([values[b * rows : (b + 1) * rows] for b in range(bands)])
        uf = OracleUnionFind()
        for i in range(len(ids)):
            uf.find(i)
        for a, b in itertools.combinations(range(len(ids)), 2):
            if any(map(operator.eq, band_keys[a], band_keys[b])):
                uf.union(a, b)
        components = sorted((sorted(g) for g in uf.groups()), key=lambda g: g[0])
        expected_groups = [
            (gid, tuple(ids[i] for i in g))
            for gid, g in enumerate(g for g in components if len(g) > 1)
        ]
        keep = {min(ids[i] for i in g) for g in components}

        res = lsh_dedup(planted_docs, cfg)
        assert len(expected_groups) >= 20
        assert [(g.group_id, g.member_ids) for g in res.groups] == expected_groups
        assert res.kept_ids == tuple(i for i in ids if i in keep)

    def test_empty_corpus(self):
        res = lsh_dedup(DocumentSet.from_documents([]))
        assert res.kept_ids == ()
        assert res.groups == ()

    def test_single_document(self):
        res = lsh_dedup(_docs(["only one document here"]))
        assert res.kept_ids == ("d0",)
        assert res.groups == ()

    def test_one_pass_iterable_equals_document_set(self, planted_docs):
        # Records, as corpus.iter_records yields them, in a one-shot iterator.
        records = iter([Record(d.id, d.text, d.meta) for d in planted_docs])
        assert lsh_dedup(records) == lsh_dedup(planted_docs)

    def test_duplicate_ids_rejected(self):
        docs = [Document(id="a", text="one text", token_count=2), Document(id="a", text="two", token_count=1)]
        with pytest.raises(ValidationError, match="unique"):
            lsh_dedup(docs)


_WORD = st.sampled_from(["a", "b", "c", "d", "e", "\u00e9\u00df", "\u6f22"])


@st.composite
def _near_copy_corpus(draw):
    """Texts of up to 12 words, many a one-word edit of an earlier text, under shuffled unique ids."""
    texts: list[str] = []
    for _ in range(draw(st.integers(0, 12))):
        words = draw(st.lists(_WORD, max_size=12))
        if texts and draw(st.booleans()):
            words = draw(st.sampled_from(texts)).split()
            if words:
                words[draw(st.integers(0, len(words) - 1))] = draw(_WORD)
        texts.append(" ".join(words))
    ids = draw(st.permutations([f"d{i:02d}" for i in range(len(texts))]))
    return texts, list(ids)


def _closure_oracle(texts, ids, cfg):
    """Groups and kept ids of the closure of "some band matches in every row", from scalar signatures."""
    rows = cfg.rows_per_band
    band_keys = []
    for text in texts:
        values = minhash_signature_oracle(shingles_oracle(text, cfg.shingle_width), cfg.seed, cfg.num_hashes)
        band_keys.append([values[b * rows : (b + 1) * rows] for b in range(cfg.bands)])
    uf = OracleUnionFind()
    for i in range(len(texts)):
        uf.find(i)
    for a, b in itertools.combinations(range(len(texts)), 2):
        if any(map(operator.eq, band_keys[a], band_keys[b])):
            uf.union(a, b)
    components = sorted((sorted(g) for g in uf.groups()), key=lambda g: g[0])
    groups = [tuple(ids[i] for i in g) for g in components if len(g) > 1]
    keep = {min(ids[i] for i in g) for g in components}
    return groups, tuple(i for i in ids if i in keep)


class TestLshDedupProperty:
    @given(
        corpus=_near_copy_corpus(),
        bands=st.integers(1, 7),
        rows=st.integers(1, 3),
        w=st.integers(1, 3),
        seed=st.integers(min_value=-(2**70), max_value=2**70),
        block=st.integers(1, 8),
    )
    # Three copies of one text and a one-word edit of it in blocks of 2 under
    # 7 positions, so that signing blocks close inside the group and the last
    # position chunk is short; the lowest id is not the first member.
    @example(
        corpus=(["a b c d", "x y", "a b c d", "a b e d", "a b c d"], ["d04", "d01", "d03", "d00", "d02"]),
        bands=7, rows=1, w=2, seed=5, block=2,
    )
    def test_groups_and_kept_equal_closure_oracle(self, corpus, bands, rows, w, seed, block):
        texts, ids = corpus
        cfg = LshConfig(bands=bands, rows_per_band=rows, shingle_width=w, seed=seed)
        with mock.patch.object(minhash_mod, "_SIGN_BLOCK", block):
            res = lsh_dedup(_docs(texts, ids), cfg)
        groups, kept = _closure_oracle(texts, ids, cfg)
        assert [(g.group_id, g.member_ids) for g in res.groups] == list(enumerate(groups))
        assert res.kept_ids == kept


class TestBandHeads:
    @given(
        rows_per_band=st.integers(1, 4),
        values=st.lists(st.sampled_from([0, 1, 2, 2**63, 2**64 - 1]), max_size=60),
    )
    def test_heads_equal_np_unique_form(self, rows_per_band, values):
        # Few distinct values make repeated rows likely; values with the top
        # bit set make the signed and unsigned orders differ.
        n = len(values) // rows_per_band
        rows = np.array(values[: n * rows_per_band], dtype=np.uint64).reshape(n, rows_per_band)
        heads = _band_heads(rows)
        if n == 0:
            assert heads.shape == (0,)
            return
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(heads, first[inverse.reshape(-1)])
