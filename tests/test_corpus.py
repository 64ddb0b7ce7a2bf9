import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import d4kit.corpus as corpus_mod
from d4kit import (
    Document,
    DocumentSet,
    ParseError,
    SynthSpec,
    ValidationError,
    count_tokens,
    load_corpus,
    synthesize_corpus,
    write_corpus,
)
from d4kit.corpus import Record, iter_records, read_jsonl


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


class TestCountTokens:
    def test_empty_string(self):
        assert count_tokens("", "whitespace") == 0
        assert count_tokens("", "chars:4") == 0

    def test_whitespace_runs(self):
        assert count_tokens("a  b\tc", "whitespace") == 3

    def test_fixed_chars_ceiling(self):
        assert count_tokens("0123456789", "chars:4") == 3

    def test_simple_sentence(self):
        assert count_tokens("one two three", "whitespace") == 3

    # Words, ASCII separators and Unicode spaces, in windows of 1 to 6 chars,
    # so window edges fall inside words, inside space runs and between them.
    @given(st.text(alphabet="ab \t\n\x1c\u00a0\u2003", max_size=40), st.integers(1, 6))
    def test_windowed_word_count_equals_split(self, text, window):
        with mock.patch.object(corpus_mod, "_WORD_WINDOW", window):
            assert count_tokens(text, "whitespace") == len(text.split())

    def test_bad_counter_spec(self):
        with pytest.raises(ValidationError):
            count_tokens("x", "bpe")
        with pytest.raises(ValidationError):
            count_tokens("x", "chars:0")


class TestLoadCorpus:
    def test_preserves_file_order(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": i, "text": "t"} for i in ("a", "b", "c")])
        docs = load_corpus(str(path))
        assert docs.ids == ("a", "b", "c")

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": "a", "text": "x"}, {"id": "a", "text": "y"}])
        with pytest.raises(ValidationError, match="'a'"):
            load_corpus(str(path))
        with pytest.raises(ValidationError, match=r"line 2: .*'a'.*line 1\)"):
            load_corpus(str(path))

    def test_token_counts_populated(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": "a", "text": "one two three"}])
        docs = load_corpus(str(path))
        assert docs.docs[0].token_count == 3
        assert docs.total_tokens == 3

    def test_malformed_line_cites_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x"}\n{broken\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(str(path))

    def test_records_stream_up_to_a_later_fault(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "text": "x", "meta": {"k": 1}}\n\n{"id": "b", "text": "y"}\n{broken\n', encoding="utf-8")
        records = iter_records(str(path))
        assert next(records) == Record("a", "x", {"k": 1})
        assert next(records) == Record("b", "y", None)
        with pytest.raises(ParseError, match="line 4"):
            next(records)

    def test_missing_field_cites_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [{"id": "a"}])
        with pytest.raises(ParseError, match="line 1"):
            load_corpus(str(path))

    def test_roundtrip_with_meta(self, tmp_path):
        docs = DocumentSet.from_documents(
            [
                Document(id="a", text="x y", token_count=2, meta={"lang": "en"}),
                Document(id="b", text="z", token_count=1),
            ]
        )
        path = tmp_path / "c.jsonl"
        write_corpus(docs, str(path))
        loaded = load_corpus(str(path))
        assert loaded.ids == docs.ids
        assert [d.text for d in loaded] == [d.text for d in docs]
        assert loaded.docs[0].meta == {"lang": "en"}


def _loads_reference(lines):
    """``(line number, record)`` by ``json.loads`` per non-blank line, or the first error."""
    out = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            out.append((lineno, json.loads(line)))
        except json.JSONDecodeError as exc:
            return out, f"line {lineno}: invalid JSON: {exc.msg}"
    return out, None


_JSONISH = st.text(alphabet=st.sampled_from(list(' \t\r\x0b\u3000\ufeff{}[]":,0123456789.eE-+truefalsnul\\ab')), max_size=24)


class TestReadJsonl:
    @given(st.lists(st.one_of(_JSONISH, st.builds(json.dumps, st.dictionaries(st.text(max_size=4), st.integers()))), max_size=6))
    def test_matches_json_loads_per_line(self, tmp_path_factory, lines):
        # Blank lines (by str.strip) are skipped; the others decode, or fail
        # with the message json.loads gives, including a leading BOM.
        lines = [line.replace("\n", " ").replace("\r", " ") + "\n" for line in lines]
        path = tmp_path_factory.mktemp("jsonl") / "f.jsonl"
        path.write_text("".join(lines), encoding="utf-8")
        want, error = _loads_reference(lines)
        got = []
        if error is None:
            got = list(read_jsonl(str(path)))
        else:
            with pytest.raises(ParseError) as info:
                got.extend(read_jsonl(str(path)))
            assert str(info.value) == error
        assert got == want

    def test_trailing_data_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\n  {"a": 1} \t\n{"a": 2} x\n', encoding="utf-8")
        with pytest.raises(ParseError, match="^line 3: invalid JSON in here: Extra data$"):
            list(read_jsonl(str(path), " in here"))
        assert next(read_jsonl(str(path))) == (2, {"a": 1})

    def test_leading_bom_named_as_json_loads_names_it(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('\ufeff{"a": 1}\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r"^line 1: invalid JSON: Unexpected UTF-8 BOM \(decode using utf-8-sig\)$"):
            list(read_jsonl(str(path)))


# Strings with every character JSON must escape, the line separators that
# ``ensure_ascii=False`` writes raw, and non-BMP characters.
_JSON_TEXT = st.text(
    st.characters(codec="utf-8") | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\u2029", "\U0001f600", "\U0010ffff"]),
    max_size=12,
)
_META_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=8,
)
# The writer accepts a non-str id or text and a meta of any JSON type, a list
# or a scalar as well as an object; each must still write ``json.dumps``' bytes.
_DOC = st.tuples(
    _JSON_TEXT | st.integers(),
    _JSON_TEXT | st.integers(),
    st.none() | st.dictionaries(_JSON_TEXT, _META_VALUE, max_size=4) | _META_VALUE,
)


class TestWriteCorpus:
    @given(st.lists(_DOC, max_size=5, unique_by=lambda doc: doc[0]))
    def test_each_line_is_json_dumps_of_its_record(self, tmp_path_factory, docs):
        path = tmp_path_factory.mktemp("corpus") / "c.jsonl"
        write_corpus(DocumentSet.from_documents([Document(i, t, 0, m) for i, t, m in docs]), str(path))
        want = ""
        for doc_id, text, meta in docs:
            rec = {"id": doc_id, "text": text} if meta is None else {"id": doc_id, "text": text, "meta": meta}
            want += json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n"
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize(
        "bad",
        [Document("\ud800", "t", 1), Document("b", "\udfff", 1), Document("b", "t", 1, {"k": ["\ud800"]})],
        ids=["id", "text", "meta"],
    )
    def test_lone_surrogate_raises_and_leaves_no_file(self, tmp_path, bad):
        with pytest.raises(UnicodeEncodeError):
            write_corpus(DocumentSet.from_documents([Document("a", "ok", 1), bad]), str(tmp_path / "c.jsonl"))
        assert list(tmp_path.iterdir()) == []


class TestDocument:
    @pytest.mark.parametrize("count", [-3, True, 2.5], ids=["negative", "bool", "float"])
    def test_bad_token_count_rejected(self, count):
        with pytest.raises(ValidationError, match="token_count"):
            Document("a", "x", count)

    def test_numpy_integer_token_count_accepted(self):
        assert Document("a", "x", np.int64(3)).token_count == 3
        assert Document("a", "x", 0).token_count == 0


class TestDocumentSet:
    def test_total_tokens_is_the_member_sum_and_not_a_parameter(self):
        docs = (Document(id="a", text="x", token_count=1), Document(id="b", text="y z", token_count=2))
        assert DocumentSet(docs=docs).total_tokens == 3
        with pytest.raises(TypeError):
            DocumentSet(docs=docs, total_tokens=3)

    def test_duplicate_ids_rejected(self):
        docs = [
            Document(id="a", text="x", token_count=1),
            Document(id="a", text="y", token_count=1),
        ]
        with pytest.raises(ValidationError):
            DocumentSet.from_documents(docs)

    def test_subset_keeps_order(self):
        docs = DocumentSet.from_documents(
            [Document(id=i, text=i, token_count=1) for i in ("a", "b", "c")]
        )
        assert docs.subset({"c", "a"}).ids == ("a", "c")


# sha256 of ``write_corpus(synthesize_corpus(spec))``, so that no change to the
# generator or the writer moves a byte of a synthetic corpus.
_PINNED_SYNTH = {
    "text-dedup": (
        SynthSpec(n_topics=16, docs_per_topic=100, n_template_groups=80, dupes_per_group=5,
                  template_mutation_rate=0.01, seed=1),
        "bc631d056d32eb863f2ce782e308d4e1e0302b4ca1f05a08fab61688a059fd0e",
    ),
    "no-mutation": (
        SynthSpec(n_topics=4, docs_per_topic=25, n_template_groups=6, dupes_per_group=3,
                  template_mutation_rate=0.0, seed=7),
        "794a77cc0d0d5493cd7a8a9de324d5580e0bad1a1971da6a290c3291399eca38",
    ),
    "vocab-and-lengths": (
        SynthSpec(n_topics=5, docs_per_topic=20, n_template_groups=4, dupes_per_group=2,
                  template_mutation_rate=0.25, vocab_size=150_000, doc_length_range=(1, 7), seed=2**64 + 3),
        "8c1bc862c938a3c56f2b0c58c2d60b883d27c6511f4846eba608ee693e0c3be4",
    ),
}


class TestSynthesize:
    @pytest.mark.parametrize("name", sorted(_PINNED_SYNTH))
    def test_written_bytes_pinned(self, tmp_path, name):
        spec, digest = _PINNED_SYNTH[name]
        path = tmp_path / "c.jsonl"
        write_corpus(synthesize_corpus(spec), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_size_arithmetic_no_groups(self):
        spec = SynthSpec(n_topics=2, docs_per_topic=3, seed=1)
        docs = synthesize_corpus(spec)
        assert len(docs) == 6
        assert all(d.meta["group"] == "none" for d in docs)

    def test_zero_mutation_gives_identical_texts(self):
        spec = SynthSpec(
            n_topics=1,
            docs_per_topic=1,
            n_template_groups=1,
            dupes_per_group=4,
            template_mutation_rate=0.0,
            seed=3,
        )
        docs = synthesize_corpus(spec)
        group = [d.text for d in docs if d.meta["group"] != "none"]
        assert len(group) == 4
        assert len(set(group)) == 1

    def test_determinism_and_seed_sensitivity(self):
        spec = SynthSpec(n_topics=3, docs_per_topic=4, seed=9)
        a = synthesize_corpus(spec)
        b = synthesize_corpus(spec)
        assert [d.text for d in a] == [d.text for d in b]
        other = synthesize_corpus(SynthSpec(n_topics=3, docs_per_topic=4, seed=10))
        assert [d.text for d in a] != [d.text for d in other]

    def test_total_tokens_matches_sum(self):
        docs = synthesize_corpus(SynthSpec(n_topics=2, docs_per_topic=5, seed=0))
        assert docs.total_tokens == sum(d.token_count for d in docs)
        assert all(d.token_count == len(d.text.split()) for d in docs)

    def test_length_range_validation(self):
        with pytest.raises(ValidationError):
            SynthSpec(n_topics=1, docs_per_topic=1, doc_length_range=(10, 5))

    def test_group_labels_cover_expected_sizes(self):
        spec = SynthSpec(
            n_topics=2,
            docs_per_topic=2,
            n_template_groups=3,
            dupes_per_group=2,
            seed=5,
        )
        docs = synthesize_corpus(spec)
        groups = {}
        for d in docs:
            groups.setdefault(d.meta["group"], []).append(d.id)
        assert len(groups.pop("none")) == 4
        assert sorted(len(v) for v in groups.values()) == [2, 2, 2]
