"""Document collections: ingestion, token counting, and synthetic corpora.

A corpus file is newline-delimited JSON, one record per document, with
fields ``id`` (string), ``text`` (string) and an optional ``meta`` object.
File order is preserved everywhere; nothing in this module shuffles.
:func:`iter_records` is the one corpus reader: it yields a file's records
one at a time, so a stage that reads them once holds one record, and
:func:`load_corpus` collects them into a :class:`DocumentSet`.

The synthetic generator plants two kinds of structure that downstream
stages can be tested against: topic clusters (bags of topic-biased
vocabulary) and template groups (near-identical copies of one generated
document, mimicking templated web text that survives exact dedup).
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, NamedTuple

from .errors import ParseError, ValidationError, _index, _instance, _path, _real, _unique

if TYPE_CHECKING:
    import numpy as np

# Probability that a topic-document token is drawn from the topic's own
# vocabulary slice rather than the corpus-wide vocabulary.
TOPIC_BIAS = 0.85


def count_tokens(text: str, counter: str = "whitespace") -> int:
    """Count proxy tokens in ``text`` under a counter spec.

    Supported specs: ``"whitespace"`` (split on runs of whitespace) and
    ``"chars:<c>"`` (ceiling of length / c). Empty text counts 0 either way.
    """
    if not (isinstance(text, str) and isinstance(counter, str)):
        raise ValidationError(f"text and counter must be str, got {type(text).__name__}, {type(counter).__name__}")
    if counter == "whitespace":
        return _count_words(text)
    if counter.startswith("chars:"):
        try:
            c = int(counter.split(":", 1)[1])
        except ValueError:
            raise ValidationError(f"bad chars-per-token counter spec: {counter!r}")
        return math.ceil(len(text) / _index("chars-per-token", c, 1))
    raise ValidationError(f"unknown token counter spec: {counter!r}")


# Words are counted a window of text at a time, so a long text never has all
# its words split out at once (~100 KB of strings for 1,600 words).
_WORD_WINDOW = 1 << 10


def _count_words(text: str) -> int:
    """``len(text.split())``, splitting one window of ``text`` at a time.

    A word that a window edge cuts is counted in both windows, once too many.
    """
    count = len(text[:_WORD_WINDOW].split())
    for start in range(_WORD_WINDOW, len(text), _WORD_WINDOW):
        count += len(text[start : start + _WORD_WINDOW].split())
        if not text[start - 1].isspace() and not text[start].isspace():
            count -= 1
    return count


@dataclass(frozen=True)
class Document:
    """A single document, the unit of selection.

    ``token_count`` is a non-negative integer, stored as ``int``. ``id`` and
    ``text`` are checked to be strings where a stage reads them (:func:`iter_texts`).
    """

    id: str
    text: str
    token_count: int
    meta: dict[str, Any] | None = None

    def __post_init__(self):
        n = _index("token_count", self.token_count, 0)
        if n is not self.token_count:  # a numpy integer: store the int it equals
            object.__setattr__(self, "token_count", n)


@dataclass(frozen=True)
class DocumentSet:
    """An ordered, immutable collection of documents with unique ids; ``total_tokens`` is their token sum."""

    docs: tuple[Document, ...]
    total_tokens: int = field(init=False)

    def __post_init__(self):
        _unique("document", [_instance(f"docs[{i}]", d, Document).id for i, d in enumerate(self.docs)])
        object.__setattr__(self, "total_tokens", sum(d.token_count for d in self.docs))

    @classmethod
    def from_documents(cls, docs: list[Document] | tuple[Document, ...]) -> "DocumentSet":
        return cls(docs=tuple(docs))

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(d.id for d in self.docs)

    def __len__(self) -> int:
        return len(self.docs)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.docs)

    def subset(self, keep_ids: set[str] | frozenset[str]) -> "DocumentSet":
        """Documents whose id is in ``keep_ids``, original order preserved."""
        return DocumentSet.from_documents([d for d in self.docs if d.id in keep_ids])


_JSON_SPACE = " \t\n\r"
_DECODER = json.JSONDecoder()
# ``json.dumps(rec, ensure_ascii=False, sort_keys=True)`` builds this encoder
# anew on every call; one instance encodes every field to the same bytes.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def read_jsonl(path: str, where: str = "") -> Iterator[tuple[int, Any]]:
    """Yield ``(line number, record)`` for each non-blank line of a JSONL file.

    Each line decodes as by ``json.loads``, with its error message: a malformed or
    too deeply nested line, or one with an integer past ``sys.get_int_max_str_digits()``
    digits, raises :class:`ParseError` ``invalid JSON{where}: <msg>``.
    """
    # Each raw line is dropped before its record is handed on, so the next
    # read does not also hold the last line; ``enumerate`` would keep it in
    # the result tuple it reuses.
    lineno = 0
    with open(_path(path), "r", encoding="utf-8") as fh:
        for line in fh:
            lineno += 1
            if not line.strip():
                continue
            try:
                if line.startswith("\ufeff"):
                    raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
                rec, end = _DECODER.raw_decode(line, len(line) - len(line.lstrip(_JSON_SPACE)))
                if line[end:].strip(_JSON_SPACE):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON{where}: {exc.msg}", lineno) from exc
            except RecursionError:
                raise ParseError(f"invalid JSON{where}: nested too deeply", lineno) from None
            except ValueError:  # an integer past the interpreter's digit limit
                raise ParseError(f"invalid JSON{where}: integer too long", lineno) from None
            del line
            yield lineno, rec


@contextmanager
def open_output(path, mode: str = "w") -> Iterator[IO]:
    """Open ``path`` for writing (``"w"``, UTF-8 text, or ``"wb"``) so it appears whole or not at all.

    Writes go to a temp file beside the target, or beside a symlink's target,
    made by ``open`` so it has open's default mode bits; it replaces the
    target on success. On any exception the temp file is removed, an older target is
    left as it was, and the exception propagates. An existing target that is
    not a regular file (a FIFO, a device) is written in place, since renaming
    over it would replace the node. No fsync: a power loss is not covered.
    """
    encoding = None if "b" in mode else "utf-8"
    if os.path.exists(_path(path)) and not os.path.isfile(path):
        with open(path, mode, encoding=encoding) as fh:
            yield fh
        return
    target = os.path.realpath(path)
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), encoding=encoding) as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException as exc:
        if isinstance(exc, OSError) and exc.filename == tmp:
            exc.filename = os.fspath(path)  # name the artifact, not its temp file
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


class Record(NamedTuple):
    """One corpus record, as :func:`iter_records` yields it."""

    id: str
    text: str
    meta: dict[str, Any] | None


def iter_records(path: str) -> Iterator[Record]:
    """Yield each record of a JSONL corpus file, in file order, as it is read.

    Raises :class:`ParseError` (with the line number) for a malformed line
    and :class:`ValidationError` for a duplicate id, when that line is
    reached. Only each id's first line is kept, so a pass over the file
    holds O(n) ids and one record.
    """
    first_line: dict[str, int] = {}
    for lineno, rec in read_jsonl(path):
        if not isinstance(rec, dict):
            raise ParseError("record is not an object", lineno)
        if "id" not in rec or "text" not in rec:
            raise ParseError("record missing required field 'id' or 'text'", lineno)
        doc_id, text = rec["id"], rec["text"]
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise ParseError("'id' and 'text' must be strings", lineno)
        try:
            doc_id.encode("utf-8")
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ParseError("'id' or 'text' holds a lone UTF-16 surrogate", lineno) from exc
        meta = rec.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ParseError("'meta' must be an object when present", lineno)
        if doc_id in first_line:
            raise ValidationError(f"line {lineno}: duplicate document id {doc_id!r}"
                                  f" (first seen on line {first_line[doc_id]})")
        first_line[doc_id] = lineno
        yield Record(doc_id, text, meta)


def iter_texts(docs: Iterable[Document | Record], ids: list[str]) -> Iterator[str]:
    """Each document's text, in order, appending its id to ``ids`` as it is reached.

    So a stage reads its documents in one pass and keeps only their ids.
    A member that is not a :class:`Document` or :class:`Record`, or has a
    non-str id or text, raises :class:`ValidationError` when it is reached.
    """
    for i, d in enumerate(docs):
        _instance(f"docs[{i}]", d, (Document, Record))
        if not (isinstance(d.id, str) and isinstance(d.text, str)):
            raise ValidationError(f"id and text must be str, got {type(d.id).__name__}, {type(d.text).__name__}")
        ids.append(d.id)
        yield d.text


def load_corpus(path: str, token_counter: str = "whitespace") -> DocumentSet:
    """Load a JSONL corpus file, preserving file order.

    Raises :class:`ParseError` (with the line number) for malformed lines
    and :class:`ValidationError` for duplicate ids.
    """
    return DocumentSet.from_documents(
        [Document(r.id, r.text, count_tokens(r.text, token_counter), r.meta) for r in iter_records(path)]
    )


def write_corpus(docs: DocumentSet, path: str) -> None:
    """Write documents as JSONL (``id``, ``text``, optional ``meta``).

    Each line is the bytes of ``json.dumps(rec, ensure_ascii=False,
    sort_keys=True)`` plus ``"\\n"``: keys in the order ``id``, ``meta``,
    ``text``, and non-ASCII characters as raw UTF-8. Those three keys always
    sort the same way and a value encodes the same at top level as inside a
    record, so each field is encoded on its own and the line joined around them.
    """
    enc = _ENCODER.encode
    _instance("docs", docs, DocumentSet)
    with open_output(path) as fh:
        fh.writelines(
            f'{{"id": {enc(d.id)}, "text": {enc(d.text)}}}\n' if d.meta is None
            else f'{{"id": {enc(d.id)}, "meta": {enc(d.meta)}, "text": {enc(d.text)}}}\n'
            for d in docs
        )


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for the synthetic corpus generator.

    The generated corpus has ``n_topics * docs_per_topic`` topic documents
    followed by ``n_template_groups * dupes_per_group`` template-group
    members. Each group member is a copy of one generated template with
    every token independently mutated with probability
    ``template_mutation_rate``. Ground-truth labels land in each document's
    ``meta``: ``topic`` (``"none"`` for template members, whose vocabulary
    is corpus-wide) and ``group`` (``"none"`` outside template groups).
    Numbers are stored as the ``int`` or ``float`` that :mod:`d4kit.errors`' checks return.
    """

    n_topics: int
    docs_per_topic: int
    n_template_groups: int = 0
    dupes_per_group: int = 2
    template_mutation_rate: float = 0.0
    vocab_size: int = 1000
    doc_length_range: tuple[int, int] = (40, 120)
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_topics", 1), ("docs_per_topic", 1), ("n_template_groups", 0),
                            ("dupes_per_group", 2), ("vocab_size", None), ("seed", None)):
            object.__setattr__(self, name, _index(name, getattr(self, name), least))
        rate = _real("template_mutation_rate", self.template_mutation_rate, "[0, 1]")
        object.__setattr__(self, "template_mutation_rate", rate)
        if self.vocab_size < self.n_topics:
            raise ValidationError("vocab_size must be >= n_topics")
        try:
            lo, hi = self.doc_length_range
        except (TypeError, ValueError):
            raise ValidationError(f"doc_length_range must be a (min, max) pair, got {self.doc_length_range!r}") from None
        lo, hi = _index("doc_length_range min", lo, 1), _index("doc_length_range max", hi)
        if lo > hi:
            raise ValidationError(f"doc_length_range min {lo} exceeds max {hi}")
        object.__setattr__(self, "doc_length_range", (lo, hi))


def _draw_tokens(
    rng: np.random.Generator,
    length: int,
    topic_lo: int,
    topic_hi: int,
    vocab_size: int,
) -> np.ndarray:
    import numpy as np

    in_topic = rng.random(length) < TOPIC_BIAS
    topical = rng.integers(topic_lo, topic_hi, size=length)
    background = rng.integers(0, vocab_size, size=length)
    return np.where(in_topic, topical, background)


def synthesize_corpus(spec: SynthSpec) -> DocumentSet:
    """Generate a corpus with planted topics and template groups.

    Deterministic for a fixed spec: the same seed yields a byte-identical
    corpus on every run. ``tests/test_corpus.py`` pins the sha256 of
    :func:`write_corpus`'s output for several specs.
    """
    import numpy as np

    rng = np.random.default_rng(_instance("spec", spec, SynthSpec).seed & 0xFFFFFFFFFFFFFFFF)
    vocab = [f"w{i:05d}" for i in range(spec.vocab_size)]
    lo, hi = spec.doc_length_range

    # Contiguous, non-empty vocabulary slice per topic.
    bounds = [
        (t * spec.vocab_size // spec.n_topics, (t + 1) * spec.vocab_size // spec.n_topics)
        for t in range(spec.n_topics)
    ]

    docs: list[Document] = []

    def add(token_ids: np.ndarray, topic: int, group: str) -> None:
        # Python ints into a list of str: joining a numpy string array would
        # box every token as an ``np.str_``.
        text = " ".join([vocab[i] for i in token_ids.tolist()])
        docs.append(
            Document(
                id=f"doc{len(docs):06d}",
                text=text,
                token_count=len(token_ids),
                meta={"topic": f"t{topic}" if topic >= 0 else "none", "group": group},
            )
        )

    for t in range(spec.n_topics):
        t_lo, t_hi = bounds[t]
        for _ in range(spec.docs_per_topic):
            length = int(rng.integers(lo, hi + 1))
            add(_draw_tokens(rng, length, t_lo, t_hi, spec.vocab_size), t, "none")

    # Templates draw from the whole vocabulary, not a topic slice, so each
    # group is a dense clump away from the topic mass (as templated web
    # text is off the natural language distribution).
    for g in range(spec.n_template_groups):
        length = int(rng.integers(lo, hi + 1))
        template = rng.integers(0, spec.vocab_size, size=length)
        for _ in range(spec.dupes_per_group):
            member = template.copy()
            mutate = rng.random(length) < spec.template_mutation_rate
            n_mut = int(mutate.sum())
            if n_mut:
                member[mutate] = rng.integers(0, spec.vocab_size, size=n_mut)
            add(member, -1, f"g{g:03d}")

    return DocumentSet.from_documents(docs)
