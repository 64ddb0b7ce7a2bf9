"""Unit-norm document embeddings, one row per document.

``EmbedderSpec.kind`` picks one of two embedders: a deterministic
feature-hashing embedder (word unigrams and bigrams hashed into ``dim``
signed buckets, optionally averaged over fixed-size chunks) or ingestion of
externally precomputed vectors. Either way the output rows are
L2-normalized, so cosine distance is ``1 - dot`` everywhere downstream.

The hashing embedder is one routine, :func:`_hash_embed`, which works on
the whole corpus at once, in blocks of documents. One vocabulary maps
tokens to ids and holds each token's unigram bucket and sign, so a token is
hashed once per corpus; each distinct bigram is hashed once per block; and
one ``bincount`` accumulates a block's signed bucket counts. Python
touches each distinct feature once, to hash it, and no Python loop runs per
feature occurrence. Working memory is bounded by the block size, not by the
corpus. With chunking, each chunk is a row of the block and a document's
chunk rows are averaged as the block closes. ``feature_hash_embed`` is the
same routine on a one-text corpus, so there is one hashing path.

``embed_corpus`` reads its documents once, from any iterable such as
``corpus.iter_records``, so no text outlives its block: embedding a corpus
file holds the ids, the n x d output and one block, however long the texts.

An :class:`EmbeddingMatrix` keeps float32 rows, which the hash embedder
makes and the ``.d4em`` payload stores, as float32: n * d * 4 bytes. Other
real rows are held as float64. Outside this module rows reach arithmetic
only as float64, through :meth:`EmbeddingMatrix._blocks` or the one gather,
:class:`_Float64Rows`, a block or a cluster at a time, so every stage
computes in float64 and none holds a float64 copy of the matrix.

Matrices move through blocks of ceil(sqrt(n)) rows: the ``.d4em`` payload
is written and read a block at a time, rows are normalized a block at a
time, and the one row check, :func:`_row_fault` (finite, and unit norm when
flagged normalized), runs a block at a time, so none builds an n x d
temporary. Writing takes one block beyond the matrix. Centroids come in
through :func:`_unit_rows`: the one cast, :func:`_float_array`, then that check.

A caller that needs only the ids and row blocks of a ``.d4em`` file uses
:func:`_scan_embeddings`: it checks the file as :func:`read_embeddings` does,
holding the ids and one block, and reads the rows again a block at a time
when asked, so it takes O(n + sqrt(n) * d) memory, not O(n * d). Ingesting
external vectors reads the file so, and holds the float32 rows in corpus
order, n * d * 4 bytes, plus the ids and one block.

Empty documents map to the basis vector e_0. This is a deliberate sentinel
so corpora with blank documents flow through instead of erroring; callers
that care can detect the exact e_0 row. A non-empty text cannot hash to an
all-zero count vector (it has an odd number of +-1 features), but chunk
averaging can cancel exactly, and that also gives e_0.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import hashing
from .corpus import Document, Record, iter_texts, open_output
from .errors import FormatError, ValidationError, _index, _instance, _path, _str_ids, _unique

MAGIC = b"D4EM"
VERSION = 1
NORM_TOL = 1e-5

# A block of documents closes once its tokens, plus d / 8 per row of bucket
# counts (one per document, or per chunk with chunking), reach this many. A
# row's float64 counts and their normalized copies take about the working
# memory of d / 8 tokens' strings, ids and features, so neither long
# documents nor runs of short ones can grow the block's working arrays.
_BLOCK_SIZE = 1 << 13
# Fewest rows per block of _normalize_rows: a hashing block has at most
# _BLOCK_SIZE / (d / 8) rows, 512 at d = 128, which are 512 KB of float64.
_NORMALIZE_ROWS = 512


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use and how to parameterize it.

    ``kind`` is ``"hash"`` for the built-in feature-hashing embedder or
    ``"external"`` for precomputed vectors loaded from ``path``. ``seed``,
    ``dim`` (for ``"hash"``) and ``chunk_size`` (if set) are checked by
    :func:`d4kit.errors._index` and stored as ``int``. The seed may be any
    integer; it is used mod 2**64.
    """

    kind: str
    dim: int = 64
    seed: int = 0
    chunk_size: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("hash", "external"):
            raise ValidationError(f"unknown embedder kind: {self.kind!r}")
        object.__setattr__(self, "seed", _index("seed", self.seed))
        # External vectors take their width from the file, so only the hash embedder checks dim.
        if self.kind == "hash":
            object.__setattr__(self, "dim", _index("embedding dimension", self.dim, 2))
        if self.chunk_size is not None:
            object.__setattr__(self, "chunk_size", _index("chunk_size", self.chunk_size, 1))
        if self.kind == "external" and not self.path:
            raise ValidationError("external embedder requires a path")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n rows, unit-norm if flagged ``normalized``, aligned one-to-one with unique ``str`` ids held as a tuple.

    A float32 array is held as float32, as the ``.d4em`` payload stores it;
    any other real array is converted once here to float64. Either way the
    rows reach arithmetic as float64 only, through :meth:`_rows` or
    :meth:`_blocks`, so a float32-held matrix gives the same results as the
    same values held as float64, in about half the memory.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool

    def __post_init__(self):
        object.__setattr__(self, "vectors", _float_array("vectors", self.vectors, float32=True))
        if self.vectors.ndim != 2:
            raise ValidationError("vectors must be a 2-d array")
        object.__setattr__(self, "ids", _str_ids("embedding", self.ids))
        if len(self.ids) != self.vectors.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids but {self.vectors.shape[0]} rows"
            )
        fault = _row_fault("vectors", self._blocks(), self.normalized)
        if fault:
            raise ValidationError(fault)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def d(self) -> int:
        return self.vectors.shape[1]

    def subset(self, indices: np.ndarray) -> "EmbeddingMatrix":
        """Rows at ``indices``, in the given order."""
        return EmbeddingMatrix(
            ids=tuple(self.ids[i] for i in indices),
            vectors=self.vectors[indices],
            normalized=self.normalized,
        )

    def _rows(self) -> "_Float64Rows":
        """The rows, gathered as float64 when indexed."""
        return _Float64Rows(self.vectors)

    def _blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        """``(rows, float64 vectors[rows])`` over the rows, in blocks of :func:`_row_blocks`."""
        rows = self._rows()
        return ((block, rows[block]) for block in _row_blocks(self.n))


class _Float64Rows:
    """A matrix's held rows, float32 or float64, that indexing gathers as float64.

    This gather and :meth:`EmbeddingMatrix._blocks` are how rows reach
    arithmetic outside this module, so no row is multiplied in float32. A
    float32 value converts to float64 exactly, so every product and sum sees
    the values it would see from the same rows held as float64. ``shape`` is
    the held array's; a float64 slice is not copied.
    """

    __slots__ = ("_held", "shape")

    def __init__(self, held: np.ndarray):
        self._held, self.shape = held, held.shape

    def __getitem__(self, index) -> np.ndarray:
        return self._held[index].astype(np.float64, copy=False)


def _float_array(name: str, value, float32: bool = False) -> np.ndarray:
    """``value`` as a float64 array, or kept as float32 if one and ``float32``;
    not copied if already so. ``ValidationError`` unless an array of real numbers."""
    try:
        array = np.asarray(value)
        if not np.iscomplexobj(array):
            return array if float32 and array.dtype == np.float32 else array.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be numbers: {exc}") from None
    raise ValidationError(f"{name} must be real, got a complex array")


def _row_fault(name: str, blocks: Iterable[tuple[slice, np.ndarray]], normalized: bool) -> str | None:
    """What is wrong with the rows of ``blocks``, which messages call ``name``, checked in float64, or None.

    Every row must be finite and, when ``normalized``, have an L2 norm
    within NORM_TOL of 1; a non-finite row is named first, and the norm
    message gives the largest deviation over all rows. Every block is
    consumed, so a file's payload is read to its end before a fault is
    raised, and each block is checked on its own, with row-wise norms
    (:func:`_row_norms`), so no n x d temporary is made.
    """
    finite, worst = True, 0.0
    for _, block in blocks:
        if not finite:
            continue
        if not np.isfinite(block).all():
            finite = False
        elif normalized:
            deviation = np.abs(_row_norms(block.astype(np.float64, copy=False)) - 1.0)
            worst = max(worst, float(deviation.max(initial=0.0)))
    if not finite:
        return f"{name} must be finite (no NaN or infinity)"
    if not worst <= NORM_TOL:
        return f"{name} must have unit-norm rows, one deviates by {worst:.2e}"
    return None


def _cosine_matrix(name: str, emb, types=EmbeddingMatrix):
    """``emb`` as given; ``ValidationError`` unless an instance of ``types`` flagged normalized.
    Every routine that reads a cosine distance as ``1 - dot`` takes its matrix through here."""
    if not _instance(name, emb, types).normalized:
        raise ValidationError(f"{name} must be a normalized embedding matrix")
    return emb


def _unit_rows(name: str, value, d: int | None = None) -> np.ndarray:
    """``value`` as a float64 matrix of finite unit-norm rows, ``d`` wide if
    given; ``ValidationError`` otherwise. Every centroid matrix comes in here:
    :func:`_float_array`, then the shape, then :func:`_row_fault`."""
    rows = _float_array(name, value)
    if rows.ndim != 2 or d not in (None, rows.shape[1]):
        raise ValidationError(f"{name} must be a (k, {'d' if d is None else d}) matrix, got shape {rows.shape}")
    fault = _row_fault(name, [(slice(0, rows.shape[0]), rows)], True)
    if fault:
        raise ValidationError(fault)
    return rows


def _block_step(n: int) -> int:
    """Rows per block when a matrix of n rows is streamed: ceil(sqrt(n)), at least 1."""
    return math.isqrt(n - 1) + 1 if n > 1 else 1


def _row_blocks(n: int, least: int = 1) -> Iterator[slice]:
    """Slices of :func:`_block_step` rows, or of ``least`` if more, the last
    possibly shorter, that cover n rows in order."""
    step = max(least, _block_step(n))
    for start in range(0, n, step):
        yield slice(start, start + step)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row of ``a`` dotted with the same row of ``b``, by a stacked ``matmul``:
    the BLAS dot of one row pair each, with no temporary of the inputs' size."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Each row's L2 norm, :func:`_row_dots` of the rows with themselves: the
    BLAS dot ``np.linalg.norm`` takes of one row, with no n x d temporary."""
    return np.sqrt(_row_dots(rows, rows))


def _normalize_rows(src: np.ndarray, out: np.ndarray, order: np.ndarray | None = None) -> None:
    """Write each row of ``src`` (of ``src[order]`` if given) divided by its
    float64 L2 norm into ``out``, cast to its dtype, a block at a time; a
    zero row (of +0.0 or -0.0) becomes the e_0 sentinel. This is the one
    place rows are normalized.

    A block has at least ``_NORMALIZE_ROWS`` rows, so a hashing block or a
    payload block takes one pass, not ~sqrt(n) passes of fixed numpy cost
    each. Each row is normalized on its own, so the block split moves no bit.
    """
    for rows in _row_blocks(out.shape[0], _NORMALIZE_ROWS):
        block = src[rows if order is None else order[rows]].astype(np.float64)
        norms = _row_norms(block)
        zero = norms == 0.0
        block[zero], norms[zero] = np.eye(1, block.shape[1]), 1.0
        block /= norms[:, None]  # in place: a second block-sized temporary costs more than the division
        out[rows] = block


def _signed_buckets(features: list[bytes], d: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucket ``(h >> 1) % d`` and sign (+1 if h is odd, else -1) of each
    feature, where h is its seed-keyed hash (:func:`hashing.keyed_digests`)."""
    h = hashing.keyed_digests(features, seed)
    return ((h >> 1) % d).astype(np.int64), np.where(h & 1, 1.0, -1.0)


def _chunk_lengths(n_tokens: int, chunk_size: int | None) -> list[int]:
    """Tokens per row of a text: one row, or one per consecutive ``chunk_size``-token chunk."""
    if chunk_size is None or n_tokens <= chunk_size:
        return [n_tokens]
    return [min(chunk_size, n_tokens - i) for i in range(0, n_tokens, chunk_size)]


def _token_blocks(
    texts: Iterable[str], d: int, chunk_size: int | None
) -> Iterator[tuple[list[str], list[int], list[int]]]:
    """The texts in blocks, as (tokens, tokens per row, rows per text).

    A block closes once its tokens plus d / 8 per row reach ``_BLOCK_SIZE``.
    """
    tokens: list[str] = []
    lengths: list[int] = []
    counts: list[int] = []
    size = 0
    for text in texts:
        doc = text.split()
        rows = _chunk_lengths(len(doc), chunk_size)
        tokens.extend(doc)
        lengths.extend(rows)
        counts.append(len(rows))
        size += len(doc) + len(rows) * d // 8
        if size >= _BLOCK_SIZE:
            yield tokens, lengths, counts
            tokens, lengths, counts, size = [], [], [], 0
    if counts:
        yield tokens, lengths, counts


def _hash_embed(texts: Iterable[str], d: int, seed: int, chunk_size: int | None = None) -> np.ndarray:
    """Feature-hash each text into one L2-normalized float32 row.

    A text gives one row of features, or with ``chunk_size`` one row per
    chunk of at most that many tokens (a text of at most one chunk stays
    whole), and a chunked text's row is the float64 mean of its float32
    chunk rows, normalized again. Bigrams never cross a chunk boundary.

    Token ids come from one vocabulary kept across the corpus, and each
    token's unigram is hashed once. ``texts`` is read once, in blocks
    (:func:`_token_blocks`); within a block each distinct bigram is hashed
    once, and the block's signed bucket counts come from one ``bincount``.
    The counts are sums of +-1, exact in float64, so neither the order nor
    the grouping of the additions matters.
    """
    out = [np.empty((0, d), dtype=np.float32)]  # each block's rows
    vocab: dict[str, int] = {}
    words: list[bytes] = []  # UTF-8 of each token id
    bucket = np.empty(0, dtype=np.int64)  # unigram bucket of each token id
    sign = np.empty(0)  # and its sign
    for tokens, lengths, counts in _token_blocks(texts, d, chunk_size):
        new = [t for t in dict.fromkeys(tokens) if t not in vocab]
        vocab.update(zip(new, range(len(vocab), len(vocab) + len(new))))
        words.extend(t.encode("utf-8") for t in new)
        if len(vocab) > bucket.size:
            bucket, sign = np.resize(bucket, 2 * len(vocab)), np.resize(sign, 2 * len(vocab))
        added = slice(len(vocab) - len(new), len(vocab))
        bucket[added], sign[added] = _signed_buckets([b"u:" + w for w in words[added]], d, seed)

        ids = np.fromiter(map(vocab.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        tokens.clear()  # the strings are not needed past their ids
        row = np.repeat(np.arange(len(lengths)), lengths)
        first = np.flatnonzero(row[1:] == row[:-1])  # first token of each bigram
        distinct, which = np.unique(ids[first] * len(vocab) + ids[first + 1], return_inverse=True)
        pair_bucket, pair_sign = _signed_buckets(
            [
                b"b:" + words[a] + b" " + words[b]
                for a, b in zip((distinct // len(vocab)).tolist(), (distinct % len(vocab)).tolist())
            ],
            d,
            seed,
        )
        cell = np.concatenate([row * d + bucket[ids], row[first] * d + pair_bucket[which]])
        weight = np.concatenate([sign[ids], pair_sign[which]])
        acc = np.bincount(cell, weights=weight, minlength=len(lengths) * d).reshape(-1, d)
        # Drop the per-token arrays, so they do not outlive their block.
        del ids, row, first, distinct, which, pair_bucket, pair_sign, cell, weight
        vectors = np.empty(acc.shape, dtype=np.float32)
        _normalize_rows(acc, vectors)  # an empty text's row becomes e_0
        heads = np.cumsum(counts) - counts  # each text's first row
        block = vectors[heads]
        chunked = [i for i, count in enumerate(counts) if count > 1]
        means = np.empty((len(chunked), d))
        for j, i in enumerate(chunked):
            means[j] = np.mean(vectors[heads[i] : heads[i] + counts[i]].astype(np.float64), axis=0)
        _normalize_rows(means, means)
        block[chunked] = means
        out.append(block)
    return np.concatenate(out)


def feature_hash_embed(text: str, d: int, seed: int = 0) -> np.ndarray:
    """Hash word unigrams and bigrams into d signed buckets, L2-normalized.

    Features are ``u:<token>`` and ``b:<token> <token>`` over ``text.split()``;
    each feature's seed-keyed blake2b hash picks bucket ``(h >> 1) % d`` and
    sign ``+1`` if ``h & 1`` else ``-1``. Empty text returns e_0.
    Deterministic for fixed (text, d, seed).

    This is :func:`embed_corpus`'s hashing pass on one text, without its
    second normalization: a corpus row is the float32 of this row's float64
    renormalization, which can differ from it in the last float32 bit.
    """
    spec = EmbedderSpec(kind="hash", dim=d, seed=seed)
    return _hash_embed([text], spec.dim, spec.seed)[0]


def embed_corpus(docs: Iterable[Document | Record], spec: EmbedderSpec) -> EmbeddingMatrix:
    """Embed every document, one row per document in corpus order.

    ``docs`` is any iterable of documents with unique ids, such as a
    ``DocumentSet`` or ``corpus.iter_records``; it is read once, and only
    the ids and one block of texts are held. Output is always normalized.
    For ``external`` specs the precomputed file must cover every document
    id; missing ids are reported together. With ``chunk_size`` set, a
    document longer than one chunk gets the renormalized mean of its
    chunks' hash embeddings.
    """
    if _instance("spec", spec, EmbedderSpec).kind == "external":
        ids, vectors = _external_rows(docs, spec.path)
    else:
        id_list: list[str] = []
        vectors = _hash_embed(iter_texts(docs, id_list), spec.dim, spec.seed, spec.chunk_size)
        ids = tuple(id_list)
        # Rows are normalized a second time, in float64 from the float32 values;
        # the output bytes depend on this pass.
        _normalize_rows(vectors, vectors)
    return EmbeddingMatrix(ids, vectors, normalized=True)


def _external_rows(docs: Iterable[Document | Record], path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """The ids of ``docs`` and their normalized float32 rows of the ``.d4em`` file at ``path``.

    The file is checked by :func:`_scan_embeddings`, then read again a block
    at a time, each block's rows normalized into their documents' places:
    no float64 matrix, only the float32 rows and one block.
    """
    ids = tuple(_instance(f"docs[{i}]", d, (Document, Record)).id for i, d in enumerate(docs))
    m = _scan_embeddings(path)
    index = {doc_id: i for i, doc_id in enumerate(m.ids)}
    missing = [i for i in ids if i not in index]
    if missing:
        raise ValidationError(
            "external embeddings missing ids: " + ", ".join(sorted(missing))
        )
    # Each file row's document, or -1; of a repeated id, which is refused
    # later, only the last copy's row is filled.
    slot = np.full(m.n, -1)
    slot[np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))] = np.arange(len(ids))
    del index
    vectors = np.empty((len(ids), m.d), dtype=np.float32)
    for rows, block in m._blocks():
        here = slot[rows]
        used = np.flatnonzero(here >= 0)
        part = np.empty((used.size, m.d), dtype=np.float32)
        _normalize_rows(block, part, used)
        vectors[here[used]] = part
    return ids, vectors


def write_embeddings(m: EmbeddingMatrix, path: str) -> None:
    """Write the bit-exact binary embedding format; an over-long id raises before any write.

    The float32 payload is written in blocks of ceil(sqrt(n)) rows, so no
    float32 copy of the whole matrix is made.
    """
    raw_ids = [doc_id.encode("utf-8") for doc_id in _instance("m", m, EmbeddingMatrix).ids]
    for doc_id, raw in zip(m.ids, raw_ids):
        if len(raw) > 0xFFFF:
            raise ValidationError(f"id too long to serialize: {doc_id[:32]!r}...")
    with open_output(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IQII", VERSION, m.n, m.d, 1 if m.normalized else 0))
        for rows in _row_blocks(m.n):
            fh.write(m.vectors[rows].astype("<f4"))
        fh.write(b"".join(struct.pack("<H", len(raw)) + raw for raw in raw_ids))


# read_embeddings and _scan_embeddings share the parts of a .d4em reader:
# the header with its size checks, the payload a block at a time, and the
# id table. read_embeddings fills a matrix from the payload; the scan only
# checks it, as EmbeddingMatrix would.


def _read_header(fh) -> tuple[int, int, bool]:
    """The row count, width and normalized flag, after checking the 24-byte header."""
    header = fh.read(24)
    if len(header) < 4 or header[:4] != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", 0)
    if len(header) < 24:
        raise FormatError("truncated header", len(header))
    version, count, dim, flags = struct.unpack_from("<IQII", header, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if dim == 0:
        raise FormatError("dimension must be >= 1", 16)
    st = os.fstat(fh.fileno())
    # A regular file's size is known, so a header that claims more rows
    # than the file holds fails before anything is allocated.
    if stat.S_ISREG(st.st_mode) and st.st_size < 24 + count * dim * 4:
        raise _truncated(count, dim, st.st_size)
    return count, dim, bool(flags & 1)


def _truncated(count: int, dim: int, offset: int) -> FormatError:
    return FormatError(f"truncated payload: expected {count * dim * 4} bytes of vectors", offset)


def _payload_blocks(fh, count: int, dim: int) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, float32 rows)`` over the payload, which ``fh`` is at, in blocks of :func:`_row_blocks`."""
    for rows in _row_blocks(count):
        size = (min(rows.stop, count) - rows.start) * dim * 4
        raw = fh.read(size)
        if len(raw) < size:  # a stream that ends early
            raise _truncated(count, dim, 24 + rows.start * dim * 4 + len(raw))
        yield rows, np.frombuffer(raw, dtype="<f4").reshape(-1, dim)


def _read_ids(fh, count: int, dim: int) -> tuple[str, ...]:
    """The id table, which ``fh`` is at; reads to the end of the file."""
    start = 24 + count * dim * 4  # the table's offset in the file
    data = fh.read()
    offset = 0
    ids: list[str] = []
    for _ in range(count):
        if len(data) < offset + 2:
            raise FormatError("truncated id table", start + len(data))
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if len(data) < offset + id_len:
            raise FormatError("truncated id entry", start + len(data))
        try:
            ids.append(data[offset : offset + id_len].decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError("id is not valid UTF-8", start + offset) from exc
        offset += id_len
    if offset != len(data):
        raise FormatError("trailing bytes after id table", start + offset)
    return tuple(ids)


def read_embeddings(path: str) -> EmbeddingMatrix:
    """Read the binary embedding format; inverse of :func:`write_embeddings`.

    The payload is read in blocks of ceil(sqrt(n)) rows straight into the
    float32 matrix, so reading takes about 4 bytes per value.
    """
    with open(_path(path), "rb") as fh:
        count, dim, normalized = _read_header(fh)
        try:
            vectors = np.empty((count, dim), dtype=np.float32)
        except (MemoryError, ValueError) as exc:  # a stream that claims too much
            raise FormatError(f"claimed shape ({count}, {dim}) cannot be allocated", 8) from exc
        for rows, block in _payload_blocks(fh, count, dim):
            vectors[rows] = block
        ids = _read_ids(fh, count, dim)
    return EmbeddingMatrix(ids=ids, vectors=vectors, normalized=normalized)


class _EmbeddingFile:
    """A ``.d4em`` file checked by :func:`_scan_embeddings`, whose rows are not held.

    It has the ``ids``, ``n``, ``d``, ``normalized`` and ``_blocks()`` of an
    :class:`EmbeddingMatrix`, so ``select_random``, ``nn_to_train``, and
    ``Clustering.validate_for`` (``ssl_prototypes``, ``analyze_clustering``)
    take it in place of one (``_MATRICES``).
    ``_blocks()`` reads the payload again from the file checked, and raises
    ``FormatError`` if the file has changed since.
    """

    def __init__(self, path: str, ids: tuple[str, ...], d: int, normalized: bool, stamp: tuple[int, ...]):
        self.path, self.ids, self.n, self.d, self.normalized = path, ids, len(ids), d, normalized
        self._stamp = stamp  # the file's device, inode, size and mtime when checked

    def _blocks(self) -> Iterator[tuple[slice, np.ndarray]]:
        with open(self.path, "rb") as fh:
            if _stamp(fh.fileno()) != self._stamp:
                raise FormatError(f"{self.path} changed after it was checked", 0)
            fh.seek(24)
            for rows, block in _payload_blocks(fh, self.n, self.d):
                yield rows, block.astype(np.float64)


# Where only ids and row blocks are read, a checked file is taken for a matrix.
_MATRICES = (EmbeddingMatrix, _EmbeddingFile)


def _stamp(fd: int) -> tuple[int, ...]:
    st = os.fstat(fd)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns


def _scan_embeddings(path: str) -> EmbeddingMatrix | _EmbeddingFile:
    """A ``.d4em`` file with every check of :func:`read_embeddings`, in its
    order, holding its ids and one block of rows at a time.

    A file that is not regular (a pipe) cannot be read twice, so it is read
    whole by :func:`read_embeddings`.
    """
    if not stat.S_ISREG(os.stat(_path(path)).st_mode):
        return read_embeddings(path)
    with open(path, "rb") as fh:
        count, dim, normalized = _read_header(fh)
        fault = _row_fault("vectors", _payload_blocks(fh, count, dim), normalized)
        ids = _read_ids(fh, count, dim)
        stamp = _stamp(fh.fileno())
    _unique("embedding", ids)
    if fault:
        raise ValidationError(fault)
    return _EmbeddingFile(path, ids, dim, normalized, stamp)
