"""Unit-norm document embeddings behind a pluggable embedder interface.

Two embedder kinds are supported: a deterministic feature-hashing embedder
(word unigrams and bigrams hashed into ``dim`` signed buckets) and
ingestion of externally precomputed vectors. Either way the output rows
are L2-normalized, so cosine distance is ``1 - dot`` everywhere downstream.

Empty documents (and the measure-zero case of exact feature cancellation)
map to the basis vector e_0. This is a deliberate sentinel so corpora with
blank documents flow through instead of erroring; callers that care can
detect the exact e_0 row.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .corpus import DocumentSet
from .errors import FormatError, ValidationError

MAGIC = b"D4EM"
VERSION = 1
NORM_TOL = 1e-5

TextEmbedder = Callable[[str], np.ndarray]


@dataclass(frozen=True)
class EmbedderSpec:
    """Which embedder to use and how to parameterize it.

    ``kind`` is ``"hash"`` for the built-in feature-hashing embedder or
    ``"external"`` for precomputed vectors loaded from ``path``.
    """

    kind: str
    dim: int = 64
    seed: int = 0
    chunk_size: int | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in ("hash", "external"):
            raise ValidationError(f"unknown embedder kind: {self.kind!r}")
        if self.dim < 2:
            raise ValidationError("embedding dimension must be >= 2")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValidationError("chunk_size must be >= 1")
        if self.kind == "external" and not self.path:
            raise ValidationError("external embedder requires a path")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """n unit-norm rows aligned one-to-one with document ids.

    Held as float64 (converted once here, so no stage casts again); stored as float32 on disk.
    """

    ids: tuple[str, ...]
    vectors: np.ndarray
    normalized: bool

    def __post_init__(self):
        object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=np.float64))
        if self.vectors.ndim != 2:
            raise ValidationError("vectors must be a 2-d array")
        if len(self.ids) != self.vectors.shape[0]:
            raise ValidationError(
                f"{len(self.ids)} ids but {self.vectors.shape[0]} rows"
            )
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("embedding ids must be unique")
        if not np.isfinite(self.vectors).all():
            raise ValidationError("vectors must be finite (no NaN or infinity)")
        if self.normalized and self.n:
            norms = np.linalg.norm(self.vectors, axis=1)
            worst = float(np.abs(norms - 1.0).max())
            if worst > NORM_TOL:
                raise ValidationError(
                    f"normalized flag set but a row norm deviates by {worst:.2e}"
                )

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


def _e0(d: int) -> np.ndarray:
    v = np.zeros(d, dtype=np.float64)
    v[0] = 1.0
    return v


def _normalize(v: np.ndarray) -> np.ndarray:
    """L2-normalize in float64; zero vectors fall back to the e_0 sentinel."""
    v = v.astype(np.float64, copy=False)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return _e0(v.shape[0])
    return v / norm


def feature_hash_embed(text: str, d: int, seed: int = 0) -> np.ndarray:
    """Hash word unigrams and bigrams into d signed buckets, L2-normalized.

    Empty text returns e_0. Deterministic for fixed (text, d, seed).
    """
    if d < 2:
        raise ValidationError("embedding dimension must be >= 2")
    tokens = text.split()
    if not tokens:
        return _e0(d).astype(np.float32)
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    acc = np.zeros(d, dtype=np.float64)
    feats = [b"u:" + t.encode("utf-8") for t in tokens]
    feats.extend(
        b"b:" + a.encode("utf-8") + b" " + b.encode("utf-8")
        for a, b in zip(tokens, tokens[1:])
    )
    for feat in feats:
        h = int.from_bytes(
            hashlib.blake2b(feat, digest_size=8, key=key).digest(), "little"
        )
        bucket = (h >> 1) % d
        acc[bucket] += 1.0 if h & 1 else -1.0
    return _normalize(acc).astype(np.float32)


def hash_embedder(d: int, seed: int = 0) -> TextEmbedder:
    """The feature-hashing embedder as a text -> vector callable."""

    def embed(text: str) -> np.ndarray:
        return feature_hash_embed(text, d, seed)

    return embed


def chunk_average(base: TextEmbedder, chunk_size: int) -> TextEmbedder:
    """Derive an embedder that averages the base embedder over chunks.

    The document is split into consecutive ``chunk_size``-token chunks;
    each chunk is embedded, the vectors are averaged and renormalized.
    Documents of at most one chunk are passed to the base embedder as-is.
    """
    if chunk_size < 1:
        raise ValidationError("chunk_size must be >= 1")

    def embed(text: str) -> np.ndarray:
        tokens = text.split()
        if len(tokens) <= chunk_size:
            return base(text)
        chunks = [
            " ".join(tokens[i : i + chunk_size])
            for i in range(0, len(tokens), chunk_size)
        ]
        mean = np.mean([base(c).astype(np.float64) for c in chunks], axis=0)
        return _normalize(mean).astype(np.float32)

    return embed


def embed_corpus(docs: DocumentSet, spec: EmbedderSpec) -> EmbeddingMatrix:
    """Embed every document, one row per document in corpus order.

    Output is always normalized. For ``external`` specs the precomputed
    file must cover every document id; missing ids are reported together.
    """
    if spec.kind == "external":
        m = read_embeddings(spec.path)
        index = {doc_id: i for i, doc_id in enumerate(m.ids)}
        missing = [d.id for d in docs if d.id not in index]
        if missing:
            raise ValidationError(
                "external embeddings missing ids: " + ", ".join(sorted(missing))
            )
        rows = np.stack(
            [_normalize(m.vectors[index[d.id]]) for d in docs]
        ) if len(docs) else np.zeros((0, m.d))
        return EmbeddingMatrix(
            ids=tuple(d.id for d in docs),
            vectors=rows.astype(np.float32),
            normalized=True,
        )

    embedder = hash_embedder(spec.dim, spec.seed)
    if spec.chunk_size is not None:
        embedder = chunk_average(embedder, spec.chunk_size)
    rows = [embedder(d.text) for d in docs]
    vectors = (
        np.stack([_normalize(r) for r in rows]).astype(np.float32)
        if rows
        else np.zeros((0, spec.dim), dtype=np.float32)
    )
    return EmbeddingMatrix(ids=tuple(d.id for d in docs), vectors=vectors, normalized=True)


def write_embeddings(m: EmbeddingMatrix, path: str) -> None:
    """Write the bit-exact binary embedding format; an over-long id raises before any write."""
    raw_ids = [doc_id.encode("utf-8") for doc_id in m.ids]
    for doc_id, raw in zip(m.ids, raw_ids):
        if len(raw) > 0xFFFF:
            raise ValidationError(f"id too long to serialize: {doc_id[:32]!r}...")
    with open(path, "wb") as fh:
        flags = 1 if m.normalized else 0
        fh.write(MAGIC)
        fh.write(struct.pack("<IQII", VERSION, m.n, m.d, flags))
        fh.write(np.ascontiguousarray(m.vectors, dtype="<f4").tobytes())
        for raw in raw_ids:
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)


def read_embeddings(path: str) -> EmbeddingMatrix:
    """Read the binary embedding format; inverse of :func:`write_embeddings`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic, expected {MAGIC!r}", 0)
    if len(data) < 24:
        raise FormatError("truncated header", len(data))
    version, count, dim, flags = struct.unpack_from("<IQII", data, 4)
    if version != VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    offset = 24
    payload_bytes = count * dim * 4
    if len(data) < offset + payload_bytes:
        raise FormatError(
            f"truncated payload: expected {payload_bytes} bytes of vectors",
            len(data),
        )
    vectors = np.frombuffer(
        data, dtype="<f4", count=count * dim, offset=offset
    ).reshape(count, dim)
    offset += payload_bytes
    ids: list[str] = []
    for _ in range(count):
        if len(data) < offset + 2:
            raise FormatError("truncated id table", len(data))
        (id_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if len(data) < offset + id_len:
            raise FormatError("truncated id entry", len(data))
        ids.append(data[offset : offset + id_len].decode("utf-8"))
        offset += id_len
    if offset != len(data):
        raise FormatError("trailing bytes after id table", offset)
    return EmbeddingMatrix(ids=tuple(ids), vectors=vectors, normalized=bool(flags & 1))
