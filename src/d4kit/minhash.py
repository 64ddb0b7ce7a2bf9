"""Document-level MinHash LSH near-duplicate removal.

Each shingle is hashed once, with blake2b keyed by the seed, to a 64-bit
``base``. Signature position i is the minimum over the shingles of
fmix64(base ^ key_i): fmix64 is MurmurHash3's 64-bit finaliser and key_i a
fixed per-position constant (Broder 1997; one hash plus cheap permutations,
as in datasketch). The corpus is signed in blocks of shingles by one
routine, :func:`_signature_blocks`, a few positions at a time so that each
fmix64 array stays in cache; ``signature`` is that routine on one set.
A signature has one position per row of each band, 20 by default, banded
20 x 1, so two documents become duplicate candidates iff any signature
position matches (Leskovec, Rajaraman & Ullman, Mining of Massive Datasets,
ch. 3).
Candidates are grouped transitively, as connected components of the
band-collision graph found by ``graph.components`` (the routine SemDeDup
also uses), listed by ``graph.members`` (the routine k-means groups its
clusters with), and each duplicate group keeps its lexicographically lowest id.
``lsh_dedup`` holds the ids, the blocks' signature rows (n x num_hashes x 8
bytes, never copied whole), one band's columns and the edges between
distinct documents: ~2x the signatures at 8k documents and more.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

from . import hashing
from .corpus import Document, Record, iter_texts
from .errors import ValidationError, _index, _instance, _unique
from .graph import components, members


@dataclass(frozen=True)
class LshConfig:
    """Banding and shingling; a signature has ``bands * rows_per_band`` positions."""

    bands: int = 20
    rows_per_band: int = 1
    shingle_width: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, least in (("bands", 1), ("rows_per_band", 1), ("shingle_width", 1), ("seed", None)):
            object.__setattr__(self, name, _index(name, getattr(self, name), least))

    @property
    def num_hashes(self) -> int:
        return self.bands * self.rows_per_band


@dataclass(frozen=True)
class MinHashSignature:
    values: tuple[int, ...]
    shingle_width: int


@dataclass(frozen=True)
class DuplicateGroup:
    group_id: int
    member_ids: tuple[str, ...]


@dataclass(frozen=True)
class DedupResult:
    kept_ids: tuple[str, ...]
    groups: tuple[DuplicateGroup, ...]


def shingles(text: str, w: int) -> frozenset[str]:
    """Contiguous word w-grams of ``text``.

    Texts with fewer than w words yield a singleton set containing the
    whole text, so every document has a non-empty shingle set.
    """
    w = _index("shingle width", w, 1)
    words = text.split()
    if len(words) < w:
        return frozenset({text})
    return frozenset(map(" ".join, zip(*(words[i:] for i in range(w)))))


# Weyl increment of splitmix64; position i XORs (i + 1) times it into the base hash.
_POSITION_STEP = np.uint64(0x9E3779B97F4A7C15)
_FMIX_C1 = np.uint64(0xFF51AFD7ED558CCD)
_FMIX_C2 = np.uint64(0xC4CEB9FE1A85EC53)
# A uint64 shift count, so that numpy < 2 does not promote the shift to float64.
_SHIFT = np.uint64(33)


def _fmix64(x: np.ndarray) -> np.ndarray:
    """MurmurHash3's 64-bit finaliser, a bijection on uint64 (products wrap mod 2**64).

    Works in place: ``x`` is overwritten and returned, with one scratch
    array for the shifts.
    """
    t = np.right_shift(x, _SHIFT)
    x ^= t
    x *= _FMIX_C1
    np.right_shift(x, _SHIFT, out=t)
    x ^= t
    x *= _FMIX_C2
    np.right_shift(x, _SHIFT, out=t)
    x ^= t
    return x


# A block of documents closes once it holds this many shingles, so the
# block's digests stay bounded however long the corpus is. A document is
# never split, so a block can exceed this by one document's shingles.
_SIGN_BLOCK = 1 << 12
# Signature positions hashed per pass over a block: each fmix64 array is
# then _POSITION_CHUNK x (block shingles) x 8 bytes, ~128 KB, and stays in cache.
_POSITION_CHUNK = 4


def _signature_blocks(shingle_sets: Iterable[frozenset[str] | set[str]], cfg: LshConfig) -> Iterator[np.ndarray]:
    """The MinHash rows of consecutive runs of the shingle sets, one uint64 array per block,
    after a first empty block, so that even an empty corpus gives a block to concatenate.

    Position i is the minimum of fmix64(base ^ key_i) over the set, where
    ``base`` is each shingle's 8-byte blake2b digest keyed by the seed and
    ``key_i`` is fixed per position. fmix64 is a bijection, so distinct
    bases never collide at any position. One ``keyed_digests`` call hashes
    a block's shingles and ``minimum.reduceat`` takes each set's minima.
    """
    keys = np.arange(1, cfg.num_hashes + 1, dtype=np.uint64) * _POSITION_STEP
    yield np.empty((0, keys.size), dtype=np.uint64)
    items: list[bytes] = []
    sizes: list[int] = []  # shingles per set of the open block
    for sh in shingle_sets:
        if not sh:
            raise ValidationError("cannot sign an empty shingle set")
        items.extend(map(str.encode, sh))  # UTF-8
        sizes.append(len(sh))
        if len(items) >= _SIGN_BLOCK:
            yield _block_minima(items, sizes, keys, cfg.seed)
            items, sizes = [], []
    if sizes:
        yield _block_minima(items, sizes, keys, cfg.seed)


def _signatures(shingle_sets: Iterable[frozenset[str] | set[str]], cfg: LshConfig) -> np.ndarray:
    """Row j holds the MinHash values of the j-th shingle set, as uint64 (:func:`_signature_blocks`)."""
    return np.concatenate(list(_signature_blocks(shingle_sets, cfg)))


def _block_minima(items: list[bytes], sizes: list[int], keys: np.ndarray, seed: int) -> np.ndarray:
    """One row of per-position minima for each run of ``sizes`` items.

    A few positions at a time, each laid out along the block's shingles, so
    that ``reduceat`` reduces contiguous runs.
    """
    base = hashing.keyed_digests(items, seed)
    starts = np.cumsum(sizes) - sizes
    out = np.empty((len(sizes), keys.size), dtype=np.uint64)
    for lo in range(0, keys.size, _POSITION_CHUNK):
        chunk = _fmix64(keys[lo : lo + _POSITION_CHUNK, None] ^ base)
        out[:, lo : lo + _POSITION_CHUNK] = np.minimum.reduceat(chunk, starts, axis=1).T
    return out


def signature(sh: frozenset[str] | set[str], cfg: LshConfig) -> MinHashSignature:
    """The MinHash signature of one shingle set: :func:`_signatures` of that set."""
    values = _signatures([sh], _instance("cfg", cfg, LshConfig))[0]
    return MinHashSignature(values=tuple(values.tolist()), shingle_width=cfg.shingle_width)


def _band_heads(rows: np.ndarray) -> np.ndarray:
    """For each row, the index of the first row equal to it.

    One stable ``lexsort`` puts equal rows in runs, in index order within a
    run, so each run's first entry is its lowest index.
    """
    order = np.lexsort(rows.T)
    ranked = rows[order]
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    heads = np.empty_like(order)
    heads[order] = order[new_run][np.cumsum(new_run) - 1]
    return heads


def lsh_dedup(docs: Iterable[Document | Record], cfg: LshConfig | None = None) -> DedupResult:
    """Collapse near-duplicate documents found by banded MinHash.

    ``docs`` is any iterable of documents with unique ids, such as a
    ``DocumentSet`` or ``corpus.iter_records``; it is read once, and only
    the ids, the signing blocks' rows and one band's columns are held.
    Documents sharing any band bucket are joined into groups; each group
    keeps its lowest id. Kept ids preserve corpus order. The result is
    independent of corpus permutation up to that keep rule.
    """
    cfg = LshConfig() if cfg is None else _instance("cfg", cfg, LshConfig)
    ids: list[str] = []
    blocks = list(_signature_blocks((shingles(text, cfg.shingle_width) for text in iter_texts(docs, ids)), cfg))
    _unique("document", ids)
    n = len(ids)

    # Each band links every document to the first document in its bucket;
    # only the links to another document are edges.
    index = np.arange(n)
    tails, heads = [], []
    for lo in range(0, cfg.num_hashes, cfg.rows_per_band):
        head = _band_heads(np.concatenate([b[:, lo : lo + cfg.rows_per_band] for b in blocks]))
        linked = np.flatnonzero(head != index)
        tails.append(linked)
        heads.append(head[linked])
    labels = components(n, np.concatenate(tails), np.concatenate(heads))

    # Each label's members come in corpus order; labels are lowest member
    # indices, so the labels' order is the groups' order.
    keep = np.ones(n, dtype=bool)
    groups: list[DuplicateGroup] = []
    for idx in members(labels, n):
        if idx.size < 2:
            continue
        idx = idx.tolist()
        group_ids = tuple(ids[i] for i in idx)
        keep[idx] = False
        keep[idx[group_ids.index(min(group_ids))]] = True
        groups.append(DuplicateGroup(group_id=len(groups), member_ids=group_ids))

    kept = tuple(compress(ids, keep.tolist()))
    return DedupResult(kept_ids=kept, groups=tuple(groups))
