"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's code paths: scalar
loops instead of vectorized numpy, an explicit union-find instead of
sparse-graph components, exhaustive enumeration instead of Lloyd
iterations. Keep it that way; these are the oracles the tests trust.
"""

from __future__ import annotations

import hashlib
import itertools
import math


def scalar_dot(u, v) -> float:
    return sum(float(a) * float(b) for a, b in zip(u, v))


def scalar_norm(u) -> float:
    return math.sqrt(sum(float(a) * float(a) for a in u))


def scalar_cosine(u, v) -> float:
    return scalar_dot(u, v) / (scalar_norm(u) * scalar_norm(v))


class OracleUnionFind:
    """Minimal union-find over arbitrary hashable keys."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def groups(self) -> list[list]:
        out: dict = {}
        for x in list(self.parent):
            out.setdefault(self.find(x), []).append(x)
        return list(out.values())


def semdedup_oracle(
    rows,
    ids,
    assignment,
    distances,
    eps: float,
    keep_rule: str = "farthest",
) -> set[str]:
    """Kept-id set for epsilon-ball dedup, computed the slow honest way.

    Within each cluster, every pair with scalar dot > 1 - eps is unioned;
    each resulting component keeps the member farthest from (or nearest
    to) the centroid, ties to the lowest id.
    """
    by_cluster: dict[int, list[int]] = {}
    for i, c in enumerate(assignment):
        by_cluster.setdefault(int(c), []).append(i)

    kept: set[str] = set()
    for idx in by_cluster.values():
        uf = OracleUnionFind()
        for i in idx:
            uf.find(i)
        for a, b in itertools.combinations(idx, 2):
            if scalar_dot(rows[a], rows[b]) > 1.0 - eps:
                uf.union(a, b)
        for comp in uf.groups():
            if keep_rule == "farthest":
                best = min(comp, key=lambda i: (-float(distances[i]), ids[i]))
            else:
                best = min(comp, key=lambda i: (float(distances[i]), ids[i]))
            kept.add(ids[best])
    return kept


def prototypes_oracle(ids, distances, r: float) -> list[str]:
    """Kept ids after discarding the round((1-r)*n) closest points."""
    n = len(ids)
    n_discard = int(math.floor((1.0 - r) * n + 0.5))
    ranked = sorted(range(n), key=lambda i: (float(distances[i]), ids[i]))
    discarded = set(ranked[:n_discard])
    return [ids[i] for i in range(n) if i not in discarded]


def brute_force_nn(valid_rows, valid_ids, train_rows, train_ids):
    """(valid_id, train_id, distance) per validation row, scalar loops."""
    out = []
    for vi, vrow in enumerate(valid_rows):
        best_sim = None
        best_id = None
        for ti, trow in enumerate(train_rows):
            sim = scalar_dot(vrow, trow)
            if best_sim is None or sim > best_sim or (sim == best_sim and train_ids[ti] < best_id):
                best_sim = sim
                best_id = train_ids[ti]
        out.append((valid_ids[vi], best_id, max(0.0, min(2.0, 1.0 - best_sim))))
    return out


def spherical_objective(rows, parts) -> float:
    """Sum of cosine distances to each part's renormalized mean."""
    total = 0.0
    for part in parts:
        if not part:
            continue
        d = len(rows[0])
        mean = [sum(float(rows[i][j]) for i in part) for j in range(d)]
        norm = scalar_norm(mean)
        if norm == 0.0:
            continue
        centroid = [x / norm for x in mean]
        for i in part:
            total += 1.0 - scalar_dot(rows[i], centroid)
    return total


def best_two_partition(rows) -> tuple[float, list[int]]:
    """Exhaustive best 2-partition by spherical k-means objective.

    Returns (objective, membership list of 0/1). Point 0 is pinned to part
    0 to halve the symmetric search space.
    """
    n = len(rows)
    best_obj = None
    best_mask = None
    for bits in range(2 ** (n - 1)):
        mask = [0] + [(bits >> i) & 1 for i in range(n - 1)]
        part0 = [i for i in range(n) if mask[i] == 0]
        part1 = [i for i in range(n) if mask[i] == 1]
        if not part0 or not part1:
            continue
        obj = spherical_objective(rows, [part0, part1])
        if best_obj is None or obj < best_obj:
            best_obj, best_mask = obj, mask
    return best_obj, best_mask


def exact_jaccard(a: set, b: set) -> float:
    return len(a & b) / len(a | b)


def shingles_oracle(text: str, w: int) -> frozenset[str]:
    """Word w-grams of ``text`` by index arithmetic; ``{text}`` if it has fewer than w words."""
    words = text.split()
    if len(words) < w:
        return frozenset({text})
    return frozenset(" ".join(words[i : i + w]) for i in range(len(words) - w + 1))


MASK64 = (1 << 64) - 1


def scalar_fmix64(x: int) -> int:
    """MurmurHash3's 64-bit finaliser on a Python int, wrapped by masking."""
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & MASK64
    x ^= x >> 33
    return x


def minhash_signature_oracle(shingle_set, seed: int, num_hashes: int) -> tuple[int, ...]:
    """MinHash values with Python ints only.

    One blake2b digest per shingle, keyed by the seed's low 64 bits, gives
    ``base``; position i is min over shingles of fmix64(base ^ key_i) with
    key_i = (i + 1) * 0x9E3779B97F4A7C15 mod 2**64.
    """
    key = (seed & MASK64).to_bytes(8, "little")
    bases = [
        int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8, key=key).digest(), "little")
        for s in shingle_set
    ]
    return tuple(
        min(scalar_fmix64(b ^ (((i + 1) * 0x9E3779B97F4A7C15) & MASK64)) for b in bases)
        for i in range(num_hashes)
    )


def feature_hash_oracle(text: str, d: int, seed: int) -> list[float]:
    """Per-text feature hashing: one blake2b call and one bucket add per feature.

    The features of ``text.split()`` are ``u:<token>`` for every token and
    ``b:<a> <b>`` for every adjacent pair. Each feature's 8-byte blake2b,
    keyed by the seed's low 64 bits, adds +1 (odd hash) or -1 to bucket
    ``(h >> 1) % d``. Returns the counts divided by their L2 norm, in float64;
    the library casts them to float32. Empty text (all-zero counts) gives e_0.
    """
    key = (seed & MASK64).to_bytes(8, "little")
    tokens = text.split()
    feats = [b"u:" + t.encode("utf-8") for t in tokens]
    feats.extend(
        b"b:" + a.encode("utf-8") + b" " + b.encode("utf-8")
        for a, b in zip(tokens, tokens[1:])
    )
    acc = [0.0] * d
    for feat in feats:
        h = int.from_bytes(hashlib.blake2b(feat, digest_size=8, key=key).digest(), "little")
        acc[(h >> 1) % d] += 1.0 if h & 1 else -1.0
    norm = math.sqrt(sum(x * x for x in acc))
    if norm == 0.0:
        return [1.0] + [0.0] * (d - 1)
    return [x / norm for x in acc]
