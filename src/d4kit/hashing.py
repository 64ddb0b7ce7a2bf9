"""The seed-keyed 64-bit hash that MinHash and the hash embedder share."""

from __future__ import annotations

from typing import Iterable

import numpy as np


def keyed_digests(items: Iterable[bytes], seed: int) -> np.ndarray:
    """Each item's 8-byte blake2b digest as a uint64, read little-endian.

    The key is ``seed`` mod 2**64 as 8 little-endian bytes. One keyed
    hasher is built and copied per item, which skips re-keying.
    """
    import hashlib

    keyed = hashlib.blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    digests = []
    for item in items:
        h = keyed.copy()
        h.update(item)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")
