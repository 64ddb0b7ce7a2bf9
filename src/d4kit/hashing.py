"""Every hash d4kit uses, and the seed-keyed 64-bit hash that MinHash and the
hash embedder share.

This is the one module that imports a hash. ``blake2b`` and ``sha256`` come
from CPython's bundled implementations (``_blake2``, and ``_sha2`` from
Python 3.12 or ``_sha256`` before it), so no command loads OpenSSL's
``_hashlib`` (~3.6 MB RSS) to reach them. ``hashlib`` always takes blake2b
from ``_blake2`` too, so it has no other source to offer; sha256 falls back
to ``hashlib`` where a build bundles no sha256 module. Either way these are
the same hash functions, so every digest is the same.
"""

from __future__ import annotations

from _blake2 import blake2b
from typing import Iterable

import numpy as np

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def keyed_digests(items: Iterable[bytes], seed: int) -> np.ndarray:
    """Each item's 8-byte blake2b digest as a uint64, read little-endian.

    The key is ``seed`` mod 2**64 as 8 little-endian bytes. One keyed
    hasher is built and copied per item, which skips re-keying.
    """
    keyed = blake2b(digest_size=8, key=(seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
    digests = []
    for item in items:
        h = keyed.copy()
        h.update(item)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), dtype="<u8")
