"""Seeded draws without ``numpy.random``.

``choice(seed, n, k)`` returns, element for element, what
``np.random.default_rng(seed).choice(n, size=k, replace=False)`` returns.
It reproduces that stream: ``SeedSequence``'s entropy pool, PCG64 (O'Neill
2014) with its XSL-RR 128/64 output and numpy's buffering of the spare
32-bit half, Lemire's bounded integers, and ``Generator.choice``'s two
sampling paths. It imports neither ``numpy.random`` nor a hash, so a
command that only seeds k-means does not load ``numpy.random``'s extension
modules or, through its ``secrets`` import, OpenSSL's ``_hashlib``.
"""

from __future__ import annotations

from array import array

import numpy as np

from .errors import ValidationError

M32 = 0xFFFFFFFF
M64 = 0xFFFFFFFFFFFFFFFF
M128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341


def _pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool`` for 0 <= seed < 2**64: the seed's two
    32-bit words, low first, mixed into 4. (numpy mixes a third or later
    word in again after the pool; no 64-bit seed has one.)"""
    entropy = [seed & M32, seed >> 32] if seed >> 32 else [seed]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & M32
        value = (value * hash_const) & M32
        return value ^ (value >> _XSHIFT)

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & M32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """``SeedSequence.generate_state(4, np.uint64)`` from the pool."""
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & M32
        value = (value * hash_const) & M32
        halves.append(value ^ (value >> _XSHIFT))
    return [halves[i] | (halves[i + 1] << 32) for i in range(0, 8, 2)]


class _Pcg64:
    """numpy's PCG64 bit generator: 64-bit draws, and 32-bit draws that
    hand out the low half of a 64-bit draw and keep the high half for the
    next call."""

    def __init__(self, seed: int):
        words = _state_words(_pool(seed))
        self.inc = (((words[2] << 64) | words[3]) << 1 | 1) & M128
        state = (self.inc + ((words[0] << 64) | words[1])) & M128
        self.state = (state * _PCG_MULT + self.inc) & M128
        self.spare: int | None = None

    def next64(self) -> int:
        self.state = state = (self.state * _PCG_MULT + self.inc) & M128
        x = ((state >> 64) ^ state) & M64
        rot = state >> 122
        return ((x >> rot) | (x << (64 - rot))) & M64

    def next32(self) -> int:
        if self.spare is not None:
            out, self.spare = self.spare, None
            return out
        x = self.next64()
        self.spare = x >> 32
        return x & M32

    def bounded(self, high: int) -> int:
        """A draw in [0, high], by Lemire's multiply-and-reject as numpy
        makes it: from 32-bit draws when ``high`` fits in 32 bits."""
        if high == 0:
            return 0
        if high <= M32:
            if high == M32:
                return self.next32()
            bits, draw = 32, self.next32
        elif high == M64:
            return self.next64()
        else:
            bits, draw = 64, self.next64
        mask = (1 << bits) - 1
        span = high + 1
        m = draw() * span
        if m & mask < span:
            threshold = (mask - high) % span
            while m & mask < threshold:
                m = draw() * span
        return m >> bits


def choice(seed: int, n: int, k: int) -> np.ndarray:
    """k distinct rows of ``range(n)`` under ``seed``, as int64.

    Equal to ``np.random.default_rng(seed).choice(n, size=k,
    replace=False)`` for 0 <= seed < 2**64 and 0 <= k <= n. Like numpy, it
    samples by Floyd's algorithm and then shuffles the sample when
    n <= 10,000 or k <= n // 50; otherwise it shuffles the last k places
    of an int64 buffer of all n rows and returns them.
    """
    if not 0 <= seed <= M64:
        raise ValidationError("seed must lie in [0, 2**64)")
    if not 0 <= k <= n:
        raise ValidationError(f"cannot draw {k} distinct rows from {n}")
    rng = _Pcg64(seed)
    if n > 10_000 and k > n // 50:
        rows = array("q", range(n))
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = rng.bounded(i)
            rows[i], rows[j] = rows[j], rows[i]
        return np.frombuffer(rows, dtype=np.int64)[n - k :].copy()
    picked: set[int] = set()
    out = []
    for j in range(n - k, n):
        val = rng.bounded(j)
        if val in picked:
            val = j
        picked.add(val)
        out.append(val)
    for i in range(k - 1, 0, -1):
        j = rng.bounded(i)
        out[i], out[j] = out[j], out[i]
    return np.array(out, dtype=np.int64)
