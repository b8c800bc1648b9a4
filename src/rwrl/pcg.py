"""The seeded random stream of `synth` and the splits, in pure Python.

`Stream(entropy)` gives the draws of `numpy.random.default_rng(entropy)`
bit for bit, for the two draws rwrl makes: `uniform(low, high)` and
`permutation(items)`. It is numpy's SeedSequence pool hash over the entropy
(a non-negative int, or a list such as `[seed, label, index]`) feeding
PCG64 (O'Neill 2014: a 128-bit LCG with the XSL-RR output). numpy fixes
that bit stream across releases but not its `Generator` methods, and
loading `numpy.random` costs each process about 6 MB (OpenSSL, through
`secrets` and `hashlib`) and 11-20 ms; a draw here costs about 1.5 us
per permuted item.
"""

from __future__ import annotations

import operator

_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's constants: pool of 4 words, hash and mix multipliers
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _words(entropy) -> list[int]:
    """SeedSequence's entropy coercion: an int as little-endian 32-bit
    words (0 as one word), a list as its items' words in turn; a float
    raises TypeError and a negative int ValueError, as in numpy."""
    if isinstance(entropy, list):
        return [w for item in entropy for w in _words(item)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _seed_words(entropy) -> list[int]:
    """The 8 32-bit words that SeedSequence.generate_state(4, uint64) makes."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    words = _words(entropy)
    pool = [hashmix(word) for word in (words + [0] * 4)[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, const = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return out


class Stream:
    """PCG64 seeded as `numpy.random.default_rng(entropy)` seeds it."""

    def __init__(self, entropy):
        # the words, taken as 64-bit little-endian pairs, are the 128-bit
        # seed and stream; PCG steps once before adding the seed, once after
        w = _seed_words(entropy)
        seed = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        stream = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (stream << 1 | 1) & _M128
        self._state = ((self._inc + seed) * _PCG_MULT + self._inc) & _M128
        self._half = None   # the high half of a 64-bit draw cut in two

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _M32

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)

    def permutation(self, items) -> list:
        """`items` shuffled as `Generator.permutation` shuffles them:
        Fisher-Yates from the last place i down, each swap index a 32-bit
        half masked to i's bit length, drawn again while it exceeds i."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            out[i], out[j] = out[j], out[i]
        return out
