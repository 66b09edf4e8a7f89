"""numpy's default PCG64 stream in pure Python, for the verifier's draws.

Stream(entropy) is bit-equal to numpy.random.default_rng(entropy) for
the calls the verifier makes: uniform, random, integers with a range of
at most 2**32, and permutation. Each returns the same doubles or
integers, and leaves the stream where numpy's Generator would, so calls
can be interleaved in any order. Arrays come back as lists.

The generator is PCG64 (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905): a 128-bit LCG with the XSL-RR output.
Its state and increment come from numpy's SeedSequence with a pool of
four 32-bit words.

seed_int is the one seed rule of the package's generators: this stream
and the random.Random of haarent.maxent.
"""

from __future__ import annotations

import operator

from .errors import DomainError

__all__ = ["Stream", "seed_int"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL = 4

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_DOUBLE_UNIT = 2.0 ** -53


def seed_int(seed) -> int:
    """seed as an int, or DomainError unless it is a non-negative
    integer (a bool counts as one, as numpy's seeding has it).
    random.Random would take abs() of a negative int and hash a float."""
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise DomainError(
            f"seed must be a non-negative integer, got {seed!r}")
    return value


def _words(entropy) -> list:
    """The uint32 words SeedSequence assembles from an int or a sequence
    of ints: each int little-endian, 0 as one word."""
    if not isinstance(entropy, int):
        return [w for n in entropy for w in _words(n)]
    if entropy < 0:
        raise ValueError("expected non-negative integer")
    words = [entropy & _MASK32]
    entropy >>= 32
    while entropy:
        words.append(entropy & _MASK32)
        entropy >>= 32
    return words


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> _XSHIFT


def _pool(words: list) -> list:
    """SeedSequence's entropy pool for the assembled words."""
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool: list) -> list:
    """generate_state(4, uint64): eight uint32 words, low word first in
    each pair."""
    const = _INIT_B
    out = []
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> _XSHIFT)
    return [out[i] | out[i + 1] << 32 for i in range(0, len(out), 2)]


class Stream:
    """PCG64 seeded as numpy.random.default_rng(entropy) seeds it."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, entropy) -> None:
        s_hi, s_lo, i_hi, i_lo = _state_words(_pool(_words(entropy)))
        # pcg64_srandom: state 0, step, add the initial state, step
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        self._state = 0
        self._step()
        self._state += s_hi << 64 | s_lo
        self._step()
        # the high half of a 64-bit draw that _next32 has not used yet
        self._half = None

    def _step(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        return self._state

    def _next64(self) -> int:
        state = self._step()
        x = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64()
        self._half = x >> 32
        return x & _MASK32

    def _double(self) -> float:
        return (self._next64() >> 11) * _DOUBLE_UNIT

    def random(self, size: int) -> list:
        """A list of `size` doubles in [0, 1)."""
        return [self._double() for _ in range(size)]

    def uniform(self, low: float, high: float, size: int | None = None):
        """low + (high - low) * random(): one, or a list of `size`."""
        width = high - low
        if size is None:
            return low + width * self._double()
        return [low + width * self._double() for _ in range(size)]

    def integers(self, low: int, high: int | None = None) -> int:
        """One int in [low, high), or [0, low) without high, by Lemire's
        method on 32-bit draws."""
        if high is None:
            low, high = 0, low
        if high <= low:
            raise ValueError(f"low >= high: {low!r} >= {high!r}")
        span = high - low
        if span > 1 << 32:
            raise ValueError(f"range {span!r} is wider than 2**32")
        if span == 1:
            return low
        if span == 1 << 32:
            return low + self._next32()
        m = self._next32() * span
        if m & _MASK32 < span:
            threshold = (1 << 32) % span
            while m & _MASK32 < threshold:
                m = self._next32() * span
        return low + (m >> 32)

    def _interval(self, top: int) -> int:
        """An int in [0, top], by masked rejection on 32-bit draws."""
        mask = (1 << top.bit_length()) - 1
        while True:
            value = self._next32() & mask
            if value <= top:
                return value

    def permutation(self, n: int) -> list:
        """range(n) shuffled by Fisher-Yates, from the last index down."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self._interval(i)
            out[i], out[j] = out[j], out[i]
        return out
