"""haarent._pcg64.Stream against numpy.random.default_rng.

The verifier's trial streams must give numpy's doubles and integers call
for call, and leave the generator where numpy's would, so the calls below
are interleaved: the half of a 64-bit draw that a 32-bit draw buffers
carries from one call into the next.
"""

import zlib

import numpy as np
import pytest

from haarent._pcg64 import Stream
from haarent.verifier import claim_ids


def _program(k: int) -> list:
    """A fixed interleaving of every call the verifier makes; sizes and
    the buffered half's parity vary with k."""
    n = k % 13 + 1
    return [
        ("uniform", (0.2, 2.0)),
        ("uniform", (-1.0, 3.0, n)),
        ("integers", (n,)),
        ("random", (n,)),
        ("integers", (2, 11)),
        ("integers", (2**32,)),
        ("permutation", (n + 3,)),
        ("integers", (1, n + 1)),
        ("random", (1,)),
        ("integers", (1,)),
        ("integers", (0, 3 * 2**30 + 1)),  # rejects about one draw in 4
        ("permutation", (k % 2,)),
        ("integers", (-5, 2**32 - 5)),
        ("uniform", (0.05, 0.95, k % 3)),
        ("random", (2,)),
    ]


def _plain(value):
    return value.tolist() if hasattr(value, "tolist") else value


def _numpy_state(gen) -> tuple:
    s = gen.bit_generator.state
    return (s["state"]["state"], s["state"]["inc"], bool(s["has_uint32"]),
            s["uinteger"] if s["has_uint32"] else None)


def _stream_state(stream: Stream) -> tuple:
    return (stream._state, stream._inc, stream._half is not None,
            stream._half)


def _assert_same(entropy, k: int) -> None:
    ours, theirs = Stream(entropy), np.random.default_rng(entropy)
    for name, args in _program(k):
        got = getattr(ours, name)(*args)
        want = _plain(getattr(theirs, name)(*args))
        assert got == want, (entropy, name, args)
        assert type(got) is type(want), (entropy, name, args)
        assert _stream_state(ours) == _numpy_state(theirs), \
            (entropy, name, args)


def test_verifier_seed_triples_match_numpy():
    crcs = [zlib.crc32(cid.encode("utf-8")) for cid in claim_ids()]
    triples = [[seed, trial, crc] for seed in range(28)
               for trial in range(4) for crc in crcs]
    assert len(triples) >= 2000
    for k, entropy in enumerate(triples):
        _assert_same(entropy, k)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1,
                                  2**70 + 3])
def test_multiword_seeds_match_numpy(seed):
    for k in range(4):
        _assert_same(seed, k)
        _assert_same([seed, k, 2**70 + 3], k)


def test_seed_words_beyond_the_pool_match_numpy():
    # more than four 32-bit words: the late ones mix into the full pool
    _assert_same([2**64 - 1, 2**64 - 1, 7, 2**96 + 1], 0)


def test_one_value_ranges_draw_nothing():
    stream = Stream([3, 1, 4])
    before = _stream_state(stream)
    assert stream.integers(1) == 0
    assert stream.integers(7, 8) == 7
    assert stream.permutation(0) == []
    assert stream.permutation(1) == [0]
    assert _stream_state(stream) == before


def test_empty_and_over_wide_ranges_are_rejected():
    stream = Stream(0)
    with pytest.raises(ValueError):
        stream.integers(0)
    with pytest.raises(ValueError):
        stream.integers(2**32 + 1)
    with pytest.raises(ValueError):
        Stream([1, -1])
