"""The CPython ``random`` facts the bulk stream readers rely on.

erdos_renyi, initial_state and the engine's later rounds read MT19937
words and doubles in bulk instead of calling random() and randrange(k)
one at a time. That gives the same output only while the facts below
hold; a Python release that changes any of them must fail here, not
drift silently.
"""

import itertools
import random

import numpy as np
import pytest

from netcolor.graph import mt19937_at


def words(seed, count):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


@pytest.mark.parametrize(
    "k",
    [1, 2, 3, 4, 16, 17, 19, 64, 100,
     # a new bound on every call, as the engine's later rounds draw
     pytest.param((5, 2**32 - 1, 2, 19, 2**31 + 1, 1000, 3), id="mixed")],
)
def test_randrange_is_getrandbits_rejection_on_single_words(k):
    bounds = list(itertools.islice(itertools.cycle(k if isinstance(k, tuple) else (k,)), 1000))
    stream = iter(words(3, 4000))
    expected = []
    for b in bounds:
        shift = 32 - b.bit_length()
        while (w := next(stream) >> shift) >= b:
            pass
        expected.append(w)
    rng = random.Random(3)
    assert [rng.randrange(b) for b in bounds] == expected


def test_random_is_res53_of_two_words():
    w = words(8, 2000)
    expected = [((a >> 5) * 2**26 + (b >> 6)) * 2.0**-53 for a, b in zip(w[0::2], w[1::2])]
    rng = random.Random(8)
    assert [rng.random() for _ in range(1000)] == expected


@pytest.mark.parametrize("m", [1, 2, 7, 1000])
def test_getrandbits_of_whole_words_is_little_endian(m):
    expected = sum(w << (32 * i) for i, w in enumerate(words(4, m)))
    rng = random.Random(4)
    assert rng.getrandbits(32 * m) == expected
    assert rng.getrandbits(32) == words(4, m + 1)[-1]


@pytest.mark.parametrize("skip", [0, 1, 623, 624, 700])
def test_mt19937_copied_from_getstate_continues_the_stream(skip):
    rng = random.Random(12)
    for _ in range(skip):
        rng.getrandbits(32)
    bitgen = mt19937_at(rng)
    expected = [rng.getrandbits(32) for _ in range(1500)]
    assert bitgen.random_raw(1500).tolist() == expected
    assert bitgen.random_raw(1).dtype == np.uint64


@pytest.mark.parametrize("skip", [0, 1, 623, 700])
@pytest.mark.parametrize("m", [1, 2, 312, 1000])
def test_numpy_doubles_are_random_calls(skip, m):
    rng = random.Random(9)
    for _ in range(skip):
        rng.getrandbits(32)
    doubles = np.random.Generator(mt19937_at(rng)).random(m)
    assert doubles.tolist() == [rng.random() for _ in range(m)]
