"""The word stream against ``random.Random``, value by value.

:class:`repro.workloads.base.WordStream` replays CPython's consumption
of MT19937 words instead of calling ``random.Random``, so these tests
are what tie every generated trace to CPython's ``random`` internals:
if a Python release changes how ``random()``, ``randint`` or
``choice`` consume words, the property below fails.

The oracle for gaps is the geometric loop the trace generators used
before the stream existed, kept here verbatim.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.sim.rng import DeterministicRng
from repro.workloads import base
from repro.workloads.base import (CHUNK_WORDS, TraceBuilder, WordStream,
                                  _AMBIGUOUS, _gap_table, make_builders,
                                  private_base)

#: every mean gap the generators use
MEANS = (2.0, 2.5, 3.0, 6.0, 8.0, 12.0)


def geometric(rng: random.Random, mean: float) -> int:
    """The original gap: inverse-CDF sampling of a geometric."""
    if mean <= 1.0:
        return 1
    probability = 1.0 / mean
    value = 1
    while rng.random() > probability and value < 64 * mean:
        value += 1
    return value


class Scripted(random.Random):
    """A ``random.Random`` that emits a given list of MT19937 words.

    ``random`` and ``getrandbits`` follow CPython's C implementation;
    ``randint`` and ``choice`` are CPython's own, via ``_randbelow``
    over ``getrandbits``. ``test_scripted_source_matches_cpython``
    checks this against a genuine generator.
    """

    def __init__(self, words):
        super().__init__(0)
        self._script = iter(words)

    def _word(self) -> int:
        return next(self._script)

    def getrandbits(self, k: int) -> int:
        value = 0
        for shift in range(0, k, 32):
            word = self._word()
            if k - shift < 32:
                word >>= 32 - (k - shift)
            value |= word << shift
        return value

    def random(self) -> float:
        high, low = self._word() >> 5, self._word() >> 6
        return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def chunk_words(count: int):
    """Refill the stream ``count`` words at a time, to reach refill
    boundaries that the real chunk size makes rare."""
    return mock.patch.object(base, "CHUNK_WORDS", count)


def mt_words(seed: int, count: int):
    rng = random.Random(seed)
    return [rng.getrandbits(32) for _ in range(count)]


def apply(target, op):
    """Run one operation; ``target`` is a WordStream or a Random."""
    kind = op[0]
    if kind == "random":
        return target.random()
    if kind == "randint":
        return target.randint(0, op[1])
    if kind == "choice":
        return target.choice(range(op[1]))
    if kind == "gap":
        if isinstance(target, WordStream):
            return target.gap(op[1])
        return geometric(target, op[1])
    if isinstance(target, WordStream):
        return list(target.gaps(op[1], op[2]))
    return [geometric(target, op[1]) for _ in range(op[2])]


OPERATIONS = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("randint"), st.integers(0, 2 ** 32)),
    st.tuples(st.just("choice"), st.integers(1, 300)),
    st.tuples(st.just("gap"), st.sampled_from(MEANS + (1.0,))),
    st.tuples(st.just("gaps"), st.sampled_from(MEANS),
              st.integers(0, 60)),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       chunk=st.sampled_from((1, 2, 3, 7, 64, CHUNK_WORDS)),
       ops=st.lists(OPERATIONS, max_size=60))
def test_stream_matches_random_random(seed, chunk, ops):
    stream = WordStream(random.Random(seed))
    oracle = random.Random(seed)
    with chunk_words(chunk):
        for op in ops:
            assert apply(stream, op) == apply(oracle, op), op
        # Both must have consumed exactly the same words.
        assert stream.getrandbits(32) == oracle.getrandbits(32)


def test_scripted_source_matches_cpython():
    words = mt_words(7, 5000)
    scripted, genuine = Scripted(words), random.Random(7)
    for n in (1, 5, 1000, 2 ** 31, 2 ** 32, 2 ** 32 + 1):
        assert scripted.random() == genuine.random()
        assert scripted.randint(0, n) == genuine.randint(0, n)
        assert scripted.choice("abcdefg") == genuine.choice("abcdefg")
    assert scripted.getrandbits(32) == genuine.getrandbits(32)


def gaps_both_ways(words, mean, count, chunk=CHUNK_WORDS):
    """(one by one, in bulk, oracle) for ``count`` gaps over ``words``."""
    single = WordStream(Scripted(words))
    bulk = WordStream(Scripted(words))
    oracle = Scripted(words)
    with chunk_words(chunk):
        return ([single.gap(mean) for _ in range(count)],
                list(bulk.gaps(mean, count)),
                [geometric(oracle, mean) for _ in range(count)])


FAIL = (0xFFFFFFFF, 0xFFFFFFFF)
SUCCESS = (0, 0)


@pytest.mark.parametrize("failures", [767, 768, 769, 2000])
def test_gap_cap_at_768_draws(failures):
    # mean 12 caps a gap at ceil(64 * 12) = 768 draws
    words = list(FAIL * failures + SUCCESS) + mt_words(1, 20000)
    single, bulk, expected = gaps_both_ways(words, 12.0, 40)
    assert expected[0] == min(failures + 1, 768)
    assert single == bulk == expected


def test_gap_cap_in_every_mean_and_chunk():
    for mean in MEANS:
        cap = math.ceil(64 * mean)
        words = (list(FAIL * (3 * cap + 5) + SUCCESS)
                 + mt_words(2, 20000))
        for chunk in (5, 64, CHUNK_WORDS):
            single, bulk, expected = gaps_both_ways(words, mean, 30,
                                                    chunk)
            assert expected[:3] == [cap, cap, cap]
            assert single == bulk == expected, (mean, chunk)


def boundary_draws(mean: float):
    """Draws exactly at, just below and just above ``1/mean``."""
    limit = math.floor((1.0 / mean) * 2 ** 53)   # largest success
    draws = []
    for value in (limit - 1, limit, limit + 1, limit + 2):
        high, low = value >> 26, value & ((1 << 26) - 1)
        draws += [(high << 5) | 0x1F, (low << 6) | 0x3F]
    return draws


@pytest.mark.parametrize("mean", MEANS)
def test_ambiguous_top_byte_is_settled_exactly(mean):
    draws = boundary_draws(mean)
    table = _gap_table(mean)
    assert table[draws[2] >> 24] == _AMBIGUOUS   # the `limit` draw
    words = draws * 50 + mt_words(3, 20000)
    for chunk in (3, 8, CHUNK_WORDS):
        single, bulk, expected = gaps_both_ways(words, mean, 120, chunk)
        assert single == bulk == expected, chunk
    # at, below: success; above: fail
    oracle = Scripted(draws)
    assert [oracle.random() <= 1.0 / mean for _ in range(4)] == \
        [True, True, False, False]


def test_exactly_one_ambiguous_byte_per_mean():
    for mean in MEANS:
        assert _gap_table(mean).count(_AMBIGUOUS) == 1


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 24, 25])
def test_refill_boundaries(chunk):
    # Draws and gaps straddle every small chunk size, odd and even.
    seed = 11
    stream = WordStream(random.Random(seed))
    oracle = random.Random(seed)
    ops = [("gap", 12.0), ("random",), ("randint", 10), ("gaps", 3.0, 7),
           ("choice", 3), ("randint", 2 ** 32), ("gap", 2.0)] * 40
    with chunk_words(chunk):
        for op in ops:
            assert apply(stream, op) == apply(oracle, op), op


def test_degenerate_mean_consumes_nothing():
    stream = WordStream(random.Random(4))
    assert [stream.gap(1.0) for _ in range(5)] == [1] * 5
    assert list(stream.gaps(0.5, 3)) == [1, 1, 1]
    assert stream.random() == random.Random(4).random()


def test_empty_choice_and_range_raise_like_random():
    stream = WordStream(random.Random(1))
    with pytest.raises(IndexError):
        stream.choice([])
    with pytest.raises(ValueError):
        stream.randint(3, 2)


# -- the builder: drawn, explicit and bulk gaps among a generator's draws --

def reference_trace(seed: int, mean: float, script):
    """What a builder must produce: every gap drawn at append time."""
    rng = random.Random(seed)
    rows = []
    for op, *args in script:
        if op == "random":
            rows.append(("value", rng.random()))
        elif op == "compute":
            rows.append((0, private_base(0), args[0]))
        else:
            flag, address, gap = args
            if op == "extend":
                gap = -1
            rows.append((flag, address,
                         gap if gap >= 0 else geometric(rng, mean)))
    return rows


def built_trace(seed: int, mean: float, script):
    builder = TraceBuilder(0, WordStream(random.Random(seed)), mean)
    rows = []
    for op, *args in script:
        if op == "random":
            rows.append(("value", builder.rng.random()))
        elif op == "compute":
            builder.compute(args[0])
            rows.append(None)
        elif op == "extend":
            flag, address, _ = args
            builder.extend(bytes([flag]), [address])
            rows.append(None)
        else:
            flag, address, gap = args
            (builder.write if flag else builder.read)(address, gap=gap)
            rows.append(None)
    trace = builder.build()
    accesses = iter(trace)
    filled = []
    for row in rows:
        if row is None:
            access = next(accesses)
            filled.append((int(access.is_write), access.address,
                           access.gap))
        else:
            filled.append(row)
    return filled


ACCESS = st.tuples(st.sampled_from(("access", "extend")),
                   st.integers(0, 1), st.integers(0, 1 << 20),
                   st.sampled_from((-1, -1, -1, -7, 0, 5)))
SCRIPT_STEP = st.one_of(ACCESS,
                        st.tuples(st.just("compute"),
                                  st.integers(0, 500)),
                        st.tuples(st.just("random")))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       mean=st.sampled_from(MEANS),
       script=st.lists(SCRIPT_STEP, max_size=80))
def test_builder_equals_drawing_at_append_time(seed, mean, script):
    assert built_trace(seed, mean, script) == \
        reference_trace(seed, mean, script)


def test_builders_fork_the_generator_seed():
    builders = make_builders(3, seed=42)
    for cpu, builder in enumerate(builders):
        expected = random.Random(DeterministicRng(42).fork(cpu + 1).seed)
        assert builder.rng.random() == expected.random()


def test_extend_needs_one_flag_per_address():
    builder = make_builders(1, seed=1)[0]
    with pytest.raises(TraceError, match="one flag per address"):
        builder.extend(b"\x00\x01", [0x100])
