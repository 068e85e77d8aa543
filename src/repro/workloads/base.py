"""Shared plumbing for workload generators.

Address-space layout: one shared region (what SPLASH-2 programs
allocate with G_MALLOC) and one private region per CPU, spaced far
apart so they never share cache lines. Each CPU's builder draws its
gaps and random addresses from its own :class:`WordStream` over a
forked :class:`DeterministicRng` seed, so a (name, num_cpus, scale,
seed) tuple always produces the identical workload.
"""

from __future__ import annotations

import math
import random
import sys
from array import array
from itertools import repeat
from operator import add
from typing import List, Optional, Sequence, TypeVar

from ..errors import TraceError
from ..sim.rng import DeterministicRng
from ..smp.trace import ColumnarTrace, Workload

T = TypeVar("T")

SHARED_BASE = 0x1000_0000
PRIVATE_BASE = 0x8000_0000
PRIVATE_STRIDE = 1 << 24  # 16 MB per CPU
WORD_BYTES = 8

# L2-capacity-sensitive shared region: blocks spaced at 256 KB stride
# all alias to a single set of the paper's 1 MB 4-way L2 (4096 sets x
# 64 B) but spread over four sets of the 4 MB L2. Workloads thread a
# small rotating working set through these blocks, reproducing the
# paper's observation that a LARGER L2 retains shared lines longer and
# therefore sees MORE cache-to-cache transfers (Figures 6 and 8).
CONFLICT_BASE = SHARED_BASE + (0x40 << 20)
CONFLICT_STRIDE = 256 << 10


def conflict_block(index: int) -> int:
    """Line-aligned address of the index-th aliasing block."""
    return CONFLICT_BASE + index * CONFLICT_STRIDE


def private_base(cpu_id: int) -> int:
    return PRIVATE_BASE + cpu_id * PRIVATE_STRIDE


def interleave(*columns: Sequence[int]) -> List[int]:
    """Round-robin merge of equal-length address columns, for
    :meth:`TraceBuilder.extend`."""
    merged = [0] * (len(columns) * len(columns[0]))
    for offset, column in enumerate(columns):
        merged[offset::len(columns)] = column
    return merged


# -- the word stream -------------------------------------------------------

#: MT19937 words fetched per refill (16 KB): large enough that the
#: per-refill cost vanishes, small enough to keep eight CPUs' buffers
#: well under a megabyte.
CHUNK_WORDS = 4096

_TWO_POW_26 = 67108864.0
_INV_TWO_POW_53 = 1.0 / 9007199254740992.0
# Offset of a native uint32's most significant byte.
_WORD_TOP = 3 if sys.byteorder == "little" else 0
_SUCCESS, _AMBIGUOUS = 1, 2


def _draw(high: int, low: int) -> float:
    """``random.random()`` from its two MT19937 words, as CPython does."""
    return ((high >> 5) * _TWO_POW_26 + (low >> 6)) * _INV_TWO_POW_53


def _gap_table(mean: float) -> bytes:
    """Classify a draw by the top byte of its first word.

    A draw ``x`` succeeds when ``x <= 1/mean``. The top byte ``h`` pins
    ``x`` to ``[h, h + 1) / 256``: the draw surely succeeds, surely
    fails, or — for the one byte whose interval straddles ``1/mean`` —
    needs both words to decide.
    """
    probability = 1.0 / mean
    table = bytearray(256)
    for high in range(256):
        if _draw(((high + 1) << 24) - 1, 0xFFFFFFFF) <= probability:
            table[high] = _SUCCESS
        elif _draw(high << 24, 0) <= probability:
            table[high] = _AMBIGUOUS
    return bytes(table)


class WordStream:
    """``random.Random`` draws, replayed over MT19937 words fetched in bulk.

    The stream pulls :data:`CHUNK_WORDS` words at a time with one
    ``getrandbits`` call and replays CPython's exact consumption of
    them, so every value equals what the same calls on the source
    would return:

    - :meth:`random` takes two words, ``((a >> 5) * 2**26 + (b >> 6))
      / 2**53``;
    - :meth:`randint` and :meth:`choice` take ``_randbelow(n)``:
      ``getrandbits(n.bit_length())`` with rejection, one word per try
      for ``n <= 2**32``;
    - :meth:`gap` is the trace generators' geometric compute gap:
      ``random()`` draws until the first ``<= 1/mean``, at most
      ``ceil(64 * mean)`` of them, and the gap is the number drawn.

    Gaps need no per-draw Python. Each first word's top byte is
    classified (success, fail, ambiguous) with ``bytes.translate``
    over the buffer, once per mean and word parity; the rare ambiguous
    byte (1 in 256) is settled exactly from both words; then
    ``bytes.find`` (one gap) or ``bytes.split`` (many) locates the
    successes.

    This mirrors CPython's ``random`` internals, unchanged from 3.9 to
    3.12; ``tests/workloads/test_wordstream.py`` checks it value by
    value against ``random.Random`` and fails if they ever change.
    """

    def __init__(self, source: random.Random):
        self._source = source
        self._bytes = b""
        self._words = memoryview(self._bytes).cast("I")
        self._size = 0
        self._pos = 0
        # The mean gaps are classified for (a builder uses one), its
        # class table and cap, and the class string of this buffer per
        # word parity.
        self._mean: Optional[float] = None
        self._table = b""
        self._cap = 0
        self._classes: List[Optional[bytes]] = [None, None]

    def _refill(self) -> None:
        """Keep the unconsumed words and append a fresh chunk."""
        count = CHUNK_WORDS
        fresh = self._source.getrandbits(32 * count).to_bytes(
            4 * count, "little")
        if sys.byteorder != "little":
            native = array("I", fresh)
            native.byteswap()
            fresh = native.tobytes()
        self._bytes = self._bytes[4 * self._pos:] + fresh
        self._words = memoryview(self._bytes).cast("I")
        self._size = len(self._words)
        self._pos = 0
        self._classes = [None, None]

    def _use_mean(self, mean: float) -> None:
        self._mean = mean
        self._table = _gap_table(mean)
        self._cap = math.ceil(64 * mean)
        self._classes = [None, None]

    def _classify(self, parity: int) -> bytes:
        """One byte per draw whose first word has ``parity``: 1 where
        the draw ends a gap of the current mean, else 0."""
        mean = self._mean
        count = (self._size - parity) // 2
        first = 4 * parity + _WORD_TOP
        classes = self._bytes[first:first + 8 * count:8].translate(
            self._table)
        index = classes.find(_AMBIGUOUS)
        if index >= 0:
            settled = bytearray(classes)
            words = self._words
            probability = 1.0 / mean
            while index >= 0:
                word = parity + 2 * index
                settled[index] = (_draw(words[word], words[word + 1])
                                  <= probability)
                index = classes.find(_AMBIGUOUS, index + 1)
            classes = bytes(settled)
        self._classes[parity] = classes
        return classes

    def getrandbits(self, bits: int) -> int:
        value = 0
        for shift in range(0, bits, 32):
            if self._pos >= self._size:
                self._refill()
            word = self._words[self._pos]
            self._pos += 1
            if bits - shift < 32:
                word >>= 32 - (bits - shift)
            value |= word << shift
        return value

    def _randbelow(self, n: int) -> int:
        bits = n.bit_length()
        if bits <= 32:
            # the common case, inlined: one word per try
            shift = 32 - bits
            while True:
                pos = self._pos
                if pos >= self._size:
                    self._refill()
                    pos = 0
                self._pos = pos + 1
                value = self._words[pos] >> shift
                if value < n:
                    return value
        value = self.getrandbits(bits)
        while value >= n:
            value = self.getrandbits(bits)
        return value

    def random(self) -> float:
        while self._pos + 2 > self._size:
            self._refill()
        pos = self._pos
        self._pos = pos + 2
        words = self._words
        return ((words[pos] >> 5) * _TWO_POW_26
                + (words[pos + 1] >> 6)) * _INV_TWO_POW_53

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError(f"empty range for randint({low}, {high})")
        return low + self._randbelow(high - low + 1)

    def choice(self, options: Sequence[T]) -> T:
        if not options:
            raise IndexError("cannot choose from an empty sequence")
        return options[self._randbelow(len(options))]

    def gap(self, mean: float) -> int:
        """One geometric compute gap with the given mean (>= 1)."""
        if mean != self._mean:
            if mean <= 1.0:     # never made current, so always here
                return 1
            self._use_mean(mean)
        cap = self._cap
        while True:
            pos = self._pos
            parity = pos & 1
            classes = self._classes[parity] or self._classify(parity)
            start = pos >> 1
            end = classes.find(_SUCCESS, start)
            if 0 <= end - start < cap:
                self._pos = pos + 2 * (end - start + 1)
                return end - start + 1
            if end >= 0 or len(classes) - start >= cap:
                self._pos = pos + 2 * cap
                return cap
            self._refill()

    def gaps(self, mean: float, count: int) -> array:
        """``count`` successive :meth:`gap` values, as an int64 array."""
        if mean <= 1.0:
            return array("q", [1]) * count
        if mean != self._mean:
            self._use_mean(mean)
        cap = self._cap
        drawn = array("q")
        while count > 0:
            pos = self._pos
            parity = pos & 1
            classes = self._classes[parity] or self._classify(parity)
            # Every complete run of failures ends one gap; the last
            # piece is the unfinished run at the buffer's end (or the
            # rest, once ``count`` gaps are found).
            runs = classes[pos >> 1:].split(b"\x01", count)
            runs.pop()
            fails = list(map(len, runs))
            if fails and max(fails) >= cap:
                fails = fails[:next(index for index, run
                                    in enumerate(fails) if run >= cap)]
            drawn.extend(map(add, fails, repeat(1)))
            count -= len(fails)
            self._pos = pos + 2 * (sum(fails) + len(fails))
            if count > 0:
                # a capped gap, or one that runs past the buffer
                drawn.append(self.gap(mean))
                count -= 1
        return drawn


# -- trace builders --------------------------------------------------------

class TraceBuilder:
    """Accumulates one CPU's accesses with randomized compute gaps.

    Appends go directly into a :class:`ColumnarTrace`'s columns —
    workload generation never allocates per-access tuples. A read or
    write without an explicit gap draws its gap from the stream as it
    is appended, and :meth:`extend` draws a whole row's gaps in one
    call, so gaps and a generator's own draws (through :attr:`rng`)
    share the stream in program order.
    """

    def __init__(self, cpu_id: int, stream: WordStream,
                 mean_gap: float = 3.0):
        self.cpu_id = cpu_id
        self.rng = stream
        self._mean_gap = mean_gap
        self._trace = ColumnarTrace()
        flags, addresses, gaps = self._trace.columns()
        self._append_flag = flags.append
        self._append_address = addresses.append
        self._append_gap = gaps.append

    def __len__(self) -> int:
        return len(self._trace)

    def read(self, address: int, gap: int = -1) -> None:
        self._append_flag(0)
        self._append_address(address)
        self._append_gap(gap if gap >= 0 else self.rng.gap(self._mean_gap))

    def write(self, address: int, gap: int = -1) -> None:
        self._append_flag(1)
        self._append_address(address)
        self._append_gap(gap if gap >= 0 else self.rng.gap(self._mean_gap))

    def extend(self, flags: bytes, addresses: Sequence[int]) -> None:
        """Append one access per address, each with a drawn gap;
        ``flags`` holds 0 (read) or 1 (write) per access."""
        if len(flags) != len(addresses):
            raise TraceError("extend needs one flag per address")
        is_write, column, gaps = self._trace.columns()
        is_write.frombytes(flags)
        column.extend(addresses)
        gaps.extend(self.rng.gaps(self._mean_gap, len(flags)))

    def compute(self, cycles: int) -> None:
        """Model a pure-compute stretch by padding the next access's gap."""
        if cycles < 0:
            raise TraceError("compute stretch must be non-negative")
        self._append_flag(0)
        self._append_address(private_base(self.cpu_id))
        self._append_gap(cycles)

    def build(self) -> ColumnarTrace:
        return self._trace


def assemble(name: str, builders: List[TraceBuilder],
             **metadata) -> Workload:
    return Workload(name, [builder.build() for builder in builders],
                    metadata)


def make_builders(num_cpus: int, seed: int,
                  mean_gap: float = 12.0) -> List[TraceBuilder]:
    if num_cpus < 1:
        raise TraceError("need at least one CPU")
    root = DeterministicRng(seed)
    return [TraceBuilder(cpu,
                         WordStream(random.Random(root.fork(cpu + 1).seed)),
                         mean_gap)
            for cpu in range(num_cpus)]
