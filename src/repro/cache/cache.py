"""Set-associative, write-back cache tag store with LRU replacement.

This is a *tag* model: the simulator tracks which lines are resident
and in what MESI state, not the data bytes (the functional SENSS layer
carries real bytes separately). Each instance models one cache level of
one processor. Addresses are byte addresses; lookups are by line.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..config import CacheConfig
from ..errors import CoherenceError
from .mesi import MesiState

_INVALID = MesiState.INVALID


class CacheLine:
    """Residency record for one cache way (``block`` = line address
    >> offset bits)."""

    __slots__ = ("block", "state", "last_used")

    def __init__(self, block: int, state: MesiState, last_used: int):
        self.block = block
        self.state = state
        self.last_used = last_used

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheLine(block={self.block:#x}, {self.state})"


class SetAssociativeCache:
    """LRU set-associative cache over line-aligned addresses.

    Two views of the same ways: ``_index`` maps each block to its
    way (INVALID ways included, so a refill of the same block revives
    its way instead of taking another), and ``_sets`` groups the ways
    by set for the replacement decision. Every probe is one
    ``_index`` lookup plus a state identity test; only a fill into a
    full set looks at ``_sets``. The index is the persisted view —
    the protocol's snoop lists alias it — and ``_sets`` is rebuilt
    from it on unpickling (order within a set is unobservable: ticks
    are unique per cache, so the LRU key never ties).
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        # block -> CacheLine for every way in every set
        self._index: Dict[int, CacheLine] = {}
        # set index -> list of CacheLine (at most `associativity` long)
        self._sets: Dict[int, List[CacheLine]] = {}
        self._tick = 0

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_sets"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._sets = {}
        for block, line in self._index.items():
            self._sets.setdefault(block % self._num_sets, []).append(line)

    # -- address arithmetic --------------------------------------------

    def line_address(self, address: int) -> int:
        """Align a byte address down to its line address."""
        return address >> self._offset_bits << self._offset_bits

    # -- lookup ----------------------------------------------------------

    def lookup(self, address: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line covering ``address``, or None.

        Lines in state INVALID are treated as absent. ``touch`` updates
        LRU recency (snoops pass touch=False so remote traffic does not
        perturb the local replacement order).
        """
        line = self._index.get(address >> self._offset_bits)
        if line is None or line.state is _INVALID:
            return None
        if touch:
            self._tick += 1
            line.last_used = self._tick
        return line

    def contains(self, address: int) -> bool:
        return self.lookup(address, touch=False) is not None

    def state_of(self, address: int) -> MesiState:
        line = self.lookup(address, touch=False)
        return line.state if line else MesiState.INVALID

    # -- mutation ---------------------------------------------------------

    def insert(self, address: int,
               state: MesiState) -> Optional[Tuple[int, MesiState]]:
        """Install a line; returns (victim_line_address, victim_state) if
        a valid line had to be evicted, else None.

        The caller is responsible for issuing the write-back bus
        transaction when the victim is MODIFIED.
        """
        if state is _INVALID:
            raise CoherenceError("cannot insert a line in state I")
        block = address >> self._offset_bits
        tick = self._tick + 1
        self._tick = tick
        index = self._index
        line = index.get(block)
        if line is not None:
            # Same block already holds a way (possibly INVALID): reuse it.
            line.state = state
            line.last_used = tick
            return None
        sets = self._sets
        ways = sets.get(block % self._num_sets)
        if ways is None:
            ways = sets[block % self._num_sets] = []
        if len(ways) < self._assoc:
            line = CacheLine(block, state, tick)
            ways.append(line)
            index[block] = line
            return None
        # Full set: prefer replacing an INVALID way; else evict true
        # LRU. Manual scan (first-wins on ties, like min()) — the
        # key-function form costs a lambda call per way per miss.
        evict = ways[0]
        evict_key = (evict.state is not _INVALID, evict.last_used)
        for line in ways:
            key = (line.state is not _INVALID, line.last_used)
            if key < evict_key:
                evict = line
                evict_key = key
        victim: Optional[Tuple[int, MesiState]] = None
        if evict_key[0]:
            victim = (evict.block << self._offset_bits, evict.state)
        # Recycle the victim's way in place for the incoming block.
        del index[evict.block]
        evict.block = block
        evict.state = state
        evict.last_used = tick
        index[block] = evict
        return victim

    def set_state(self, address: int, state: MesiState) -> None:
        """Change the state of a resident line (I removes it logically)."""
        line = self._index.get(address >> self._offset_bits)
        if line is not None:
            line.state = state
        elif state is not _INVALID:
            raise CoherenceError(
                f"set_state on non-resident line {address:#x}")

    def invalidate(self, address: int) -> bool:
        """Invalidate the line covering ``address``; True if it was valid."""
        line = self.lookup(address, touch=False)
        if line is None:
            return False
        line.state = MesiState.INVALID
        return True

    def iter_lines(self) -> Iterator[Tuple[int, CacheLine]]:
        """Yield (line_address, line) for all valid resident lines."""
        offset_bits = self._offset_bits
        for block, line in self._index.items():
            if line.state is not _INVALID:
                yield block << offset_bits, line

    def valid_line_count(self) -> int:
        return sum(1 for _ in self.iter_lines())

    def flush(self) -> None:
        # Cleared in place: the coherence protocol aliases ``_index``.
        self._index.clear()
        self._sets.clear()
        self._tick = 0
