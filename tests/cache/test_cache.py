"""Set-associative cache tag store tests."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from repro.cache.mesi import MesiState
from repro.config import CacheConfig
from repro.errors import CoherenceError


def small_cache(sets=4, ways=2, line=64):
    return SetAssociativeCache(CacheConfig(
        size_bytes=sets * ways * line, associativity=ways,
        line_bytes=line, hit_latency=2))


def test_line_alignment():
    cache = small_cache()
    assert cache.line_address(0x1234) == 0x1200


def test_miss_then_hit():
    cache = small_cache()
    assert cache.lookup(0x1000) is None
    cache.insert(0x1000, MesiState.EXCLUSIVE)
    line = cache.lookup(0x1010)  # same line, different byte
    assert line is not None
    assert line.state is MesiState.EXCLUSIVE


def test_lru_eviction_order():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0x000, MesiState.SHARED)
    cache.insert(0x040, MesiState.SHARED)
    cache.lookup(0x000)  # touch A -> B becomes LRU
    victim = cache.insert(0x080, MesiState.SHARED)
    assert victim == (0x040, MesiState.SHARED)
    assert cache.contains(0x000)
    assert not cache.contains(0x040)


def test_insert_prefers_invalid_ways():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0x000, MesiState.MODIFIED)
    cache.insert(0x040, MesiState.SHARED)
    cache.invalidate(0x000)
    victim = cache.insert(0x080, MesiState.SHARED)
    assert victim is None  # the invalid way absorbed the fill
    assert cache.contains(0x040)


def test_insert_prefers_an_invalid_way_over_the_lru_one():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0x000, MesiState.SHARED)   # LRU, valid
    cache.insert(0x040, MesiState.MODIFIED)
    cache.invalidate(0x040)                 # MRU, invalid
    assert cache.insert(0x080, MesiState.SHARED) is None
    assert cache.contains(0x000)


def test_dirty_victim_reported():
    cache = small_cache(sets=1, ways=1)
    cache.insert(0x000, MesiState.MODIFIED)
    victim = cache.insert(0x040, MesiState.SHARED)
    assert victim == (0x000, MesiState.MODIFIED)


def test_reinsert_updates_state_without_eviction():
    cache = small_cache(sets=1, ways=1)
    cache.insert(0x000, MesiState.SHARED)
    victim = cache.insert(0x000, MesiState.MODIFIED)
    assert victim is None
    assert cache.state_of(0x000) is MesiState.MODIFIED


def test_invalidate():
    cache = small_cache()
    cache.insert(0x100, MesiState.SHARED)
    assert cache.invalidate(0x100)
    assert not cache.invalidate(0x100)
    assert cache.state_of(0x100) is MesiState.INVALID


def test_set_state_on_missing_line():
    cache = small_cache()
    with pytest.raises(CoherenceError):
        cache.set_state(0x100, MesiState.SHARED)
    cache.set_state(0x100, MesiState.INVALID)  # no-op is allowed


def test_cannot_insert_invalid():
    cache = small_cache()
    with pytest.raises(CoherenceError):
        cache.insert(0x100, MesiState.INVALID)


def test_snoop_lookup_does_not_perturb_lru():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0x000, MesiState.SHARED)
    cache.insert(0x040, MesiState.SHARED)
    cache.lookup(0x000, touch=False)  # snoop: must NOT refresh A
    victim = cache.insert(0x080, MesiState.SHARED)
    assert victim == (0x000, MesiState.SHARED)


def test_iter_lines_roundtrip():
    cache = small_cache()
    addresses = {0x000, 0x040, 0x400, 0x440}
    for address in addresses:
        cache.insert(address, MesiState.SHARED)
    assert {addr for addr, _ in cache.iter_lines()} == addresses
    assert cache.valid_line_count() == 4


def test_flush():
    cache = small_cache()
    cache.insert(0x000, MesiState.MODIFIED)
    cache.flush()
    assert cache.valid_line_count() == 0


def test_sets_never_exceed_associativity():
    cache = small_cache(sets=2, ways=2)
    for i in range(32):
        cache.insert(i * 64, MesiState.SHARED)
    assert cache.valid_line_count() <= 4


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=100))
def test_property_capacity_invariant(line_indices):
    """No matter the access pattern, ways per set <= associativity and
    the most recently inserted line is always resident."""
    cache = small_cache(sets=4, ways=2)
    for index in line_indices:
        cache.insert(index * 64, MesiState.SHARED)
        assert cache.contains(index * 64)
    assert cache.valid_line_count() <= 8


class _TagLine:
    __slots__ = ("tag", "state", "last_used")

    def __init__(self, tag, state, last_used):
        self.tag = tag
        self.state = state
        self.last_used = last_used


class _ListScanCache:
    """The tag store before the block index, copied as the oracle:
    per-set way lists scanned by tag, the LRU victim removed from its
    list and a fresh line appended."""

    def __init__(self, config):
        self._offset_bits = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._sets = {}
        self._tick = 0

    def _index_and_tag(self, address):
        block = address >> self._offset_bits
        return block % self._num_sets, block // self._num_sets

    def lookup(self, address, touch=True):
        index, tag = self._index_and_tag(address)
        for line in self._sets.get(index, ()):
            if line.tag == tag and line.state is not MesiState.INVALID:
                if touch:
                    self._tick += 1
                    line.last_used = self._tick
                return line
        return None

    def insert(self, address, state):
        if not state.is_valid:
            raise CoherenceError("cannot insert a line in state I")
        index, tag = self._index_and_tag(address)
        ways = self._sets.setdefault(index, [])
        tick = self._tick + 1
        self._tick = tick
        for line in ways:
            if line.tag == tag:
                line.state = state
                line.last_used = tick
                return None
        victim = None
        if len(ways) >= self._assoc:
            evict = ways[0]
            evict_key = (evict.state is not MesiState.INVALID,
                         evict.last_used)
            for line in ways:
                key = (line.state is not MesiState.INVALID,
                       line.last_used)
                if key < evict_key:
                    evict = line
                    evict_key = key
            if evict.state.is_valid:
                victim_block = evict.tag * self._num_sets + index
                victim = (victim_block << self._offset_bits, evict.state)
            ways.remove(evict)
        ways.append(_TagLine(tag, state, tick))
        return victim

    def set_state(self, address, state):
        index, tag = self._index_and_tag(address)
        for line in self._sets.get(index, ()):
            if line.tag == tag:
                line.state = state
                return
        if state.is_valid:
            raise CoherenceError("set_state on non-resident line")

    def invalidate(self, address):
        line = self.lookup(address, touch=False)
        if line is None:
            return False
        line.state = MesiState.INVALID
        return True

    def valid_lines(self):
        return {((line.tag * self._num_sets + index) << self._offset_bits,
                 line.state, line.last_used)
                for index, ways in self._sets.items() for line in ways
                if line.state.is_valid}


_VALID_STATES = [MesiState.MODIFIED, MesiState.OWNED,
                 MesiState.EXCLUSIVE, MesiState.SHARED]


def tag_store_ops(lines):
    """Random ops over ``lines`` distinct line numbers."""
    line = st.integers(0, lines - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("insert"), line, st.sampled_from(_VALID_STATES)),
        st.tuples(st.just("lookup"), line, st.booleans()),
        st.tuples(st.just("invalidate"), line, st.none()),
        st.tuples(st.just("set_state"), line,
                  st.sampled_from(list(MesiState))),
        st.tuples(st.just("pickle"), st.none(), st.none()),
    ), max_size=80)


def assert_index_coherent(cache):
    ways_by_block = {}
    for index, ways in cache._sets.items():
        assert len(ways) <= cache.config.associativity
        for line in ways:
            assert line.block % cache.config.num_sets == index
            ways_by_block[line.block] = line
    assert cache._index == ways_by_block
    assert sum(len(ways) for ways in cache._sets.values()) \
        == len(cache._index)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 4]), st.integers(1, 4), st.integers(0, 63),
       st.data())
def test_property_index_matches_list_scan_oracle(ways, sets, byte, data):
    """Random insert/lookup/invalidate/set_state sequences (with
    pickle round-trips, which rebuild the way lists from the index)
    over one more line per set than fits, so evictions, revivals and
    invalid-first victims all occur: same victims, same lookups, same
    resident set as the list-scan tag store, and the block index
    stays the exact inverse of the way lists after every op."""
    ops = data.draw(tag_store_ops(sets * (ways + 1)))
    cache = small_cache(sets=sets, ways=ways)
    oracle = _ListScanCache(cache.config)
    for op, line_number, arg in ops:
        address = None if line_number is None else line_number * 64 + byte
        if op == "insert":
            assert cache.insert(address, arg) \
                == oracle.insert(address, arg)
        elif op == "lookup":
            got = cache.lookup(address, touch=arg)
            want = oracle.lookup(address, touch=arg)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.state, got.last_used) \
                    == (want.state, want.last_used)
        elif op == "invalidate":
            assert cache.invalidate(address) == oracle.invalidate(address)
        elif op == "set_state":
            try:
                oracle.set_state(address, arg)
            except CoherenceError:
                with pytest.raises(CoherenceError):
                    cache.set_state(address, arg)
            else:
                cache.set_state(address, arg)
        else:
            cache = pickle.loads(pickle.dumps(cache))
            assert "_sets" not in cache.__getstate__()
        assert_index_coherent(cache)
        assert {(addr, line.state, line.last_used)
                for addr, line in cache.iter_lines()} \
            == oracle.valid_lines()
