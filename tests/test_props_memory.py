"""Property-based tests of the memory-hierarchy models."""

from hypothesis import event, given, settings, strategies as st

from repro.core.tags import Zone
from repro.core.word import make_int
from repro.memory.cache import CodeCache, DataCache
from repro.memory.main_memory import MainMemory
from repro.memory.mmu import MMU
from repro.memory.store import DataStore

STACK_ZONES = [Zone.GLOBAL, Zone.LOCAL, Zone.CONTROL, Zone.TRAIL]

# Access sequences over a small address window per zone.
accesses = st.lists(
    st.tuples(st.sampled_from(STACK_ZONES),
              st.integers(min_value=0, max_value=5000),
              st.booleans()),
    max_size=200)

ZONE_BASE = {Zone.GLOBAL: 0x40000, Zone.LOCAL: 0x180000,
             Zone.CONTROL: 0x240000, Zone.TRAIL: 0x300000}


def _working_sets(sequence):
    """Zone -> the distinct addresses that zone's accesses touch."""
    sets = {}
    for zone, offset, _ in sequence:
        sets.setdefault(zone, set()).add(ZONE_BASE[zone] + offset)
    return sets


class TestDataCacheProperties:
    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_counters_are_consistent(self, sequence):
        cache = DataCache(MainMemory())
        for zone, offset, is_write in sequence:
            cache.access(ZONE_BASE[zone] + offset, zone, is_write)
        stats = cache.stats
        assert stats.hits + stats.misses == stats.accesses
        assert 0.0 <= stats.hit_ratio <= 1.0
        assert stats.write_backs <= stats.misses

    @given(accesses)
    @settings(max_examples=60, deadline=None)
    def test_access_makes_resident(self, sequence):
        cache = DataCache(MainMemory())
        for zone, offset, is_write in sequence:
            address = ZONE_BASE[zone] + offset
            cache.access(address, zone, is_write)
            assert cache.resident(address, zone)

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_repeat_of_last_access_always_hits(self, sequence):
        cache = DataCache(MainMemory())
        for zone, offset, is_write in sequence:
            address = ZONE_BASE[zone] + offset
            cache.access(address, zone, is_write)
            assert cache.access(address, zone, False) == 0

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_sectioned_never_misses_more_than_plain(self, sequence):
        """What sectioning guarantees (section 3.2.4): when every
        zone's working set fits in its 1K section — no two distinct
        addresses of one zone share a line — the sectioned cache takes
        only compulsory misses, one per distinct address, and so never
        misses more than the plain cache on the same traffic.  Traffic
        that does not fit can lose to plain; see
        test_sectioning_loses_within_one_zone."""
        sectioned = DataCache(MainMemory(), sectioned=True)
        plain = DataCache(MainMemory(), sectioned=False)
        for zone, offset, is_write in sequence:
            address = ZONE_BASE[zone] + offset
            sectioned.access(address, zone, is_write)
            plain.access(address, zone, is_write)
        working_sets = _working_sets(sequence)
        fits = all(len({a & 1023 for a in addresses}) == len(addresses)
                   for addresses in working_sets.values())
        event(f"working sets fit their sections: {fits}")
        if fits:
            distinct = sum(len(a) for a in working_sets.values())
            assert sectioned.stats.misses == distinct
            assert sectioned.stats.misses <= plain.stats.misses

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_sections_isolate_zones(self, sequence):
        """Stacks never evict each other: the sectioned cache misses
        exactly as often as one 1K direct-mapped cache per zone, each
        fed only its own zone's traffic, whatever the interleaving."""
        sectioned = DataCache(MainMemory(), sectioned=True)
        tags = {}       # (zone, line) -> tag: one 1K cache per zone
        misses = 0
        for zone, offset, is_write in sequence:
            address = ZONE_BASE[zone] + offset
            sectioned.access(address, zone, is_write)
            line = (zone, address & 1023)
            if tags.get(line) != address >> 10:
                tags[line] = address >> 10
                misses += 1
        assert sectioned.stats.misses == misses

    def test_sectioning_loses_within_one_zone(self):
        """The pinned counterexample to "sectioned never misses more":
        GLOBAL offsets 2224 and 176 are 2048 words apart, so they share
        a line of the 1K GLOBAL section but not of the 8K plain cache."""
        sectioned = DataCache(MainMemory(), sectioned=True)
        plain = DataCache(MainMemory(), sectioned=False)
        for offset in (2224, 176, 2224):
            address = ZONE_BASE[Zone.GLOBAL] + offset
            sectioned.access(address, Zone.GLOBAL, False)
            plain.access(address, Zone.GLOBAL, False)
        assert sectioned.stats.misses == 3
        assert plain.stats.misses == 2

    @given(accesses)
    @settings(max_examples=40, deadline=None)
    def test_write_back_conservation(self, sequence):
        """Every memory write from a copy-back cache corresponds to one
        dirty eviction (flush at the end accounts the remainder)."""
        memory = MainMemory()
        cache = DataCache(memory)
        for zone, offset, is_write in sequence:
            cache.access(ZONE_BASE[zone] + offset, zone, is_write)
        cache.flush()
        writes_issued = sum(1 for z, o, w in sequence if w)
        # Each written line is flushed at most once per period it was
        # dirty; never more memory writes than cache write accesses.
        assert memory.writes <= writes_issued


class TestCodeCacheProperties:
    @given(st.lists(st.integers(min_value=0, max_value=40000),
                    max_size=150))
    @settings(max_examples=50, deadline=None)
    def test_fetch_then_refetch_hits(self, addresses):
        cache = CodeCache(MainMemory())
        for address in addresses:
            cache.fetch(address)
            assert cache.fetch(address) == 0


class TestStoreProperties:
    @given(st.dictionaries(st.integers(min_value=0, max_value=100000),
                           st.integers(-1000, 1000), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_store_is_a_map(self, contents):
        store = DataStore()
        for address, value in contents.items():
            store.write(address, make_int(value))
        for address, value in contents.items():
            assert store.read(address) == make_int(value)


class TestMMUProperties:
    @given(st.lists(st.integers(min_value=0, max_value=(1 << 28) - 1),
                    max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_translation_is_a_bijection_per_page(self, addresses):
        mmu = MMU()
        seen = {}
        for address in addresses:
            physical, _ = mmu.translate(address, is_write=False)
            page = address >> 14
            frame = physical >> 14
            # Same virtual page always maps to the same frame...
            assert seen.setdefault(page, frame) == frame
            # ...and the in-page offset is preserved.
            assert physical & 0x3FFF == address & 0x3FFF
        # Distinct pages get distinct frames.
        frames = list(seen.values())
        assert len(frames) == len(set(frames))
