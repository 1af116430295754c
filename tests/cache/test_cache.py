"""Tests for the conventional write-back, write-allocate cache."""

import pytest

from repro.cache.cache import Cache
from repro.cache.replacement import ReplacementPolicy
from repro.common.config import CacheGeometry
from repro.common.units import KIB


@pytest.fixture
def small_cache(small_geometry) -> Cache:
    return Cache(small_geometry, name="test-l1")


class TestBasicBehaviour:
    def test_first_access_misses_second_hits(self, small_cache):
        assert not small_cache.access(0x1000).hit
        assert small_cache.access(0x1000).hit

    def test_accesses_within_a_block_share_one_fill(self, small_cache):
        small_cache.access(0x1000)
        assert small_cache.access(0x101C).hit
        assert small_cache.stats.misses == 1

    def test_write_allocate_on_store_miss(self, small_cache):
        result = small_cache.access(0x2000, is_write=True)
        assert not result.hit
        assert result.filled
        assert small_cache.access(0x2000).hit

    def test_miss_ratio_statistic(self, small_cache):
        small_cache.access(0x0)
        small_cache.access(0x0)
        small_cache.access(0x4000)
        assert small_cache.stats.accesses == 3
        assert small_cache.stats.miss_ratio == pytest.approx(2 / 3)

    def test_probe_does_not_affect_stats(self, small_cache):
        small_cache.access(0x0)
        assert small_cache.probe(0x0)
        assert not small_cache.probe(0x8000)
        assert small_cache.stats.accesses == 1


class TestWritebacks:
    def test_dirty_victim_reports_writeback_address(self, small_geometry):
        cache = Cache(small_geometry)
        sets = small_geometry.num_sets
        stride = sets * small_geometry.block_bytes
        # Fill one set with dirty blocks, then overflow it.
        cache.access(0x0, is_write=True)
        cache.access(stride, is_write=True)
        result = cache.access(2 * stride, is_write=False)
        assert not result.hit
        assert result.writeback_address == 0x0
        assert cache.stats.writebacks == 1

    def test_clean_victim_needs_no_writeback(self, small_geometry):
        cache = Cache(small_geometry)
        stride = small_geometry.num_sets * small_geometry.block_bytes
        cache.access(0x0)
        cache.access(stride)
        result = cache.access(2 * stride)
        assert result.writeback_address is None

    def test_invalidate_dirty_block_returns_address(self, small_cache):
        small_cache.access(0x3000, is_write=True)
        assert small_cache.invalidate(0x3000) == 0x3000
        assert small_cache.invalidate(0x3000) is None

    def test_invalidate_clean_block_returns_none(self, small_cache):
        small_cache.access(0x3000)
        assert small_cache.invalidate(0x3000) is None
        assert not small_cache.probe(0x3000)

    def test_flush_all_returns_only_dirty_addresses(self, small_cache):
        # Three blocks in three different sets: two dirty, one clean.
        small_cache.access(0x0, is_write=True)
        small_cache.access(0x40)
        small_cache.access(0x80, is_write=True)
        dirty = sorted(small_cache.flush_all())
        assert dirty == [0x0, 0x80]
        assert small_cache.resident_blocks() == 0


class TestCapacityAndConflicts:
    def test_working_set_larger_than_capacity_misses(self):
        geometry = CacheGeometry(2 * KIB, 2, block_bytes=32, subarray_bytes=KIB)
        cache = Cache(geometry)
        # Cycle a 4 KiB working set through a 2 KiB cache twice: the second
        # pass cannot hit because LRU evicted every block before reuse.
        addresses = [index * 32 for index in range(128)]
        for _ in range(2):
            for address in addresses:
                cache.access(address)
        assert cache.stats.hits == 0

    def test_working_set_that_fits_hits_after_warmup(self, small_geometry):
        cache = Cache(small_geometry)
        addresses = [index * 32 for index in range(64)]  # 2 KiB in a 4 KiB cache
        for address in addresses:
            cache.access(address)
        for address in addresses:
            assert cache.access(address).hit

    def test_conflict_group_thrashes_direct_mapped_but_not_two_way(self):
        direct = Cache(CacheGeometry(4 * KIB, 1, subarray_bytes=KIB))
        two_way = Cache(CacheGeometry(4 * KIB, 2, subarray_bytes=KIB))
        conflicting = [0x0, 32 * KIB]  # same index in both caches
        for _ in range(20):
            for address in conflicting:
                direct.access(address)
                two_way.access(address)
        assert two_way.stats.misses == 2  # compulsory only
        assert direct.stats.misses == 40 + 2 - 2  # thrashing

    def test_higher_associativity_never_increases_conflict_misses(self):
        addresses = [i * 32 * KIB for i in range(3)]
        misses = {}
        for associativity in (1, 2, 4):
            cache = Cache(CacheGeometry(4 * KIB, associativity, subarray_bytes=KIB))
            for _ in range(10):
                for address in addresses:
                    cache.access(address)
            misses[associativity] = cache.stats.misses
        assert misses[4] <= misses[2] <= misses[1]

    def test_replacement_policy_is_configurable(self, small_geometry):
        cache = Cache(small_geometry, replacement=ReplacementPolicy.FIFO)
        assert cache.replacement is ReplacementPolicy.FIFO

    def test_reset_stats_keeps_contents(self, small_cache):
        small_cache.access(0x0)
        small_cache.reset_stats()
        assert small_cache.stats.accesses == 0
        assert small_cache.access(0x0).hit


class TestLazySetStorage:
    """Set storage is built on first use; an untouched cache holds none."""

    @staticmethod
    def built(cache) -> bool:
        return cache._set_blocks is not None

    def test_untouched_cache_allocates_no_sets(self, small_cache):
        assert not self.built(small_cache)
        assert small_cache.stats.accesses == 0
        repr(small_cache)
        assert not self.built(small_cache)

    @pytest.mark.parametrize("operation", ["probe", "invalidate", "flush_all", "resident_blocks"])
    def test_untouched_cache_behaves_as_empty(self, small_geometry, operation):
        untouched = Cache(small_geometry, name="test-l1")
        emptied = Cache(small_geometry, name="test-l1")
        emptied.access(0x40, is_write=True)
        emptied.flush_all()
        emptied.reset_stats()
        calls = {
            "probe": lambda cache: cache.probe(0x40),
            "invalidate": lambda cache: cache.invalidate(0x40),
            "flush_all": lambda cache: cache.flush_all(),
            "resident_blocks": lambda cache: cache.resident_blocks(),
        }
        assert calls[operation](untouched) == calls[operation](emptied)
        assert untouched.stats.as_dict() == emptied.stats.as_dict()
        # The untouched cache still serves accesses as a cold cache.
        assert not untouched.access(0x40).hit
        assert untouched.access(0x40).hit

    def test_kernel_state_builds_the_storage(self, small_geometry):
        cache = Cache(small_geometry)
        set_blocks = cache._kernel_state()[1]
        assert self.built(cache)
        assert len(set_blocks) == small_geometry.num_sets
        assert all(blocks == {} for blocks in set_blocks)
        # The kernel and the hoisted state share the same dicts.
        cache.access_packed(0x80, True)
        assert sum(len(blocks) for blocks in set_blocks) == 1
