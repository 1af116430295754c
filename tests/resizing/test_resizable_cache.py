"""Tests for the resizable cache: access behaviour and Section 2.1 flush rules."""

import pytest

from repro.common.config import CacheGeometry
from repro.common.errors import ResizingError
from repro.common.units import KIB
from repro.resizing.hybrid import HybridSetsAndWays
from repro.resizing.organization import make_config
from repro.resizing.resizable_cache import ResizableCache
from repro.resizing.selective_sets import SelectiveSets
from repro.resizing.selective_ways import SelectiveWays


def _sets_cache(geometry=None) -> ResizableCache:
    geometry = geometry or CacheGeometry(4 * KIB, 2, subarray_bytes=KIB)
    return ResizableCache(geometry, SelectiveSets(geometry), name="l1d")


def _ways_cache(geometry=None) -> ResizableCache:
    geometry = geometry or CacheGeometry(4 * KIB, 4, subarray_bytes=KIB)
    return ResizableCache(geometry, SelectiveWays(geometry), name="l1d")


class TestBasicAccess:
    def test_behaves_like_a_cache_at_full_size(self):
        cache = _sets_cache()
        assert not cache.access(0x1000).hit
        assert cache.access(0x1000).hit
        assert cache.stats.accesses == 2

    def test_starts_at_full_configuration(self):
        cache = _sets_cache()
        assert cache.current_config == cache.organization.full_config
        assert cache.current_capacity_bytes == 4 * KIB
        assert cache.subarray_state.enabled_subarrays == 4

    def test_rejects_mismatched_organization(self):
        geometry = CacheGeometry(4 * KIB, 2, subarray_bytes=KIB)
        other_geometry = CacheGeometry(8 * KIB, 2, subarray_bytes=KIB)
        with pytest.raises(ResizingError):
            ResizableCache(geometry, SelectiveSets(other_geometry))

    def test_rejects_resize_to_unoffered_config(self):
        cache = _sets_cache()
        with pytest.raises(ResizingError):
            cache.resize_to(make_config(8, 8, 32))


class TestSelectiveSetsResizing:
    def test_downsizing_halves_enabled_sets_and_subarrays(self):
        cache = _sets_cache()
        target = cache.organization.config_for_capacity(2 * KIB)
        outcome = cache.resize_to(target)
        assert outcome.changed
        assert cache.num_sets == 32
        assert cache.associativity == 2
        assert cache.subarray_state.enabled_subarrays == 2

    def test_downsizing_flushes_blocks_in_disabled_sets(self):
        cache = _sets_cache()
        # Fill every set with one clean block.
        for index in range(64):
            cache.access(index * 32)
        outcome = cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        # Half of the sets are disabled, and their blocks must leave the cache.
        assert outcome.discarded_blocks == 32
        assert cache.resident_blocks() == 32

    def test_downsizing_writes_back_dirty_blocks_from_disabled_sets(self):
        cache = _sets_cache()
        for index in range(64):
            cache.access(index * 32, is_write=True)
        outcome = cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        assert len(outcome.writeback_addresses) == 32
        assert all(address >= 32 * 32 for address in outcome.writeback_addresses)

    def test_blocks_in_remaining_sets_survive_a_downsize(self):
        cache = _sets_cache()
        cache.access(0x0)  # maps to set 0 in every configuration
        cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        assert cache.access(0x0).hit

    def test_accesses_after_downsize_stay_within_enabled_sets(self):
        cache = _sets_cache()
        cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        # An address whose full-size set index is above the enabled range
        # must now map into the enabled sets (index masking).
        high_index_address = 48 * 32
        cache.access(high_index_address)
        assert cache.access(high_index_address).hit
        assert cache.resident_blocks() <= 64

    def test_upsizing_flushes_blocks_whose_mapping_changes(self):
        cache = _sets_cache()
        small = cache.organization.config_for_capacity(2 * KIB)
        cache.resize_to(small)
        # Address 48*32 maps to set 16 when 32 sets are enabled, but to set
        # 48 when 64 sets are enabled, so its mapping changes on upsize.
        moving = 48 * 32
        staying = 8 * 32
        cache.access(moving, is_write=True)
        cache.access(staying, is_write=True)
        outcome = cache.resize_to(cache.organization.full_config)
        assert moving in outcome.writeback_addresses
        assert staying not in outcome.writeback_addresses
        assert not cache.probe(moving)
        assert cache.probe(staying)

    def test_upsizing_flushes_clean_blocks_with_changed_mapping_silently(self):
        cache = _sets_cache()
        cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        cache.access(48 * 32)  # clean block whose mapping will change
        outcome = cache.resize_to(cache.organization.full_config)
        assert outcome.writeback_addresses == []
        assert outcome.discarded_blocks == 1

    def test_resize_to_current_config_is_a_noop(self):
        cache = _sets_cache()
        outcome = cache.resize_to(cache.current_config)
        assert not outcome.changed
        assert cache.resize_count == 0


class TestSelectiveWaysResizing:
    def test_downsizing_ways_keeps_set_mapping(self):
        cache = _ways_cache()
        cache.access(0x0)
        cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        assert cache.associativity == 2
        assert cache.num_sets == cache.geometry.num_sets
        assert cache.access(0x0).hit

    def test_downsizing_ways_writes_back_only_dirty_victims(self):
        cache = _ways_cache()
        # Fill one set with 4 blocks: two dirty, two clean.
        stride = cache.geometry.num_sets * 32
        for way in range(4):
            cache.access(way * stride, is_write=(way < 2))
        outcome = cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        assert len(outcome.writeback_addresses) + outcome.discarded_blocks == 2
        assert cache.resident_blocks() == 2

    def test_upsizing_ways_flushes_nothing(self):
        cache = _ways_cache()
        small = cache.organization.config_for_capacity(2 * KIB)
        cache.resize_to(small)
        cache.access(0x0, is_write=True)
        outcome = cache.resize_to(cache.organization.full_config)
        assert outcome.writeback_addresses == []
        assert outcome.discarded_blocks == 0
        assert cache.access(0x0).hit

    def test_way_mask_tracks_enabled_ways(self):
        cache = _ways_cache()
        cache.resize_to(cache.organization.config_for_capacity(3 * KIB))
        assert cache.way_mask.enabled_ways == 3
        assert cache.associativity == 3


class TestHybridResizing:
    def test_hybrid_can_change_both_dimensions(self):
        geometry = CacheGeometry(32 * KIB, 4)
        cache = ResizableCache(geometry, HybridSetsAndWays(geometry))
        cache.resize_to(cache.organization.config_for_capacity(6 * KIB))
        assert cache.associativity == 3
        assert cache.num_sets == 64
        assert cache.current_capacity_bytes == 6 * KIB

    def test_resizing_tag_bits_follow_organization(self):
        geometry = CacheGeometry(32 * KIB, 4)
        hybrid_cache = ResizableCache(geometry, HybridSetsAndWays(geometry))
        ways_cache = ResizableCache(geometry, SelectiveWays(geometry))
        assert hybrid_cache.resizing_tag_bits == 3
        assert ways_cache.resizing_tag_bits == 0


class TestAccounting:
    def test_resize_counters_accumulate(self):
        cache = _sets_cache()
        for _ in range(3):
            cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
            cache.resize_to(cache.organization.full_config)
        assert cache.resize_count == 6

    def test_flush_writebacks_counted_in_stats(self):
        cache = _sets_cache()
        for index in range(64):
            cache.access(index * 32, is_write=True)
        before = cache.stats.writebacks
        outcome = cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        assert cache.stats.writebacks == before + len(outcome.writeback_addresses)
        assert cache.flush_writebacks == len(outcome.writeback_addresses)

    def test_reset_stats_clears_resize_counters(self):
        cache = _sets_cache()
        cache.resize_to(cache.organization.config_for_capacity(2 * KIB))
        cache.reset_stats()
        assert cache.resize_count == 0
        assert cache.stats.accesses == 0

    def test_flush_all_returns_dirty_addresses(self):
        cache = _sets_cache()
        cache.access(0x0, is_write=True)
        cache.access(0x40)
        dirty = cache.flush_all()
        assert dirty == [0x0]
        assert cache.resident_blocks() == 0


def _hybrid_cache() -> ResizableCache:
    geometry = CacheGeometry(8 * KIB, 4, subarray_bytes=KIB)
    return ResizableCache(geometry, HybridSetsAndWays(geometry), name="l1d")


class TestLazySetStorage:
    """Set storage is built on first access; until then the cache is empty.

    A stack-resolved fused-ladder rung never drives its variant L1, so its
    set dicts must never be allocated — and every method must treat the
    unbuilt storage exactly as an empty cache.
    """

    def test_fresh_cache_allocates_nothing(self):
        cache = _sets_cache()
        assert cache._set_blocks is None
        assert cache.resident_blocks() == 0
        assert not cache.probe(0x1000)
        assert cache.flush_all() == []
        assert cache.stats.invalidations == 0
        assert cache._set_blocks is None

    @pytest.mark.parametrize("factory", [_sets_cache, _ways_cache, _hybrid_cache])
    def test_resizes_on_unbuilt_storage_match_an_empty_cache(self, factory):
        lazy, built = factory(), factory()
        built._sets()
        # Down the whole ladder, then straight back up to full size.
        targets = lazy.organization.ladder()[1:] + [lazy.organization.full_config]
        for target in targets:
            got, expected = lazy.resize_to(target), built.resize_to(target)
            assert (got.writeback_addresses, got.discarded_blocks) == ([], 0)
            assert (expected.writeback_addresses, expected.discarded_blocks) == ([], 0)
            assert lazy.current_config == built.current_config == target
        assert lazy._set_blocks is None
        assert lazy.stats.as_dict() == built.stats.as_dict()
        assert (lazy.resize_count, lazy.flush_writebacks, lazy.flushed_blocks) == (
            built.resize_count, built.flush_writebacks, built.flushed_blocks,
        )

    @pytest.mark.parametrize("factory", [_sets_cache, _ways_cache, _hybrid_cache])
    def test_first_access_after_a_resize_builds_storage(self, factory):
        lazy, built = factory(), factory()
        built._sets()
        target = lazy.organization.ladder()[-1]
        lazy.resize_to(target)
        built.resize_to(target)
        for step in range(200):
            address, is_write = (step * 7919) % 16_384, step % 3 == 0
            assert lazy.access_packed(address, is_write) == built.access_packed(address, is_write)
        assert lazy._set_blocks is not None
        assert lazy.resident_blocks() == built.resident_blocks() > 0
        assert lazy.stats.as_dict() == built.stats.as_dict()

    def test_kernel_state_builds_storage(self):
        cache = _ways_cache()
        state = cache._kernel_state()
        assert state[1] is cache._set_blocks
        assert len(state[1]) == cache.geometry.num_sets
        assert cache.resident_blocks() == 0
