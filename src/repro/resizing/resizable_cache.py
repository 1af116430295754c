"""A cache whose enabled ways and sets can change at run time.

:class:`ResizableCache` exposes the same access interface as
:class:`repro.cache.cache.Cache` so it can slot into the hierarchy
transparently, and adds :meth:`resize_to`, which applies the flush rules of
Section 2.1:

* disabling ways — dirty blocks in the disabled ways are written back;
* disabling sets — blocks in the disabled sets are flushed (dirty ones
  written back);
* enabling sets — blocks whose set mapping changes under the new index are
  flushed, clean or dirty, because the lookup would no longer find them;
* enabling ways — nothing needs to be flushed.

The physical arrays are always allocated at the full geometry; resizing only
changes which portion the index/way masks allow the cache to use, exactly as
the hardware proposals do.

The per-access hot path is :meth:`access_packed` — the same allocation-free
packed-int kernel as :class:`~repro.cache.cache.Cache` (same ``PACKED_*``
outcome bit layout, packed ``tag -> block_address << 1 | dirty`` set state),
with the tag/index shift/mask locals re-derived on every resize instead of
being fixed at construction.  The duplicated kernel body is deliberate: a
shared helper would put a Python call frame back on every access, which is
exactly the cost this kernel exists to remove.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cache.cache import (
    PACKED_FILLED,
    PACKED_HIT_RESULT,
    PACKED_MISS_RESULT,
    PACKED_WRITEBACK_SHIFT,
    PACKED_WRITEBACK_VALID,
    AccessResult,
    CacheStats,
    unpack_access_result,
)
from repro.cache.cache_set import make_selector, selector_seed
from repro.cache.replacement import ReplacementPolicy
from repro.cache.subarray import SubarrayMap, SubarrayState
from repro.common.config import CacheGeometry
from repro.common.errors import ResizingError
from repro.mem.address import AddressMapper
from repro.resizing.masks import SetMask, WayMask
from repro.resizing.organization import ResizingOrganization, SizeConfig


class ResizeOutcome:
    """What a resize did to the cache contents.

    Attributes:
        previous: configuration before the resize.
        current: configuration after the resize.
        writeback_addresses: dirty blocks that must be written back to L2.
        discarded_blocks: number of clean blocks dropped.
    """

    __slots__ = ("previous", "current", "writeback_addresses", "discarded_blocks")

    def __init__(
        self,
        previous: SizeConfig,
        current: SizeConfig,
        writeback_addresses: List[int],
        discarded_blocks: int,
    ) -> None:
        self.previous = previous
        self.current = current
        self.writeback_addresses = writeback_addresses
        self.discarded_blocks = discarded_blocks

    @property
    def changed(self) -> bool:
        """True when the resize actually changed the configuration."""
        return self.previous != self.current

    def __repr__(self) -> str:
        return (
            f"ResizeOutcome({self.previous.label} -> {self.current.label}, "
            f"writebacks={len(self.writeback_addresses)}, discarded={self.discarded_blocks})"
        )


class ResizableCache:
    """Write-back, write-allocate cache with run-time resizing."""

    def __init__(
        self,
        geometry: CacheGeometry,
        organization: ResizingOrganization,
        replacement: ReplacementPolicy = ReplacementPolicy.LRU,
        name: str = "resizable-cache",
    ) -> None:
        if organization.geometry != geometry:
            raise ResizingError(
                "organization was built for a different geometry: "
                f"{organization.geometry.describe()} vs {geometry.describe()}"
            )
        self.geometry = geometry
        self.organization = organization
        self.name = name
        self.replacement = ReplacementPolicy.parse(replacement)
        self._selector = make_selector(self.replacement, seed=selector_seed(name))
        # Per-set packed dicts, built on first use (see Cache._sets).
        self._set_blocks: Optional[List[dict]] = None
        self._subarray_map = SubarrayMap(geometry)
        self.way_mask = WayMask(geometry.associativity)
        self.set_mask = SetMask(
            geometry.num_sets, min_sets=min(c.sets for c in organization.configs)
        )
        self._current = organization.full_config
        self._mapper = AddressMapper(geometry.block_bytes, self._current.sets)
        self.stats = CacheStats()
        self.resize_count = 0
        self.flush_writebacks = 0
        self.flushed_blocks = 0
        # Kernel locals (see Cache.__init__); re-derived by resize_to when
        # the enabled index width or associativity changes.
        self._refresh_on_hit = self._selector.refreshes_on_hit
        self._random_victims = self.replacement is ReplacementPolicy.RANDOM
        self._refresh_kernel_locals()

    def _sets(self) -> List[dict]:
        """The per-set packed dicts, built on first use (as :meth:`Cache._sets`).

        A stack-resolved fused-ladder rung never drives its variant L1, so
        it never allocates them; every other method treats unbuilt storage
        as an empty cache.
        """
        set_blocks = self._set_blocks
        if set_blocks is None:
            self._set_blocks = set_blocks = [{} for _ in range(self.geometry.num_sets)]
        return set_blocks

    def _refresh_kernel_locals(self) -> None:
        """Re-derive the shift/mask/capacity locals from the current config."""
        self._offset_bits, self._index_bits, self._set_mask_bits = self._mapper.shift_mask()
        self._ways = self._current.ways

    def _kernel_state(self):
        """Hoistable kernel state (see :meth:`repro.cache.cache.Cache._kernel_state`).

        Valid only until the next resize — resizes happen exclusively at
        interval boundaries (strategy decisions inside ``close_interval``),
        so the dispatch loops re-fetch this every interval.
        """
        return (
            self.stats, self._sets(), self._offset_bits, self._index_bits,
            self._set_mask_bits, self._ways, self._refresh_on_hit,
            self._random_victims, self._selector,
        )

    # ------------------------------------------------------------------ access
    def access_packed(self, address: int, is_write: bool = False) -> int:
        """Allocation-free access kernel against the enabled portion.

        Identical bit layout and semantics as
        :meth:`repro.cache.cache.Cache.access_packed`; only the shift/mask
        locals track the currently enabled configuration.
        """
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.writes += 1
        else:
            stats.reads += 1

        set_blocks = self._set_blocks
        if set_blocks is None:
            set_blocks = self._sets()
        block = address >> self._offset_bits
        tag = block >> self._index_bits
        blocks = set_blocks[block & self._set_mask_bits]
        packed = blocks.get(tag)
        if packed is not None:
            stats.hits += 1
            if is_write:
                packed |= 1
                if self._refresh_on_hit:
                    del blocks[tag]
                blocks[tag] = packed
            elif self._refresh_on_hit:
                del blocks[tag]
                blocks[tag] = packed
            return PACKED_HIT_RESULT

        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1

        victim = None
        if len(blocks) >= self._ways:
            if self._random_victims:
                victim_tag = self._selector.choose_victim(blocks)
            else:
                victim_tag = next(iter(blocks))
            victim = blocks.pop(victim_tag)
        blocks[tag] = (block << (self._offset_bits + 1)) | (1 if is_write else 0)
        stats.fills += 1
        if victim is not None and victim & 1:
            stats.writebacks += 1
            return (
                PACKED_FILLED
                | PACKED_WRITEBACK_VALID
                | ((victim >> 1) << PACKED_WRITEBACK_SHIFT)
            )
        return PACKED_MISS_RESULT

    def access(self, address: int, is_write: bool = False) -> AccessResult:
        """Perform a load or store access (object wrapper over the kernel)."""
        return unpack_access_result(self.access_packed(address, is_write))

    def probe(self, address: int) -> bool:
        """Return True when ``address`` is resident, without updating LRU state."""
        set_blocks = self._set_blocks
        if set_blocks is None:
            return False
        tag, index = self._mapper.split(address)
        return tag in set_blocks[index]

    def flush_all(self) -> List[int]:
        """Invalidate every enabled block; returns dirty block addresses."""
        dirty: List[int] = []
        stats = self.stats
        for blocks in self._set_blocks or ():
            if not blocks:
                continue
            for packed in blocks.values():
                stats.invalidations += 1
                if packed & 1:
                    stats.writebacks += 1
                    dirty.append(packed >> 1)
            blocks.clear()
        return dirty

    # ------------------------------------------------------------------ resize
    def resize_to(self, target: SizeConfig) -> ResizeOutcome:
        """Resize the cache to ``target``, applying the Section 2.1 flush rules."""
        if not self.organization.contains(target):
            raise ResizingError(
                f"{self.organization.name} does not offer {target.label} "
                f"for {self.geometry.describe()}"
            )
        previous = self._current
        if target == previous:
            return ResizeOutcome(previous, target, [], 0)

        writebacks: List[int] = []
        discarded = 0

        old_sets = previous.sets
        new_sets = target.sets

        # Unbuilt set storage is an empty cache: nothing to flush.
        set_blocks = self._set_blocks or ()
        if set_blocks and new_sets < old_sets:
            # Disabling sets: every block in a disabled set leaves the cache.
            for index in range(new_sets, old_sets):
                blocks = set_blocks[index]
                if not blocks:
                    continue
                for packed in blocks.values():
                    if packed & 1:
                        writebacks.append(packed >> 1)
                    else:
                        discarded += 1
                blocks.clear()
        elif set_blocks and new_sets > old_sets:
            # Enabling sets: blocks whose index changes under the wider index
            # field would become unreachable, so they are flushed.
            new_mapper = AddressMapper(self.geometry.block_bytes, new_sets)
            for index in range(old_sets):
                blocks = set_blocks[index]
                if not blocks:
                    continue
                stale_tags = [
                    tag
                    for tag, packed in blocks.items()
                    if new_mapper.set_index(packed >> 1) != index
                ]
                for tag in stale_tags:
                    packed = blocks.pop(tag)
                    if packed & 1:
                        writebacks.append(packed >> 1)
                    else:
                        discarded += 1

        # Adjust associativity on every physical set (disabled sets are
        # empty); shrinking evicts the replacement policy's victims.
        if target.ways < previous.ways:
            choose_victim = self._selector.choose_victim
            ways = target.ways
            for blocks in set_blocks:
                while len(blocks) > ways:
                    packed = blocks.pop(choose_victim(blocks))
                    if packed & 1:
                        writebacks.append(packed >> 1)
                    else:
                        discarded += 1

        self._current = target
        self._mapper = AddressMapper(self.geometry.block_bytes, new_sets)
        self.way_mask.set_enabled(target.ways)
        self.set_mask.set_enabled(new_sets)
        self._refresh_kernel_locals()

        self.resize_count += 1
        self.flush_writebacks += len(writebacks)
        self.flushed_blocks += len(writebacks) + discarded
        self.stats.writebacks += len(writebacks)
        self.stats.invalidations += len(writebacks) + discarded
        return ResizeOutcome(previous, target, writebacks, discarded)

    # ------------------------------------------------------------ introspection
    @property
    def current_config(self) -> SizeConfig:
        """The currently enabled (ways, sets) configuration."""
        return self._current

    @property
    def current_capacity_bytes(self) -> int:
        """Enabled capacity in bytes."""
        return self._current.capacity_bytes

    @property
    def associativity(self) -> int:
        """Currently enabled associativity."""
        return self._current.ways

    @property
    def num_sets(self) -> int:
        """Currently enabled number of sets."""
        return self._current.sets

    @property
    def capacity_bytes(self) -> int:
        """Full (physical) capacity in bytes."""
        return self.geometry.capacity_bytes

    @property
    def subarray_state(self) -> SubarrayState:
        """Enabled/total subarray counts for the current configuration."""
        return self._subarray_map.subarrays_for(self._current.ways, self._current.sets)

    @property
    def resizing_tag_bits(self) -> int:
        """Extra tag bits carried to support the smallest offered size."""
        return self.organization.resizing_tag_bits

    def resident_blocks(self) -> int:
        """Total number of valid blocks currently resident."""
        return sum(len(blocks) for blocks in self._set_blocks or ())

    def reset_stats(self) -> None:
        """Zero all access and resize counters without touching contents."""
        self.stats.reset()
        self.resize_count = 0
        self.flush_writebacks = 0
        self.flushed_blocks = 0

    def __repr__(self) -> str:
        return (
            f"ResizableCache({self.name}, {self.geometry.describe()}, "
            f"{self.organization.name}, now {self._current.label})"
        )
