"""A single cache set with an adjustable number of ways.

The set keeps its resident blocks in a plain dict keyed by tag; Python dicts
preserve insertion order, so deleting and re-inserting a tag on a hit gives
LRU ordering without any auxiliary data structure.  The capacity (number of
ways) can be lowered or raised at run time, which is what selective-ways
resizing needs.

Block state is stored *packed*: each resident tag maps to the integer
``(block_address << 1) | dirty`` instead of a :class:`CacheBlock` object.
The packed-int methods (``fill_packed``, ``drain_packed``, ...) are the real
implementation and allocate nothing per access; the historical
object-returning methods survive as thin wrappers that materialise
:class:`CacheBlock` instances on demand for callers off the hot path (tests,
introspection).  The caches in :mod:`repro.cache.cache` and
:mod:`repro.resizing.resizable_cache` keep the same packed dicts, one per
set, without wrapping them in :class:`CacheSet` objects.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Optional, Tuple

from repro.cache.replacement import ReplacementPolicy, VictimSelector
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRng
from repro.mem.block import CacheBlock

#: Base seed for RANDOM-replacement victim selection; per-cache seeds are
#: derived from it via :func:`selector_seed` so distinct caches draw
#: distinct victim streams.
BASE_SELECTOR_SEED = 0xC0FFEE


def selector_seed(name: str) -> int:
    """Derive a deterministic per-cache selector seed from the cache name.

    Two caches with different names (``l1i``/``l1d``/``l2``) get different
    victim streams under RANDOM replacement; the derivation is stable across
    processes and Python versions (CRC-32, not ``hash()``).
    """
    return (BASE_SELECTOR_SEED ^ zlib.crc32(name.encode("utf-8"))) & 0x7FFFFFFF


def pack_block(address: int, dirty: bool) -> int:
    """Pack a block-aligned address and dirty bit into one int."""
    return (address << 1) | (1 if dirty else 0)


def unpack_block(packed: int) -> CacheBlock:
    """Materialise a :class:`CacheBlock` from its packed representation."""
    return CacheBlock(packed >> 1, dirty=bool(packed & 1))


class CacheSet:
    """One set of a set-associative cache."""

    __slots__ = ("capacity", "_blocks", "_selector", "_refresh_on_hit")

    def __init__(self, capacity: int, selector: VictimSelector) -> None:
        if capacity < 1:
            raise ConfigurationError(f"set capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._blocks: Dict[int, int] = {}
        self._selector = selector
        self._refresh_on_hit = selector.refreshes_on_hit

    # ------------------------------------------------------------- packed API
    def lookup_packed(self, tag: int) -> Optional[int]:
        """Packed block for ``tag`` or None; refreshes LRU order on hit."""
        packed = self._blocks.get(tag)
        if packed is not None and self._refresh_on_hit:
            del self._blocks[tag]
            self._blocks[tag] = packed
        return packed

    def fill_packed(self, tag: int, packed: int) -> Optional[int]:
        """Insert a packed block, evicting the policy's victim if full.

        Returns the evicted packed block, or None when no eviction was
        necessary.  The caller writes back the victim if its dirty bit is
        set.
        """
        blocks = self._blocks
        victim = None
        if tag in blocks:
            # Refill of an already-resident tag (e.g. after an upgrade); the
            # previous copy is replaced in place.
            victim = blocks.pop(tag)
        elif len(blocks) >= self.capacity:
            victim_tag = self._selector.choose_victim(blocks)
            victim = blocks.pop(victim_tag)
        blocks[tag] = packed
        return victim

    def invalidate_packed(self, tag: int) -> Optional[int]:
        """Remove and return the packed block with ``tag`` (None if absent)."""
        return self._blocks.pop(tag, None)

    def set_capacity_packed(self, capacity: int) -> List[int]:
        """Change the number of ways; returns packed blocks evicted by shrinking."""
        if capacity < 1:
            raise ConfigurationError(f"set capacity must be at least 1, got {capacity}")
        evicted: List[int] = []
        self.capacity = capacity
        blocks = self._blocks
        while len(blocks) > capacity:
            victim_tag = self._selector.choose_victim(blocks)
            evicted.append(blocks.pop(victim_tag))
        return evicted

    def drain_packed(self) -> List[int]:
        """Remove and return every resident block in packed form."""
        drained = list(self._blocks.values())
        self._blocks.clear()
        return drained

    # ----------------------------------------------- object-returning wrappers
    def lookup(self, tag: int) -> Optional[CacheBlock]:
        """Return the resident block for ``tag`` or None; refreshes LRU on hit.

        The returned :class:`CacheBlock` is a snapshot materialised from the
        packed state — mutating it does not write through to the set (use
        the owning cache's access path, or ``fill``, to change state).
        """
        packed = self.lookup_packed(tag)
        return None if packed is None else unpack_block(packed)

    def probe(self, tag: int) -> Optional[CacheBlock]:
        """Return the resident block for ``tag`` without touching replacement state."""
        packed = self._blocks.get(tag)
        return None if packed is None else unpack_block(packed)

    def fill(self, tag: int, block: CacheBlock) -> Optional[CacheBlock]:
        """Insert a block, evicting the policy's victim if the set is full."""
        victim = self.fill_packed(tag, pack_block(block.address, block.dirty))
        return None if victim is None else unpack_block(victim)

    def invalidate(self, tag: int) -> Optional[CacheBlock]:
        """Remove and return the block with ``tag`` (None if absent)."""
        packed = self.invalidate_packed(tag)
        return None if packed is None else unpack_block(packed)

    def set_capacity(self, capacity: int) -> List[CacheBlock]:
        """Change the number of ways; returns any blocks evicted by shrinking."""
        return [unpack_block(packed) for packed in self.set_capacity_packed(capacity)]

    def drain(self) -> List[CacheBlock]:
        """Remove and return every resident block."""
        return [unpack_block(packed) for packed in self.drain_packed()]

    def residents(self) -> Iterable[Tuple[int, CacheBlock]]:
        """Iterate over ``(tag, block)`` pairs currently resident in the set."""
        return [(tag, unpack_block(packed)) for tag, packed in self._blocks.items()]

    @property
    def occupancy(self) -> int:
        """Number of valid blocks currently resident."""
        return len(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        return f"CacheSet(capacity={self.capacity}, occupancy={len(self._blocks)})"


def make_selector(policy, seed: int = BASE_SELECTOR_SEED) -> VictimSelector:
    """Build a :class:`VictimSelector` from a policy name or enum member."""
    parsed = ReplacementPolicy.parse(policy)
    if parsed is ReplacementPolicy.RANDOM:
        return VictimSelector(parsed, DeterministicRng(seed))
    return VictimSelector(parsed)
