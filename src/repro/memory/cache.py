"""Set-associative cache model.

Models tag state (hit/miss/way/eviction) with LRU replacement; the
*timing* of misses is composed by :class:`repro.memory.hierarchy.
MemoryHierarchy` from the MAF, buses, L2, and DRAM models.  Both 21264
L1 caches are 64KB, two-way set associative with 64-byte blocks; the
DS-10L's L2 is 2MB direct mapped with 64-byte blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

__all__ = ["CacheConfig", "CacheStats", "Cache", "AccessResult"]


@dataclass
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int = 64 * 1024
    ways: int = 2
    block_bytes: int = 64
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.block_bytes & (self.block_bytes - 1):
            raise ValueError("block size must be a power of two")
        if self.size_bytes % (self.block_bytes * self.ways):
            raise ValueError(
                f"{self.name}: size {self.size_bytes} not divisible by "
                f"ways*block ({self.ways}*{self.block_bytes})"
            )

    @property
    def sets(self) -> int:
        return self.size_bytes // (self.block_bytes * self.ways)


@dataclass
class CacheStats:
    accesses: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class AccessResult(NamedTuple):
    """Outcome of a tag lookup (timing applied by the hierarchy)."""

    hit: bool
    way: int
    set_index: int
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class Cache:
    """LRU set-associative tag array with dirty bits."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # LRU-first (tag, dirty) lists, made on a set's first fill: a
        # 32K-set L2 would otherwise cost 32K lists per simulator built.
        self._sets: List[Sequence[Tuple[int, bool]]] = [()] * config.sets
        self._block_shift = config.block_bytes.bit_length() - 1
        self._set_mask = config.sets - 1
        if config.sets & (config.sets - 1):
            raise ValueError(f"{config.name}: set count must be a power of two")
        self.stats = CacheStats()

    def block_of(self, address: int) -> int:
        """Block-aligned address containing ``address``."""
        return address >> self._block_shift << self._block_shift

    def set_of(self, address: int) -> int:
        return (address >> self._block_shift) & self._set_mask

    def probe(self, address: int) -> bool:
        """Tag check without any state change (no LRU update, no stats)."""
        block = self.block_of(address)
        return any(tag == block for tag, _ in self._sets[self.set_of(address)])

    def access(self, address: int, *, write: bool = False) -> AccessResult:
        """Look up ``address``; on miss, allocate (evicting LRU).

        Returns hit/way/set and any eviction so the caller can route the
        victim to a victim buffer or schedule a write-back.
        """
        line = address >> self._block_shift
        block = line << self._block_shift
        set_index = line & self._set_mask
        entries = self._sets[set_index]
        if not entries:
            entries = self._sets[set_index] = []
        self.stats.accesses += 1

        mru = len(entries) - 1
        i = 0
        for tag, dirty in entries:
            if tag == block:
                if i < mru:
                    entries.append(entries.pop(i))  # LRU refresh
                if write and not dirty:
                    entries[-1] = (block, True)
                return AccessResult(True, mru, set_index)
            i += 1

        self.stats.misses += 1
        evicted_block: Optional[int] = None
        evicted_dirty = False
        if len(entries) >= self.config.ways:
            evicted_block, evicted_dirty = entries.pop(0)
            self.stats.evictions += 1
            if evicted_dirty:
                self.stats.writebacks += 1
        entries.append((block, write))
        return AccessResult(
            False, len(entries) - 1, set_index, evicted_block, evicted_dirty
        )

    def fill(self, address: int, *, dirty: bool = False) -> Optional[int]:
        """Install a block without counting an access (e.g. prefetch).

        Returns the evicted block address, if any.
        """
        block = self.block_of(address)
        set_index = self.set_of(address)
        entries = self._sets[set_index]
        if not entries:
            entries = self._sets[set_index] = []
        for i, (tag, was_dirty) in enumerate(entries):
            if tag == block:
                entries.append(entries.pop(i))
                if dirty and not was_dirty:
                    entries[-1] = (block, True)
                return None
        evicted: Optional[int] = None
        if len(entries) >= self.config.ways:
            evicted, _ = entries.pop(0)
            self.stats.evictions += 1
        entries.append((block, dirty))
        return evicted

    def invalidate(self, address: int) -> bool:
        """Drop the block containing ``address``; True if it was present."""
        block = self.block_of(address)
        entries = self._sets[self.set_of(address)]
        for i, (tag, _) in enumerate(entries):
            if tag == block:
                entries.pop(i)
                return True
        return False

    def outstanding_same_set(self, address_a: int, address_b: int) -> bool:
        """Whether two addresses index the same set but different blocks.

        The mbox-trap condition the paper describes: "concurrent
        references to two blocks that map to the same place in the
        cache" force a replay trap on the 21264.
        """
        return (
            self.set_of(address_a) == self.set_of(address_b)
            and self.block_of(address_a) != self.block_of(address_b)
        )
