"""TLBs and the page-table walk.

The 21264 handles TLB misses in PAL code (software), stalling the
program; sim-alpha instead "simulates a hardware walk of the five
levels of page tables and does not stall the pipeline" (paper Section
4.1).  Both behaviours are provided: the walk cost is computed from
five dependent page-table loads, and the ``stalls_pipeline`` flag says
whether the pipeline model should serialise around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["TlbConfig", "Tlb", "TlbStats", "PageWalkModel"]


@dataclass
class TlbConfig:
    entries: int = 128
    page_bytes: int = 8192
    name: str = "tlb"


@dataclass
class TlbStats:
    accesses: int = 0
    misses: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Tlb:
    """Fully associative LRU TLB over virtual page numbers."""

    def __init__(self, config: TlbConfig | None = None):
        self.config = config or TlbConfig()
        self._page_shift = self.config.page_bytes.bit_length() - 1
        self._entries: List[int] = []  # virtual page numbers, LRU first
        self.stats = TlbStats()

    def access(self, vaddr: int) -> bool:
        """Translate; returns True on a TLB hit (allocates on miss)."""
        page = vaddr >> self._page_shift
        self.stats.accesses += 1
        entries = self._entries
        if entries and entries[-1] == page:
            return True  # already most recently used
        try:
            entries.remove(page)
        except ValueError:
            self.stats.misses += 1
            if len(entries) >= self.config.entries:
                entries.pop(0)
            entries.append(page)
            return False
        entries.append(page)
        return True


@dataclass
class PageWalkModel:
    """Cost model for resolving a TLB miss.

    ``hardware_walk``: five dependent page-table loads, each normally
    hitting the L2 (the table working set is small); the pipeline keeps
    executing around it.  ``pal_code``: the 21264's software handler —
    a trap into PAL code that stalls the whole program for the handler
    length plus the same walk loads.
    """

    levels: int = 5
    #: Per-level load latency: upper-level PTEs hit the L1, leaf
    #: entries the L2, averaging well under the L2 load-to-use.
    level_latency: int = 8
    #: PALcode trap entry/exit overhead on the native machine.
    pal_overhead: int = 15
    stalls_pipeline: bool = False

    def walk_latency(self) -> int:
        """Cycles to resolve one TLB miss."""
        latency = self.levels * self.level_latency
        if self.stalls_pipeline:
            latency += self.pal_overhead
        return latency
