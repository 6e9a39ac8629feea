"""The composed memory system: L1 I/D, victim buffer, MAFs, L2, buses,
TLBs, page mapping, and SDRAM.

All methods are *time based*: they take the CPU cycle at which a
request presents and return the cycle its data is ready, updating
internal resource next-free times (buses, DRAM banks, cache ports).
This style serves the dependence-driven pipeline models, which replay
an in-order trace and need completion times rather than a lock-step
cycle loop.

The configuration deliberately exposes both what sim-alpha models and
what it does *not* (paper Section 4.1): a shared vs. per-cache MAF,
store/port contention, PAL-code TLB stalls, a memory-controller row
cache (standing in for the C-chip/D-chip page-hit optimizations), and
the page-mapping policy.  The NativeMachine turns the "unmodelled"
effects on; sim-alpha leaves them off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Tuple

from repro.dram.config import DramConfig
from repro.dram.backends import make_dram
from repro.memory.bus import Bus, BusConfig
from repro.memory.cache import Cache, CacheConfig
from repro.memory.mshr import MafConfig, MissAddressFile
from repro.memory.paging import PageMapper, PagingConfig
from repro.memory.tlb import PageWalkModel, Tlb, TlbConfig
from repro.memory.victim import VictimBuffer, VictimBufferConfig

__all__ = [
    "MemoryHierarchyConfig",
    "MemoryHierarchy",
    "LoadResult",
    "IFetchResult",
]


@dataclass
class MemoryHierarchyConfig:
    """Geometry and behaviour of the whole memory system.

    Defaults describe the DS-10L as configured in the paper: 64KB 2-way
    64B-block L1s, 3-cycle load-to-use D-cache hits, a 2MB direct-mapped
    L2 with 13-cycle load-to-use, an 8-entry victim buffer, 8-entry
    MAFs, and DRAM at ~25% core speed.
    """

    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 64, name="l1i")
    )
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 64, name="l1d")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 1, 64, name="l2")
    )
    #: Load-to-use latency for an L1 D-cache hit (integer loads).
    l1d_load_to_use: int = 3
    #: FP loads take one extra cycle (Table 1: 4 vs 3).
    fp_load_extra: int = 1
    #: Load-to-use latency for an L2 hit.
    l2_load_to_use: int = 13
    #: Extra cycles erroneously charged on L2 hits (sim-initial's
    #: register-read modelling bug; 0 when fixed).
    l2_extra_cycles: int = 0

    victim_buffer_enabled: bool = True
    victim_buffer: VictimBufferConfig = field(default_factory=VictimBufferConfig)

    maf: MafConfig = field(default_factory=MafConfig)
    #: True models the real chip (one 8-entry MAF shared by all caches);
    #: False models sim-alpha (a private 8-entry MAF per cache).
    shared_maf: bool = False

    itlb: TlbConfig = field(default_factory=lambda: TlbConfig(128, name="itlb"))
    dtlb: TlbConfig = field(default_factory=lambda: TlbConfig(128, name="dtlb"))
    walk: PageWalkModel = field(default_factory=PageWalkModel)

    paging: PagingConfig = field(default_factory=PagingConfig)
    dram: DramConfig = field(default_factory=DramConfig)

    l2_bus: BusConfig = field(
        default_factory=lambda: BusConfig(16, 2.5, name="l2_bus")
    )
    mem_bus: BusConfig = field(
        default_factory=lambda: BusConfig(8, 4.0, name="mem_bus")
    )

    #: I-cache hardware prefetch (paper feature ``pref``): up to four
    #: sequential lines fetched on an I-miss.
    icache_prefetch: bool = True
    prefetch_lines: int = 4

    #: Native-machine (DS-10L) effects that sim-alpha does not model.
    store_port_contention: bool = False
    #: Memory-controller open-row tracking beyond the DRAM banks' own
    #: open pages (stand-in for C-chip/D-chip page-hit optimization).
    controller_row_cache: int = 0
    #: Whether dirty write-backs occupy the buses (sim-alpha assumes
    #: "writes can complete unimpeded").
    writeback_traffic: bool = False
    #: Native machines take replay traps on concurrent off-chip misses
    #: that collide in an L2 set — a trap source sim-alpha lacks (part
    #: of the paper's `art` anomaly, where the DS-10L incurred 52M
    #: replay traps to the simulator's 43M).
    l2_set_conflict_traps: bool = False


class LoadResult(NamedTuple):
    """Timing and event flags for one data access."""

    ready: float
    l1_hit: bool
    l2_hit: bool
    victim_hit: bool
    tlb_miss: bool
    tlb_stall_cycles: int
    maf_stall: bool
    same_set_conflict: bool
    l2_set_conflict: bool = False


class IFetchResult(NamedTuple):
    ready: float
    l1_hit: bool
    way: int


class MemoryHierarchy:
    """One instance per simulation run (all state is timing-relevant)."""

    def __init__(self, config: MemoryHierarchyConfig | None = None):
        self.config = config or MemoryHierarchyConfig()
        cfg = self.config
        self.l1i = Cache(cfg.l1i)
        self.l1d = Cache(cfg.l1d)
        self.l2 = Cache(cfg.l2)
        self.victim = (
            VictimBuffer(cfg.victim_buffer) if cfg.victim_buffer_enabled else None
        )
        if cfg.shared_maf:
            shared = MissAddressFile(cfg.maf)
            self.maf_i = self.maf_d = self.maf_l2 = shared
        else:
            self.maf_i = MissAddressFile(cfg.maf)
            self.maf_d = MissAddressFile(cfg.maf)
            self.maf_l2 = MissAddressFile(cfg.maf)
        self.itlb = Tlb(cfg.itlb)
        self.dtlb = Tlb(cfg.dtlb)
        self.mapper = PageMapper(cfg.paging)
        self.dram = make_dram(cfg.dram)
        self.l2_bus = Bus(cfg.l2_bus)
        self.mem_bus = Bus(cfg.mem_bus)
        # Two D-cache ports; stores contend only when modelled.
        self._dport_free = [0.0, 0.0]
        # Controller row cache: recent (bank-row key) list, MRU last.
        self._row_cache: List[int] = []
        self._row_shift = cfg.dram.row_bytes.bit_length() - 1
        # I-prefetch buffer: block -> fill-ready time.  Prefetched
        # lines park here and install into the I-cache only on demand,
        # so prefetching never pollutes the cache.
        self._prefetch_buffer: dict = {}
        # Cached metrics instruments (attach_metrics); None keeps the
        # access paths at one identity check per request.
        self._m_ifetches = None
        self._m_ifetch_hits = None
        self._m_loads = None
        self._m_load_hits = None
        self._m_stores = None
        self._m_store_hits = None

    def attach_metrics(self, registry) -> None:
        """Count hierarchy traffic into a :class:`MetricsRegistry`.

        Instrument handles are cached here so the per-access cost is a
        bound-method call on a counter, nothing more.
        """
        self._m_ifetches = registry.counter("memory.ifetches")
        self._m_ifetch_hits = registry.counter("memory.ifetch_l1_hits")
        self._m_loads = registry.counter("memory.loads")
        self._m_load_hits = registry.counter("memory.load_l1_hits")
        self._m_stores = registry.counter("memory.stores")
        self._m_store_hits = registry.counter("memory.store_l1_hits")

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------

    def _translate(self, time: float, vaddr: int, tlb: Tlb) -> Tuple[int, bool, int]:
        """Returns (paddr, tlb_missed, stall_cycles)."""
        hit = tlb.access(vaddr)
        paddr = self.mapper.translate(vaddr)
        if hit:
            return paddr, False, 0
        walk = self.config.walk
        stall = walk.walk_latency() if walk.stalls_pipeline else 0
        return paddr, True, stall

    # ------------------------------------------------------------------
    # Off-chip path
    # ------------------------------------------------------------------

    def _dram_access(self, time: float, paddr: int) -> float:
        """Memory-bus arbitration + SDRAM access + block burst."""
        cfg = self.config
        bus_done = self.mem_bus.request(time, 8)  # command/address phase
        if cfg.controller_row_cache:
            key = paddr >> self._row_shift
            if key in self._row_cache:
                self._row_cache.remove(key)
                self._row_cache.append(key)
                # Controller satisfied the access from an already-open
                # page: CAS-only timing.
                scale = cfg.dram.cpu_cycles_per_dram_cycle
                ready = bus_done + (
                    cfg.dram.cas_cycles + cfg.dram.controller_cycles
                ) * scale
            else:
                self._row_cache.append(key)
                if len(self._row_cache) > cfg.controller_row_cache:
                    self._row_cache.pop(0)
                ready = self.dram.access(bus_done, paddr)
        else:
            ready = self.dram.access(bus_done, paddr)
        ready += self.dram.block_transfer_cycles()
        return ready

    def _l2_access(
        self, time: float, paddr: int, *, write: bool = False
    ) -> Tuple[float, bool, bool]:
        """Access the L2 at ``time``.

        Returns (fill-ready time, l2_hit, l2_set_conflict) where the
        conflict flag reports a concurrent outstanding miss to a
        different block in the same L2 set (a native-machine replay-trap
        trigger when ``l2_set_conflict_traps`` is modelled).
        """
        cfg = self.config
        bus_done = self.l2_bus.request(time, 64)
        queue_delay = bus_done - time - self.l2_bus.occupancy(64)
        result = self.l2.access(paddr, write=write)
        if result.hit:
            ready = time + cfg.l2_load_to_use + cfg.l2_extra_cycles + queue_delay
            return ready, True, False

        # L2 miss: MAF for off-chip, then DRAM.
        block = self.l2.block_of(paddr)
        conflict = False
        if cfg.l2_set_conflict_traps:
            conflict = any(
                self.l2.set_of(other) == result.set_index and other != block
                for other in self.maf_l2.inflight_blocks(time)
            )
        outcome = self.maf_l2.present_miss(time, block)
        if outcome.combined_fill is not None:
            return outcome.combined_fill, False, conflict
        ready = self._dram_access(outcome.start_time, paddr)
        self.maf_l2.record_fill(block, ready, start=outcome.start_time)
        if result.evicted_dirty and cfg.writeback_traffic:
            self.mem_bus.request(ready, cfg.l2.block_bytes)
        return ready, False, conflict

    # ------------------------------------------------------------------
    # Instruction fetch
    # ------------------------------------------------------------------

    def ifetch(self, time: float, vaddr: int) -> IFetchResult:
        """Fetch the octaword at ``vaddr``; returns readiness and way.

        The 21264's I-cache is virtually indexed and tagged, so the tag
        lookup uses the virtual address; translation matters only on
        the refill path to the (physically indexed) L2.
        """
        cfg = self.config
        result = self.l1i.access(vaddr)
        if self._m_ifetches is not None:
            self._m_ifetches.inc()
            if result.hit:
                self._m_ifetch_hits.inc()
        if result.hit:
            pending = self.maf_i.fill_time(self.l1i.block_of(vaddr), time)
            ready = time + 1
            if pending is not None and pending > ready:
                ready = pending
            return IFetchResult(ready, True, result.way)

        block = self.l1i.block_of(vaddr)
        buffered = self._prefetch_buffer.pop(block, None)
        if buffered is not None:
            # Demand install from the prefetch buffer.
            self.l1i.fill(block)
            ready = max(time + 2, buffered)
            return IFetchResult(ready, False, result.way)

        paddr, _, stall = self._translate(time, vaddr, self.itlb)
        time += stall
        outcome = self.maf_i.present_miss(time, block)
        if outcome.combined_fill is not None:
            return IFetchResult(outcome.combined_fill, False, result.way)
        ready, _, _ = self._l2_access(outcome.start_time, paddr)
        self.maf_i.record_fill(block, ready, start=outcome.start_time)
        if cfg.icache_prefetch:
            # Fetch up to four sequential lines on an I-miss into the
            # prefetch buffer; they trail the demand line.
            block_bytes = cfg.l1i.block_bytes
            for i in range(1, cfg.prefetch_lines + 1):
                next_vaddr = vaddr + i * block_bytes
                next_block = self.l1i.block_of(next_vaddr)
                if (not self.l1i.probe(next_vaddr)
                        and next_block not in self._prefetch_buffer):
                    prefetch_ready, _, _ = self._l2_access(
                        outcome.start_time + i, paddr + i * block_bytes
                    )
                    self._prefetch_buffer[next_block] = prefetch_ready
            while len(self._prefetch_buffer) > 4 * cfg.prefetch_lines:
                self._prefetch_buffer.pop(
                    next(iter(self._prefetch_buffer))
                )
        return IFetchResult(ready, False, result.way)

    # ------------------------------------------------------------------
    # Data side
    # ------------------------------------------------------------------

    def _acquire_dport(self, time: float) -> float:
        """Grab one of the two D-cache ports at or after ``time``."""
        ports = self._dport_free
        index = 0 if ports[0] <= ports[1] else 1
        start = ports[index] if ports[index] > time else time
        ports[index] = start + 1
        return start

    def load(self, time: float, vaddr: int, *, fp: bool = False) -> LoadResult:
        """A demand load presented at ``time``.

        The L1 D-cache is virtually indexed (the 21264 overlaps the TLB
        lookup with the tag access), so L1 behaviour is independent of
        the page-mapping policy; the physical address matters from the
        L2 down.
        """
        cfg = self.config
        paddr, tlb_miss, stall = self._translate(time, vaddr, self.dtlb)
        stall_cycles = stall
        if stall and cfg.walk.stalls_pipeline:
            time += stall
        elif tlb_miss:
            # A hardware walk does not stall the pipeline (independent
            # instructions keep flowing), but this load's translation
            # is still not ready until the walk completes.
            time += cfg.walk.walk_latency()

        time = self._acquire_dport(time)
        hit_latency = cfg.l1d_load_to_use + (cfg.fp_load_extra if fp else 0)
        result = self.l1d.access(vaddr)
        if self._m_loads is not None:
            self._m_loads.inc()
            if result.hit:
                self._m_load_hits.inc()
        if result.hit:
            # A tag hit on a block whose fill is still in flight waits
            # for the fill (the tags allocate at miss time).
            pending = self.maf_d.fill_time(self.l1d.block_of(vaddr), time)
            ready = time + hit_latency
            if pending is not None and pending + hit_latency > ready:
                ready = pending + hit_latency
            return LoadResult(
                ready, True, False, False,
                tlb_miss, stall_cycles, False, False,
            )

        block = self.l1d.block_of(vaddr)
        # Same-set conflict with an outstanding miss: mbox trap trigger.
        same_set = any(
            self.l1d.set_of(other) == result.set_index and other != block
            for other in self.maf_d.inflight_blocks(time)
        )

        if result.evicted_block is not None and self.victim is not None:
            displaced = self.victim.insert(
                result.evicted_block, result.evicted_dirty
            )
            if displaced and displaced[1] and cfg.writeback_traffic:
                self.l2_bus.request(time, cfg.l1d.block_bytes)

        if self.victim is not None:
            dirty = self.victim.probe_and_extract(block)
            if dirty is not None:
                ready = time + hit_latency + self.victim.config.hit_penalty
                return LoadResult(
                    ready, False, False, True,
                    tlb_miss, stall_cycles, False, same_set,
                )

        outcome = self.maf_d.present_miss(time, block)
        if outcome.combined_fill is not None:
            ready = outcome.combined_fill + (cfg.fp_load_extra if fp else 0)
            return LoadResult(
                ready, False, False, False,
                tlb_miss, stall_cycles, False, same_set,
            )
        ready, l2_hit, l2_conflict = self._l2_access(outcome.start_time, paddr)
        ready += cfg.fp_load_extra if fp else 0
        self.maf_d.record_fill(block, ready, start=outcome.start_time)
        return LoadResult(
            ready, False, l2_hit, False,
            tlb_miss, stall_cycles, outcome.stalled, same_set, l2_conflict,
        )

    def store(self, time: float, vaddr: int) -> LoadResult:
        """A store leaving the store queue at ``time``.

        Stores are write-allocate/write-back.  Unless store/port
        contention is modelled (native machine), they are assumed to
        "complete unimpeded" as the paper says of sim-alpha.
        """
        cfg = self.config
        paddr, tlb_miss, stall = self._translate(time, vaddr, self.dtlb)
        stall_cycles = stall
        if stall and cfg.walk.stalls_pipeline:
            time += stall

        if cfg.store_port_contention:
            time = self._acquire_dport(time)

        result = self.l1d.access(vaddr, write=True)
        if self._m_stores is not None:
            self._m_stores.inc()
            if result.hit:
                self._m_store_hits.inc()
        if result.hit:
            return LoadResult(
                time + 1, True, False, False,
                tlb_miss, stall_cycles, False, False,
            )

        block = self.l1d.block_of(vaddr)
        if result.evicted_block is not None and self.victim is not None:
            self.victim.insert(result.evicted_block, result.evicted_dirty)
        if self.victim is not None:
            dirty = self.victim.probe_and_extract(block)
            if dirty is not None:
                return LoadResult(
                    time + 2, False, False, True,
                    tlb_miss, stall_cycles, False, False,
                )
        outcome = self.maf_d.present_miss(time, block)
        if outcome.combined_fill is not None:
            return LoadResult(
                outcome.combined_fill, False, False, False,
                tlb_miss, stall_cycles, False, False,
            )
        ready, l2_hit, l2_conflict = self._l2_access(
            outcome.start_time, paddr, write=True
        )
        self.maf_d.record_fill(block, ready, start=outcome.start_time)
        return LoadResult(
            ready, False, l2_hit, False,
            tlb_miss, stall_cycles, outcome.stalled, False, l2_conflict,
        )


#: Declarative profiler hooks (see :mod:`repro.obs.profiler`): method
#: name -> "parent-phase/component".  Consumed by
#: ``HotPathProfiler.instrument`` when ``Instrumentation(profile=True)``
#: is active; costs nothing otherwise (no inline timing code here).
PROFILE_COMPONENTS = {
    "MemoryHierarchy": {
        "ifetch": "fetch/icache",
        "load": "mem/dcache",
        "store": "mem/dcache-store",
        "_translate": "mem/tlb",
        "_l2_access": "mem/l2",
    },
}
