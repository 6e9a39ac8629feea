"""sim-outorder: the SimpleScalar 3.0b out-of-order model.

Paper Section 5.1: "The tools simulate a processor organization that
would not be feasible at high frequencies and consequently have never
been validated against hardware ... The simulator models a five-stage
pipeline and is based on the Register Update Unit (RUU), which combines
the physical register file, reorder buffer, and issue window into a
single structure."

The abstractions that make it fast — and optimistic — are deliberate
and mirror the paper's list of why it outruns the DS-10L by ~37%:

* a shallow five-stage pipeline (3-cycle-ish mispredict penalty instead
  of 7+);
* a BTB for target prediction instead of a line predictor;
* a centralized execution core: no clusters, no cross-cluster bypass,
  no slotting restrictions;
* generic functional units;
* no replay traps of any kind, and an unconstrained front end (fetch is
  not octaword-aligned);
* a simpler memory system with a flat DRAM latency (the paper
  configures 62 cycles) and no MAF/port limits.

Configured per the paper: RUU = 64 entries, a combined 64-entry LSQ,
caches matching the DS-10L geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from repro.functional.trace import DynInstr
from repro.isa.instructions import InstrClass
from repro.memory.cache import Cache, CacheConfig
from repro.predictors.btb import BranchTargetBuffer, BtbConfig
from repro.predictors.ras import RasConfig, ReturnAddressStack
from repro.predictors.twolevel import TwoLevelConfig, TwoLevelPredictor
from repro.result import RunStats, SimResult

__all__ = ["OutOrderConfig", "SimOutOrder"]

#: Functional-unit pool each instruction class issues to, indexed by
#: ``InstrClass.ordinal``: 0 = integer ALU (memory and control
#: included), 1 = integer multiplier, 2 = FP adder, 3 = FP multiplier
#: (which also divides and takes square roots).
_POOL = tuple(
    1 if klass is InstrClass.INT_MUL
    else 2 if klass is InstrClass.FP_ADD
    else 3 if klass.is_fp_operate
    else 0
    for klass in InstrClass
)


@dataclass(frozen=True)
class OutOrderConfig:
    """sim-outorder knobs (defaults = the paper's configuration)."""

    name: str = "sim-outorder"
    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    ruu_size: int = 64
    lsq_size: int = 64
    #: Cycles from fetch to issue-eligible (the shallow pipeline).
    front_depth: int = 2
    #: Extra cycles after branch resolution before refetch.
    mispredict_penalty: int = 2
    int_alu_units: int = 4
    int_mult_units: int = 1
    #: One FP adder, as in the paper's 21264-matched configuration.
    fp_alu_units: int = 1
    fp_mult_units: int = 1
    mem_ports: int = 2
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 64, name="dl1")
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig(64 * 1024, 2, 64, name="il1")
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 1, 64, name="ul2")
    )
    l1_latency: int = 3
    l2_latency: int = 13
    dram_latency: int = 62
    btb: BtbConfig = field(default_factory=BtbConfig)
    predictor: TwoLevelConfig = field(default_factory=TwoLevelConfig)
    #: None = the classic RUU (registers are window entries).  An int
    #: models the Table 5 variant "in which the physical register file
    #: is a separate structure" of that many rename registers.
    separate_phys_regs: Optional[int] = None

    def with_l1_latency(self, cycles: int) -> "OutOrderConfig":
        return replace(self, l1_latency=cycles)


class SimOutOrder:
    """Times traces under the RUU model."""

    def __init__(self, config: OutOrderConfig | None = None):
        self.config = config or OutOrderConfig()

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace: Sequence[DynInstr], workload: str = "") -> SimResult:
        cfg = self.config
        stats = RunStats()
        il1 = Cache(cfg.l1i)
        dl1 = Cache(cfg.l1d)
        ul2 = Cache(cfg.l2)
        bpred = TwoLevelPredictor(cfg.predictor)
        btb = BranchTargetBuffer(cfg.btb)
        ras = ReturnAddressStack(RasConfig(depth=8))

        reg_ready: Dict[str, float] = {}
        ruu_ring: list = []
        ruu_head = 0
        lsq_ring: list = []
        lsq_head = 0
        phys_ring: list = []
        phys_head = 0
        phys_pool = cfg.separate_phys_regs

        ports: Dict[int, int] = {}
        mem_ports: Dict[int, int] = {}
        commit_ports: Dict[int, int] = {}
        fetch_slots: Dict[int, int] = {}

        pools = (
            [0.0] * cfg.int_alu_units,
            [0.0] * cfg.int_mult_units,
            [0.0] * cfg.fp_alu_units,
            [0.0] * cfg.fp_mult_units,
        )
        block_shift = il1.config.block_bytes.bit_length() - 1
        fetched_line = -1

        def dcache_latency(addr: int, write: bool) -> Tuple[float, bool]:
            hit = dl1.access(addr, write=write).hit
            if hit:
                return float(cfg.l1_latency), True
            if ul2.access(addr).hit:
                return float(cfg.l2_latency), False
            return float(cfg.dram_latency), False

        pending_redirect = 0.0
        fetch_cursor = 0.0
        last_commit = 0.0
        final_commit = 0.0

        for dyn in trace:
            klass = dyn.klass
            pc = dyn.pc

            # Fetch: width-limited, cache-timed, alignment-free.
            fetch_at = max(pending_redirect, fetch_cursor)
            cycle = int(fetch_at)
            while fetch_slots.get(cycle, 0) >= cfg.fetch_width:
                cycle += 1
            fetch_slots[cycle] = fetch_slots.get(cycle, 0) + 1
            fetch_time = float(cycle) if cycle > fetch_at else fetch_at
            fetch_cursor = float(cycle)
            # A fetch from the line fetched last is an MRU hit that
            # changes no I-cache state (the cache is private to this
            # run and its access count is never reported): skip it.
            if pc >> block_shift != fetched_line:
                fetched_line = pc >> block_shift
                if not il1.access(pc).hit:
                    stats.icache_misses += 1
                    if ul2.access(pc).hit:
                        fetch_time += cfg.l2_latency
                    else:
                        fetch_time += cfg.dram_latency
                    # Fetch stalls behind an I-cache miss.
                    fetch_cursor = max(fetch_cursor, fetch_time)

            if klass is InstrClass.HALT:
                commit = max(fetch_time + cfg.front_depth + 1, last_commit)
                last_commit = commit
                final_commit = max(final_commit, commit)
                continue

            # Dispatch: RUU / LSQ / (optional) rename occupancy.
            is_memory = klass.is_memory
            dispatch = fetch_time + cfg.front_depth
            if len(ruu_ring) - ruu_head >= cfg.ruu_size:
                oldest = ruu_ring[ruu_head]
                ruu_head += 1
                if ruu_head > 4096:
                    del ruu_ring[:ruu_head]
                    ruu_head = 0
                if oldest > dispatch:
                    dispatch = oldest
            if is_memory and len(lsq_ring) - lsq_head >= cfg.lsq_size:
                oldest = lsq_ring[lsq_head]
                lsq_head += 1
                if oldest > dispatch:
                    dispatch = oldest
            if phys_pool is not None and dyn.dest is not None:
                if len(phys_ring) - phys_head >= phys_pool:
                    oldest = phys_ring[phys_head]
                    phys_head += 1
                    if oldest > dispatch:
                        dispatch = oldest

            # Operand readiness (full bypass, no cluster penalty).
            data_ready = dispatch + 1
            for src in dyn.srcs:
                t = reg_ready.get(src)
                if t is not None and t > data_ready:
                    data_ready = t

            # Issue-width and unit arbitration.
            issue_time = data_ready
            cycle = int(issue_time)
            while ports.get(cycle, 0) >= cfg.issue_width:
                cycle += 1
            ports[cycle] = ports.get(cycle, 0) + 1
            if cycle > issue_time:
                issue_time = float(cycle)
            # The earliest-free unit of the class's pool (the first on
            # ties).
            pool = pools[_POOL[klass.ordinal]]
            free = min(pool)
            if free > issue_time:
                issue_time = free
            pool[pool.index(free)] = issue_time + 1

            # Execute.
            if dyn.is_load:
                cycle = int(issue_time)
                while mem_ports.get(cycle, 0) >= cfg.mem_ports:
                    cycle += 1
                mem_ports[cycle] = mem_ports.get(cycle, 0) + 1
                latency, hit = dcache_latency(dyn.eaddr, False)
                if not hit:
                    stats.dcache_misses += 1
                complete = issue_time + latency
            elif dyn.is_store:
                latency, hit = dcache_latency(dyn.eaddr, True)
                if not hit:
                    stats.dcache_misses += 1
                complete = issue_time + 1  # stores retire from the LSQ
            else:
                # SimpleScalar's generic latencies: control resolves in
                # one cycle and the default FP adder takes two (both
                # shorter than the 21264's — part of its optimism).
                if dyn.is_control:
                    latency = 1
                elif dyn.klass is InstrClass.FP_ADD:
                    latency = 2
                else:
                    latency = dyn.latency
                complete = issue_time + latency

            # Control: 2-level + BTB/RAS with the shallow-pipe penalty.
            if dyn.is_control:
                resolve = complete
                mispredicted = False
                if klass is InstrClass.COND_BRANCH:
                    stats.branch_lookups += 1
                    prediction = bpred.predict_and_train(dyn.pc, dyn.taken)
                    if prediction != dyn.taken:
                        stats.branch_mispredicts += 1
                        mispredicted = True
                    elif dyn.taken:
                        if btb.lookup_and_train(dyn.pc, dyn.next_pc) != dyn.next_pc:
                            mispredicted = True
                elif klass is InstrClass.RETURN:
                    if not ras.predict_and_pop(dyn.next_pc):
                        stats.ras_mispredicts += 1
                        mispredicted = True
                else:
                    if klass is InstrClass.CALL:
                        ras.push(dyn.fallthrough_pc)
                    if btb.lookup_and_train(dyn.pc, dyn.next_pc) != dyn.next_pc:
                        stats.jmp_mispredicts += 1
                        mispredicted = True
                if mispredicted:
                    pending_redirect = max(
                        pending_redirect, resolve + cfg.mispredict_penalty
                    )

            if dyn.dest is not None and dyn.dest not in ("r31", "f31"):
                reg_ready[dyn.dest] = complete

            # Commit in order, width-limited.
            commit = max(complete + 1, last_commit)
            cycle = int(commit)
            while commit_ports.get(cycle, 0) >= cfg.commit_width:
                cycle += 1
            commit_ports[cycle] = commit_ports.get(cycle, 0) + 1
            if cycle > commit:
                commit = float(cycle)
            last_commit = commit
            final_commit = max(final_commit, commit)

            ruu_ring.append(commit)
            if is_memory:
                lsq_ring.append(commit)
                if lsq_head > 4096:
                    del lsq_ring[:lsq_head]
                    lsq_head = 0
            if phys_pool is not None and dyn.dest is not None:
                phys_ring.append(commit)
                if phys_head > 4096:
                    del phys_ring[:phys_head]
                    phys_head = 0

            if len(fetch_slots) > 65536:
                horizon = int(fetch_time) - 64
                fetch_slots = {c: n for c, n in fetch_slots.items() if c > horizon}
                ports = {c: n for c, n in ports.items() if c > horizon}
                mem_ports = {c: n for c, n in mem_ports.items() if c > horizon}
                commit_ports = {
                    c: n for c, n in commit_ports.items() if c > horizon
                }

        return SimResult(
            simulator=cfg.name,
            workload=workload,
            cycles=max(final_commit, 1.0),
            instructions=len(trace),
            stats=stats,
        )
