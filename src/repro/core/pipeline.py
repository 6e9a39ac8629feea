"""The 21264 pipeline timing engine.

A dependence-driven timing model of the seven-stage 21264 pipeline
(Figure 1 of the paper): fetch, slot, map, issue, register read,
execute, write-back/retire.  The engine replays a dynamic trace in
program order and computes, per instruction, the cycle of each pipeline
event subject to:

* fetch bandwidth (one aligned octaword per cycle) and I-cache timing;
* the five front-end predictors (line, way, local/global/choice) with
  the slot-stage override adder (feature ``addr``);
* the return address stack and the 10-cycle indirect-jump flush;
* register renaming against a bounded rename pool (``maps`` stall);
* reorder buffer, collapsible issue queue, and store-queue occupancy;
* issue-port and functional-unit structural limits with the 21264's
  restricted instruction-to-unit mappings and two-cluster organisation
  (``slot`` restrictions, one-cycle cross-cluster bypass);
* load-use speculation, the store-wait table, store/load replay traps,
  and mbox traps (``luse``, ``stwt``, ``trap``);
* the full memory hierarchy of :mod:`repro.memory.hierarchy`.

Wrong-path work is charged as redirect bubbles computed from the
mispredicting instruction's resolution time, which is how trace-driven
timing models conventionally account for speculation.

**Float exactness.**  Event times are ``float``, but the arithmetic is
exact, not approximate: every quantity ever added to a time is a dyadic
rational with denominator dividing 4 — integer latencies and penalties,
the aggressive scheduler's 0.25-cycle cluster bias, and the bus-cycle
ratios (2.5 and 4.0 CPU cycles per bus cycle).  Sums and maxima of such
values are themselves multiples of 1/4, and an IEEE-754 double holds
``k/4`` exactly for ``|k| < 2**53`` — i.e. for all times below ``2**51``
cycles (~2.3e15, about five orders of magnitude past the longest
conceivable run; a 10M-instruction trace retires around 1e7 cycles).
There is therefore **no accumulation drift**: replaying a trace twice
produces bit-identical times, the blockcache's memoized deltas replay
exactly, and cross-platform results differ only if the platform's
double arithmetic is non-conformant.  ``tests/core/
test_float_determinism.py`` holds the regression tests for this
argument.

Every sim-initial bug (:mod:`repro.core.bugs`) and native-machine
effect (:class:`repro.core.config.NativeEffects`) hooks into a specific
mechanism here, so one engine serves sim-alpha, sim-initial,
sim-stripped, and the NativeMachine.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.blockcache import BlockCache, resolve_blockcache
from repro.core.config import MachineConfig
from repro.functional.trace import DynInstr
from repro.integrity.watchdog import (
    PORT_SCAN_LIMIT,
    SimulationStuck,
    record_heartbeat,
)
from repro.isa.instructions import InstrClass, Opcode
from repro.memory.hierarchy import MemoryHierarchy
from repro.predictors.line import LinePredictor
from repro.predictors.loaduse import LoadUsePredictor
from repro.predictors.ras import ReturnAddressStack
from repro.predictors.storewait import StoreWaitPredictor
from repro.predictors.tournament import TournamentPredictor
from repro.predictors.way import WayPredictor
from repro.result import RunStats, SimResult

__all__ = ["AlphaPipeline"]

_OCTA_MASK = ~15

# Functional-unit capability bits.
_ALU = 1
_MUL = 2
_MEM = 4
_BR = 8
_FADD = 16
_FMUL = 32
_FDIV = 64

#: Capability bit each instruction class requires, indexed by
#: ``InstrClass.ordinal``.  Only the ``_FDIV`` classes (divide and
#: square root) hold their unit for the whole latency.
_UNIT_NEED = tuple(
    _MUL if klass is InstrClass.INT_MUL
    else _MEM if klass.is_memory
    else _BR if klass.is_control
    else _FADD if klass is InstrClass.FP_ADD
    else _FMUL if klass is InstrClass.FP_MUL
    else _FDIV if klass.is_fp_operate
    else _ALU
    for klass in InstrClass
)


class AlphaPipeline:
    """Times dynamic traces under one :class:`MachineConfig`.

    A fresh instance is required per run: predictor and cache state is
    part of the measurement.
    """

    def __init__(self, config: MachineConfig | None = None):
        self.config = (config or MachineConfig()).resolved()
        cfg = self.config
        self.hierarchy = MemoryHierarchy(cfg.memory)
        self.branch_predictor = TournamentPredictor(cfg.tournament)
        self.line_predictor = LinePredictor(cfg.line_predictor)
        self.way_predictor = WayPredictor(cfg.way_predictor)
        self.ras = ReturnAddressStack(cfg.ras)
        self.load_use = LoadUsePredictor(cfg.load_use)
        self.store_wait = StoreWaitPredictor(cfg.store_wait)
        self._units = self._build_units()
        self._fp_units = self._build_fp_units()

    # ------------------------------------------------------------------
    # Functional-unit tables
    # ------------------------------------------------------------------

    def _build_units(self) -> List[List]:
        """Integer execution units: [capabilities, next_free, cluster].

        The validated mapping is the 21264's: one adder/multiplier and
        three adders, with memory ports on the lower subclusters and
        branch/shift resources on the uppers.  The ``wrong_fu_mix`` bug
        reproduces sim-initial's generic-resource trap (two mul-capable
        pipes, and multiply latency collapsing to the generic ALU's).
        """
        if self.config.bugs.wrong_fu_mix:
            return [
                [_ALU | _MUL | _BR, 0.0, 1],   # U1
                [_ALU | _MUL | _MEM, 0.0, 1],  # L1
                [_ALU | _BR, 0.0, 0],          # U0
                [_ALU | _MEM, 0.0, 0],         # L0
            ]
        return [
            [_ALU | _MUL | _BR, 0.0, 1],  # U1: the adder/multiplier
            [_ALU | _BR, 0.0, 0],         # U0
            [_ALU | _MEM, 0.0, 1],        # L1
            [_ALU | _MEM, 0.0, 0],        # L0
        ]

    def _build_fp_units(self) -> List[List]:
        """FP add pipe (with the non-pipelined divide/sqrt) and mul pipe."""
        return [
            [_FADD | _FDIV, 0.0, 0],
            [_FMUL, 0.0, 1],
        ]

    # ------------------------------------------------------------------

    def run_trace(
        self,
        trace: Sequence[DynInstr],
        workload: str = "",
        *,
        window_size: Optional[int] = None,
        observer=None,
        watchdog=None,
        blockcache=None,
    ) -> SimResult:
        """Time ``trace``.

        With ``window_size`` set, the cumulative retire time is
        recorded every that-many instructions into
        ``stats.extra["window_retire_times"]`` — the raw material for
        warm-up and steady-state analysis.

        ``observer`` is a :class:`repro.obs.RunObserver` (or ``None``):
        when set, the engine reports per-instruction stage times and
        event deltas to it, feeding the pipeline tracer and the
        CPI-stack accountant.  The disabled path costs one identity
        check per instruction.  An observer carrying an integrity
        ``sanitizer`` additionally gets latency checks at the memory
        interfaces and periodic invariant windows.

        ``watchdog`` is a :class:`repro.integrity.Watchdog` (or
        ``None``): beaten every few thousand instructions with the
        retire frontier, it raises :class:`SimulationStuck` when
        retirement stops advancing instead of spinning silently.

        ``blockcache`` controls the trace-compilation fast path
        (:mod:`repro.core.blockcache`): ``None``/``True`` enable it
        with defaults, ``False`` preserves the pure detailed loop, and
        a :class:`repro.core.blockcache.BlockCacheConfig` tunes it.
        The fast path engages only for random-access traces run
        without windowing, and is stat- and artefact-equivalent to the
        detailed path by construction (verified by sampling).
        """
        cfg = self.config
        features = cfg.features
        bugs = cfg.bugs
        stats = RunStats()
        hier = self.hierarchy
        bpred = self.branch_predictor
        line_pred = self.line_predictor
        way_pred = self.way_predictor
        ras = self.ras
        load_use = self.load_use
        store_wait = self.store_wait
        int_units = self._units
        fp_units = self._fp_units
        # The units able to execute each class, in scan order, by
        # InstrClass.ordinal.
        capable_units = [
            [unit for unit in (fp_units if klass.is_fp_operate else int_units)
             if unit[0] & _UNIT_NEED[klass.ordinal]]
            for klass in InstrClass
        ]

        front_depth = cfg.front_end_depth
        regread = cfg.regread_depth + (cfg.regfile.access_cycles - 1)
        full_bypass = cfg.regfile.full_bypass
        # Partial bypass removes all but the last forwarding level:
        # dependents of register-file-read results see (access - 1)
        # bubble cycles (Cruz et al.'s configuration).
        bypass_penalty = (
            0 if full_bypass else max(0, cfg.regfile.access_cycles - 1)
        )
        luse_cfg = cfg.load_use
        # Waiting for the tag check before waking consumers costs up to
        # conservative_cycles, but never more than the tag check itself
        # takes: a 1-cycle D-cache leaves no load-use window at all
        # (which is why the paper's Table 5 marks the 1-cycle-L1
        # optimization n/a under the no-luse configuration, and why
        # sim-stripped gains *more* from the faster cache).
        conservative = min(
            luse_cfg.conservative_cycles,
            max(0, cfg.memory.l1d_load_to_use - 1),
        )
        trap_penalty = cfg.replay_trap_penalty
        jmp_penalty = (
            6 if bugs.jmp_undercharge else cfg.jmp_flush_penalty
        )
        addr_feature = features.addr and not bugs.late_branch_recovery
        eret = features.eret and not bugs.no_unop_removal
        mul_latency_override = 1 if bugs.wrong_fu_mix else None
        luse_on = features.luse
        stwt_on = features.stwt
        extra_way_cycle = bugs.extra_way_predictor_cycle
        #: Penalty when a wrong line prediction on sequential flow is
        #: discovered late (no slot-stage adder to fix it).
        late_line_penalty = front_depth + regread + 3

        # Fetch state.
        fetch_free = 0.0           # next cycle a new octaword may fetch
        pending_fetch_at = 0.0     # earliest fetch due to redirect/flush
        current_octaword = -1
        group_ready = 0.0          # when the current octaword's data is up
        force_new_fetch = True
        prev_octaword = -1         # last fetched octaword (line-pred train)

        # Rename / window occupancy rings (times are retire times; they
        # are non-decreasing because retirement is in order).
        rob_ring: deque = deque()
        int_rename: deque = deque()
        fp_rename: deque = deque()
        storeq_ring: deque = deque()
        intq_ring: deque = deque()
        fpq_ring: deque = deque()
        rob_size = cfg.rob_size
        int_pool = cfg.int_rename_regs
        fp_pool = cfg.fp_rename_regs
        intq_size = cfg.int_queue_size
        fpq_size = cfg.fp_queue_size
        storeq_size = cfg.store_queue_size
        removal_delay = cfg.issue_queue_removal_delay
        maps_on = features.maps
        maps_m_int = int_pool - cfg.maps_stall_threshold + 1
        maps_m_fp = fp_pool - cfg.maps_stall_threshold + 1
        maps_stall = cfg.maps_stall_cycles
        # The rename table stalls when free registers drop below the
        # threshold; the three-cycle bubble is paid on *entering* that
        # state (a persistently full window pays once, since the map
        # stage is then retire-rate-bound anyway, not bubble-bound).
        maps_low = False

        # Register readiness: name -> (ready time, producing cluster).
        reg_ready: Dict[str, Tuple[float, int]] = {}

        # Issue-port accounting (per integer cycle).
        int_ports: Dict[int, int] = {}
        fp_ports: Dict[int, int] = {}
        int_width = cfg.int_issue_width
        fp_width = cfg.fp_issue_width

        # Retirement.
        retire_ports: Dict[int, int] = {}
        retire_width = cfg.retire_width
        last_retire = 0.0

        # Memory ordering.
        pending_stores: Dict[int, Tuple[int, float]] = {}
        last_loads: Dict[int, Tuple[int, float]] = {}
        store_frontier = 0.0  # latest store-resolve time seen so far
        load_key_shift = 4 if bugs.masked_load_trap_addresses else 3
        slot_on = features.slot
        aggressive = bugs.aggressive_cluster_scheduler
        cross_bypass = cfg.cross_cluster_bypass
        trap_on = features.trap
        unit_rotate = 0

        final_retire = 0.0
        instructions = 0
        window_marks: List[float] = []

        if observer is not None and observer.metrics is not None:
            hier.attach_metrics(observer.metrics)
        sanitizer = getattr(observer, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.attach(cfg, hier)
        prof = getattr(observer, "profiler", None)
        lap = None
        if prof is not None:
            prof.run_begin()
            prof.instrument(self)
            lap = prof.lap
            lap("setup")
        # Bound only now, so that a profiled run calls the wrappers
        # instrument() installed on the instances.
        ifetch = hier.ifetch
        load = hier.load
        store = hier.store
        line_train = line_pred.predict_and_train
        way_train = way_pred.predict_and_train
        bpred_train = bpred.predict_and_train
        luse_train = load_use.predict_and_train
        should_wait = store_wait.should_wait
        tick = store_wait.tick

        # Trace-compilation fast path: engages only for random-access,
        # unwindowed traces long enough to plausibly contain hot loops.
        bc = None
        bc_cfg = resolve_blockcache(blockcache)
        if (
            bc_cfg is not None
            and window_size is None
            and hasattr(trace, "__getitem__")
            and hasattr(trace, "__len__")
            and len(trace) >= bc_cfg.min_trace_len
        ):
            bc = BlockCache(bc_cfg, self, workload)
            bc.attach(
                trace, stats, observer,
                int_ports, fp_ports, retire_ports,
                pending_stores, last_loads,
            )
        bc_head = -1
        bc_recording = False

        it = iter(trace)
        for dyn in it:
            instructions += 1
            if bc is not None and dyn.pc == bc_head:
                plan = bc.boundary(
                    bc_head,
                    instructions - 1,
                    (fetch_free, pending_fetch_at, current_octaword,
                     group_ready, force_new_fetch, prev_octaword,
                     maps_low, last_retire, store_frontier,
                     unit_rotate, final_retire),
                    (rob_ring, int_rename, fp_rename, storeq_ring,
                     intq_ring, fpq_ring),
                    reg_ready,
                )
                bc_recording = bc.recording
                if plan is not None:
                    (consumed, fetch_free, pending_fetch_at,
                     group_ready, store_frontier, last_retire,
                     final_retire, current_octaword, force_new_fetch,
                     prev_octaword, maps_low, unit_rotate,
                     rings_new) = plan
                    rob_ring = deque(rings_new[0])
                    int_rename = deque(rings_new[1])
                    fp_rename = deque(rings_new[2])
                    storeq_ring = deque(rings_new[3])
                    intq_ring = deque(rings_new[4])
                    fpq_ring = deque(rings_new[5])
                    instructions += consumed - 1
                    deque(islice(it, consumed - 1), maxlen=0)
                    beat_state = {
                        "stage": "blockcache",
                        "pc": dyn.pc,
                        "batch": consumed,
                    }
                    if watchdog is not None:
                        watchdog.beat(
                            instructions, last_retire, beat_state
                        )
                    else:
                        record_heartbeat(
                            instructions, last_retire, beat_state
                        )
                    if lap is not None:
                        lap("blockcache")
                    continue
            if observer is not None:
                observer.begin(stats)
            if window_size is not None and not instructions % window_size:
                window_marks.append(
                    final_retire if final_retire > last_retire
                    else last_retire
                )
            klass = dyn.klass
            pc = dyn.pc
            octaword = pc & _OCTA_MASK

            # ----------------------------------------------------------
            # Fetch
            # ----------------------------------------------------------
            if force_new_fetch or octaword != current_octaword:
                if prev_octaword >= 0 and not force_new_fetch:
                    # Sequential octaword transition: the line predictor
                    # must have steered fetch here.
                    predicted = line_train(prev_octaword, octaword)
                    if predicted != octaword:
                        stats.line_mispredicts += 1
                        if addr_feature:
                            # Fall-through is the cheapest override: the
                            # slot stage needs no target computation.
                            pending_fetch_at = max(
                                pending_fetch_at,
                                group_ready + cfg.slot_override_bubble,
                            )
                        else:
                            pending_fetch_at = max(
                                pending_fetch_at,
                                group_ready + late_line_penalty,
                            )
                fetch_start = max(fetch_free, pending_fetch_at)
                ready, l1_hit, way = ifetch(fetch_start, octaword)
                if sanitizer is not None:
                    sanitizer.check_time("ifetch", ready, pc=pc)
                if not l1_hit:
                    stats.icache_misses += 1
                if way_train(octaword, way) != way:
                    stats.way_mispredicts += 1
                    ready += cfg.way_mispredict_bubble
                if extra_way_cycle:
                    ready += 1
                fetch_free = fetch_start + 1
                group_ready = ready
                current_octaword = octaword
                prev_octaword = octaword
                force_new_fetch = False
            fetch_time = group_ready
            if lap is not None:
                lap("fetch")

            # ----------------------------------------------------------
            # Short paths: no-ops, halt
            # ----------------------------------------------------------
            if klass is InstrClass.NOP and eret:
                # Early retirement in the map stage.
                retire = max(fetch_time + 2, last_retire)
                last_retire = retire
                final_retire = retire if retire > final_retire else final_retire
                if observer is not None:
                    observer.commit_short(dyn, fetch_time, retire, stats)
                if bc_recording:
                    bc.rec_short(1, dyn, fetch_time, retire)
                    bc_recording = bc.recording
                if lap is not None:
                    lap("retire")
                continue
            if klass is InstrClass.HALT:
                retire = max(fetch_time + front_depth + 1, last_retire)
                last_retire = retire
                final_retire = retire if retire > final_retire else final_retire
                if observer is not None:
                    observer.commit_short(dyn, fetch_time, retire, stats)
                if bc_recording:
                    bc.rec_short(2, dyn, fetch_time, retire)
                    bc_recording = bc.recording
                if lap is not None:
                    lap("retire")
                continue

            # ----------------------------------------------------------
            # Map: rename + window occupancy
            # ----------------------------------------------------------
            map_time = fetch_time + 2
            if len(rob_ring) >= rob_size:
                oldest = rob_ring.popleft()
                if oldest > map_time:
                    map_time = oldest

            dest = dyn.dest
            renames = dest is not None and dest not in ("r31", "f31")
            if renames:
                is_fp_dest = dest[0] == "f"
                ring = fp_rename if is_fp_dest else int_rename
                pool = fp_pool if is_fp_dest else int_pool
                if len(ring) >= pool:
                    oldest = ring.popleft()
                    if oldest > map_time:
                        map_time = oldest
                if maps_on:
                    m = maps_m_fp if is_fp_dest else maps_m_int
                    k = len(ring) - m
                    low = k >= 0 and ring[k] > map_time
                    if low and not maps_low:
                        stats.maps_stalls += 1
                        map_time += maps_stall
                    maps_low = low

            fp_pipe = klass.is_fp_operate
            queue_ring = fpq_ring if fp_pipe else intq_ring
            queue_size = fpq_size if fp_pipe else intq_size
            if len(queue_ring) >= queue_size:
                oldest = queue_ring.popleft()
                if oldest > map_time:
                    map_time = oldest

            if dyn.is_store:
                if len(storeq_ring) >= storeq_size:
                    oldest = storeq_ring.popleft()
                    if oldest > map_time:
                        map_time = oldest
            if lap is not None:
                lap("map")

            # ----------------------------------------------------------
            # Operand readiness and cluster choice
            # ----------------------------------------------------------
            srcs = dyn.srcs
            if dyn.opcode.reads_dest and dest is not None:
                srcs = srcs + (dest,)
            data_ready = 0.0
            src_cluster = -1
            for src in srcs:
                entry = reg_ready.get(src)
                if entry is not None:
                    t, producer_cluster = entry
                    if t > data_ready:
                        data_ready = t
                        src_cluster = producer_cluster

            # Unit selection.
            need = _UNIT_NEED[klass.ordinal]
            issue_base = map_time + 1
            lower_bound = issue_base if issue_base > data_ready else data_ready

            best = None
            best_time = None
            if slot_on:
                for unit in capable_units[klass.ordinal]:
                    t = lower_bound if lower_bound > unit[1] else unit[1]
                    if src_cluster >= 0 and unit[2] != src_cluster:
                        # The producer lives in the other cluster.
                        if aggressive:
                            # sim-initial's too-smart scheduler prefers
                            # the producer's cluster: a mild bias away,
                            # rarely binding.  0.25 keeps every time a
                            # multiple of 1/4 (the float-exactness note).
                            t += 0.25
                        elif data_ready + cross_bypass > t:
                            # The real arbiter does no source-aware
                            # steering: it pays the cross-cluster bypass.
                            t = data_ready + cross_bypass
                    if best_time is None or t < best_time:
                        best_time = t
                        best = unit
            else:
                # No slotting restrictions and no cluster penalty: an
                # abstract centralized core whose arbiter is an ideal
                # balancer, rotating the scan so ties spread across
                # units instead of piling onto a favourite.
                units = fp_units if fp_pipe else int_units
                unit_rotate += 1
                first = unit_rotate % len(units)
                for unit in units[first:] + units[:first]:
                    if unit[0] & need:
                        t = lower_bound if lower_bound > unit[1] else unit[1]
                        if best_time is None or t < best_time:
                            best_time = t
                            best = unit
            issue_time = best_time
            my_cluster = best[2]

            # Store-wait: a load with its wait bit set holds until older
            # stores have resolved.
            waited_for_stores = False
            if dyn.is_load and stwt_on and should_wait(pc):
                if store_frontier > issue_time:
                    issue_time = store_frontier
                stats.store_wait_holds += 1
                waited_for_stores = True

            # Issue-port arbitration.
            ports = fp_ports if fp_pipe else int_ports
            width = fp_width if fp_pipe else int_width
            cycle = int(issue_time)
            scan_stop = cycle + PORT_SCAN_LIMIT
            while ports.get(cycle, 0) >= width:
                cycle += 1
                if cycle > scan_stop:
                    raise SimulationStuck(
                        f"issue-port arbitration found no free cycle in "
                        f"{PORT_SCAN_LIMIT} cycles (width={width})",
                        instructions=instructions,
                        retire=last_retire,
                        state={
                            "stage": "issue-port-scan",
                            "pc": pc,
                            "cycle": cycle,
                            "width": width,
                            "issue_cycles_live": (
                                len(int_ports) + len(fp_ports)
                            ),
                        },
                    )
            ports[cycle] = ports.get(cycle, 0) + 1
            if cycle > issue_time:
                issue_time = float(cycle)

            # Occupy the unit (pipelined except divide/sqrt).
            latency = dyn.latency
            if mul_latency_override is not None and klass is InstrClass.INT_MUL:
                latency = mul_latency_override
            if need == _FDIV:
                best[1] = issue_time + latency
            else:
                best[1] = issue_time + 1

            queue_ring.append(issue_time + removal_delay)
            if lap is not None:
                lap("issue")

            # ----------------------------------------------------------
            # Execute / memory
            # ----------------------------------------------------------
            trap_redirect = 0.0
            if dyn.is_load:
                key = dyn.eaddr >> 3
                result = load(issue_time, dyn.eaddr, fp=dyn.is_fp)
                if not result.l1_hit:
                    stats.dcache_misses += 1
                if not result.l1_hit and not result.l2_hit and \
                        not result.victim_hit:
                    stats.l2_misses += 1
                if result.victim_hit:
                    stats.victim_hits += 1
                if result.tlb_miss:
                    stats.dtlb_misses += 1
                if result.maf_stall:
                    stats.maf_stalls += 1
                if sanitizer is not None:
                    sanitizer.check_time("load", result.ready, pc=pc)
                ready = result.ready

                if luse_on:
                    predicted_hit = luse_train(result.l1_hit)
                    if predicted_hit and not result.l1_hit:
                        stats.loaduse_mispredicts += 1
                        ready += luse_cfg.squash_cycles
                    elif not predicted_hit and result.l1_hit:
                        ready += conservative
                else:
                    if result.l1_hit:
                        ready += conservative

                # Store replay trap: issued past an unresolved older
                # store to the same (word-granular) address.
                if not waited_for_stores:
                    entry = pending_stores.get(key)
                    if entry is not None and entry[1] > issue_time:
                        stats.store_replay_traps += 1
                        if stwt_on:
                            store_wait.record_trap(pc)
                        ready = entry[1] + trap_penalty
                        trap_redirect = ready

                # Load-load order trap: a younger load to the same
                # (possibly masked) address issuing before an older one.
                lentry = last_loads.get(key >> (load_key_shift - 3))
                if lentry is not None and lentry[1] > issue_time:
                    stats.load_order_traps += 1
                    replay_at = lentry[1] + trap_penalty
                    if replay_at > ready:
                        ready = replay_at
                    trap_redirect = max(trap_redirect, replay_at)
                last_loads[key >> (load_key_shift - 3)] = (dyn.seq, issue_time)

                # mbox traps (constraining feature).
                if trap_on and (
                    result.same_set_conflict
                    or result.maf_stall
                    or result.l2_set_conflict
                ):
                    stats.mbox_traps += 1
                    trap_redirect = max(trap_redirect, ready + trap_penalty)

                complete = ready + regread  # write-back depth
                consumer_ready = ready
            elif dyn.is_store:
                resolve = issue_time + regread + 1
                result = store(resolve, dyn.eaddr)
                if sanitizer is not None:
                    sanitizer.check_time("store", result.ready, pc=pc)
                if not result.l1_hit:
                    stats.dcache_misses += 1
                if result.tlb_miss:
                    stats.dtlb_misses += 1
                pending_stores[dyn.eaddr >> 3] = (dyn.seq, resolve)
                if resolve > store_frontier:
                    store_frontier = resolve
                complete = result.ready if result.ready > resolve else resolve
                consumer_ready = resolve
                storeq_ring.append(complete)
            else:
                consumer_ready = issue_time + latency + bypass_penalty
                complete = issue_time + regread + latency
            if lap is not None:
                lap("mem" if (dyn.is_load or dyn.is_store) else "execute")

            # ----------------------------------------------------------
            # Control resolution
            # ----------------------------------------------------------
            if dyn.is_control:
                resolve = issue_time + regread + 1
                target_octa = dyn.next_pc & _OCTA_MASK
                if klass is InstrClass.COND_BRANCH:
                    stats.branch_lookups += 1
                    prediction = bpred_train(pc, dyn.taken)
                    if prediction != dyn.taken:
                        stats.branch_mispredicts += 1
                        pending_fetch_at = max(
                            pending_fetch_at,
                            resolve + cfg.redirect_overhead,
                        )
                        force_new_fetch = True
                        if dyn.taken:
                            line_train(octaword, target_octa)
                    elif dyn.taken:
                        predicted_line = line_train(octaword, target_octa)
                        force_new_fetch = True
                        if predicted_line != target_octa:
                            stats.line_mispredicts += 1
                            if addr_feature:
                                pending_fetch_at = max(
                                    pending_fetch_at,
                                    fetch_time + 1 + cfg.slot_override_bubble,
                                )
                            else:
                                pending_fetch_at = max(
                                    pending_fetch_at,
                                    resolve + cfg.redirect_overhead,
                                )
                        if bugs.octaword_squash_penalty and dyn.slot < 3:
                            pending_fetch_at = max(
                                pending_fetch_at, fetch_time + 2
                            )
                elif klass is InstrClass.UNCOND_BRANCH or (
                    klass is InstrClass.CALL and dyn.opcode is Opcode.BSR
                ):
                    predicted_line = line_train(octaword, target_octa)
                    force_new_fetch = True
                    if predicted_line != target_octa:
                        stats.line_mispredicts += 1
                        if addr_feature:
                            pending_fetch_at = max(
                                pending_fetch_at,
                                fetch_time + 1 + cfg.slot_override_bubble,
                            )
                        else:
                            pending_fetch_at = max(
                                pending_fetch_at,
                                resolve + cfg.redirect_overhead,
                            )
                    if klass is InstrClass.CALL:
                        ras.push(dyn.fallthrough_pc)
                elif klass is InstrClass.RETURN:
                    correct = ras.predict_and_pop(dyn.next_pc)
                    force_new_fetch = True
                    if not correct:
                        stats.ras_mispredicts += 1
                        pending_fetch_at = max(
                            pending_fetch_at, fetch_time + jmp_penalty
                        )
                    line_train(octaword, target_octa)
                else:
                    # Indirect jump or jsr: the line predictor is the
                    # only target predictor, and its misses cost the
                    # full 10-cycle flush (the slot adder cannot help).
                    predicted_line = line_train(octaword, target_octa)
                    force_new_fetch = True
                    if predicted_line != target_octa:
                        stats.jmp_mispredicts += 1
                        pending_fetch_at = max(
                            pending_fetch_at, fetch_time + jmp_penalty
                        )
                    if klass is InstrClass.CALL:
                        ras.push(dyn.fallthrough_pc)
                if bc is not None and dyn.taken and dyn.next_pc <= pc:
                    # A taken backward branch nominates its target as
                    # the current hot-block head.
                    bc_head = dyn.next_pc

            if trap_redirect:
                pending_fetch_at = max(pending_fetch_at, trap_redirect)
                force_new_fetch = True
            if lap is not None:
                lap("control")

            # ----------------------------------------------------------
            # Write-back / retire
            # ----------------------------------------------------------
            if renames:
                reg_ready[dest] = (consumer_ready, my_cluster)

            retire = complete + 1
            if retire < last_retire:
                retire = last_retire
            rcycle = int(retire)
            scan_stop = rcycle + PORT_SCAN_LIMIT
            while retire_ports.get(rcycle, 0) >= retire_width:
                rcycle += 1
                if rcycle > scan_stop:
                    raise SimulationStuck(
                        f"retirement found no free cycle in "
                        f"{PORT_SCAN_LIMIT} cycles "
                        f"(retire_width={retire_width})",
                        instructions=instructions,
                        retire=last_retire,
                        state={
                            "stage": "retire-port-scan",
                            "pc": pc,
                            "cycle": rcycle,
                            "retire_width": retire_width,
                            "rob": len(rob_ring),
                        },
                    )
            retire_ports[rcycle] = retire_ports.get(rcycle, 0) + 1
            if rcycle > retire:
                retire = float(rcycle)
            last_retire = retire
            if retire > final_retire:
                final_retire = retire

            rob_ring.append(retire)
            if renames:
                (fp_rename if is_fp_dest else int_rename).append(retire)
            if stwt_on:
                tick()

            if observer is not None:
                observer.commit(
                    dyn, fetch_time, map_time, issue_time, complete,
                    retire, stats,
                )
            if bc_recording:
                bc.rec_commit(
                    dyn, fetch_time, map_time, issue_time, complete,
                    retire, my_cluster, consumer_ready, best,
                )
                bc_recording = bc.recording

            # Periodic pruning of unbounded maps (and the livelock
            # heartbeat, which rides the same stride for zero cost on
            # the common path).
            if not instructions % 8192:
                # The heartbeat carries a pipeline-state snapshot so a
                # SIGUSR1 escalation (or watchdog trip) reports *where*
                # the run was — stage frontier, window and queue
                # occupancies, live port-table sizes — not just how far.
                beat_state = {
                    "stage": "retire",
                    "pc": pc,
                    "rob": len(rob_ring),
                    "int_rename": len(int_rename),
                    "fp_rename": len(fp_rename),
                    "intq": len(intq_ring),
                    "fpq": len(fpq_ring),
                    "storeq": len(storeq_ring),
                    "issue_cycles_live": len(int_ports) + len(fp_ports),
                    "retire_cycles_live": len(retire_ports),
                }
                if watchdog is not None:
                    watchdog.beat(instructions, last_retire, beat_state)
                else:
                    record_heartbeat(instructions, last_retire, beat_state)
                # Pruning mutates the dicts in place (rather than
                # rebinding the locals) so the blockcache's references
                # to them stay live.
                now = issue_time
                if len(pending_stores) > 4096:
                    kept = {
                        k: v for k, v in pending_stores.items() if v[1] > now
                    }
                    pending_stores.clear()
                    pending_stores.update(kept)
                if len(last_loads) > 8192:
                    kept = {
                        k: v
                        for k, v in last_loads.items()
                        if v[1] > now - 64
                    }
                    last_loads.clear()
                    last_loads.update(kept)
                if len(int_ports) > 65536:
                    horizon = int(now) - 128
                    kept = {
                        c: n for c, n in int_ports.items() if c > horizon
                    }
                    int_ports.clear()
                    int_ports.update(kept)
                    kept = {
                        c: n for c, n in fp_ports.items() if c > horizon
                    }
                    fp_ports.clear()
                    fp_ports.update(kept)
                    kept = {
                        c: n for c, n in retire_ports.items() if c > horizon
                    }
                    retire_ports.clear()
                    retire_ports.update(kept)
            if lap is not None:
                lap("retire")

        if bc is not None:
            bc.finish(observer, instructions)
        stats.itlb_misses = hier.itlb.stats.misses
        if window_size is not None:
            stats.extra["window_size"] = window_size
            stats.extra["window_retire_times"] = window_marks
        result = SimResult(
            simulator=self.config.name,
            workload=workload,
            cycles=max(final_retire, 1.0),
            instructions=instructions,
            stats=stats,
        )
        if observer is not None:
            observer.finalize(result)
        if prof is not None:
            prof.run_end()
        return result
