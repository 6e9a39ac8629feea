"""Trace compilation: memoized steady-state replay of hot basic blocks.

ROADMAP item 1: the per-instruction Python loop in
:mod:`repro.core.pipeline` dominates every planned direction, and the
loops our workload generators emit spend nearly all of their dynamic
instructions re-executing a short body whose pipeline timing has
reached a fixed point.  This module detects that fixed point *exactly*
and replays it, instead of re-deriving it one instruction at a time —
the dual fast/detailed simulator pattern from "Towards Accurate
Performance Modeling of RISC-V Designs" (PAPERS.md), with the detailed
path kept as the authority the fast path must keep proving itself
against.

Protocol (see ``docs/PERFORMANCE.md`` for the full soundness argument):

1. **Head detection** — a taken backward branch nominates its target
   as a block head.  Each arrival of the fetch stream at the current
   head is a *boundary*; the instructions between consecutive
   boundaries are one *occurrence* (one loop iteration).
2. **Three-capture steadiness** — occurrences are run through the
   detailed loop while their per-instruction stage times (as offsets
   from the boundary's retire frontier; *fetch* times as offsets from
   the boundary's front-end frontier — the two clocks drift apart, see
   :meth:`BlockCache._classify`), microarchitectural exit state, and
   stat deltas are recorded.  A block is *steady* only when two
   consecutive occurrence pairs agree on every record, the exit state
   classifies into the same covariant(+P)/affine(+d)/constant template
   twice running, the period ``P`` is a positive integer, and a digest
   over every piece of mutable state the all-hit path can read
   (predictor tables, cache and TLB LRU order, RAS, store-wait bits)
   is identical at consecutive boundaries.  Blocks that keep failing
   go *dead* and cost one dict probe per loop iteration thereafter;
   blocks that never pass the cheap record comparison never pay for a
   digest.
3. **Replay** — at a steady boundary, the upcoming trace is pre-scanned
   for ``m`` whole occurrences whose instructions are field-identical
   to the memo; the batch is applied in one step: covariant state
   advances by ``m * P``, front-end (affine) state by ``m * d``,
   constant state is untouched, stats and component counters advance
   by ``m`` aggregate deltas, and issue/retire port occupancy is
   written for the trailing iterations post-batch code could still
   scan.
4. **Safety** — replay happens only when the boundary state verifiably
   lies on the memoized orbit *and* the batch is contiguous with the
   previous one (so no foreign execution can have perturbed
   predictor/cache state in between).  Every ``verify_interval``-th
   batch is instead re-executed through the detailed path and diffed
   against the memo, digest included; any mismatch raises
   ``IntegrityError(InvariantViolation("blockcache_divergence"))`` and
   the run is quarantined through the standard sanitizer/CellFailure
   machinery.  Non-contiguous re-entries are re-verified benignly (a
   mismatch restarts capture; it does not quarantine).

Replay-unsafe behaviour — any cache/TLB miss, victim or MAF activity,
mbox trap, or (with the store-wait table enabled) any store-replay
trap, hold, or set wait bit — rejects steadiness for that window, so
the memoized path is exactly the all-hit, trap-free fast path and the
detailed loop keeps authority over everything else.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "BlockCacheConfig",
    "BlockCache",
    "resolve_blockcache",
]

# _Entry modes.
_IDLE = 0
_CAPTURING = 1
_STEADY = 2
_DEAD = 3

#: RunStats counter fields, in declaration order (the per-record
#: sparse-delta index space).
_STAT_FIELDS: Tuple[str, ...] = (
    "branch_lookups", "branch_mispredicts", "line_mispredicts",
    "way_mispredicts", "ras_mispredicts", "jmp_mispredicts",
    "loaduse_mispredicts", "store_replay_traps", "load_order_traps",
    "mbox_traps", "store_wait_holds", "icache_misses", "dcache_misses",
    "l2_misses", "victim_hits", "itlb_misses", "dtlb_misses",
    "maf_stalls", "maps_stalls",
)
_STAT_INDEX = {name: i for i, name in enumerate(_STAT_FIELDS)}

#: Per-occurrence stat deltas that make a window replay-unsafe: each
#: implies the occurrence touched machinery (miss paths, MAF, victim
#: buffer, mbox) whose state a replayed batch would not advance.
_UNSAFE_IDX = tuple(
    _STAT_INDEX[name] for name in (
        "icache_misses", "dcache_misses", "l2_misses", "victim_hits",
        "dtlb_misses", "maf_stalls", "mbox_traps",
    )
)
_STWT_UNSAFE_IDX = tuple(
    _STAT_INDEX[name] for name in ("store_replay_traps", "store_wait_holds")
)

#: Instruction identity for pre-scan and capture comparison: every
#: DynInstr field the timing engine reads, less those derived from the
#: opcode (``klass``, ``latency`` and the ``is_*`` flags carry no extra
#: information).  ``size``/``seq``/``index`` are not timing-relevant
#: (``repro.exec.cache.instr_signature`` is the same judgement at
#: whole-trace granularity).
_DYN_KEY = attrgetter(
    "pc", "opcode", "dest", "srcs", "taken", "next_pc", "eaddr", "slot",
)

# Indices into the snapshot time vector (see _snapshot).
_T_LAST_RETIRE = 4
_T_DPORT0 = 6
_T_UNITS = 8
#: Snapshot time indices that belong to the *front-end* clock
#: (fetch_free, pending_fetch_at, group_ready) and so may legally
#: advance by their own per-iteration delta instead of the retire
#: period ``P`` (template tag ``_AFFINE``).
_T_FRONT = 3

# Template cell tags (_classify / _on_orbit / _replay).  _CONST and
# _COV are spelled False/True in templates for compactness; _AFFINE is
# the integer 2 (bool is an int subclass, so tuple equality is exact).
_AFFINE = 2


@dataclass(frozen=True)
class BlockCacheConfig:
    """Tuning knobs for the trace-compilation layer."""

    enabled: bool = True
    #: Re-execute every Nth replay batch through the detailed loop and
    #: diff against the memo.  0 disables verification sampling; 1
    #: means "always verify" — every batch is re-executed and nothing
    #: is ever replayed from the memo, the maximally paranoid mode the
    #: fault-injection suite uses.
    verify_interval: int = 32
    #: Iterations replayed per batch, at most.  Capping batches keeps
    #: the verify sampler engaged on long runs (an uncapped pre-scan
    #: would swallow a whole steady loop in one batch and sample
    #: nothing); the verified fraction of replayed iterations is
    #: ``1 / (verify_interval * max_batch)``.
    max_batch: int = 64
    #: Occurrences longer than this are never memoized (bounds capture
    #: cost for huge or irregular blocks).
    max_block_len: int = 192
    #: Capture failures before a head is declared dead.
    max_failures: int = 12
    #: Traces shorter than this never engage the blockcache.
    min_trace_len: int = 64
    #: Test hook: called with each freshly memoized block (fault
    #: injection corrupts memoized timings through this to prove the
    #: verify sampler quarantines the run).
    debug_corrupt: Optional[Callable[[Any], None]] = None


def resolve_blockcache(blockcache) -> Optional[BlockCacheConfig]:
    """Normalize a ``blockcache=`` argument to a config or ``None``.

    ``None``/``True`` select the default-enabled configuration,
    ``False`` disables the layer entirely, and a
    :class:`BlockCacheConfig` is used as given (respecting its own
    ``enabled`` flag).
    """
    if blockcache is None or blockcache is True:
        return BlockCacheConfig()
    if blockcache is False:
        return None
    if isinstance(blockcache, BlockCacheConfig):
        return blockcache if blockcache.enabled else None
    raise TypeError(
        f"blockcache must be None, a bool, or BlockCacheConfig, "
        f"not {type(blockcache).__name__}"
    )


class _Memo:
    """The compile product for one steady block head."""

    __slots__ = (
        "keys", "cmps", "records", "template", "counts_delta",
        "agg_stats", "sig", "n", "port_events", "retire_offs",
        "k_iters", "n_full", "n_loads", "n_stores", "n_ifetches",
        "store_writes", "load_writes",
    )


class _Entry:
    """Per-head finite state machine."""

    __slots__ = (
        "mode", "failures", "memo", "prev", "template", "pending_sig",
        "probing", "probe_strict", "expected_idx", "batches",
    )

    def __init__(self):
        self.mode = _IDLE
        self.failures = 0
        self.memo: Optional[_Memo] = None
        #: Last finished occurrence (capture-chain stage A), kept only
        #: when replay-safe and non-empty.
        self.prev = None
        #: Candidate template agreed by the last occurrence pair.
        self.template = None
        #: Digest taken when the candidate template was formed.
        self.pending_sig = None
        self.probing = False
        self.probe_strict = False
        #: Trace index the next contiguous boundary must land on
        #: (-1 = not contiguous; foreign code may have run since).
        self.expected_idx = -1
        self.batches = 0


class BlockCache:
    """One per :meth:`AlphaPipeline.run_trace` call (state is per-run).

    The pipeline drives it through three hooks: :meth:`attach` once at
    run start, :meth:`rec_commit`/:meth:`rec_short` per instruction
    while :attr:`recording` is set, and :meth:`boundary` whenever the
    fetch stream arrives at the current block head.  ``boundary``
    returns ``None`` (continue the detailed loop) or a replay plan
    tuple the pipeline applies to its loop locals::

        (consumed, fetch_free, pending_fetch_at, group_ready,
         store_frontier, last_retire, final_retire, current_octaword,
         force_new_fetch, prev_octaword, maps_low, unit_rotate,
         (rob, int_rename, fp_rename, storeq, intq, fpq))
    """

    def __init__(self, config: BlockCacheConfig, pipeline,
                 workload: str = ""):
        self.config = config
        self.pipeline = pipeline
        self.workload = workload
        self.entries: Dict[int, _Entry] = {}
        self.recording = False
        self._rec_head = -1
        self._rec: List[tuple] = []
        self._rec_base = 0.0
        self._rec_fbase = 0.0
        self._rec_counts: Tuple[int, ...] = ()
        self._rec_entry_snap = None
        self._rec_stats0: Tuple[int, ...] = ()
        self._prev_stats: Tuple[int, ...] = ()
        # Run-level telemetry (mirrored into blockcache.* metrics).
        self.batches = 0
        self.replayed_instructions = 0
        self.replayed_iterations = 0
        self.captures = 0
        self.failures = 0
        self.verify_probes = 0
        self.verify_matches = 0
        self.reentry_probes = 0
        self.steady_blocks = 0
        self.dead_blocks = 0

    # -- wiring --------------------------------------------------------

    def attach(self, trace, stats, observer,
               int_ports, fp_ports, retire_ports,
               pending_stores, last_loads) -> None:
        """Bind the per-run collaborators the pipeline loop owns.

        The port and memory-ordering dicts are bound by reference —
        the pipeline prunes them in place so these references stay
        live for the whole run.
        """
        self._trace = trace
        self._stats = stats
        self._observer = observer
        self._int_ports = int_ports
        self._fp_ports = fp_ports
        self._retire_ports = retire_ports
        self._pending_stores = pending_stores
        self._last_loads = last_loads
        p = self.pipeline
        self._hier = p.hierarchy
        self._int_units = p._units
        self._fp_units = p._fp_units
        self._stwt = p.config.features.stwt
        hier = self._hier
        # Every public component counter the detailed path advances:
        # replay applies the per-iteration delta times the batch size
        # so the fast path is externally indistinguishable.  (The
        # shared-MAF configuration aliases three names to one object;
        # identity-dedup so its counters advance once, not thrice.)
        pred = [
            p.branch_predictor.stats, p.line_predictor.stats,
            p.way_predictor.stats, p.ras.stats, p.load_use.stats,
            p.store_wait.stats,
        ]
        mafs: List[Any] = []
        for maf in (hier.maf_i, hier.maf_d, hier.maf_l2):
            if all(maf is not other for other in mafs):
                mafs.append(maf)
        self._count_slots: List[Tuple[Any, str]] = (
            [(s, "lookups") for s in pred]
            + [(s, "mispredictions") for s in pred]
            + [
                (c.stats, f)
                for c in (hier.l1i, hier.l1d, hier.l2)
                for f in ("accesses", "misses", "evictions", "writebacks")
            ]
            + [
                (t.stats, f)
                for t in (hier.itlb, hier.dtlb)
                for f in ("accesses", "misses")
            ]
            + [
                (m.stats, f)
                for m in mafs
                for f in ("allocations", "combines", "full_stalls")
            ]
        )
        # Index of l1i accesses in the counts vector (after the 6+6
        # predictor lookup/misprediction slots): the per-iteration
        # ifetch count for the memory.* metrics mirror.
        self._l1i_acc_idx = 12

    # -- per-instruction recording hooks -------------------------------

    def _stats_tuple(self) -> Tuple[int, ...]:
        s = self._stats
        return tuple(getattr(s, f) for f in _STAT_FIELDS)

    def _counts(self) -> Tuple[int, ...]:
        return tuple(getattr(o, f) for o, f in self._count_slots)

    def rec_commit(self, dyn, fetch, map_time, issue, complete, retire,
                   cluster, consumer, unit) -> None:
        """Record one fully timed instruction of the current occurrence."""
        if not self.recording:
            return
        if len(self._rec) >= self.config.max_block_len:
            self._abort_recording()
            return
        cur = self._stats_tuple()
        prev = self._prev_stats
        sparse = tuple(
            (i, cur[i] - prev[i])
            for i in range(len(cur)) if cur[i] != prev[i]
        )
        self._prev_stats = cur
        self._rec.append(
            (0, dyn, fetch, map_time, issue, complete, retire, cluster,
             consumer, unit, sparse)
        )

    def rec_short(self, kind, dyn, fetch, retire) -> None:
        """Record an early-retiring instruction (1 = nop, 2 = halt)."""
        if not self.recording:
            return
        if len(self._rec) >= self.config.max_block_len:
            self._abort_recording()
            return
        cur = self._stats_tuple()
        prev = self._prev_stats
        sparse = tuple(
            (i, cur[i] - prev[i])
            for i in range(len(cur)) if cur[i] != prev[i]
        )
        self._prev_stats = cur
        self._rec.append((kind, dyn, fetch, retire, sparse))

    def _abort_recording(self) -> None:
        ent = self.entries.get(self._rec_head)
        if ent is not None:
            self._fail(ent)
        self.recording = False
        self._rec = []
        self._rec_head = -1

    def _fail(self, ent: _Entry) -> None:
        self.failures += 1
        ent.failures += 1
        ent.prev = None
        ent.template = None
        ent.pending_sig = None
        ent.probing = False
        if ent.mode == _CAPTURING:
            ent.mode = _IDLE
        if ent.failures > self.config.max_failures:
            if ent.mode == _STEADY:
                self.steady_blocks -= 1
            ent.mode = _DEAD
            ent.memo = None
            self.dead_blocks += 1

    # -- state snapshot / classification -------------------------------

    def _snapshot(self, scalars, rings, reg_ready):
        (fetch_free, pending_fetch_at, current_octaword, group_ready,
         force_new_fetch, prev_octaword, maps_low, last_retire,
         store_frontier, unit_rotate, final_retire) = scalars
        hier = self._hier
        times = [
            fetch_free, pending_fetch_at, group_ready, store_frontier,
            last_retire, final_retire,
            hier._dport_free[0], hier._dport_free[1],
        ]
        for u in self._int_units:
            times.append(u[1])
        for u in self._fp_units:
            times.append(u[1])
        exact = (current_octaword, force_new_fetch, prev_octaword,
                 maps_low)
        return (
            tuple(times),
            exact,
            unit_rotate,
            tuple(tuple(r) for r in rings),
            tuple(sorted(reg_ready.items())),
        )

    @staticmethod
    def _classify(s1, s2):
        """Template from two consecutive boundary snapshots, or None.

        Every time-valued element must either advance by exactly the
        period ``P`` (covariant — replay shifts it by ``m * P``) or be
        exactly equal (constant — replay leaves it); anything else is
        not steady.  ``P`` must be a positive integer or the
        ``int(time)`` port-cycle arithmetic in the pipeline would not
        be shift-invariant.

        One exception: the three *front-end* clock elements
        (``fetch_free``, ``pending_fetch_at``, ``group_ready``) may
        advance by their own integer delta ``0 < d < P``.  The 21264
        model's fetch clock is throttled only at map (the ROB popleft
        bump), so in a loop whose retire rate is below the fetch
        bandwidth the front end runs ahead of retire by ``P - d``
        *more* cycles every iteration, without bound — those elements
        never repeat relative to the retire frontier.  Replaying them
        as affine (``value + m * d``) is sound because every coupling
        from the front-end clock into the retire clock in the hot loop
        has the form ``max(front_time + const, retire_time)``: had the
        front-end term dominated anywhere during the two captured
        occurrences, the downstream offsets would have drifted by
        ``P - d`` between them and the cheap record comparison would
        have failed; and with ``d < P`` the front-end term only falls
        further below the dominating retire term each replayed
        iteration, so the max never changes hands.  ``d > P`` (front
        end catching *up*) is rejected — slack would shrink during
        replay and the memo could silently go stale.
        """
        t1, e1, u1, r1, g1 = s1
        t2, e2, u2, r2, g2 = s2
        P = t2[_T_LAST_RETIRE] - t1[_T_LAST_RETIRE]
        if P <= 0 or not float(P).is_integer():
            return None
        if e1 != e2:
            return None
        base2 = t2[_T_LAST_RETIRE]
        times_tpl = []
        for i, (v1, v2) in enumerate(zip(t1, t2)):
            if v2 - v1 == P:
                times_tpl.append((True, v2 - base2))
            elif v2 == v1:
                times_tpl.append((False, v2))
            elif i < _T_FRONT:
                d = v2 - v1
                if 0 < d < P and float(d).is_integer():
                    times_tpl.append((_AFFINE, d))
                else:
                    return None
            else:
                return None
        rings_tpl = []
        for a, b in zip(r1, r2):
            if len(a) != len(b):
                return None
            row = []
            for v1, v2 in zip(a, b):
                if v2 - v1 == P:
                    row.append((True, v2 - base2))
                elif v2 == v1:
                    row.append((False, v2))
                else:
                    return None
            rings_tpl.append(tuple(row))
        if len(g1) != len(g2):
            return None
        reg_tpl = []
        for (k1, (v1, c1)), (k2, (v2, c2)) in zip(g1, g2):
            if k1 != k2 or c1 != c2:
                return None
            if v2 - v1 == P:
                reg_tpl.append((k1, True, v2 - base2, c1))
            elif v2 == v1:
                reg_tpl.append((k1, False, v2, c1))
            else:
                return None
        return (tuple(times_tpl), e2, u2 - u1, tuple(rings_tpl),
                tuple(reg_tpl), P)

    @staticmethod
    def _on_orbit(snap, template) -> bool:
        """Whether a boundary snapshot lies on the memoized orbit.

        Affine (front-end clock) cells are exempt: their absolute
        value drifts from the retire frontier without bound, so no
        fixed template can pin them.  That is safe — on a contiguous
        boundary they hold exactly the value the previous replay (or
        detailed probe occurrence) left, and a non-contiguous re-entry
        never reaches this check without a fresh detailed probe whose
        record comparison re-validates the front-end offsets.
        """
        times_tpl, exact, _du, rings_tpl, reg_tpl, _P = template
        t, e, _u, r, g = snap
        if e != exact:
            return False
        base = t[_T_LAST_RETIRE]
        for v, (cov, x) in zip(t, times_tpl):
            if cov == _AFFINE:
                continue
            if cov:
                if v - base != x:
                    return False
            elif v != x:
                return False
        for ring, row in zip(r, rings_tpl):
            if len(ring) != len(row):
                return False
            for v, (cov, x) in zip(ring, row):
                if cov:
                    if v - base != x:
                        return False
                elif v != x:
                    return False
        if len(g) != len(reg_tpl):
            return False
        for (k, (v, c)), (k2, cov, x, c2) in zip(g, reg_tpl):
            if k != k2 or c != c2:
                return False
            if cov:
                if v - base != x:
                    return False
            elif v != x:
                return False
        return True

    def _digest(self) -> bytes:
        """Hash every mutable structure the all-hit path can read.

        Explicit enumeration, not reflection: the set is an audit of
        the hit paths in ``pipeline.py`` and ``hierarchy.py``.
        Page-mapper state is append-only (a hit occurrence touches only
        already-mapped pages) and MAF entries cannot change on a
        missless occurrence (pending-fill interactions that *bind* show
        up as differing time offsets and fail the cheap comparison), so
        neither is hashed.  Dict tables hash as sorted items so
        insertion order cannot alias two equal states apart; cache and
        TLB entry lists hash in order because their order *is* the LRU
        state.
        """
        p = self.pipeline
        bp = p.branch_predictor
        lp = p.line_predictor
        wp = p.way_predictor
        ras = p.ras
        hier = self._hier
        parts = (
            bp._local_history, bp._local.table, bp._global.table,
            bp._choice.table, bp._ghist, bp._retired_ghist,
            tuple(bp._pending), tuple(bp._pending_local),
            sorted(lp._table.items()), tuple(lp._pending),
            sorted(wp._table.items()),
            ras._slots, ras._top, tuple(ras._pending),
            p.load_use._counter.value,
            bytes(p.store_wait._bits),
            hier.l1i._sets, hier.l1d._sets,
            hier.itlb._entries, hier.dtlb._entries,
        )
        return hashlib.blake2b(
            repr(parts).encode(), digest_size=16
        ).digest()

    # -- occurrence normalization --------------------------------------

    def _normalize(self, records, base, fbase):
        """(keys, cmp-records, replay-records) for one occurrence.

        ``cmp`` tuples carry no object references, so occurrences
        compare with ``==``; replay records keep the captured DynInstr
        for observer-mode commits (the pre-scan guarantees replayed
        iterations are field-identical to the captured one).

        Stage times are offsets from the boundary's retire frontier
        (``base``) — except *fetch* times, which are offsets from the
        boundary's front-end frontier (``fbase`` = ``fetch_free`` at
        occurrence entry).  The two clocks drift apart at a constant
        rate in a steady loop (see :meth:`_classify`), so only the
        fetch-rebased offsets are iteration-invariant.
        """
        keys = []
        cmps = []
        reps = []
        for rec in records:
            kind = rec[0]
            dyn = rec[1]
            key = _DYN_KEY(dyn)
            keys.append(key)
            if kind == 0:
                (_, _, fetch, map_time, issue, complete, retire,
                 cluster, consumer, unit, sparse) = rec
                uidx = self._unit_index(unit)
                cmps.append(
                    (0, key, fetch - fbase, map_time - base,
                     issue - base, complete - base, retire - base,
                     consumer - base, cluster, uidx, sparse)
                )
                reps.append(
                    (0, dyn, fetch - fbase, map_time - base,
                     issue - base, complete - base, retire - base,
                     consumer - base, cluster, sparse)
                )
            else:
                _, _, fetch, retire, sparse = rec
                cmps.append(
                    (kind, key, fetch - fbase, retire - base, sparse)
                )
                reps.append(
                    (kind, dyn, fetch - fbase, retire - base, sparse)
                )
        return tuple(keys), tuple(cmps), tuple(reps)

    def _unit_index(self, unit) -> Tuple[int, int]:
        for i, u in enumerate(self._int_units):
            if u is unit:
                return (0, i)
        for i, u in enumerate(self._fp_units):
            if u is unit:
                return (1, i)
        return (-1, -1)  # pragma: no cover - unit is always known

    # -- the boundary hook ---------------------------------------------

    def boundary(self, head: int, idx: int, scalars, rings, reg_ready):
        """Handle the fetch stream arriving at ``head`` (= trace[idx]).

        Returns ``None`` to continue the detailed loop, or a replay
        plan tuple (class docstring) the pipeline applies in place.
        """
        entries = self.entries
        ent = entries.get(head)
        if ent is None:
            ent = entries[head] = _Entry()
        if self.recording and self._rec_head != head:
            # A different head fired mid-occurrence: the recording
            # block contains an inner loop and can never satisfy the
            # head-to-head occurrence contract.
            self._abort_recording()
        if ent.mode == _DEAD:
            return None

        finished = None
        if self.recording and self._rec_head == head:
            finished = self._finish_occurrence(scalars, rings, reg_ready)

        if ent.mode == _STEADY:
            return self._steady_boundary(
                ent, head, idx, scalars, rings, reg_ready, finished
            )
        return self._capture_boundary(
            ent, head, idx, scalars, rings, reg_ready, finished
        )

    def _finish_occurrence(self, scalars, rings, reg_ready):
        """Close the in-flight recording at this boundary."""
        records = self._rec
        self.recording = False
        self._rec = []
        self._rec_head = -1
        exit_snap = self._snapshot(scalars, rings, reg_ready)
        counts_delta = tuple(
            b - a for a, b in zip(self._rec_counts, self._counts())
        )
        keys, cmps, reps = self._normalize(
            records, self._rec_base, self._rec_fbase
        )
        stats_now = self._stats_tuple()
        stats_delta = tuple(
            b - a for a, b in zip(self._rec_stats0, stats_now)
        )
        return (keys, cmps, reps, exit_snap, counts_delta, stats_delta,
                self._rec_entry_snap)

    def _start_recording(self, head, entry_snap) -> None:
        self.recording = True
        self._rec_head = head
        self._rec = []
        self._rec_base = entry_snap[0][_T_LAST_RETIRE]
        self._rec_fbase = entry_snap[0][0]
        self._rec_counts = self._counts()
        self._rec_entry_snap = entry_snap
        self._rec_stats0 = self._stats_tuple()
        self._prev_stats = self._rec_stats0

    def _replay_safe(self, stats_delta) -> bool:
        for i in _UNSAFE_IDX:
            if stats_delta[i]:
                return False
        if self._stwt:
            for i in _STWT_UNSAFE_IDX:
                if stats_delta[i]:
                    return False
            if any(self.pipeline.store_wait._bits):
                return False
        return True

    # -- capture chain -------------------------------------------------

    def _capture_boundary(self, ent, head, idx, scalars, rings,
                          reg_ready, finished):
        snap_now = (
            finished[3] if finished is not None
            else self._snapshot(scalars, rings, reg_ready)
        )
        if finished is not None:
            self.captures += 1
            (keys, cmps, reps, exit_snap, counts_delta, stats_delta,
             entry_snap) = finished
            if not cmps or not self._replay_safe(stats_delta):
                self._fail(ent)
            elif ent.prev is None:
                ent.prev = finished
            elif ent.prev[1] != cmps or ent.prev[4] != counts_delta:
                # Slide the capture window: the latest occurrence
                # becomes stage A and the chain restarts from it.
                self.failures += 1
                ent.failures += 1
                ent.template = None
                ent.pending_sig = None
                ent.prev = finished
                if ent.failures > self.config.max_failures:
                    ent.mode = _DEAD
                    ent.prev = None
                    self.dead_blocks += 1
                    return None
            else:
                template = self._classify(entry_snap, exit_snap)
                if template is None:
                    self._fail(ent)
                elif ent.template is None:
                    # First agreeing pair: remember the candidate and
                    # take the (expensive) digest only now that the
                    # cheap checks have passed.
                    ent.template = template
                    ent.pending_sig = self._digest()
                    ent.prev = finished
                elif template == ent.template \
                        and self._digest() == ent.pending_sig:
                    self._memoize(ent, finished, template)
                    # The block went steady at this very boundary:
                    # re-enter through the steady path so a replay can
                    # begin immediately.
                    ent.expected_idx = idx
                    return self._steady_boundary(
                        ent, head, idx, scalars, rings, reg_ready, None
                    )
                else:
                    self._fail(ent)
        if ent.mode != _DEAD and not self.recording:
            ent.mode = _CAPTURING
            self._start_recording(head, snap_now)
        return None

    def _memoize(self, ent, finished, template) -> None:
        keys, cmps, reps, exit_snap, counts_delta, stats_delta, _ = finished
        P = template[5]
        memo = _Memo()
        memo.keys = keys
        memo.cmps = cmps
        memo.records = reps
        memo.template = template
        memo.counts_delta = counts_delta
        memo.agg_stats = tuple(
            (i, d) for i, d in enumerate(stats_delta) if d
        )
        memo.sig = self._digest()
        memo.n = len(keys)
        port_events = []
        retire_offs = []
        n_full = n_loads = n_stores = 0
        offs = [0.0]
        shift = 4 if self.pipeline.config.bugs.masked_load_trap_addresses \
            else 3
        stores_seen: Dict[int, tuple] = {}
        loads_seen: Dict[int, tuple] = {}
        for rep in reps:
            if rep[0] != 0:
                # rep[2] is the fetch offset — front-end clock, not
                # part of the retire-clock port span.
                offs.append(rep[3])
                continue
            (_, dyn, _f_off, _m_off, i_off, _c_off, r_off, cons_off,
             _cl, _sp) = rep
            n_full += 1
            fp_port = dyn.is_fp and not dyn.klass.is_memory
            port_events.append((i_off, fp_port))
            retire_offs.append(r_off)
            offs.append(i_off)
            offs.append(r_off)
            if dyn.is_load:
                n_loads += 1
                loads_seen[(dyn.eaddr >> 3) >> (shift - 3)] = \
                    (dyn.seq, i_off)
            elif dyn.is_store:
                n_stores += 1
                # consumer_ready == the store's resolve time.
                stores_seen[dyn.eaddr >> 3] = (dyn.seq, cons_off)
        # Port occupancy must be correct at every cycle post-batch code
        # can still scan; covering span/P + slack trailing iterations
        # over-writes only counts the detailed path would also write.
        span = max(offs) - min(offs)
        memo.k_iters = int((span + 16) // P) + 3
        memo.port_events = tuple(port_events)
        memo.retire_offs = tuple(retire_offs)
        memo.n_full = n_full
        memo.n_loads = n_loads
        memo.n_stores = n_stores
        memo.n_ifetches = counts_delta[self._l1i_acc_idx]
        memo.store_writes = tuple(stores_seen.items())
        memo.load_writes = tuple(loads_seen.items())
        corrupt = self.config.debug_corrupt
        if corrupt is not None:
            corrupt(memo)
        ent.memo = memo
        ent.mode = _STEADY
        ent.prev = None
        ent.template = None
        ent.pending_sig = None
        ent.failures = 0
        ent.batches = 0
        self.steady_blocks += 1

    # -- steady path ---------------------------------------------------

    def _steady_boundary(self, ent, head, idx, scalars, rings,
                         reg_ready, finished):
        memo = ent.memo
        if finished is not None and ent.probing:
            ent.probing = False
            if self._probe_matches(memo, finished):
                self.verify_matches += 1
                ent.expected_idx = idx
            elif ent.probe_strict:
                self._raise_divergence(head, idx, memo)
            else:
                # Benign re-entry mismatch: the block's steady state
                # legitimately moved on — recapture from scratch.
                self.steady_blocks -= 1
                ent.mode = _CAPTURING
                ent.memo = None
                ent.failures = 0
                ent.expected_idx = -1
                if finished[1] and self._replay_safe(finished[5]):
                    ent.prev = finished
                self._start_recording(head, finished[3])
                return None

        snap = (
            finished[3] if finished is not None
            else self._snapshot(scalars, rings, reg_ready)
        )
        contiguous = (
            ent.expected_idx == idx
            and self._on_orbit(snap, memo.template)
        )
        if not contiguous:
            # Foreign execution may have perturbed predictor/cache
            # state since the last batch: re-verify before trusting
            # the memo again.
            if not self._prescan_one(memo, idx):
                ent.expected_idx = -1
                return None
            self.reentry_probes += 1
            ent.probing = True
            ent.probe_strict = False
            self._start_recording(head, snap)
            return None

        interval = self.config.verify_interval
        if interval > 0 and ent.batches % interval == interval - 1:
            if not self._prescan_one(memo, idx):
                ent.expected_idx = -1
                return None
            ent.batches += 1
            self.verify_probes += 1
            ent.probing = True
            ent.probe_strict = True
            self._start_recording(head, snap)
            return None

        m = self._prescan(memo, idx)
        if m < 1:
            ent.expected_idx = -1
            return None
        ent.batches += 1
        ent.expected_idx = idx + memo.n * m
        return self._replay(memo, snap, m, reg_ready)

    def _prescan_one(self, memo, idx) -> bool:
        """Whether one whole memo-identical occurrence starts at idx."""
        trace = self._trace
        n = memo.n
        if idx + n > len(trace):
            return False
        keys = memo.keys
        for r in range(n):
            if _DYN_KEY(trace[idx + r]) != keys[r]:
                return False
        return True

    def _prescan(self, memo, idx) -> int:
        """Count whole upcoming occurrences identical to the memo.

        Stops at ``max_batch`` — scanning further would be wasted work
        (the batch is clamped there anyway) and a single uncapped
        batch would starve the verify sampler.
        """
        trace = self._trace
        keys = memo.keys
        n = memo.n
        total = len(trace)
        limit = self.config.max_batch
        m = 0
        i = idx
        while m < limit and i + n <= total:
            for r in range(n):
                if _DYN_KEY(trace[i + r]) != keys[r]:
                    return m
            m += 1
            i += n
        return m

    def _probe_matches(self, memo, finished) -> bool:
        (keys, cmps, _reps, exit_snap, counts_delta, _stats_delta,
         entry_snap) = finished
        if keys != memo.keys or cmps != memo.cmps:
            return False
        if counts_delta != memo.counts_delta:
            return False
        if self._classify(entry_snap, exit_snap) != memo.template:
            return False
        return self._digest() == memo.sig

    def _raise_divergence(self, head, idx, memo) -> None:
        from repro.integrity.sanitizers import (
            IntegrityError,
            InvariantViolation,
        )
        self.recording = False
        raise IntegrityError(InvariantViolation(
            invariant="blockcache_divergence",
            message=(
                f"blockcache verify sample diverged from the memoized "
                f"steady state of block head {head:#x} at trace index "
                f"{idx} (block of {memo.n} instructions, period "
                f"{memo.template[5]:g} cycles)"
            ),
            simulator=self.pipeline.config.name,
            workload=self.workload,
            snapshot={
                "head": head,
                "index": idx,
                "block_len": memo.n,
                "period": memo.template[5],
                "batches": self.batches,
                "verify_probes": self.verify_probes,
            },
        ))

    # -- replay --------------------------------------------------------

    def _replay(self, memo, snap, m, reg_ready):
        """Apply ``m`` memoized occurrences; return the pipeline plan."""
        times_tpl, exact, du, rings_tpl, reg_tpl, P = memo.template
        base0 = snap[0][_T_LAST_RETIRE]
        base_f = base0 + m * P
        mat = self._mat

        # Front-end clock: the fetch base is the current fetch_free and
        # it advances by d per iteration (P when fetch_free is
        # retire-covariant, 0 when constant).
        fbase0 = snap[0][0]
        ftag, fx = times_tpl[0]
        if ftag == _AFFINE:
            d_f = fx
        elif ftag:
            d_f = P
        else:
            d_f = 0.0

        def front(i):
            tag, x = times_tpl[i]
            if tag == _AFFINE:
                return snap[0][i] + x * m
            return x + base_f if tag else x

        stats = self._stats
        observer = self._observer
        if observer is not None:
            self._replay_observed(
                memo, base0, P, m, stats, observer, fbase0, d_f
            )
        else:
            for i, d in memo.agg_stats:
                name = _STAT_FIELDS[i]
                setattr(stats, name, getattr(stats, name) + d * m)

        # Public component counters (predictors, caches, TLBs, MAFs).
        for (obj, fname), d in zip(self._count_slots, memo.counts_delta):
            if d:
                setattr(obj, fname, getattr(obj, fname) + d * m)
        hier = self._hier
        if hier._m_ifetches is not None:
            hier._m_ifetches.inc(memo.n_ifetches * m)
            hier._m_ifetch_hits.inc(memo.n_ifetches * m)
            hier._m_loads.inc(memo.n_loads * m)
            hier._m_load_hits.inc(memo.n_loads * m)
            hier._m_stores.inc(memo.n_stores * m)
            hier._m_store_hits.inc(memo.n_stores * m)

        # Issue/retire port occupancy for the trailing iterations whose
        # cycles post-batch instructions could still scan.
        first = m - memo.k_iters
        if first < 0:
            first = 0
        int_ports = self._int_ports
        fp_ports = self._fp_ports
        retire_ports = self._retire_ports
        for j in range(first, m):
            base_j = base0 + j * P
            for off, fp_port in memo.port_events:
                cyc = int(off + base_j)
                if fp_port:
                    fp_ports[cyc] = fp_ports.get(cyc, 0) + 1
                else:
                    int_ports[cyc] = int_ports.get(cyc, 0) + 1
            for off in memo.retire_offs:
                cyc = int(off + base_j)
                retire_ports[cyc] = retire_ports.get(cyc, 0) + 1

        # Memory-ordering state: keys repeat every iteration, so only
        # the final iteration's writes survive.
        base_last = base0 + (m - 1) * P
        pending_stores = self._pending_stores
        last_loads = self._last_loads
        for key, (seq, off) in memo.store_writes:
            pending_stores[key] = (seq, off + base_last)
        for key, (seq, off) in memo.load_writes:
            last_loads[key] = (seq, off + base_last)

        # Register readiness: covariant producers shift, constants are
        # already in place (the orbit check proved them equal).
        for name, cov, x, cluster in reg_tpl:
            if cov:
                reg_ready[name] = (x + base_f, cluster)

        # D-cache ports and functional units (in-place).
        hier._dport_free[0] = mat(times_tpl[_T_DPORT0], base_f)
        hier._dport_free[1] = mat(times_tpl[_T_DPORT0 + 1], base_f)
        k = _T_UNITS
        for u in self._int_units:
            u[1] = mat(times_tpl[k], base_f)
            k += 1
        for u in self._fp_units:
            u[1] = mat(times_tpl[k], base_f)
            k += 1

        # Store-wait clear timer: ticks advance by one per retired
        # (non-short) instruction and flash-clear exactly at the
        # interval, so the counter is plain modular arithmetic; the
        # wait bits are all zero in any steady window (checked by
        # _replay_safe), so a crossed clear boundary is a no-op.
        if self._stwt:
            sw = self.pipeline.store_wait
            interval = sw.config.clear_interval
            sw._since_clear = (sw._since_clear + memo.n_full * m) % interval

        consumed = memo.n * m
        self.batches += 1
        self.replayed_instructions += consumed
        self.replayed_iterations += m

        rings_new = tuple(
            tuple(mat(cell, base_f) for cell in row)
            for row in rings_tpl
        )
        return (
            consumed,
            front(0),                    # fetch_free
            front(1),                    # pending_fetch_at
            front(2),                    # group_ready
            mat(times_tpl[3], base_f),   # store_frontier
            mat(times_tpl[4], base_f),   # last_retire
            mat(times_tpl[5], base_f),   # final_retire
            exact[0], exact[1], exact[2], exact[3],
            snap[2] + du * m,            # unit_rotate
            rings_new,
        )

    @staticmethod
    def _mat(cell, base_f):
        cov, x = cell
        return x + base_f if cov else x

    def _replay_observed(self, memo, base0, P, m, stats, observer,
                         fbase0, d_f) -> None:
        """Per-instruction observer commits with translated times.

        The tracer, CPI-stack accountant, sanitizer windows, and
        instrumentation counters all ride ``observer.commit``;
        replaying through them keeps every instrumented artefact
        byte-identical to the detailed path (at per-record cost — the
        O(1)-per-batch aggregate mode is the observer-less one).
        Fetch times ride the front-end clock (``fbase0 + j * d_f``);
        every other stage time rides the retire clock.
        """
        begin = observer.begin
        commit = observer.commit
        commit_short = observer.commit_short
        fields = _STAT_FIELDS
        records = memo.records
        for j in range(m):
            shift = base0 + j * P
            fshift = fbase0 + j * d_f
            for rep in records:
                begin(stats)
                for i, d in rep[-1]:
                    name = fields[i]
                    setattr(stats, name, getattr(stats, name) + d)
                if rep[0] == 0:
                    commit(rep[1], rep[2] + fshift, rep[3] + shift,
                           rep[4] + shift, rep[5] + shift,
                           rep[6] + shift, stats)
                else:
                    commit_short(rep[1], rep[2] + fshift,
                                 rep[3] + shift, stats)

    # -- run-end reporting ---------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Run-level blockcache telemetry."""
        return {
            "batches": self.batches,
            "replayed_instructions": self.replayed_instructions,
            "replayed_iterations": self.replayed_iterations,
            "captures": self.captures,
            "failures": self.failures,
            "verify_probes": self.verify_probes,
            "verify_matches": self.verify_matches,
            "reentry_probes": self.reentry_probes,
            "steady_blocks": self.steady_blocks,
            "dead_blocks": self.dead_blocks,
        }

    def finish(self, observer, instructions: int) -> None:
        """Mirror telemetry into ``blockcache.*`` metrics at run end."""
        self.recording = False
        metrics = getattr(observer, "metrics", None)
        if metrics is None:
            return
        for name, value in self.stats().items():
            if value:
                metrics.counter(f"blockcache.{name}").inc(value)
        if self.batches or self.captures:
            metrics.gauge("blockcache.hit_rate").set(
                self.batches / (self.batches + self.captures)
            )
        if instructions:
            metrics.gauge("blockcache.replayed_fraction").set(
                self.replayed_instructions / instructions
            )
