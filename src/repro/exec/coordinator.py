"""Work-stealing shard coordinator: crash-safe grid execution.

:class:`ShardCoordinator` turns one (simulator x workload) grid into a
fault-tolerant execution fabric:

* the grid's cells are partitioned into bounded **leases** pulled by
  :class:`~repro.exec.shard.ShardRunner` subprocesses (idle runners ask
  for work, so fast shards naturally steal the slow tail);
* **liveness** is heartbeat-based: a lease that stops heartbeating (or
  exhausts its bounded renewal budget) expires, its runner is killed,
  and its unfinished cells are re-leased to survivors;
* **completed work survives everything**: each runner journals cells
  into a private fsynced :class:`~repro.integrity.GridCheckpoint`
  before acknowledging them, so the coordinator recovers a dead
  runner's results from its journal instead of recomputing, and a
  killed coordinator resumes from the merged journals;
* **at-most-once commit**: results are deduplicated by the cell's
  cache-key digest, so a stolen-and-recomputed cell never
  double-counts — and two *different* payloads under one digest raise
  (a determinism violation must never be silently averaged away).

Failure handling is budgeted, never unbounded: lease renewals, runner
respawns, and retry backoff ceilings are all capped, so every run ends
in a complete grid, a diagnosable :class:`CellFailure` (including
``kind="lost"`` when every runner slot is exhausted), or a raised
integrity error — never a hang.

Every cell is measured by the runners' engines through
:func:`~repro.validation.harness.run_cell`, like any other executor's,
and settles through the shared :class:`~repro.exec.engine.Settlement`;
the coordinator adds only the failure it alone can see
(``kind="lost"``).

Observability: ``shard.*`` counters in the :class:`MetricsRegistry`
(leases granted/renewed/regranted/expired/stolen, cells
computed/recovered/deduped/lost, runners lost/respawned, corrupt
journals) plus per-cell run-ledger records tagged with the
committing shard.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from repro.exec.cache import ResultCache
from repro.exec.engine import (
    RetryBackoff,
    Settlement,
    grid_cells,
    with_backend,
)
from repro.exec.spec import RunOptions
from repro.exec.shard import PipeTransport, shard_journal_path, shard_runner_main
from repro.integrity.checkpoint import CheckpointConflict, GridCheckpoint
from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    Sanitizers,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import mirror_to_metrics
from repro.result import SimResult
from repro.validation.harness import CellFailure, ResultGrid, SimulatorFactory
from repro.workloads.suite import WorkloadSet

__all__ = ["ShardCoordinator", "shard_status"]

#: Cells per lease: small leases steal best.
LEASE_SIZE = 1
#: Deadline extensions one lease may earn through heartbeats; an
#: exhausted lease expires even if its runner is still heartbeating,
#: so a livelocked runner cannot hold work forever.
MAX_RENEWALS = 8
#: Longest wait for runner traffic, so lease expiry always runs.
HEARTBEAT_POLL_S = 0.2


@dataclass
class _LeaseState:
    """Coordinator-side view of one outstanding lease."""

    lease_id: int
    runner_id: int
    indices: tuple
    remaining: Set[int]
    deadline: float
    renewals: int = 0


@dataclass
class _RunnerState:
    """Coordinator-side view of one shard runner."""

    runner_id: int
    process: object
    transport: object
    journal_path: str
    lease: Optional[_LeaseState] = None
    alive: bool = True
    #: Set by a ``ready`` message; granting is pull-based, so a lease
    #: is only sent to a runner that announced itself (otherwise the
    #: grant races the runner's startup ``ready`` and every lease is
    #: spuriously re-granted once).
    idle: bool = False
    #: Cells this runner's journal may hold beyond its live lease
    #: (regrants); only used for diagnostics.
    committed: int = 0


class ShardCoordinator:
    """Runs (simulator x workload) grids over work-stealing shard
    runners with crash-safe journals.

    Parameters
    ----------
    workloads:
        The shared :class:`WorkloadSet` (traces built once here, in
        the coordinator, inherited by runners through fork).
    options:
        A :class:`repro.exec.spec.RunOptions` carrying the execution
        envelope: ``shards`` (runner subprocesses to keep alive — the
        lease pull pool), ``cache``, ``retries``, ``ledger``,
        ``live_progress``, the single-cell options every runner
        measures cells under, and the journal fields.
        ``options.checkpoint`` is the base journal path (or a
        :class:`GridCheckpoint`, whose path is used): runner ``k``
        journals to ``<base>.shard-<k>``, merged into ``<base>`` on
        completion.  ``None`` journals in a private temporary
        directory, removed however the run ends and never merged
        (crash-safe against runner loss, but not resumable across
        coordinator restarts).  ``options.resume`` loads ``<base>``
        plus any surviving ``<base>.shard-*`` journals and commits
        their cells before leasing anything — the coordinator-restart
        recovery path.
        The two fabric budgets below stay keywords — they describe the
        coordinator, not the experiment; the lease size, renewal bound
        and poll interval are the module constants :data:`LEASE_SIZE`,
        :data:`MAX_RENEWALS` and :data:`HEARTBEAT_POLL_S`.
    lease_timeout_s:
        Seconds a lease may go without a heartbeat before it expires
        and its runner is presumed lost.  Must comfortably exceed the
        slowest single cell.
    max_respawns:
        Total replacement runners the coordinator may spawn across the
        run (default ``2 * shards``).  With the budget exhausted and no
        survivors, remaining cells settle as ``kind="lost"`` failures
        instead of hanging.
    transport_wrapper:
        Seam for tests and the chaos harness: called with
        ``(transport, runner_id)`` for each spawned runner and may
        return a wrapped transport (drop/duplicate/delay injection).
    on_event:
        Optional callback ``(event: str, payload: dict)`` observing
        lifecycle events (``runner_started``, ``lease_granted``,
        ``cell_committed``, ``runner_lost``, ``journal_corrupt``, ...).
        Exceptions from the callback propagate (tests rely on it).
    """

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        lease_timeout_s: float = 30.0,
        max_respawns: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
        backoff: Optional[RetryBackoff] = None,
        transport_wrapper: Optional[Callable] = None,
        on_event: Optional[Callable[[str, Dict], None]] = None,
    ):
        opts = options if options is not None else RunOptions()
        self.options = opts
        self.workloads = workloads or WorkloadSet()
        self.shards = max(1, int(opts.shards))
        self.lease_timeout_s = float(lease_timeout_s)
        if self.lease_timeout_s <= 0:
            raise ValueError(
                f"lease_timeout_s must be positive (got {lease_timeout_s})"
            )
        self.max_respawns = (
            int(max_respawns) if max_respawns is not None
            else 2 * self.shards
        )
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        cache = opts.cache
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache, metrics=self.metrics)
        self.cache: Optional[ResultCache] = cache
        self.sanitizers = sanitizers if sanitizers is not None else (
            opts.sanitizer_bundle() or Sanitizers.disabled()
        )
        self.backoff = backoff if backoff is not None else RetryBackoff()
        checkpoint = opts.checkpoint
        if isinstance(checkpoint, GridCheckpoint):
            checkpoint = checkpoint.path
        self.checkpoint_path = (
            os.fspath(checkpoint) if checkpoint is not None else None
        )
        self.resume = opts.resume
        self.transport_wrapper = transport_wrapper
        self.on_event = on_event
        self._ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )
        if self._ctx is None:  # pragma: no cover - non-fork platform
            raise RuntimeError(
                "sharded execution requires the fork start method; "
                "use ExperimentEngine(jobs=...) instead"
            )

    # -- small helpers -----------------------------------------------------

    def _event(self, event: str, **payload) -> None:
        if self.on_event is not None:
            self.on_event(event, payload)

    def _counter(self, name: str):
        return self.metrics.counter(name)

    # -- the grid ----------------------------------------------------------

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        *,
        instrumentation=None,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> ResultGrid:
        """Run every factory over every workload across the shard
        fleet; same contract as :meth:`ExperimentEngine.run_grid` (a
        result or a :class:`CellFailure` for every cell, serial order,
        canonical serialisation byte-identical to an in-process run)."""
        names = list(workload_names)
        factories = with_backend(factories, self.options)
        cells = grid_cells(
            self.workloads, factories, names,
            blockcache=self.options.blockcache,
        )
        digest_of = {
            cell.index: cell.key.digest() for cell in cells
        }
        index_of = {digest: index for index, digest in digest_of.items()}
        self.metrics.gauge("shard.cells").set(len(cells))
        self.metrics.gauge("shard.runners").set(self.shards)

        tempdir = None
        base = self.checkpoint_path
        if base is None:
            tempdir = tempfile.mkdtemp(prefix="repro-shards-")
            base = os.path.join(tempdir, "grid.journal")

        # The private journal directory goes however the run ends (a
        # strict abort included); a caller's checkpoint stays.
        try:
            sink = Settlement(len(cells), self.options)
            state = {
                "sink": sink,
                "cells": cells,
                "digest_of": digest_of,
                "index_of": index_of,
            }

            if self.resume:
                self._recover_resume(base, state)
            else:
                # A fresh (non-resuming) run must not consume leftovers
                # from an abandoned one: quarantine stale shard journals.
                for path in sorted(glob.glob(shard_journal_path(base, "*"))):
                    if path.endswith(".corrupt"):
                        continue
                    os.replace(path, path + ".stale")

            # Serve result-cache hits in the coordinator before leasing.
            if self.cache is not None:
                for cell in cells:
                    if sink.settled(cell.index):
                        continue
                    hit = self.cache.get(cell.key)
                    if hit is not None:
                        self._commit(cell.index, hit, "cache", state)

            pending = deque(
                cell.index for cell in cells if not sink.settled(cell.index)
            )
            strict_violation: List[Dict] = []
            runners: Dict[int, _RunnerState] = {}
            try:
                if pending:
                    self._run_fleet(
                        base, factories, names, cells, pending, state,
                        runners, strict_violation, instrumentation, progress,
                    )
            finally:
                self._shutdown(runners)
                sink.close()

            if strict_violation:
                raise IntegrityError(
                    InvariantViolation.from_dict(strict_violation[0])
                )

            if tempdir is None:
                # The private journal is deleted below: merging into
                # it would be an fsynced write nobody reads.
                self._merge_journals(base)
            return sink.grid(cells)
        finally:
            if tempdir is not None:
                shutil.rmtree(tempdir, ignore_errors=True)

    # -- recovery ----------------------------------------------------------

    def _commit(self, index: int, result: SimResult, source: str,
                state: Dict, runner_id: Optional[int] = None) -> None:
        """At-most-once commit of one cell result, deduplicated by the
        cell's digest: a duplicate identical payload is counted and
        dropped; a duplicate *different* payload raises."""
        sink = state["sink"]
        existing = sink.results.get(index)
        if existing is not None:
            if existing.canonical_dict() != result.canonical_dict():
                digest = state["digest_of"][index]
                raise CheckpointConflict(
                    f"cell {index} (digest {digest}) was committed "
                    f"twice with different measurements — determinism "
                    f"violation, refusing to keep either silently"
                )
            self._counter("shard.cells.deduped").inc()
            return
        if index in sink.failures:
            # A late success for a cell already settled as a failure
            # (e.g. a revoked runner reporting after its replacement
            # failed): first settlement wins.
            self._counter("shard.cells.deduped").inc()
            return
        if source == "run":
            self._counter("shard.cells.computed").inc()
        else:
            self._counter(f"shard.cells.{source}").inc()
        cell = state["cells"][index]
        mirror_to_metrics(
            self.metrics, cell.sim_name, cell.workload, result.telemetry,
        )
        # The ledger tag doubles as the telemetry's ``source``:
        # operational provenance, blanked (with the whole telemetry
        # record) under canonical serialisation.
        sink.result(cell, result, source=_tag(source, runner_id))
        self._event(
            "cell_committed", index=index, source=source,
            runner_id=runner_id,
        )

    def _commit_failure(self, index: int, failure: CellFailure,
                        state: Dict,
                        runner_id: Optional[int] = None) -> None:
        sink = state["sink"]
        if sink.settled(index):
            self._counter("shard.cells.deduped").inc()
            return
        self._counter("shard.cells.failed").inc()
        sink.failure(
            state["cells"][index], failure, source=_tag("run", runner_id)
        )
        self._event(
            "cell_failed", index=index, kind=failure.kind,
            runner_id=runner_id,
        )

    def _recover_resume(self, base: str, state: Dict) -> None:
        """Coordinator-restart path: commit every cell the main and
        shard journals already hold, so nothing completed is ever
        recomputed."""
        sources = [base] + sorted(glob.glob(shard_journal_path(base, "*")))
        for path in sources:
            if path.endswith((".corrupt", ".stale")):
                continue
            self._recover_journal(path, state)

    def _recover_journal(self, path: str, state: Dict) -> int:
        """Commit any unsettled cells found in one journal; a corrupt
        journal is quarantined (renamed ``.corrupt``) and counted, not
        fatal — its cells simply recompute."""
        if not os.path.exists(path):
            return 0
        try:
            loaded = GridCheckpoint(path).load()
        except CheckpointConflict:
            raise
        except ValueError as exc:
            self._counter("shard.journals.corrupt").inc()
            self._event("journal_corrupt", path=path, error=str(exc))
            try:
                os.replace(path, path + ".corrupt")
            except OSError:  # pragma: no cover - racing cleanup
                pass
            return 0
        recovered = 0
        for digest, result in loaded.items():
            index = state["index_of"].get(digest)
            if index is None:
                continue  # stale digest from an earlier configuration
            if state["sink"].settled(index):
                continue
            self._commit(index, result, "recovered", state)
            recovered += 1
        return recovered

    def _merge_journals(self, base: str) -> None:
        """Merge every shard journal into the base journal (the
        resumable artifact) and drop the merged shards."""
        paths = [
            path
            for path in sorted(glob.glob(shard_journal_path(base, "*")))
            if not path.endswith((".corrupt", ".stale"))
        ]
        if not paths and not os.path.exists(base):
            return
        main = GridCheckpoint(base)
        try:
            main.load()
        except CheckpointConflict:
            raise
        except ValueError:
            pass  # corrupt base: rebuild it from the shard journals
        merged = []
        for path in paths:
            try:
                main.merge_from(path)
            except CheckpointConflict:
                raise
            except ValueError as exc:
                self._counter("shard.journals.corrupt").inc()
                self._event("journal_corrupt", path=path, error=str(exc))
                continue
            merged.append(path)
        main.flush()
        for path in merged:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - racing cleanup
                pass

    # -- the fleet ---------------------------------------------------------

    def _spawn(self, runner_id: int, base: str, factories, names,
               runners: Dict[int, _RunnerState],
               instrumentation) -> _RunnerState:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        journal = shard_journal_path(base, runner_id)
        # The fork inherits copies of every live coordinator-side pipe
        # end (its own and the sibling runners'); the child closes them
        # first thing, so a dead peer actually produces EOF instead of
        # a pipe silently held open by unrelated runner processes.
        stray_ends = [
            r.transport.connection
            for r in runners.values()
            if r.alive and r.transport.connection is not None
        ] + [parent_end]
        process = self._ctx.Process(
            target=shard_runner_main,
            args=(child_end, runner_id, self.workloads, list(factories),
                  names, journal),
            kwargs=dict(
                options=self.options.replace(cache=self.cache),
                sanitizers=self.sanitizers,
                backoff=self.backoff,
                instrumentation=instrumentation,
                close_connections=stray_ends,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        transport = PipeTransport(parent_end)
        if self.transport_wrapper is not None:
            transport = self.transport_wrapper(transport, runner_id)
        runner = _RunnerState(
            runner_id=runner_id, process=process, transport=transport,
            journal_path=journal,
        )
        runners[runner_id] = runner
        self._event("runner_started", runner_id=runner_id, pid=process.pid)
        return runner

    def _kill_runner(self, runner: _RunnerState) -> None:
        runner.alive = False
        process = runner.process
        try:
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover - stubborn
                    process.kill()
                    process.join(timeout=1.0)
            else:
                process.join(timeout=0.1)
        except OSError:  # pragma: no cover
            pass
        try:
            runner.transport.close()
        except OSError:  # pragma: no cover
            pass

    def _handle_lost(self, runner: _RunnerState, pending, state: Dict,
                     stolen_from: Dict[int, int], reason: str) -> None:
        """A runner died or its lease expired: kill it, recover its
        journal, return its unfinished cells to the steal queue."""
        self._counter("shard.runners.lost").inc()
        self._event(
            "runner_lost", runner_id=runner.runner_id, reason=reason,
        )
        self._kill_runner(runner)
        recovered = self._recover_journal(runner.journal_path, state)
        if recovered:
            self._counter("shard.cells.journal_recovered").inc(recovered)
        if runner.lease is not None:
            for index in sorted(runner.lease.remaining, reverse=True):
                if state["sink"].settled(index):
                    continue
                stolen_from[index] = runner.runner_id
                pending.appendleft(index)
            runner.lease = None

    def _run_fleet(self, base, factories, names, cells, pending,
                   state, runners, strict_violation, instrumentation,
                   progress) -> None:
        sink = state["sink"]
        total = len(cells)
        next_lease_id = 0
        next_runner_id = self.shards
        respawns_left = self.max_respawns
        #: cell index -> runner that previously held (and lost) it.
        stolen_from: Dict[int, int] = {}
        leases: Dict[int, _LeaseState] = {}

        for runner_id in range(self.shards):
            self._spawn(
                runner_id, base, factories, names, runners,
                instrumentation,
            )

        def live() -> List[_RunnerState]:
            return [r for r in runners.values() if r.alive]

        def settled() -> int:
            return len(sink.results) + len(sink.failures)

        def grant(runner: _RunnerState) -> None:
            nonlocal next_lease_id
            indices = []
            while pending and len(indices) < LEASE_SIZE:
                index = pending.popleft()
                if sink.settled(index):
                    continue
                indices.append(index)
            if not indices:
                return
            runner.idle = False
            lease = _LeaseState(
                lease_id=next_lease_id,
                runner_id=runner.runner_id,
                indices=tuple(indices),
                remaining=set(indices),
                deadline=time.monotonic() + self.lease_timeout_s,
            )
            next_lease_id += 1
            try:
                runner.transport.send(("lease", lease.lease_id, indices))
            except (BrokenPipeError, EOFError, OSError):
                pending.extendleft(reversed(indices))
                self._handle_lost(
                    runner, pending, state, stolen_from, "send-failed"
                )
                return
            runner.lease = lease
            leases[lease.lease_id] = lease
            self._counter("shard.leases.granted").inc()
            stolen = [i for i in indices if i in stolen_from]
            if stolen:
                self._counter("shard.leases.stolen").inc()
                self._counter("shard.cells.stolen").inc(len(stolen))
            self._event(
                "lease_granted", lease_id=lease.lease_id,
                runner_id=runner.runner_id, indices=tuple(indices),
                stolen=tuple(stolen),
            )
            if progress is not None:
                for index in indices:
                    cell = cells[index]
                    progress(cell.sim_name, cell.workload)

        def handle(runner: _RunnerState, message) -> None:
            kind = message[0] if isinstance(message, tuple) else None
            if kind == "ready":
                lease = runner.lease
                if lease is not None and lease.remaining:
                    # The runner thinks it is done but we still miss
                    # cells: its grant or some results were dropped.
                    # Re-grant; journaled cells replay for free.
                    try:
                        runner.transport.send((
                            "lease", lease.lease_id,
                            sorted(lease.remaining),
                        ))
                        lease.deadline = (
                            time.monotonic() + self.lease_timeout_s
                        )
                        self._counter("shard.leases.regranted").inc()
                    except (BrokenPipeError, EOFError, OSError):
                        self._handle_lost(
                            runner, pending, state, stolen_from,
                            "send-failed",
                        )
                    return
                if lease is not None:
                    leases.pop(lease.lease_id, None)
                    runner.lease = None
                runner.idle = True
                grant(runner)
            elif kind == "heartbeat":
                self._counter("shard.heartbeats").inc()
                lease = runner.lease
                if (lease is not None and lease.lease_id == message[2]
                        and lease.renewals < MAX_RENEWALS):
                    lease.renewals += 1
                    lease.deadline = (
                        time.monotonic() + self.lease_timeout_s
                    )
                    self._counter("shard.leases.renewed").inc()
            elif kind == "cell_ok":
                _, runner_id, lease_id, index, digest, result, source = (
                    message
                )
                expected = state["digest_of"].get(index)
                if expected is not None and digest and digest != expected:
                    raise CheckpointConflict(
                        f"runner {runner_id} reported cell {index} "
                        f"under digest {digest}, expected {expected}"
                    )
                self._commit(
                    index, result,
                    "run" if source != "cache" else "cache",
                    state, runner_id,
                )
                runner.committed += 1
                lease = runner.lease
                if lease is not None and lease.lease_id == lease_id:
                    lease.remaining.discard(index)
                    lease.deadline = (
                        time.monotonic() + self.lease_timeout_s
                    )
            elif kind == "cell_failed":
                _, runner_id, lease_id, index, payload = message
                self._commit_failure(
                    index, CellFailure.from_dict(payload), state,
                    runner_id,
                )
                lease = runner.lease
                if lease is not None and lease.lease_id == lease_id:
                    lease.remaining.discard(index)
                    lease.deadline = (
                        time.monotonic() + self.lease_timeout_s
                    )
            elif kind == "strict":
                strict_violation.append(message[2])
            elif kind == "error":
                self._event(
                    "runner_error", runner_id=runner.runner_id,
                    detail=message[2],
                )
                self._handle_lost(
                    runner, pending, state, stolen_from, "error"
                )

        while settled() < total and not strict_violation:
            now = time.monotonic()
            # 1. Reap runners whose process died (SIGKILL, OOM, ...).
            for runner in live():
                if not runner.process.is_alive():
                    self._handle_lost(
                        runner, pending, state, stolen_from, "died"
                    )
            # 2. Expire leases that stopped heartbeating or exhausted
            #    their renewal budget.
            for runner in live():
                lease = runner.lease
                if lease is not None and now > lease.deadline:
                    self._counter("shard.leases.expired").inc()
                    self._event(
                        "lease_expired", lease_id=lease.lease_id,
                        runner_id=runner.runner_id,
                        renewals=lease.renewals,
                    )
                    self._handle_lost(
                        runner, pending, state, stolen_from, "expired"
                    )
            if settled() >= total:
                break
            # 3. Keep the fleet at strength while budget remains.
            while len(live()) < self.shards and respawns_left > 0:
                respawns_left -= 1
                self._counter("shard.runners.respawned").inc()
                self._spawn(
                    next_runner_id, base, factories, names, runners,
                    instrumentation,
                )
                next_runner_id += 1
            if not live():
                # No survivors and no budget: settle what remains as
                # diagnosable losses rather than spinning forever.
                for cell in cells:
                    if sink.settled(cell.index):
                        continue
                    self._commit_failure(cell.index, CellFailure(
                        simulator=cell.sim_name,
                        workload=cell.workload,
                        kind="lost",
                        message=(
                            "no surviving shard runners and the "
                            f"respawn budget ({self.max_respawns}) is "
                            "exhausted"
                        ),
                    ), state)
                    self._counter("shard.cells.lost").inc()
                break
            # 4. Grant work to idle runners (the steal pull): only to
            #    runners that announced ``ready``, so grants never race
            #    a runner's startup.
            for runner in live():
                if runner.idle and runner.lease is None and pending:
                    grant(runner)
            # 5. Wait for traffic (bounded, so expiry always runs).
            alive = live()
            if any(r.transport.pending() for r in alive):
                timeout = 0.0
            else:
                timeout = HEARTBEAT_POLL_S
                for runner in alive:
                    if runner.lease is not None:
                        timeout = min(
                            timeout,
                            max(0.0, runner.lease.deadline - now),
                        )
            try:
                _connection_wait(
                    [r.transport.connection for r in alive],
                    timeout=timeout,
                )
            except OSError:  # pragma: no cover - closed mid-wait
                continue
            # 6. Drain every runner with traffic.
            for runner in alive:
                if not runner.alive:
                    continue
                while True:
                    try:
                        has = (runner.transport.pending()
                               or runner.transport.poll())
                    except (EOFError, OSError):
                        has = False
                        self._handle_lost(
                            runner, pending, state, stolen_from, "eof"
                        )
                    if not has or not runner.alive:
                        break
                    try:
                        message = runner.transport.recv(timeout=0.0)
                    except (EOFError, OSError):
                        self._handle_lost(
                            runner, pending, state, stolen_from, "eof"
                        )
                        break
                    if message is None:
                        continue
                    handle(runner, message)
                    if settled() >= total or strict_violation:
                        break
                if settled() >= total or strict_violation:
                    break

    def _shutdown(self, runners: Dict[int, _RunnerState]) -> None:
        for runner in runners.values():
            if runner.alive:
                try:
                    runner.transport.send(("shutdown",))
                except (BrokenPipeError, EOFError, OSError):
                    pass
        deadline = time.monotonic() + 2.0
        for runner in runners.values():
            if not runner.alive:
                continue
            runner.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
            self._kill_runner(runner)


def _tag(source: str, runner_id: Optional[int]) -> str:
    """Where a committed cell came from: the shard that ran it, else
    ``source``."""
    return source if runner_id is None else f"shard-{runner_id}"


def shard_status(base: str) -> Dict:
    """Inspect the journals of a sharded run (the ``shard-status`` CLI
    verb): entry counts per journal, distinct digests, and corrupt or
    quarantined files."""
    journals = []
    digests: Set[str] = set()
    paths = []
    if os.path.exists(base):
        paths.append(base)
    paths.extend(sorted(glob.glob(shard_journal_path(base, "*"))))
    for path in paths:
        record = {"path": path, "entries": 0, "state": "ok"}
        if path.endswith(".corrupt"):
            record["state"] = "corrupt (quarantined)"
        elif path.endswith(".stale"):
            record["state"] = "stale (superseded)"
        else:
            try:
                loaded = GridCheckpoint(path).load()
            except ValueError as exc:
                record["state"] = f"corrupt: {exc}"
            else:
                record["entries"] = len(loaded)
                digests.update(loaded)
        journals.append(record)
    return {
        "base": base,
        "journals": journals,
        "distinct_digests": len(digests),
    }
