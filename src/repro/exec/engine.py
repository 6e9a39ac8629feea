"""The experiment execution engine: parallel, cached, fault-isolated.

The paper's evaluation is one large (simulator x workload) grid
re-visited by every table.  This engine executes its cells

* **memoized** — each cell is content-addressed by its
  :class:`~repro.exec.cache.CacheKey` (configuration hash, workload
  program digest, model source digest) and recomputed only when an
  input changed; a key needs no trace, so a warm grid runs the
  functional machine zero times;
* **in process or in parallel** — at ``jobs=1`` cells run one after
  another in this process; above it, cache misses fan out over a pool
  of forked worker processes (``jobs`` wide), each measuring one cell
  and shipping its :class:`~repro.validation.harness.CellOutcome` back
  over a pipe.  The traces of the cells that miss are built once in
  the parent and inherited by the workers through fork, so no worker
  ever rebuilds a workload;
* **fault-isolated** — every cell is measured and classified by
  :func:`~repro.validation.harness.run_cell`; a cell that raises, dies,
  or exceeds its per-cell ``timeout`` is retried up to ``retries``
  times and then recorded as a
  :class:`~repro.validation.harness.CellFailure` on the returned grid;
  every other cell still completes.

Every settled cell goes through one :class:`Settlement` (result cache,
checkpoint journal, run ledger, progress line), in process or from the
pool.  Results are inserted into the :class:`ResultGrid` in serial
grid order, so every execution mode serialises identically.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
import os
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.exec.cache import CacheKey, ResultCache, cell_key
# Unused: perfbench's --trace 1 patches this name (KeyError without it).
from repro.exec.cache import fingerprint_trace  # noqa: F401
from repro.exec.spec import RunOptions
from repro.integrity.checkpoint import GridCheckpoint
from repro.integrity.sanitizers import IntegrityError, Sanitizers
from repro.integrity.watchdog import install_escalation_handler
from repro.obs.observer import Instrumentation
from repro.obs.provenance import config_hash
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import GridProgress, RunLedger, mirror_to_metrics
from repro.result import SimResult
from repro.validation.harness import (
    CellFailure,
    CellOutcome,
    ResultGrid,
    SimulatorFactory,
    _with_dram_backend,
    run_cell,
)
from repro.workloads.suite import WorkloadSet

__all__ = [
    "ExperimentEngine", "CellFailure", "RetryBackoff", "Settlement",
    "grid_cells",
]

#: Failure kinds worth another attempt.  Quarantines and livelocks are
#: deterministic model defects: retrying them only burns the budget.
_RETRIED_KINDS = frozenset({"exception", "crash", "timeout"})

#: Seconds a wall-clock-expired worker gets, after SIGUSR1, to send its
#: ``"stuck"`` diagnosis before it is terminated.
ESCALATION_GRACE_S = 1.0


class RetryBackoff:
    """Bounded exponential backoff with *deterministic* jitter.

    Retrying a failed cell immediately hammers whatever transient
    condition (memory pressure, a busy disk) just killed it.  Delays
    double from ``base_s`` up to ``cap_s``; jitter de-synchronises
    cells retrying in lockstep, but is derived by hashing the cell key
    and attempt number rather than from a random source, so a given
    grid run schedules identically every time (determinism is a
    project invariant).
    """

    def __init__(
        self,
        base_s: float = 0.05,
        cap_s: float = 2.0,
        jitter: float = 0.25,
    ):
        if base_s < 0 or cap_s < 0 or not 0 <= jitter <= 1:
            raise ValueError(
                f"invalid backoff (base_s={base_s}, cap_s={cap_s}, "
                f"jitter={jitter})"
            )
        self.base_s = base_s
        self.cap_s = cap_s
        self.jitter = jitter

    def delay(self, key: str, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)
        of the cell identified by ``key``."""
        raw = min(self.cap_s, self.base_s * (2.0 ** max(0, attempt - 1)))
        digest = hashlib.sha256(f"{key}:{attempt}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        return raw * (1.0 - self.jitter * fraction)


@dataclass
class _Cell:
    """One (simulator, workload) unit of work, in serial grid order."""

    index: int
    sim_name: str
    factory: SimulatorFactory
    workload: str
    key: CacheKey


@dataclass
class _Attempt:
    """A live worker process timing one cell."""

    cell: _Cell
    process: multiprocessing.Process
    conn: object
    started: float
    attempt: int


def grid_cells(
    workloads: WorkloadSet,
    factories: Sequence[SimulatorFactory],
    workload_names: Sequence[str],
) -> List[_Cell]:
    """Build the (simulator x workload) cell list in serial grid order.

    Probes each factory once for its identity and content-addresses
    each cell by its workload's program digest; builds no trace.
    """
    probes = []
    for factory in factories:
        simulator = factory()
        probes.append((
            simulator.name,
            config_hash(getattr(simulator, "config", None)),
        ))
    cells: List[_Cell] = []
    for name in workload_names:
        digest = workloads.program_digest(name)
        for (sim_name, cfg_hash), factory in zip(probes, factories):
            key = cell_key(sim_name, cfg_hash, name, digest)
            cells.append(_Cell(len(cells), sim_name, factory, name, key))
    return cells


def with_backend(factories: Sequence[SimulatorFactory],
                 options: RunOptions) -> List[SimulatorFactory]:
    """``factories`` under ``options.dram_backend``: a grid keys its
    cells by the configuration they really run."""
    if options.dram_backend is None:
        return list(factories)
    return [
        _with_dram_backend(factory, options.dram_backend)
        for factory in factories
    ]


class Settlement:
    """Where the settled cells of one grid land, in process or from
    the pool: the result and failure maps, the result cache and the
    checkpoint journal (fresh results only), and the ``options``'
    run ledger and live progress line."""

    def __init__(self, total: int, options: RunOptions, *,
                 cache: Optional[ResultCache] = None,
                 checkpoint: Optional[GridCheckpoint] = None):
        self.results: Dict[int, SimResult] = {}
        self.failures: Dict[int, CellFailure] = {}
        self.cache = cache
        self.checkpoint = checkpoint
        ledger = options.ledger
        self._owns_ledger = isinstance(ledger, (str, os.PathLike))
        self.ledger = RunLedger(ledger) if self._owns_ledger else ledger
        self.progress = GridProgress(total) if options.live_progress else None

    def result(self, cell: _Cell, result: SimResult, *,
               source: str = "run", attempts: int = 1) -> None:
        """Settle ``cell`` with ``result`` from ``source`` (``run`` for
        a fresh measurement, which is cached and journaled)."""
        self.results[cell.index] = result
        if source == "run":
            if self.cache is not None:
                self.cache.put(cell.key, result)
            if self.checkpoint is not None:
                self.checkpoint.record(cell.key.digest(), result)
        self._note(cell, "ok", source, attempts, result.telemetry)

    def failure(self, cell: _Cell, failure: CellFailure, *,
                source: str = "run") -> None:
        self.failures[cell.index] = failure
        self._note(cell, failure.kind, source, failure.attempts, None)

    def _note(self, cell, status, source, attempts, telemetry) -> None:
        """Report one settled cell to the ledger and progress line,
        stamping the settling source onto its telemetry."""
        if telemetry is not None:
            telemetry.source = source
        if self.ledger is not None:
            self.ledger.record(
                simulator=cell.sim_name, workload=cell.workload,
                status=status, source=source, attempts=attempts,
                telemetry=telemetry,
            )
        if self.progress is not None:
            self.progress.update()

    def grid(self, cells: Sequence[_Cell]) -> ResultGrid:
        """The settled cells as a grid, in serial order."""
        grid = ResultGrid()
        for cell in cells:
            result = self.results.get(cell.index)
            if result is not None:
                grid.add(result)
        grid.failures.extend(
            self.failures[index] for index in sorted(self.failures)
        )
        return grid

    def close(self) -> None:
        if self.progress is not None:
            self.progress.close()
        if self._owns_ledger:
            self.ledger.close()


def _worker_main(conn, engine, cell, instrumentation) -> None:
    """Body of one forked pool worker: measure one cell exactly as the
    in-process loop does and pickle its :class:`CellOutcome` back.  A
    strict sanitizer bundle's :class:`IntegrityError` is sent instead,
    for the parent to re-raise; a worker that dies sends nothing."""
    # A Ctrl-C in the parent delivers SIGINT to the whole foreground
    # process group.  The parent owns shutdown (it terminates and joins
    # the pool); workers ignoring SIGINT turn that into one clean
    # parent-side teardown instead of a KeyboardInterrupt traceback
    # stampede from every pool worker.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    install_escalation_handler()
    try:
        message = engine._measure(
            cell.factory, cell.workload, instrumentation
        )
    except IntegrityError as exc:
        message = exc
    try:
        conn.send(message)
    finally:
        conn.close()


class ExperimentEngine:
    """Runs (simulator x workload) grids in process or over a process
    pool, with an on-disk result cache.

    Parameters
    ----------
    workloads:
        The shared :class:`WorkloadSet` (the traces of the cells that
        miss are built once here, in the parent, before any worker
        forks).
    options:
        A :class:`repro.exec.spec.RunOptions` carrying the execution
        envelope — ``jobs`` (pool width; ``1`` runs cells in process,
        still with cache and fault isolation), ``cache`` (a
        :class:`ResultCache` or directory path), ``timeout`` (per-cell
        wall-clock budget, pool mode; an expired worker is escalated
        over SIGUSR1 with :data:`ESCALATION_GRACE_S` to dump a
        :class:`SimulationStuck` diagnosis, then terminated),
        ``retries``, ``checkpoint``/``resume`` (a
        :class:`repro.integrity.GridCheckpoint` or journal path;
        resume satisfies already-journaled cells, and a journal that
        cannot be read raises before anything runs, leaving the file
        as it was, with or without ``resume``), ``ledger`` and
        ``live_progress``, and the single-cell options every cell runs
        under (``watchdog_s``, ``blockcache`` — byte-identical to the
        detailed loop, so on and off share cache entries — and
        ``dram_backend``).
    metrics:
        A :class:`MetricsRegistry`; receives ``exec.cache.*`` traffic
        counters, ``exec.cells.*`` counters and per-cell telemetry.
    sanitizers:
        A :class:`repro.integrity.Sanitizers` bundle (otherwise built
        from the options' ``sanitize``/``strict`` flags; disabled by
        default).  Enabled, every cell is invariant-checked and a
        violating result is quarantined (``kind="invariant"``); a
        strict bundle aborts the grid with :class:`IntegrityError`.
    backoff:
        A :class:`RetryBackoff` governing the delay between attempts
        of a failing cell (the default backs off from 50ms, doubling
        to a 2s cap, with deterministic jitter).
    """

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
        backoff: Optional[RetryBackoff] = None,
    ):
        opts = options if options is not None else RunOptions()
        self.options = opts
        self.workloads = workloads or WorkloadSet()
        self.jobs = max(1, int(opts.jobs))
        self.retries = max(0, int(opts.retries))
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        self.sanitizers = sanitizers if sanitizers is not None else (
            opts.sanitizer_bundle() or Sanitizers.disabled()
        )
        checkpoint = opts.checkpoint
        if isinstance(checkpoint, (str, os.PathLike)):
            checkpoint = GridCheckpoint(checkpoint)
        self.checkpoint: Optional[GridCheckpoint] = checkpoint
        self.backoff = backoff if backoff is not None else RetryBackoff()
        cache = opts.cache
        if isinstance(cache, (str, os.PathLike)):
            cache = ResultCache(cache, metrics=self.metrics)
        if cache is not None and cache.metrics is None:
            cache.metrics = self.metrics
        self.cache: Optional[ResultCache] = cache
        self._ctx = (
            multiprocessing.get_context("fork")
            if "fork" in multiprocessing.get_all_start_methods()
            else None
        )

    # -- the grid ----------------------------------------------------------

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        *,
        instrumentation: Optional[Instrumentation] = None,
        progress: Optional[Callable[[str, str], None]] = None,
    ) -> ResultGrid:
        """Run every factory over every workload; see the module doc.

        The returned grid holds a result for every cell that completed
        and a :class:`CellFailure` for every cell that exhausted its
        attempts, in serial iteration order.  ``progress(simulator,
        workload)`` is called before each attempt.
        """
        self.metrics.gauge("exec.jobs").set(self.jobs)
        if self.checkpoint is not None:
            # Outside the ``try``, resuming or not: a file that is not a
            # journal raises here, before any cell runs or is recorded
            # over it.
            entries = len(self.checkpoint.load())
            if self.options.resume:
                self.metrics.gauge("exec.checkpoint.entries").set(entries)
        cells = grid_cells(
            self.workloads, with_backend(factories, self.options),
            list(workload_names),
        )
        sink = Settlement(
            len(cells), self.options,
            cache=self.cache, checkpoint=self.checkpoint,
        )
        try:
            to_run = [
                cell for cell in cells if not self._serve_hit(cell, sink)
            ]
            # Only misses need a trace; pool workers inherit it by fork.
            for name in dict.fromkeys(cell.workload for cell in to_run):
                self.workloads.trace(name)
            if to_run and self.jobs > 1 and self._ctx is not None:
                self._run_pool(to_run, sink, instrumentation, progress)
            else:
                for cell in to_run:
                    self._run_inline(cell, sink, instrumentation, progress)
        finally:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            sink.close()
        return sink.grid(cells)

    # -- one cell ----------------------------------------------------------

    def _serve_hit(self, cell: _Cell, sink: Settlement) -> bool:
        """Settle ``cell`` from the checkpoint journal (resuming) or the
        result cache; ``False`` means it must run."""
        if self.checkpoint is not None and self.options.resume:
            hit = self.checkpoint.get(cell.key.digest())
            if hit is not None:
                self.metrics.counter("exec.checkpoint.resumed").inc()
                sink.result(cell, hit, source="checkpoint")
                return True
        if self.cache is not None:
            hit = self.cache.get(cell.key)
            if hit is not None:
                sink.result(cell, hit, source="cache")
                return True
        return False

    def _measure(self, factory: SimulatorFactory, workload: str,
                 instrumentation) -> CellOutcome:
        """One attempt at a cell in this process."""
        return run_cell(
            factory, workload, self.workloads.trace(workload),
            options=self.options, sanitizers=self.sanitizers,
            instrumentation=instrumentation, metrics=self.metrics,
        )

    def _settle(self, cell: _Cell, outcome: CellOutcome, attempt: int,
                sink: Settlement) -> bool:
        """Settle one attempt's outcome; ``True`` means the cell failed
        in a retriable way with budget left, and must run again."""
        failure = outcome.failure
        if failure is None:
            self.metrics.counter("exec.cells.completed").inc()
            sink.result(cell, outcome.result, attempts=attempt)
            return False
        if failure.kind in _RETRIED_KINDS and attempt <= self.retries:
            self.metrics.counter("exec.cells.retried").inc()
            return True
        self.metrics.counter(
            "exec.cells.quarantined" if failure.kind == "invariant"
            else "exec.cells.failed"
        ).inc()
        sink.failure(cell, dataclasses.replace(failure, attempts=attempt))
        return False

    def _backoff(self, cell: _Cell, attempt: int) -> float:
        return self.backoff.delay(f"{cell.sim_name}:{cell.workload}", attempt)

    def _run_inline(self, cell: _Cell, sink: Settlement, instrumentation,
                    progress) -> None:
        """Run one cell in process through its retry budget.

        No per-cell timeout applies here — there is no process to
        terminate — but the in-run watchdog still catches livelocks.
        """
        attempt = 1
        while True:
            if progress is not None:
                progress(cell.sim_name, cell.workload)
            outcome = self._measure(
                cell.factory, cell.workload, instrumentation
            )
            if not self._settle(cell, outcome, attempt, sink):
                return
            time.sleep(self._backoff(cell, attempt))
            attempt += 1

    # -- the pool ------------------------------------------------------------

    def _escalate_timeout(self, attempt: _Attempt) -> Optional[CellFailure]:
        """Ask a wall-clock-expired worker for a diagnosis before the
        kill: forward SIGUSR1 (the worker's escalation handler raises
        :class:`SimulationStuck` wherever it is hung) and grant
        :data:`ESCALATION_GRACE_S` for the resulting ``"stuck"`` outcome
        to arrive on the pipe.  Returns its failure, or ``None`` if the
        worker could not be signalled or did not answer in time —
        either way the caller still terminates it."""
        if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
            return None
        try:
            os.kill(attempt.process.pid, signal.SIGUSR1)
        except (ProcessLookupError, OSError):
            return None
        try:
            if not attempt.conn.poll(ESCALATION_GRACE_S):
                return None
            dumped = attempt.conn.recv()
        except (EOFError, OSError):
            return None
        failure = getattr(dumped, "failure", None)
        if failure is None or failure.kind != "stuck":
            return None
        self.metrics.counter("exec.cells.escalated").inc()
        return failure

    def _run_pool(self, to_run, sink: Settlement, instrumentation,
                  progress) -> None:
        """Process-pool backend: up to ``jobs`` forked workers."""
        timeout = self.options.timeout
        pending = deque(to_run)
        #: Cells awaiting their backoff delay: (ready_at, cell).
        delayed: List[Tuple[float, _Cell]] = []
        attempt_of: Dict[int, int] = {}
        live: Dict[object, _Attempt] = {}

        def launch(cell: _Cell) -> None:
            attempt = attempt_of.get(cell.index, 0) + 1
            attempt_of[cell.index] = attempt
            recv_end, send_end = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_worker_main,
                args=(send_end, self, cell, instrumentation),
                daemon=True,
            )
            process.start()
            send_end.close()  # keep only the child's copy writable
            live[recv_end] = _Attempt(
                cell, process, recv_end, time.perf_counter(), attempt
            )
            if progress is not None:
                progress(cell.sim_name, cell.workload)
            self.metrics.counter("exec.cells.launched").inc()

        def settle(attempt: _Attempt, outcome: CellOutcome) -> None:
            cell = attempt.cell
            if outcome.failure is None:
                # The worker's registry died with the worker; mirror
                # its telemetry into the parent's.
                mirror_to_metrics(
                    self.metrics, cell.sim_name, cell.workload,
                    outcome.result.telemetry,
                )
            if self._settle(cell, outcome, attempt.attempt, sink):
                delayed.append((
                    time.perf_counter() + self._backoff(cell, attempt.attempt),
                    cell,
                ))

        def lost(attempt: _Attempt, kind: str, message: str,
                 snapshot: Optional[Dict] = None) -> CellOutcome:
            """The outcome of a worker that never reported one."""
            return CellOutcome(failure=CellFailure(
                simulator=attempt.cell.sim_name,
                workload=attempt.cell.workload,
                kind=kind, message=message,
                elapsed_s=time.perf_counter() - attempt.started,
                snapshot=snapshot,
            ))

        try:
            while pending or live or delayed:
                if delayed:
                    # Promote cells whose backoff delay has elapsed.
                    now = time.perf_counter()
                    still_waiting: List[Tuple[float, _Cell]] = []
                    for ready_at, cell in delayed:
                        if ready_at <= now:
                            pending.append(cell)
                        else:
                            still_waiting.append((ready_at, cell))
                    delayed[:] = still_waiting

                while pending and len(live) < self.jobs:
                    launch(pending.popleft())

                if not live:
                    if delayed:
                        now = time.perf_counter()
                        time.sleep(max(0.0, min(
                            ready_at for ready_at, _ in delayed
                        ) - now))
                    continue

                wait_for = None
                now = time.perf_counter()
                if timeout is not None:
                    wait_for = max(0.0, min(
                        attempt.started + timeout - now
                        for attempt in live.values()
                    ))
                if delayed:
                    next_retry = max(0.0, min(
                        ready_at for ready_at, _ in delayed
                    ) - now)
                    wait_for = (
                        next_retry if wait_for is None
                        else min(wait_for, next_retry)
                    )
                ready = _connection_wait(list(live), timeout=wait_for)

                for conn in ready:
                    attempt = live.pop(conn)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        message = None
                    conn.close()
                    attempt.process.join()
                    if isinstance(message, IntegrityError):
                        raise message
                    if not isinstance(message, CellOutcome):
                        message = lost(
                            attempt, "crash",
                            f"worker exited with code "
                            f"{attempt.process.exitcode} before "
                            f"reporting a result",
                        )
                    settle(attempt, message)

                if timeout is not None:
                    now = time.perf_counter()
                    for conn, attempt in list(live.items()):
                        if now - attempt.started < timeout:
                            continue
                        live.pop(conn)
                        dumped = self._escalate_timeout(attempt)
                        attempt.process.terminate()
                        attempt.process.join()
                        conn.close()
                        message = (
                            f"cell exceeded its {timeout:g}s "
                            f"timeout and was terminated"
                        )
                        if dumped is not None:
                            message += (
                                f"; worker dumped a diagnosis on "
                                f"SIGUSR1: {dumped.message}"
                            )
                        settle(attempt, lost(
                            attempt, "timeout", message,
                            dumped.snapshot if dumped is not None else None,
                        ))
        finally:
            for attempt in live.values():
                attempt.process.terminate()
                attempt.process.join()
                attempt.conn.close()
