"""Sharded grid execution: the runner half and the shard wire protocol.

A :class:`~repro.exec.coordinator.ShardCoordinator` partitions a
(simulator x workload) grid into *leases* and hands them to
:class:`ShardRunner` processes over a :class:`Transport`.  Each runner
drives its own :class:`~repro.exec.engine.ExperimentEngine` with a
private :class:`~repro.integrity.GridCheckpoint` shard journal, so a
cell it completed survives the runner, the coordinator, or the host
dying — the journal entry is fsynced before the cell is acknowledged.

Wire protocol (first tuple element):

runner -> coordinator
    * ``("ready", runner_id, last_lease_id)`` — idle and asking for
      work; re-sent every :data:`READY_RESEND_S` while idle so a
      dropped message (either direction) never wedges the runner;
    * ``("heartbeat", runner_id, lease_id)`` — liveness signal at each
      cell boundary; renews the lease (bounded by the coordinator's
      ``MAX_RENEWALS``);
    * ``("cell_ok", runner_id, lease_id, index, digest, result,
      source)`` — cell ``index`` settled with a result (already
      durable in the shard journal when ``source != "cache"``);
    * ``("cell_failed", runner_id, lease_id, index, failure_dict)`` —
      cell settled as a :class:`CellFailure` (not journaled: failures
      are re-attempted after a coordinator restart);
    * ``("strict", runner_id, violation_dict)`` — a strict sanitizer
      bundle aborted the lease; the coordinator re-raises
      :class:`IntegrityError`;
    * ``("error", runner_id, traceback)`` — runner-level fatal; the
      coordinator treats the runner as lost.

coordinator -> runner
    * ``("lease", lease_id, (cell_index, ...))`` — work grant.
      Re-granting a lease is idempotent: journaled cells are served
      from the runner's checkpoint without recompute;
    * ``("shutdown",)`` — grid complete, exit cleanly.

Messages may be dropped, duplicated, or delayed (the chaos harness
does all three): every message is therefore either idempotent
(heartbeats, ready), deduplicated by digest at commit (cell_ok), or
recovered out-of-band from the shard journal.

The transport seam is deliberately tiny — ``send`` / ``recv(timeout)``
/ ``poll`` over picklable tuples — so the pipe transport used for
local subprocesses can be swapped for a socket transport to place
runners on other hosts without touching the coordinator or runner
logic.
"""

from __future__ import annotations

import os
import signal
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.exec.engine import ExperimentEngine, grid_cells
from repro.exec.spec import RunOptions
from repro.integrity.sanitizers import IntegrityError
from repro.integrity.watchdog import install_escalation_handler

__all__ = ["Lease", "PipeTransport", "ShardRunner", "shard_journal_path"]

#: Seconds an idle runner waits for a lease before announcing ``ready``
#: again.
READY_RESEND_S = 1.0


def shard_journal_path(base: str, runner_id: int) -> str:
    """The journal a given runner writes, derived from the grid's base
    checkpoint path (what ``shard-status`` and resume both scan)."""
    return f"{base}.shard-{runner_id}"


@dataclass(frozen=True)
class Lease:
    """One work grant: a batch of grid-cell indices."""

    lease_id: int
    indices: Tuple[int, ...]


class Transport:
    """Message transport seam between coordinator and runner.

    Implementations carry picklable tuples; ``recv`` returns ``None``
    on timeout and raises ``EOFError``/``OSError`` when the peer is
    gone.  ``connection`` exposes a waitable object for
    ``multiprocessing.connection.wait`` and ``pending()`` reports
    messages buffered inside the transport itself (a chaos wrapper's
    duplicates), which a selector cannot see.
    """

    connection = None

    def send(self, message) -> None:
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None):
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        raise NotImplementedError

    def pending(self) -> bool:
        return False

    def close(self) -> None:
        raise NotImplementedError


class PipeTransport(Transport):
    """:class:`Transport` over one end of a multiprocessing pipe."""

    def __init__(self, connection):
        self.connection = connection

    def send(self, message) -> None:
        self.connection.send(message)

    def recv(self, timeout: Optional[float] = None):
        if timeout is not None and not self.connection.poll(timeout):
            return None
        return self.connection.recv()

    def poll(self, timeout: float = 0.0) -> bool:
        return self.connection.poll(timeout)

    def close(self) -> None:
        self.connection.close()


class ShardRunner:
    """The runner half: executes leases against a private engine,
    which measures and settles each cell exactly as an in-process grid
    run does.

    ``engine`` must carry the shard journal as its checkpoint (with
    resume semantics), so a re-granted lease serves journaled cells
    without recompute and every fresh success is durable before the
    ``cell_ok`` acknowledgement leaves the runner.
    """

    def __init__(
        self,
        runner_id: int,
        transport: Transport,
        engine: ExperimentEngine,
        cells: Sequence,
        *,
        instrumentation=None,
    ):
        self.runner_id = runner_id
        self.transport = transport
        self.engine = engine
        self.cells = list(cells)
        self.instrumentation = instrumentation
        self._last_lease_id: Optional[int] = None
        self._sink = engine.settlement(len(self.cells))

    # -- plumbing ----------------------------------------------------------

    def _send(self, message) -> bool:
        """Ship one message; ``False`` means the coordinator is gone
        (the caller should exit, the journal already has the work)."""
        try:
            self.transport.send(message)
            return True
        except (BrokenPipeError, EOFError, OSError):
            return False

    # -- the loop ----------------------------------------------------------

    def run(self) -> None:
        """Serve leases until shutdown or coordinator loss."""
        # Forked siblings inherit copies of our pipe's coordinator end,
        # so a dead coordinator does NOT produce EOF on recv — the
        # socket stays open in the other runners.  The parent-pid check
        # below is therefore the authoritative coordinator-liveness
        # signal: orphaned runners (reparented to init) must exit, not
        # resend ``ready`` into a pipe nobody drains.
        parent = os.getppid()
        if not self._send(("ready", self.runner_id, None)):
            return
        while True:
            try:
                message = self.transport.recv(timeout=READY_RESEND_S)
            except (EOFError, OSError):
                return  # coordinator died; journal survives us
            if message is None:
                if os.getppid() != parent:
                    return  # orphaned: coordinator is gone
                # Idle timeout: our ready (or the coordinator's lease
                # grant) may have been dropped — announce again.
                if not self._send(
                    ("ready", self.runner_id, self._last_lease_id)
                ):
                    return
                continue
            kind = message[0]
            if kind == "shutdown":
                return
            if kind == "lease":
                lease = Lease(message[1], tuple(message[2]))
                if not self._run_lease(lease):
                    return
                if not self._send(
                    ("ready", self.runner_id, lease.lease_id)
                ):
                    return

    def _run_lease(self, lease: Lease) -> bool:
        """Execute every cell of one lease; ``False`` on peer loss."""
        self._last_lease_id = lease.lease_id
        for index in lease.indices:
            if not self._send(
                ("heartbeat", self.runner_id, lease.lease_id)
            ):
                return False
            cell = self.cells[index]
            try:
                source = self.engine.settle_cell(
                    cell, self._sink, instrumentation=self.instrumentation,
                )
            except IntegrityError as exc:  # a strict sanitizer bundle
                self._send(
                    ("strict", self.runner_id, exc.violation.to_dict())
                )
                return False
            except Exception:
                self._send(
                    ("error", self.runner_id,
                     traceback.format_exc(limit=20))
                )
                return False
            result = self._sink.results.pop(index, None)
            if result is not None:
                ok = self._send((
                    "cell_ok", self.runner_id, lease.lease_id, index,
                    cell.key.digest(), result, source,
                ))
            else:
                ok = self._send((
                    "cell_failed", self.runner_id, lease.lease_id, index,
                    self._sink.failures.pop(index).to_dict(),
                ))
            if not ok:
                return False
        return True


def shard_runner_main(
    connection,
    runner_id: int,
    workloads,
    factories,
    workload_names,
    journal_path: str,
    *,
    options=None,
    sanitizers=None,
    backoff=None,
    instrumentation=None,
    close_connections: Sequence = (),
) -> None:
    """Body of one forked shard-runner process.

    Rebuilds the same cell list the coordinator built (same factories
    and workload set, inherited through fork, through the shared
    :func:`grid_cells`), wires an engine around the runner's private
    shard journal, and serves leases until shutdown.

    ``close_connections`` holds the fork-inherited copies of the
    coordinator-side pipe ends (our own and the sibling runners'); they
    are closed immediately so a dead peer actually produces EOF instead
    of a pipe held open by unrelated runner processes.
    """
    # The coordinator owns Ctrl-C shutdown, exactly like the pool
    # workers: a runner must never stampede its own traceback.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    install_escalation_handler()
    for stray in close_connections:
        try:
            stray.close()
        except OSError:  # pragma: no cover - already closed
            pass
    transport = PipeTransport(connection)
    try:
        opts = (options if options is not None else RunOptions()).replace(
            jobs=1, checkpoint=journal_path, resume=True,
            ledger=None, live_progress=False, shards=1,
        )
        engine = ExperimentEngine(
            workloads, opts, sanitizers=sanitizers, backoff=backoff,
        )
        cells = grid_cells(
            workloads, factories, list(workload_names),
            blockcache=opts.blockcache,
        )
        ShardRunner(
            runner_id, transport, engine, cells,
            instrumentation=instrumentation,
        ).run()
    except (EOFError, OSError):  # pragma: no cover - peer loss races
        pass
    except BaseException:
        try:
            transport.send((
                "error", runner_id, traceback.format_exc(limit=20),
            ))
        except Exception:  # pragma: no cover - coordinator gone too
            pass
    finally:
        try:
            transport.close()
        except OSError:  # pragma: no cover
            pass
