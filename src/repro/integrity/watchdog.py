"""Livelock detection: a diagnosable alternative to hanging a worker.

Two mechanisms, both cheap enough to be always-on or nearly so:

* **scan bounds** — the pipeline's issue-port and retire-port
  arbitration loops scan forward for a free cycle.  A corrupted width
  (or a NaN-poisoned cycle) turns that scan into an infinite loop; the
  engine bounds it at :data:`PORT_SCAN_LIMIT` cycles and raises
  :class:`SimulationStuck` with the instruction index and the stuck
  resource instead of spinning forever;
* **heartbeat** — a :class:`Watchdog` object, beaten every few
  thousand instructions by :meth:`AlphaPipeline.run_trace`, that
  raises once the retire frontier has stopped advancing for a
  configured wall-clock budget.  The execution engine threads one into
  every worker process (``stuck_after=``), so a livelocked cell dies
  with a diagnosis *inside* the worker rather than being opaquely
  terminated by the parent's timeout.

A third mechanism covers the gap between the two: a worker whose
watchdog never fires (too generous a budget, or a hang outside the
timed loop) is eventually killed by the parent's wall-clock timeout,
losing every clue about where it was.  :func:`install_escalation_handler`
arms SIGUSR1 in the worker so the parent can *ask* for a diagnosis
first: the handler raises :class:`SimulationStuck` carrying the last
heartbeat the process saw, the worker's normal stuck-reporting path
ships the snapshot home, and only then does the parent terminate it.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, Dict, Optional

__all__ = [
    "SimulationStuck",
    "Watchdog",
    "PORT_SCAN_LIMIT",
    "install_escalation_handler",
    "record_heartbeat",
]

#: Cycles a port-arbitration scan may advance past its start before the
#: engine declares livelock.  Three orders of magnitude above anything
#: a congested-but-correct model produces.
PORT_SCAN_LIMIT = 1_000_000


class SimulationStuck(RuntimeError):
    """A timing run stopped making forward progress.

    Carries enough state to diagnose the hang without re-running:
    how many instructions had been timed, where the retire frontier
    froze, and which mechanism detected the stall.
    """

    def __init__(
        self,
        detail: str,
        *,
        instructions: int = 0,
        retire: float = 0.0,
        state: Optional[Dict] = None,
    ):
        super().__init__(
            f"simulation stuck: {detail} "
            f"(after {instructions} instructions, "
            f"retire frontier {retire:g})"
        )
        self.detail = detail
        self.instructions = instructions
        self.retire = retire
        #: Pipeline stage/port state at detection time (see
        #: :func:`record_heartbeat`): where in the loop the engine was,
        #: plus window/queue/port occupancies — what localises a hang
        #: in a pool worker no debugger is attached to.
        self.state = state


class Watchdog:
    """Raises :class:`SimulationStuck` when retirement stops advancing.

    ``beat(instructions, retire)`` is called periodically by the timing
    engine; any advance of the retire frontier resets the stall clock.
    A beat arriving with no progress after ``stall_s`` wall-clock
    seconds raises.  ``clock`` is injectable for tests.
    """

    __slots__ = ("stall_s", "_clock", "_last_retire", "_last_progress_at")

    def __init__(
        self,
        stall_s: float = 60.0,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if stall_s <= 0:
            raise ValueError(f"stall_s must be positive (got {stall_s})")
        self.stall_s = stall_s
        self._clock = clock
        self._last_retire: Optional[float] = None
        self._last_progress_at = 0.0

    def beat(
        self,
        instructions: int,
        retire: float,
        state: Optional[Dict] = None,
    ) -> None:
        """Report progress; raises if the frontier has been stuck."""
        record_heartbeat(instructions, retire, state)
        now = self._clock()
        if self._last_retire is None or retire > self._last_retire:
            self._last_retire = retire
            self._last_progress_at = now
            return
        stalled = now - self._last_progress_at
        if stalled >= self.stall_s:
            raise SimulationStuck(
                f"retire frontier has not advanced in {stalled:.1f}s "
                f"(watchdog budget {self.stall_s:g}s)",
                instructions=instructions,
                retire=retire,
                state=state,
            )


#: The most recent heartbeat any :class:`Watchdog` in this process
#: received — what the escalation handler reports when the parent asks
#: a wall-clock-expired worker where it got stuck.  Workers are
#: single-cell processes, so one record suffices.
_last_beat = {"instructions": 0, "retire": 0.0, "state": None}


def record_heartbeat(
    instructions: int,
    retire: float,
    state: Optional[Dict] = None,
) -> None:
    """Update the process-wide heartbeat the escalation handler reports.

    The timing engine calls this on its heartbeat stride even when no
    :class:`Watchdog` is armed, passing a small pipeline-state dict
    (current stage, window/queue occupancies, port frontiers).  A
    SIGUSR1 escalation then dumps *where in the pipeline* the run was,
    not just how far it had got.
    """
    _last_beat["instructions"] = instructions
    _last_beat["retire"] = retire
    if state is not None:
        _last_beat["state"] = state


def _escalate(signum, frame):
    raise SimulationStuck(
        "parent escalated a wall-clock timeout (SIGUSR1)",
        instructions=_last_beat["instructions"],
        retire=_last_beat["retire"],
        state=_last_beat["state"],
    )


def install_escalation_handler() -> bool:
    """Arm SIGUSR1 to raise :class:`SimulationStuck` in this process.

    Called by pool workers on startup.  When the parent's per-cell
    timeout expires it sends SIGUSR1 before terminating; the raise
    interrupts whatever the worker is doing (Python signal handlers run
    between bytecodes, and interrupt ``time.sleep``-style waits), so
    the worker's existing stuck-reporting path ships a diagnosis —
    last heartbeat, detail — over the pipe before the kill lands.

    Returns ``False`` on platforms without SIGUSR1 (no handler armed).
    """
    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
        return False
    signal.signal(signal.SIGUSR1, _escalate)
    return True
