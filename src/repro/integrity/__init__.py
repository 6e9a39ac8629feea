"""Simulation integrity: invariant sanitizers, fault injection,
watchdogs, and grid checkpointing.

The paper treats simulator *error* as a measurable quantity; this
package defends against the error class the paper cannot measure —
silent state corruption inside the simulators themselves.  Four
layers:

* :mod:`repro.integrity.sanitizers` — runtime invariant checkers
  riding the observability hook (cycle monotonicity, MAF occupancy,
  CPI-stack exact-sum, IPC bounds, event-count conservation, finite
  latencies), with a null-object disabled mode;
* :mod:`repro.integrity.watchdog` — livelock detection inside the
  timing engine and a wall-clock heartbeat for worker processes,
  raising a diagnosable :class:`SimulationStuck`;
* :mod:`repro.integrity.checkpoint` — atomic persistence of partial
  grids so interrupted runs resume instead of recomputing;
* :mod:`repro.integrity.faultinject` — deliberate perturbations of
  running simulators that *prove* the layers above actually detect
  each corruption class (the detection matrix);
* :mod:`repro.integrity.chaos` — the same adversarial discipline one
  level up: SIGKILL a pool worker, kill a journaling parent and
  resume, and *prove* the process pool still produces byte-identical
  grids.
"""

from repro.integrity.checkpoint import CheckpointConflict, GridCheckpoint
from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    RunSanitizer,
    Sanitizers,
)
from repro.integrity.watchdog import PORT_SCAN_LIMIT, SimulationStuck, Watchdog

__all__ = [
    "CheckpointConflict",
    "GridCheckpoint",
    "IntegrityError",
    "InvariantViolation",
    "RunSanitizer",
    "Sanitizers",
    "SimulationStuck",
    "Watchdog",
    "PORT_SCAN_LIMIT",
]
