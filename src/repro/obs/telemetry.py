"""Per-cell resource telemetry: what each simulation run *cost*.

Every timed cell reports the resources it consumed — wall time,
user/sys CPU time, peak RSS, retired instructions, and the derived
KIPS (thousand retired instructions per wall second).  The record
rides the :class:`~repro.result.SimResult` through the execution
engine's wire protocol, so a forked worker's telemetry describes the
*worker* process, and lands in three places:

* on the result itself (``result.telemetry``), blanked by
  ``ResultGrid.to_json(canonical=True)`` so determinism comparisons
  still hold;
* in the grid's run ledger (:class:`RunLedger`), one JSONL line per
  settled cell — the raw trajectory the bench harness and future
  perf PRs mine;
* mirrored into the :class:`~repro.obs.registry.MetricsRegistry`
  (``telemetry.*``), exportable as an OpenMetrics/Prometheus textfile
  via :meth:`MetricsRegistry.write_openmetrics`.

:class:`GridProgress` is the human view of the same stream: a live
``cells done/total, cells/s, ETA`` line for grid runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional, TextIO

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX
    _resource = None

__all__ = [
    "CellTelemetry",
    "TelemetryProbe",
    "RunLedger",
    "GridProgress",
    "cell_fields",
    "mirror_to_metrics",
]


@dataclass
class CellTelemetry:
    """Resource consumption of one timed (simulator, workload) cell."""

    #: Wall-clock seconds for the cell's timing run.
    wall_s: float = 0.0
    #: User / system CPU seconds consumed by the measuring process.
    user_s: float = 0.0
    sys_s: float = 0.0
    #: Peak resident set size of the measuring process, in KiB (the
    #: process-wide high-water mark at measurement time; for forked
    #: workers that *is* the cell's peak, since each worker times one
    #: cell and dies).
    max_rss_kb: int = 0
    #: Retired instructions the run timed.
    instructions: int = 0
    #: Thousand retired instructions per wall second.
    kips: float = 0.0
    #: Process that produced the measurement (parent or worker).
    pid: int = 0
    #: Execution path that settled the cell: ``run`` (computed here),
    #: ``cache`` or ``checkpoint``.  Operational provenance, not a
    #: measurement — blanked with the rest of the telemetry under
    #: ``ResultGrid.to_json(canonical=True)``.
    source: str = "run"

    def to_dict(self) -> Dict:
        return {
            "wall_s": self.wall_s,
            "user_s": self.user_s,
            "sys_s": self.sys_s,
            "max_rss_kb": self.max_rss_kb,
            "instructions": self.instructions,
            "kips": self.kips,
            "pid": self.pid,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CellTelemetry":
        known = {
            "wall_s", "user_s", "sys_s", "max_rss_kb",
            "instructions", "kips", "pid", "source",
        }
        return cls(**{k: v for k, v in payload.items() if k in known})


def _rusage():
    if _resource is None:  # pragma: no cover - non-POSIX
        return None
    return _resource.getrusage(_resource.RUSAGE_SELF)


def _max_rss_kb(usage) -> int:
    if usage is None:  # pragma: no cover - non-POSIX
        return 0
    # ru_maxrss is KiB on Linux, bytes on macOS.
    raw = usage.ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform specific
        raw //= 1024
    return int(raw)


class TelemetryProbe:
    """Measures one cell: construct before the run, finish after.

    The getrusage pair costs ~1us; cheap enough to be always-on (the
    determinism story is handled downstream, by canonical blanking).
    """

    __slots__ = ("_wall0", "_usage0")

    def __init__(self):
        self._wall0 = time.perf_counter()
        self._usage0 = _rusage()

    def finish(self, instructions: int = 0) -> CellTelemetry:
        wall = time.perf_counter() - self._wall0
        usage = _rusage()
        user_s = sys_s = 0.0
        if usage is not None and self._usage0 is not None:
            user_s = usage.ru_utime - self._usage0.ru_utime
            sys_s = usage.ru_stime - self._usage0.ru_stime
        return CellTelemetry(
            wall_s=wall,
            user_s=user_s,
            sys_s=sys_s,
            max_rss_kb=_max_rss_kb(usage),
            instructions=int(instructions),
            kips=(instructions / wall / 1e3) if wall > 0 else 0.0,
            pid=os.getpid(),
        )


def mirror_to_metrics(registry, simulator, workload, telemetry) -> None:
    """Mirror one cell's telemetry into a metrics registry.

    Lands under ``telemetry.*`` so the OpenMetrics exporter
    (:meth:`~repro.obs.registry.MetricsRegistry.write_openmetrics`)
    publishes per-cell cost alongside the harness's own counters.  A
    disabled registry hands back null instruments, so this is free when
    metrics are off.
    """
    if telemetry is None:
        return
    key = f"{simulator}.{workload}"
    registry.timer(f"telemetry.cell_wall.{key}").observe(telemetry.wall_s)
    registry.timer(f"telemetry.cell_cpu.{key}").observe(
        telemetry.user_s + telemetry.sys_s
    )
    registry.gauge(f"telemetry.kips.{key}").set(telemetry.kips)
    registry.gauge(f"telemetry.max_rss_kb.{key}").set(telemetry.max_rss_kb)
    registry.counter(f"telemetry.instructions.{key}").inc(
        telemetry.instructions
    )
    registry.counter("telemetry.cells").inc()


def cell_fields(
    *,
    simulator: str,
    workload: str,
    status: str,
    source: str = "run",
    attempts: int = 1,
    telemetry: Optional[CellTelemetry] = None,
) -> Dict:
    """The JSON fields of one settled cell: the schema a
    :class:`RunLedger` line and a job service ``cell`` event share.

    ``status`` is ``"ok"`` or the failure kind; ``source`` says where
    the result came from (``run``, ``cache``, ``checkpoint``);
    ``telemetry`` is present only when the cell produced a result.
    """
    fields: Dict = {
        "simulator": simulator,
        "workload": workload,
        "status": status,
        "source": source,
        "attempts": attempts,
    }
    if telemetry is not None:
        fields["telemetry"] = telemetry.to_dict()
    return fields


class RunLedger:
    """Append-only JSONL ledger of per-cell telemetry for one grid run.

    One line per settled cell (completed, cache-resolved, or failed),
    flushed as written so an interrupted run's ledger is still
    readable.  The first line is a header carrying the schema tag.
    """

    FORMAT = "repro-run-ledger/1"

    def __init__(self, path, *, clock=time.time):
        self.path = os.fspath(path)
        self._clock = clock
        self.records = 0
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle: Optional[TextIO] = open(
            self.path, "a", encoding="utf-8"
        )
        if self._handle.tell() == 0:
            self._write({"type": "header", "format": self.FORMAT})

    def _write(self, payload: Dict) -> None:
        if self._handle is None:  # pragma: no cover - post-close append
            return
        self._handle.write(json.dumps(payload, sort_keys=True) + "\n")
        self._handle.flush()

    def record(self, **cell) -> None:
        """Append one cell's outcome (the keywords of
        :func:`cell_fields`)."""
        self._write({"type": "cell", "ts": self._clock(),
                     **cell_fields(**cell)})
        self.records += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GridProgress:
    """Live ``cells done/total, cells/s, ETA`` line for grid runs.

    Writes carriage-return-terminated updates to ``stream`` (default
    stderr) and a final newline on :meth:`close`.  Throttled to at
    most ~20 updates/s so a cache-warm grid doesn't spend its time
    printing.
    """

    __slots__ = (
        "total", "done", "_stream", "_clock", "_started",
        "_last_print", "_min_interval", "_wrote",
    )

    def __init__(
        self,
        total: int,
        *,
        stream: Optional[TextIO] = None,
        clock=time.perf_counter,
        min_interval_s: float = 0.05,
    ):
        self.total = max(0, int(total))
        self.done = 0
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started = clock()
        self._last_print = float("-inf")
        self._min_interval = min_interval_s
        self._wrote = False

    def line(self) -> str:
        elapsed = max(1e-9, self._clock() - self._started)
        rate = self.done / elapsed
        remaining = self.total - self.done
        if self.done and rate > 0:
            eta = f"{remaining / rate:.0f}s"
        else:
            eta = "?"
        return (
            f"cells {self.done}/{self.total}  "
            f"{rate:.1f} cells/s  ETA {eta}"
        )

    def update(self, advance: int = 1) -> None:
        self.done += advance
        now = self._clock()
        final = self.done >= self.total
        if not final and now - self._last_print < self._min_interval:
            return
        self._last_print = now
        try:
            self._stream.write("\r" + self.line() + "\x1b[K")
            self._stream.flush()
            self._wrote = True
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def close(self) -> None:
        if self._wrote:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass
            self._wrote = False
