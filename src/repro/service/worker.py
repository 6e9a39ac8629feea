"""The execution half of the service: one thread draining the queue.

Each claimed job is rebuilt into an :class:`ExperimentSpec`, its
operational options replaced by the service's own — a pool as wide as
the CPUs this process may run on (:func:`service_width`), the shared
result cache, no checkpoint journal, no resume, the job's event stream
as the ledger — whatever the client named, and run through the
ordinary :class:`~repro.validation.harness.Harness` dispatch.  A job's
cold cells therefore fan out over the engine's forked workers, which
inherit the traces built once in this process.  The service adds no
execution semantics of its own, so a job's result is byte-identical
(canonically) to the same grid run from the CLI or the Python API.

Two hooks thread the service through the engine:

* the run-ledger seam (``options.ledger``) receives one record per
  settled cell, with every field the engine's ``Settlement`` reports —
  forwarded to the job's event stream, which is what the long-poll
  endpoint serves;
* the ``progress`` callback fires before each computed cell starts —
  the graceful-shutdown check raises :class:`ServiceShutdown` there.
  The engine then starts no further cell and lets the running ones
  settle durably into the shared store before the exception
  propagates, so a drained job re-queues and later resumes with zero
  recompute (its settled cells replay as ``source="cache"``).
"""

from __future__ import annotations

import os
import threading
import traceback
from typing import Optional

from repro.exec.cache import ResultCache
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import cell_fields
from repro.service.jobs import JobStore
from repro.validation.harness import Harness

__all__ = ["JobWorker", "ServiceShutdown", "service_width"]


def service_width() -> int:
    """The number of CPUs this process may run on: the pool width of
    every job, whatever ``jobs`` the client named."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


class ServiceShutdown(Exception):
    """Raised inside a grid to abandon it at a cell boundary."""


class _EventLedger:
    """Run-ledger adapter: engine cell records -> job event stream."""

    def __init__(self, store: JobStore, job_id: str):
        self.store = store
        self.job_id = job_id

    def record(self, **cell) -> None:
        self.store.record_progress(self.job_id, cell_fields(**cell))

    def close(self) -> None:  # pragma: no cover - engine never owns us
        pass


class JobWorker(threading.Thread):
    """Drains the job queue until asked to stop."""

    def __init__(
        self,
        store: JobStore,
        workloads,
        cache: ResultCache,
        *,
        metrics: Optional[MetricsRegistry] = None,
        poll_s: float = 0.2,
    ):
        super().__init__(name="repro-service-worker", daemon=True)
        self.store = store
        self.workloads = workloads
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.poll_s = poll_s
        self._stopping = threading.Event()

    def stop(self) -> None:
        """Ask the worker to drain: the in-flight job starts no further
        cell, its running cells settle, and it re-queues."""
        self._stopping.set()

    def run(self) -> None:
        while not self._stopping.is_set():
            job_id = self.store.claim(timeout=self.poll_s)
            if job_id is None:
                continue
            if self._stopping.is_set():
                self.store.requeue(job_id)
                return
            self._run_job(job_id)

    def _run_job(self, job_id: str) -> None:
        try:
            spec = self.store.spec(job_id)
            spec.validate(workload_set=self.workloads)
            options = spec.options.replace(
                jobs=service_width(),
                cache=self.cache,
                checkpoint=None,
                resume=False,
                ledger=_EventLedger(self.store, job_id),
                live_progress=False,
            )
            harness = Harness(
                self.workloads, options, metrics=self.metrics
            )

            def progress(simulator: str, workload: str) -> None:
                if self._stopping.is_set():
                    raise ServiceShutdown(job_id)

            self.metrics.counter("service.engine.runs").inc()
            with self.metrics.timer("service.job").time():
                grid = harness.run_grid(
                    spec.factories(), list(spec.workloads),
                    progress=progress,
                )
        except ServiceShutdown:
            self.store.requeue(job_id)
        except Exception:
            self.metrics.counter("service.jobs.failed").inc()
            self.store.fail(job_id, traceback.format_exc(limit=20))
        else:
            self.metrics.counter("service.jobs.completed").inc()
            self.store.finish(
                job_id,
                grid.to_json(canonical=True),
                failures=len(grid.failures),
            )
