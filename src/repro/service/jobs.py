"""The durable job store: on-disk queue, dedup index, event streams.

One job = one directory under ``<root>/jobs/<job_id>/``:

* ``spec.json`` — the canonical :class:`~repro.exec.spec.ExperimentSpec`
  payload, written once at submission;
* ``status.json`` — the job's mutable face (state, tenants, error),
  rewritten on lifecycle transitions only (submit, attach, claim,
  requeue, finish, fail, recovery); ``cells_done`` is counted in
  memory, so ``GET /v1/jobs/{id}`` is live while the file's copy is
  whatever the last transition wrote;
* ``events.jsonl`` — append-only progress stream the long-poll endpoint
  serves (``submitted``, ``started``, ``cell``, ``checkpointed``,
  ``done``, ``failed``); a ``cell`` event carries the keys of a
  :class:`~repro.obs.telemetry.RunLedger` line;
* ``result.json`` — the canonical ``ResultGrid`` serialisation, written
  when the job completes.

A job has no journal of its own: every fresh cell is a durable
:meth:`~repro.exec.cache.ResultCache.put` into the service's shared
store, so a job killed mid-grid (crash or graceful shutdown) resumes
by running its grid again, and its settled cells replay from the store
(``source="cache"``) without being recomputed.  Whatever the grid
size, a job's own writes are a constant number of
:func:`~repro.exec.cache.atomic_write` calls.

Dedup: a job's identity is its spec's :meth:`ExperimentSpec.dedup_key`
— the sha256 of the measurement-relevant canonical JSON.  Submitting a
spec whose key matches a live (queued/running) or completed job
*attaches* to that job instead of enqueueing new work: N identical
submissions cost one simulation.  Failed jobs do not dedup, so a
resubmission retries.

Durability: the store is rebuilt from the job directories at startup —
``queued`` jobs re-enter the queue, ``running`` jobs (a crashed
server's in-flight work) are re-queued and resume from the shared
result store.  All waiting (long-poll, worker claim) is one
``threading.Condition``; every mutation notifies it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.exec.cache import atomic_write
from repro.exec.spec import ExperimentSpec

__all__ = ["Job", "JobNotFound", "JobStore"]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_TERMINAL = (DONE, FAILED)


class JobNotFound(KeyError):
    """No job with that id (or its directory is gone)."""


class Job:
    """In-memory mirror of one job directory."""

    def __init__(self, job_id: str, root: str, status: Dict,
                 events: Optional[List[Dict]] = None):
        self.job_id = job_id
        self.root = root
        self.status = status
        self.events: List[Dict] = list(events or [])

    @property
    def state(self) -> str:
        return self.status["state"]

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)


class JobStore:
    """Thread-safe durable queue of experiment jobs."""

    def __init__(self, root, *, clock=time.time):
        self.root = os.fspath(root)
        self.jobs_dir = os.path.join(self.root, "jobs")
        os.makedirs(self.jobs_dir, exist_ok=True)
        self._clock = clock
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._queue: List[str] = []
        self._dedup: Dict[str, str] = {}
        self._seq = 0
        self._recover()

    # -- startup recovery --------------------------------------------------

    def _recover(self) -> None:
        """Rebuild queue and dedup index from the job directories."""
        for job_id in sorted(os.listdir(self.jobs_dir)):
            job_root = os.path.join(self.jobs_dir, job_id)
            try:
                with open(os.path.join(job_root, "status.json"),
                          encoding="utf-8") as handle:
                    status = json.load(handle)
            except (OSError, ValueError):
                continue  # half-written dir; harmless orphan
            events: List[Dict] = []
            try:
                with open(os.path.join(job_root, "events.jsonl"),
                          encoding="utf-8") as handle:
                    for line in handle:
                        if line.strip():
                            events.append(json.loads(line))
            except (OSError, ValueError):
                pass
            job = Job(job_id, job_root, status, events)
            if job.state == RUNNING:
                # The previous server died mid-grid; the shared result
                # store holds its settled cells.
                job.status["state"] = QUEUED
                self._write_status(job)
                self._append_event(job, {"kind": "requeued"})
            self._jobs[job_id] = job
            if job.state == QUEUED:
                self._queue.append(job_id)
            if job.state != FAILED:
                self._dedup[status["dedup_key"]] = job_id
            self._seq = max(self._seq, int(status.get("seq", 0)))

    # -- persistence -------------------------------------------------------

    def _write_status(self, job: Job) -> None:
        atomic_write(
            job.path("status.json"),
            json.dumps(job.status, sort_keys=True),
        )

    def _append_event(self, job: Job, event: Dict) -> None:
        event = dict(event)
        event["index"] = len(job.events)
        event["ts"] = round(self._clock(), 3)
        job.events.append(event)
        with open(job.path("events.jsonl"), "a",
                  encoding="utf-8") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")

    # -- submission --------------------------------------------------------

    def submit(self, spec: ExperimentSpec, tenant: str,
               *, reuse: bool = True) -> Tuple[Job, bool]:
        """Enqueue ``spec`` for ``tenant``.

        Returns ``(job, deduped)``: with ``reuse`` (the default) a spec
        whose dedup key matches a non-failed job attaches to it and
        ``deduped`` is True — the attach costs no new simulation.
        ``reuse=False`` forces a fresh job (it still shares the result
        cache, so a warm re-run recomputes nothing).
        """
        key = spec.dedup_key()
        with self._cond:
            if reuse:
                existing_id = self._dedup.get(key)
                if existing_id is not None:
                    existing = self._jobs.get(existing_id)
                    if existing is not None and existing.state != FAILED:
                        if tenant not in existing.status["tenants"]:
                            existing.status["tenants"].append(tenant)
                            self._write_status(existing)
                        self._append_event(
                            existing, {"kind": "attached", "tenant": tenant}
                        )
                        self._cond.notify_all()
                        return existing, True
            self._seq += 1
            job_id = f"j{self._seq:06d}-{key[:12]}"
            job_root = os.path.join(self.jobs_dir, job_id)
            os.makedirs(job_root, exist_ok=True)
            status = {
                "id": job_id,
                "seq": self._seq,
                "state": QUEUED,
                "dedup_key": key,
                "tenant": tenant,
                "tenants": [tenant],
                "cells": len(spec.simulators) * len(spec.workloads),
                "cells_done": 0,
                "created": round(self._clock(), 3),
                "error": None,
            }
            job = Job(job_id, job_root, status)
            atomic_write(
                job.path("spec.json"), spec.canonical_json()
            )
            self._write_status(job)
            self._append_event(job, {"kind": "submitted", "tenant": tenant})
            self._jobs[job_id] = job
            self._queue.append(job_id)
            self._dedup[key] = job_id
            self._cond.notify_all()
            return job, False

    # -- worker side -------------------------------------------------------

    def claim(self, timeout: Optional[float] = None) -> Optional[str]:
        """Pop the oldest queued job and mark it running; None on
        timeout with an empty queue."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._cond:
            while not self._queue:
                remaining = (
                    None if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            job_id = self._queue.pop(0)
            job = self._jobs[job_id]
            job.status["state"] = RUNNING
            # A resumed job re-counts: its settled cells re-announce
            # from the shared store with source="cache".
            job.status["cells_done"] = 0
            self._write_status(job)
            self._append_event(job, {"kind": "started"})
            self._cond.notify_all()
            return job_id

    def requeue(self, job_id: str, *, reason: str = "shutdown") -> None:
        """Put a claimed job back on the queue (graceful shutdown at a
        cell boundary; its settled cells are already in the store)."""
        with self._cond:
            job = self._require(job_id)
            job.status["state"] = QUEUED
            self._write_status(job)
            self._append_event(job, {"kind": "checkpointed",
                                     "reason": reason})
            if job_id not in self._queue:
                self._queue.insert(0, job_id)
            self._cond.notify_all()

    def record_progress(self, job_id: str, cell: Dict) -> None:
        """One settled grid cell (the engine's ledger hook): ``cell``
        holds the fields of a :class:`~repro.obs.telemetry.RunLedger`
        line (:func:`~repro.obs.telemetry.cell_fields`).  Counted in
        memory and appended to the event stream; ``status.json`` is not
        rewritten."""
        with self._cond:
            job = self._require(job_id)
            job.status["cells_done"] += 1
            self._append_event(job, {"kind": "cell", **cell})
            self._cond.notify_all()

    def finish(self, job_id: str, result_json: str,
               *, failures: int = 0) -> None:
        with self._cond:
            job = self._require(job_id)
            atomic_write(job.path("result.json"), result_json)
            job.status["state"] = DONE
            job.status["failures"] = failures
            self._write_status(job)
            self._append_event(job, {"kind": "done",
                                     "failures": failures})
            self._cond.notify_all()

    def fail(self, job_id: str, error: str) -> None:
        with self._cond:
            job = self._require(job_id)
            job.status["state"] = FAILED
            job.status["error"] = error[:2000]
            self._write_status(job)
            self._append_event(job, {"kind": "failed"})
            # Failed jobs stop absorbing duplicate submissions.
            if self._dedup.get(job.status["dedup_key"]) == job_id:
                del self._dedup[job.status["dedup_key"]]
            self._cond.notify_all()

    # -- read side ---------------------------------------------------------

    def _require(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    def active_job_for(self, dedup_key: str) -> Optional[str]:
        """The job id a duplicate submission would attach to (live or
        done, never failed), or None."""
        with self._lock:
            job_id = self._dedup.get(dedup_key)
            if job_id is None:
                return None
            job = self._jobs.get(job_id)
            if job is None or job.state == FAILED:
                return None
            return job_id

    def status(self, job_id: str) -> Dict:
        with self._lock:
            return dict(self._require(job_id).status)

    def spec(self, job_id: str) -> ExperimentSpec:
        with self._lock:
            path = self._require(job_id).path("spec.json")
        with open(path, encoding="utf-8") as handle:
            return ExperimentSpec.from_dict(json.load(handle))

    def result_text(self, job_id: str) -> Optional[str]:
        """The stored canonical result JSON, or None if not finished."""
        with self._lock:
            job = self._require(job_id)
            if job.state != DONE:
                return None
            path = job.path("result.json")
        with open(path, encoding="utf-8") as handle:
            return handle.read()

    def events_since(self, job_id: str, after: int = 0,
                     timeout: float = 0.0) -> Tuple[List[Dict], str]:
        """Events with index >= ``after`` plus the current state,
        long-polling up to ``timeout`` seconds when none are pending
        and the job is still live."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            job = self._require(job_id)
            while (
                len(job.events) <= after
                and job.state not in _TERMINAL
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return list(job.events[after:]), job.state

    def queued_jobs(self, tenant: Optional[str] = None) -> int:
        """Live (queued or running) jobs, optionally for one tenant."""
        with self._lock:
            return sum(
                1 for job in self._jobs.values()
                if job.state in (QUEUED, RUNNING)
                and (tenant is None or job.status["tenant"] == tenant)
            )

    def jobs(self) -> List[Dict]:
        with self._lock:
            return [
                dict(job.status) for _, job in sorted(self._jobs.items())
            ]
