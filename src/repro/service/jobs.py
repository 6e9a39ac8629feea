"""The durable job store: on-disk queue, dedup index, event streams.

One job = one directory under ``<root>/jobs/<job_id>/``:

* ``events.jsonl`` — the job's only record: the append-only event log
  the long-poll endpoint serves.  ``submitted`` carries the job's
  ``id``, ``seq``, ``dedup_key``, ``tenant``, ``cells`` and canonical
  ``spec``; ``failed`` carries its ``error``; a ``cell`` event carries
  the keys of a :class:`~repro.obs.telemetry.RunLedger` line.  A job's
  status is the fold of its log through :func:`_apply`, live and at
  start-up;
* ``result.json`` — the canonical ``ResultGrid`` serialisation, written
  before the ``done`` event.

Every lifecycle event is durable before the call that emits it returns
(:func:`~repro.exec.cache.append_line`).  ``cell`` events are unsynced
progress: every fresh cell is a durable put into the service's shared
result store, so a job killed mid-grid (crash or graceful shutdown)
resumes by running its grid again, and its settled cells replay from
the store (``source="cache"``).  Whatever the grid size, a job's own
durable writes are a constant number.

Dedup: a spec whose :meth:`ExperimentSpec.dedup_key` matches a live or
completed job *attaches* to it: N identical submissions cost one
simulation and no quota.  Failed jobs do not dedup, so a resubmission
retries.  :meth:`JobStore.submit` runs the dedup check, the quota check
and the enqueue under the store's one lock, and reads a tenant's spend
from the jobs the store holds, so nothing else records it.

Recovery folds every log at start-up and truncates a torn last line (a
crash mid-append), so the next append starts on a fresh line.
``queued`` jobs re-enter the queue; ``running`` jobs (a crashed
server's in-flight work) get a ``requeued`` event and resume from the
shared store.  All waiting (long-poll, worker claim) is one
``threading.Condition``; every mutation notifies it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.exec.cache import append_line, atomic_write
from repro.exec.spec import ExperimentSpec
from repro.service.quota import QuotaPolicy

__all__ = ["Job", "JobNotFound", "JobStore"]

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_LIVE = (QUEUED, RUNNING)
_TERMINAL = (DONE, FAILED)


class JobNotFound(KeyError):
    """No job with that id (or its directory is gone)."""


def _apply(status: Dict, event: Dict) -> None:
    """Fold one event into a job's status: the only place a job's
    status changes, live or at recovery."""
    kind = event["kind"]
    if kind == "submitted":
        status.update(
            id=event["id"], seq=event["seq"], state=QUEUED,
            dedup_key=event["dedup_key"], tenant=event["tenant"],
            tenants=[event["tenant"]], cells=event["cells"],
            cells_done=0, created=event["ts"], error=None,
        )
    elif kind == "attached":
        if event["tenant"] not in status["tenants"]:
            # A new list: copies of the status already handed out keep
            # the list they were given.
            status["tenants"] = status["tenants"] + [event["tenant"]]
    elif kind == "started":
        status["state"] = RUNNING
        # A resumed job re-counts: its settled cells re-announce from
        # the shared store with source="cache".
        status["cells_done"] = 0
    elif kind == "cell":
        status["cells_done"] += 1
    elif kind in ("checkpointed", "requeued"):
        status["state"] = QUEUED
    elif kind == "done":
        status["state"] = DONE
        status["failures"] = event["failures"]
    elif kind == "failed":
        status["state"] = FAILED
        status["error"] = event["error"]


def _read_log(path: str) -> List[Dict]:
    """The events of the log at ``path`` up to its first line that is
    torn or does not decode; the file is truncated there, so the next
    append starts on a fresh line."""
    events: List[Dict] = []
    good = 0
    with open(path, "rb") as handle:
        for line in handle:
            if not line.endswith(b"\n"):
                break
            try:
                events.append(json.loads(line))
            except ValueError:
                break
            good += len(line)
        size = os.fstat(handle.fileno()).st_size
    if good < size:
        os.truncate(path, good)
    return events


class Job:
    """One job: its event log and the status folded from it."""

    def __init__(self, job_id: str, root: str):
        self.job_id = job_id
        self.root = root
        self.status: Dict = {}
        self.events: List[Dict] = []

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
        """Rebuild the jobs, queue and dedup index by folding each log."""
        for job_id in sorted(os.listdir(self.jobs_dir)):
            job = Job(job_id, os.path.join(self.jobs_dir, job_id))
            try:
                for event in _read_log(job.path("events.jsonl")):
                    _apply(job.status, event)
                    job.events.append(event)
            except (OSError, KeyError, TypeError):
                continue  # no log, or not one this store wrote
            if job.status.get("id") != job_id:
                continue  # creation never completed; harmless orphan
            self._jobs[job_id] = job
            self._seq = max(self._seq, job.status["seq"])
            if job.state == RUNNING:
                # The previous server died mid-grid; the shared result
                # store holds its settled cells.
                self._emit(job, {"kind": "requeued"})
            if job.state == QUEUED:
                self._queue.append(job_id)
            if job.state != FAILED:
                self._dedup[job.status["dedup_key"]] = job_id

    # -- persistence -------------------------------------------------------

    def _emit(self, job: Job, event: Dict) -> None:
        """Stamp ``event``, apply it and append it to the job's log;
        a lifecycle event is durable when this returns, a ``cell``
        event is not."""
        event = dict(event, index=len(job.events),
                     ts=round(self._clock(), 3))
        _apply(job.status, event)
        job.events.append(event)
        append_line(
            job.path("events.jsonl"), json.dumps(event, sort_keys=True),
            sync=event["kind"] != "cell",
        )

    # -- submission --------------------------------------------------------

    def submit(self, spec: ExperimentSpec, tenant: str, *,
               reuse: bool = True,
               policy: QuotaPolicy = QuotaPolicy()) -> Tuple[Job, bool]:
        """Enqueue ``spec`` for ``tenant``.

        Returns ``(job, deduped)``: with ``reuse`` (the default) a spec
        whose dedup key matches a non-failed job attaches to it and
        ``deduped`` is True — the attach costs no new simulation and
        no quota.  A new job must pass ``policy`` against the tenant's
        live jobs and the cells it enqueued in the last 24 h, or
        :class:`~repro.service.quota.QuotaExceeded` is raised.
        ``reuse=False`` forces a fresh job (it still shares the result
        cache, so a warm re-run recomputes nothing).
        """
        key = spec.dedup_key()
        with self._cond:
            existing_id = self._dedup.get(key) if reuse else None
            if existing_id is not None:
                existing = self._jobs[existing_id]
                self._emit(existing, {"kind": "attached", "tenant": tenant})
                self._cond.notify_all()
                return existing, True
            mine = [
                job.status for job in self._jobs.values()
                if job.status["tenant"] == tenant
            ]
            policy.admit(
                tenant, spec.cells,
                live=sum(1 for status in mine if status["state"] in _LIVE),
                created=[(status["created"], status["cells"])
                         for status in mine],
                now=self._clock(),
            )
            while True:
                self._seq += 1
                job_id = f"j{self._seq:06d}-{key[:12]}"
                job = Job(job_id, os.path.join(self.jobs_dir, job_id))
                try:
                    os.mkdir(job.root)
                    break
                except FileExistsError:
                    pass  # a directory recovery skipped keeps its name
            self._emit(job, {
                "kind": "submitted", "id": job_id, "seq": self._seq,
                "dedup_key": key, "tenant": tenant, "cells": spec.cells,
                "spec": spec.to_dict(),
            })
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
            self._emit(self._jobs[job_id], {"kind": "started"})
            self._cond.notify_all()
            return job_id

    def requeue(self, job_id: str, *, reason: str = "shutdown") -> None:
        """Put a claimed job back on the queue (graceful shutdown at a
        cell boundary; its settled cells are already in the store)."""
        with self._cond:
            job = self._require(job_id)
            self._emit(job, {"kind": "checkpointed", "reason": reason})
            if job_id not in self._queue:
                self._queue.insert(0, job_id)
            self._cond.notify_all()

    def record_progress(self, job_id: str, cell: Dict) -> None:
        """One settled grid cell (the engine's ledger hook): ``cell``
        holds the fields of a :class:`~repro.obs.telemetry.RunLedger`
        line (:func:`~repro.obs.telemetry.cell_fields`)."""
        with self._cond:
            self._emit(self._require(job_id), {"kind": "cell", **cell})
            self._cond.notify_all()

    def finish(self, job_id: str, result_json: str,
               *, failures: int = 0) -> None:
        with self._cond:
            job = self._require(job_id)
            atomic_write(job.path("result.json"), result_json)
            self._emit(job, {"kind": "done", "failures": failures})
            self._cond.notify_all()

    def fail(self, job_id: str, error: str) -> None:
        with self._cond:
            job = self._require(job_id)
            self._emit(job, {"kind": "failed", "error": error[:2000]})
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

    def status(self, job_id: str) -> Dict:
        with self._lock:
            return dict(self._require(job_id).status)

    def spec(self, job_id: str) -> ExperimentSpec:
        with self._lock:
            payload = self._require(job_id).events[0]["spec"]
        return ExperimentSpec.from_dict(payload)

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

    def jobs(self) -> List[Dict]:
        with self._lock:
            return [
                dict(job.status) for _, job in sorted(self._jobs.items())
            ]
