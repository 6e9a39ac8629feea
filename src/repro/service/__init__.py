"""Simulation-as-a-service: an async job API over the experiment engine.

The paper's whole methodology is sweeping (simulator x workload x
config) grids; this package turns the repo's batch tooling into a
standing service that accepts those grids as typed
:class:`~repro.exec.spec.ExperimentSpec` requests over HTTP, executes
each distinct spec exactly once, and replays results for everyone:

* :mod:`repro.service.jobs` — the durable on-disk job queue: each
  job is its event log, with dedup-by-canonical-spec-hash, quota
  admission and long-poll event streams;
* :mod:`repro.service.quota` — per-tenant quota policies (queued
  jobs, cells/day), checked against the jobs the store holds;
* :mod:`repro.service.worker` — the execution thread that drives jobs
  through :class:`~repro.validation.harness.Harness` /
  :class:`~repro.exec.engine.ExperimentEngine` over the shared result
  store (graceful shutdown re-queues; a re-run replays settled cells
  from the store);
* :mod:`repro.service.app` — the stdlib HTTP layer
  (``http.server.ThreadingHTTPServer``), no third-party deps;
* :mod:`repro.service.client` — a small blocking client the tests and
  scripts use;
* :mod:`repro.service.cli` — the ``repro-serve`` entry point.

See docs/SERVICE.md for the API reference.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "JobStore": "repro.service.jobs",
    "JobNotFound": "repro.service.jobs",
    "QuotaExceeded": "repro.service.quota",
    "QuotaPolicy": "repro.service.quota",
    "Quotas": "repro.service.quota",
    "JobWorker": "repro.service.worker",
    "ServiceShutdown": "repro.service.worker",
    "ServiceApp": "repro.service.app",
    "build_server": "repro.service.app",
    "ServiceClient": "repro.service.client",
    "ServiceError": "repro.service.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
