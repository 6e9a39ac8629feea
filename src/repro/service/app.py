"""The HTTP face of the job service (stdlib ``http.server`` only).

Routes (all JSON unless noted):

========  =============================  =====================================
Method    Path                           Meaning
========  =============================  =====================================
POST      ``/v1/jobs``                   Submit an ``ExperimentSpec``; dedups
                                         by canonical spec hash; enforces
                                         tenant quotas (429 + Retry-After).
GET       ``/v1/jobs``                   List job statuses.
GET       ``/v1/jobs/{id}``              One job's status.
GET       ``/v1/jobs/{id}/events``       Progress stream; ``?after=N`` resumes
                                         past events, ``?timeout=S`` long-polls.
GET       ``/v1/jobs/{id}/result``       The canonical ResultGrid JSON (409
                                         until the job is done).
GET       ``/v1/cells/{cache_key}``      One cell straight from the shared
                                         content-addressed ResultCache.
GET       ``/v1/healthz``                Liveness.
GET       ``/metrics``                   OpenMetrics text exposition.
========  =============================  =====================================

Tenancy is declared, not authenticated: the ``X-Repro-Tenant`` header
names the caller (default ``anonymous``); quota enforcement keys off
it.  Authentication belongs in a fronting proxy — this service is for
trusted lab networks (see docs/SERVICE.md).
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.exec.cache import ResultCache
from repro.exec.spec import ExperimentSpec, SpecError
from repro.obs.registry import MetricsRegistry
from repro.service.jobs import JobNotFound, JobStore
from repro.service.quota import QuotaExceeded, Quotas
from repro.service.worker import JobWorker

__all__ = ["ServiceApp", "build_server"]

#: Cap request bodies well above any sane spec, below any DoS payload.
_MAX_BODY = 1 << 20

#: Most extra attempts a job may ask for per cell.  Quotas count cells,
#: not attempts, and the worker runs one job at a time.
MAX_RETRIES = 3


class ServiceApp:
    """Wires store + quota + worker + metrics around one state root."""

    def __init__(
        self,
        root,
        *,
        workloads=None,
        quota: Optional[Quotas] = None,
        metrics: Optional[MetricsRegistry] = None,
        clock=None,
    ):
        from repro.workloads.suite import WorkloadSet

        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        store_kwargs = {} if clock is None else {"clock": clock}
        self.store = JobStore(self.root, **store_kwargs)
        self.quota = quota if quota is not None else Quotas()
        self.workloads = (
            workloads if workloads is not None else WorkloadSet()
        )
        self.cache = ResultCache(
            os.path.join(self.root, "cache"), metrics=self.metrics
        )
        self.worker = JobWorker(
            self.store, self.workloads, self.cache, metrics=self.metrics
        )
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if not self._started:
            self.worker.start()
            self._started = True

    def shutdown(self, *, timeout: float = 30.0) -> None:
        """Drain gracefully: the in-flight grid starts no further cell,
        its running cells settle into the store, and its job re-queues
        for the next server."""
        self.worker.stop()
        if self._started:
            self.worker.join(timeout=timeout)

    # -- request handlers (transport-free, unit-testable) ------------------

    def submit(self, body: Dict, tenant: str) -> Tuple[int, Dict]:
        if not isinstance(body, dict):
            return 400, {"error": "request body must be a JSON object"}
        payload = body.get("spec", body)
        reuse = bool(body.get("reuse", True))
        try:
            spec = ExperimentSpec.from_dict(payload)
            spec.validate(workload_set=self.workloads)
            if spec.options.retries > MAX_RETRIES:
                raise SpecError(
                    f"retries must be <= {MAX_RETRIES} on this service "
                    f"(got {spec.options.retries})"
                )
        except SpecError as error:
            self.metrics.counter("service.jobs.rejected").inc()
            return 400, {"error": str(error)}
        try:
            job, deduped = self.store.submit(
                spec, tenant, reuse=reuse,
                policy=self.quota.policy(tenant),
            )
        except QuotaExceeded as error:
            self.metrics.counter("service.jobs.throttled").inc()
            return 429, {
                "error": str(error),
                "retry_after_s": error.retry_after_s,
            }
        self.metrics.counter(
            "service.jobs.deduped" if deduped
            else "service.jobs.submitted"
        ).inc()
        status = dict(job.status)
        status["deduped"] = deduped
        return (200 if deduped else 201), status

    def job_status(self, job_id: str) -> Tuple[int, Dict]:
        try:
            return 200, self.store.status(job_id)
        except JobNotFound:
            return 404, {"error": f"no such job: {job_id}"}

    def job_events(self, job_id: str, after: int,
                   timeout: float) -> Tuple[int, Dict]:
        try:
            events, state = self.store.events_since(
                job_id, after, timeout=min(timeout, 30.0)
            )
        except JobNotFound:
            return 404, {"error": f"no such job: {job_id}"}
        return 200, {
            "events": events,
            "next": after + len(events),
            "state": state,
        }

    def job_result(self, job_id: str) -> Tuple[int, Optional[str], Dict]:
        """(status, raw-json-text or None, fallback payload)."""
        try:
            status = self.store.status(job_id)
            text = self.store.result_text(job_id)
        except JobNotFound:
            return 404, None, {"error": f"no such job: {job_id}"}
        if text is None:
            return 409, None, {
                "error": f"job {job_id} is {status['state']}, not done",
                "state": status["state"],
                "job": status,
            }
        return 200, text, {}

    def cell(self, digest: str) -> Tuple[int, Dict]:
        payload = self.cache.get_digest(digest)
        if payload is None:
            return 404, {"error": f"no cached cell {digest!r}"}
        return 200, payload


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`ServiceApp`."""

    app: ServiceApp = None  # injected by build_server
    quiet = True
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, fmt, *args):  # pragma: no cover - noise
        if not self.quiet:
            super().log_message(fmt, *args)

    def _send(self, code: int, payload: Dict,
              *, extra_headers: Dict[str, str] = ()) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in dict(extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, code: int, text: str,
                   content_type: str = "application/json") -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _tenant(self) -> str:
        return self.headers.get("X-Repro-Tenant", "anonymous").strip() \
            or "anonymous"

    # -- routes ------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        url = urlparse(self.path)
        if url.path != "/v1/jobs":
            self._send(404, {"error": f"no route: POST {url.path}"})
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        # Both refusals leave the body unread, and unread bytes must not
        # be parsed as a next request: they close the connection.
        if length < 0:
            self._send(
                400,
                {"error": "Content-Length must be a non-negative integer"},
                extra_headers={"Connection": "close"},
            )
            return
        if length > _MAX_BODY:
            self._send(413, {"error": "request body too large"},
                       extra_headers={"Connection": "close"})
            return
        try:
            body = json.loads(self.rfile.read(length) or b"{}")
        except ValueError:
            self._send(400, {"error": "request body is not valid JSON"})
            return
        code, payload = self.app.submit(body, self._tenant())
        headers = {}
        if code == 429:
            headers["Retry-After"] = str(
                max(1, int(payload.get("retry_after_s") or 1))
            )
        self._send(code, payload, extra_headers=headers)

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        url = urlparse(self.path)
        query = parse_qs(url.query)
        parts = [p for p in url.path.split("/") if p]

        if url.path == "/v1/healthz":
            self._send(200, {"ok": True})
            return
        if url.path == "/metrics":
            self._send_text(
                200,
                self.app.metrics.render_openmetrics(),
                "application/openmetrics-text; version=1.0.0; "
                "charset=utf-8",
            )
            return
        if url.path == "/v1/jobs":
            self._send(200, {"jobs": self.app.store.jobs()})
            return
        if len(parts) >= 3 and parts[:2] == ["v1", "jobs"]:
            job_id = parts[2]
            if len(parts) == 3:
                self._send(*self.app.job_status(job_id))
                return
            if len(parts) == 4 and parts[3] == "events":
                try:
                    after = int(query.get("after", ["0"])[0])
                    timeout = float(query.get("timeout", ["0"])[0])
                    if after < 0:
                        raise ValueError(after)
                except ValueError:
                    self._send(400, {
                        "error": "after must be an integer >= 0 and "
                                 "timeout a number",
                    })
                    return
                self._send(*self.app.job_events(job_id, after, timeout))
                return
            if len(parts) == 4 and parts[3] == "result":
                code, text, fallback = self.app.job_result(job_id)
                if text is not None:
                    self._send_text(code, text)
                else:
                    self._send(code, fallback)
                return
        if len(parts) == 3 and parts[:2] == ["v1", "cells"]:
            self._send(*self.app.cell(parts[2]))
            return
        self._send(404, {"error": f"no route: GET {url.path}"})


def build_server(
    app: ServiceApp,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """A ready-to-``serve_forever`` HTTP server bound to the app.

    ``port=0`` binds an ephemeral port (tests); read it back from
    ``server.server_address``.  Starts the app's worker thread.
    """
    handler = type(
        "_BoundHandler", (_Handler,), {"app": app, "quiet": quiet}
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    app.start()
    return server


def serve_until_shutdown(server: ThreadingHTTPServer,
                         app: ServiceApp,
                         stop_event: threading.Event) -> None:
    """Run ``server`` until ``stop_event`` fires, then drain: stop
    accepting, stop the in-flight grid, re-queue its job."""
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.2},
        name="repro-serve-http", daemon=True,
    )
    thread.start()
    try:
        stop_event.wait()
    finally:
        server.shutdown()
        thread.join(timeout=10.0)
        server.server_close()
        app.shutdown()
