"""``repro-serve`` — run the simulation job service from the shell.

::

    repro-serve --root /var/lib/repro --port 8321 \\
        --max-queued 4 --max-cells-per-day 100000 \\
        --tenant-quota team-a=8:500000

Prints one readiness line (``repro-serve listening on HOST:PORT``) to
stdout once the socket is bound — CI scripts wait for it before
submitting.  SIGTERM / SIGINT (Ctrl-C) trigger a graceful drain: the
in-flight grid starts no further cell, its running cells settle into
the shared store, its job re-queues, and the process exits 0; a second
signal exits immediately.  Pool workers ignore SIGINT; a SIGTERM to
the whole process group kills them, and the engine runs their cells
again rather than recording a crash.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Dict, Optional, Sequence

from repro.service.app import ServiceApp, build_server, serve_until_shutdown
from repro.service.quota import QuotaPolicy, Quotas
from repro.validation.exitcodes import ExitCode

__all__ = ["main"]


def _parse_tenant_quota(text: str) -> Dict[str, QuotaPolicy]:
    """``name=JOBS:CELLS`` -> {name: QuotaPolicy(JOBS, CELLS)}."""
    try:
        name, budgets = text.split("=", 1)
        jobs_s, cells_s = budgets.split(":", 1)
        return {name: QuotaPolicy(int(jobs_s), int(cells_s))}
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected NAME=MAX_JOBS:MAX_CELLS_PER_DAY, got {text!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description=(
            "Async job API over the experiment engine: POST "
            "ExperimentSpecs, poll events, fetch canonical results."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8321,
                        help="bind port; 0 picks an ephemeral one")
    parser.add_argument("--root", default="repro-service",
                        help="state directory: jobs/, cache/")
    parser.add_argument("--max-queued", type=int, default=4,
                        help="default per-tenant live-job limit")
    parser.add_argument("--max-cells-per-day", type=int, default=100_000,
                        help="default per-tenant daily cell budget")
    parser.add_argument(
        "--tenant-quota", type=_parse_tenant_quota, action="append",
        default=[], metavar="NAME=JOBS:CELLS",
        help="override the quota for one tenant (repeatable)",
    )
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logging")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    tenants: Dict[str, QuotaPolicy] = {}
    for override in args.tenant_quota:
        tenants.update(override)
    quota = Quotas(
        QuotaPolicy(args.max_queued, args.max_cells_per_day), tenants
    )
    app = ServiceApp(args.root, quota=quota)
    try:
        server = build_server(
            app, host=args.host, port=args.port, quiet=args.quiet
        )
    except OSError as error:
        print(f"repro-serve: cannot bind {args.host}:{args.port}: "
              f"{error}", file=sys.stderr)
        return ExitCode.SERVICE

    stop = threading.Event()

    def request_stop(signum, frame):
        if stop.is_set():  # second signal: give up on draining
            raise SystemExit(ExitCode.SERVICE)
        print("repro-serve: draining (stopping in-flight grid)",
              file=sys.stderr, flush=True)
        stop.set()

    signal.signal(signal.SIGINT, request_stop)
    signal.signal(signal.SIGTERM, request_stop)

    host, port = server.server_address[:2]
    print(f"repro-serve listening on {host}:{port}", flush=True)
    serve_until_shutdown(server, app, stop)
    print("repro-serve: drained cleanly", file=sys.stderr, flush=True)
    return ExitCode.OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
