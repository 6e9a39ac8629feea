"""Per-tenant admission control for the job service.

Two budgets, both enforced at submission time (attached duplicate
submissions are free — the whole point of dedup is that N identical
specs cost one simulation):

* ``max_queued_jobs`` — live (queued + running) jobs a tenant may hold;
  protects the queue from one tenant monopolising the worker;
* ``max_cells_per_day`` — grid cells a tenant may *enqueue* per rolling
  24h window; the service's unit of work is the cell, so this is the
  token budget.

Nothing here is stored: a tenant's spend is computed from the jobs it
created, which the job store recovers from their event logs, so a
restart cannot reset anyone's budget.  The store checks and enqueues
under one lock (:meth:`~repro.service.jobs.JobStore.submit`), so
concurrent submissions cannot overrun either budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Tuple

__all__ = ["QuotaExceeded", "QuotaPolicy", "Quotas"]

_DAY_S = 86400.0


class QuotaExceeded(Exception):
    """Submission rejected; ``retry_after_s`` hints when to come back."""

    def __init__(self, message: str, *, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


@dataclass(frozen=True)
class QuotaPolicy:
    """Budget for one tenant (or the default for unlisted tenants)."""

    max_queued_jobs: int = 4
    max_cells_per_day: int = 100_000

    def admit(self, tenant: str, cells: int, *, live: int,
              created: Iterable[Tuple[float, int]], now: float) -> None:
        """Admit a submission of ``cells`` grid cells, or raise
        :class:`QuotaExceeded`.  ``live`` counts the tenant's queued and
        running jobs; ``created`` holds ``(created_ts, cells)`` for each
        job the tenant created."""
        if live >= self.max_queued_jobs:
            raise QuotaExceeded(
                f"tenant {tenant!r} has {live} live jobs "
                f"(limit {self.max_queued_jobs}); wait for one "
                f"to finish",
                retry_after_s=5.0,
            )
        window = [(ts, n) for ts, n in created if now - ts < _DAY_S]
        spent = sum(n for _, n in window)
        if spent + cells > self.max_cells_per_day:
            oldest = min((ts for ts, _ in window), default=now)
            raise QuotaExceeded(
                f"tenant {tenant!r} would exceed its daily cell "
                f"budget: {spent} spent + {cells} requested > "
                f"{self.max_cells_per_day}/day",
                retry_after_s=max(1.0, oldest + _DAY_S - now),
            )


@dataclass(frozen=True)
class Quotas:
    """The service's quota settings: a default policy plus per-tenant
    overrides."""

    default: QuotaPolicy = QuotaPolicy()
    tenants: Mapping[str, QuotaPolicy] = field(default_factory=dict)

    def policy(self, tenant: str) -> QuotaPolicy:
        return self.tenants.get(tenant, self.default)
