"""Per-tenant admission control for the job service.

Two budgets, both enforced at submission time (attached duplicate
submissions are free — the whole point of dedup is that N identical
specs cost one simulation):

* ``max_queued_jobs`` — live (queued + running) jobs a tenant may hold;
  protects the queue from one tenant monopolising the worker;
* ``max_cells_per_day`` — grid cells a tenant may *enqueue* per rolling
  24h window; the service's unit of work is the cell, so this is the
  token budget.

Spend is tracked per tenant as ``(timestamp, cells)`` entries, pruned
as the window rolls, and persisted to ``<root>/quota.json`` so a
restart cannot reset anyone's budget.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.exec.cache import atomic_write

__all__ = ["QuotaExceeded", "QuotaLedger", "QuotaPolicy"]

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


class QuotaLedger:
    """Tracks and enforces per-tenant spend."""

    def __init__(
        self,
        default: Optional[QuotaPolicy] = None,
        *,
        tenants: Optional[Dict[str, QuotaPolicy]] = None,
        path: Optional[str] = None,
        clock=time.time,
    ):
        self.default = default or QuotaPolicy()
        self.tenants = dict(tenants or {})
        self.path = os.fspath(path) if path is not None else None
        self._clock = clock
        self._lock = threading.Lock()
        self._spent: Dict[str, List[Tuple[float, int]]] = {}
        self._load()

    def policy(self, tenant: str) -> QuotaPolicy:
        return self.tenants.get(tenant, self.default)

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        if self.path is None or not os.path.exists(self.path):
            return
        try:
            with open(self.path, encoding="utf-8") as handle:
                payload = json.load(handle)
            for tenant, entries in payload.get("spent", {}).items():
                self._spent[tenant] = [
                    (float(ts), int(cells)) for ts, cells in entries
                ]
        except (OSError, ValueError, TypeError):
            # A corrupt quota file must not brick the service; the
            # worst case is a reset window.
            self._spent = {}

    def _save(self) -> None:
        if self.path is None:
            return
        atomic_write(self.path, json.dumps({"spent": self._spent}))

    # -- enforcement -------------------------------------------------------

    def _prune(self, tenant: str, now: float) -> List[Tuple[float, int]]:
        entries = [
            (ts, cells)
            for ts, cells in self._spent.get(tenant, [])
            if now - ts < _DAY_S
        ]
        if entries:
            self._spent[tenant] = entries
        else:
            self._spent.pop(tenant, None)
        return entries

    def spent_cells(self, tenant: str) -> int:
        with self._lock:
            now = self._clock()
            return sum(c for _, c in self._prune(tenant, now))

    def admit(self, tenant: str, *, cells: int, queued_jobs: int) -> None:
        """Admit a submission of ``cells`` grid cells, or raise
        :class:`QuotaExceeded`.  ``queued_jobs`` is the tenant's
        current live-job count (the store knows; the ledger doesn't).
        Charges the cell budget on success."""
        policy = self.policy(tenant)
        with self._lock:
            now = self._clock()
            if queued_jobs >= policy.max_queued_jobs:
                raise QuotaExceeded(
                    f"tenant {tenant!r} has {queued_jobs} live jobs "
                    f"(limit {policy.max_queued_jobs}); wait for one "
                    f"to finish",
                    retry_after_s=5.0,
                )
            entries = self._prune(tenant, now)
            spent = sum(c for _, c in entries)
            if spent + cells > policy.max_cells_per_day:
                oldest = min((ts for ts, _ in entries), default=now)
                raise QuotaExceeded(
                    f"tenant {tenant!r} would exceed its daily cell "
                    f"budget: {spent} spent + {cells} requested > "
                    f"{policy.max_cells_per_day}/day",
                    retry_after_s=max(1.0, oldest + _DAY_S - now),
                )
            self._spent.setdefault(tenant, []).append((now, cells))
            self._save()
