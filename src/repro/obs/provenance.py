"""Run provenance: enough metadata to trust (or reject) an old result.

A grid of numbers with no record of which configuration, code version,
or machine produced it is unfalsifiable — the paper's whole methodology
is about knowing *exactly* what a simulator modelled when it produced a
number.  :class:`RunProvenance` captures the reproducibility
fingerprint of one timing run:

* ``config_hash`` — SHA-256 (truncated) over the simulator's fully
  resolved :class:`~repro.core.config.MachineConfig`, so two results
  are comparable iff their hashes match;
* ``package_version`` — the ``repro`` release that produced it;
* ``created`` — wall-clock time (UTC, ISO-8601);
* ``host`` / ``platform`` / ``python`` — where it ran.

Hashes are computed once per configuration *value* and memoised, so
the fresh but equal config every ``SimAlpha()`` builds costs one
``repr`` and a dict lookup, not a re-hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform as _platform
import socket
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, Optional

__all__ = ["RunProvenance", "config_hash", "capture_provenance"]

#: ``repr(config)`` -> hash memo.  Keyed by value, not identity, so
#: equal configs share one entry.  The configs are unhashable (they
#: nest mutable dataclasses), and ``==`` would conflate values the
#: canonical JSON tells apart (``1`` and ``1.0``, ``0.0`` and
#: ``-0.0``); the dataclass ``repr`` shows every field and its type, so
#: equal reprs have equal digests.
_HASH_CACHE: Dict[str, str] = {}

#: Entries kept in the memo before oldest-first eviction kicks in.
_HASH_CACHE_LIMIT = 4096


def _package_version() -> str:
    # Imported lazily: repro/__init__ imports result.py which imports
    # this module, so a top-level import would cycle.
    try:
        from repro import __version__
        return __version__
    except Exception:  # pragma: no cover - partial-install fallback
        return "unknown"


def config_hash(config: object) -> str:
    """A stable 16-hex-digit digest of a configuration dataclass.

    Accepts any (possibly nested) dataclass — in practice a
    ``MachineConfig`` — and hashes its canonical JSON form.  Non-JSON
    leaf values (enums, callables) fall back to ``repr``.
    """
    if config is None:
        return "none"
    key = repr(config)
    cached = _HASH_CACHE.get(key)
    if cached is not None:
        return cached
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        payload = dataclasses.asdict(config)
    else:
        payload = config
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    while len(_HASH_CACHE) >= _HASH_CACHE_LIMIT:  # unbounded-growth guard
        # Evict oldest-first (dict preserves insertion order) so the
        # configs a running grid is actively hashing keep their memo
        # entries instead of being wiped wholesale.
        del _HASH_CACHE[next(iter(_HASH_CACHE))]
    _HASH_CACHE[key] = digest
    return digest


@dataclass(frozen=True)
class RunProvenance:
    """The reproducibility fingerprint of one timing run."""

    config_hash: str
    config_name: str = ""
    package_version: str = ""
    created: str = ""
    host: str = ""
    platform: str = ""
    python: str = ""

    def to_dict(self) -> Dict[str, str]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "RunProvenance":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


def capture_provenance(
    config: Optional[object] = None,
    *,
    name: str = "",
) -> RunProvenance:
    """Provenance for a run of ``config`` on this host, right now."""
    return RunProvenance(
        config_hash=config_hash(config),
        config_name=name or getattr(config, "name", ""),
        package_version=_package_version(),
        created=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        host=socket.gethostname(),
        platform=_platform.platform(),
        python=_platform.python_version(),
    )
