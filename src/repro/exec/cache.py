"""On-disk memoization of simulation results, content-addressed by
configuration.

A grid cell's outcome is a pure function of (simulator configuration,
workload trace, simulator code).  :class:`CacheKey` captures exactly
that function's inputs:

* ``simulator`` + ``config_hash`` — which timing model, resolved to the
  PR-1 provenance hash of its fully specified configuration;
* ``workload`` + ``trace_fingerprint`` — which dynamic trace, hashed
  over every replayed instruction so a changed workload generator
  invalidates stale entries;
* ``package_version`` — which release of the simulators produced it.

Entries live one-per-file under the cache root, named by the key's
digest and carrying the full key alongside the serialised
:class:`~repro.result.SimResult`; a stored key that does not match the
probe (digest collision, hand-edited file) or an unreadable entry is
*invalidated* — deleted and recomputed — rather than trusted.  Hits
return the stored result verbatim, provenance included, so a warm run
serialises byte-identically to the run that populated the cache.

Every entry is written by :func:`atomic_write`, the package's one
durable writer (the grid journal, the job service's status and result
files and its quota ledger use it too), so an entry that exists is
complete and a stored entry survives power loss.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence

from repro.obs.registry import MetricsRegistry
from repro.result import SimResult

__all__ = [
    "CacheKey", "ResultCache", "atomic_write", "fingerprint_trace",
    "instr_signature",
]


def atomic_write(path, text: str) -> None:
    """Replace the file at ``path`` with ``text``, atomically and
    durably.

    Writes a ``*.tmp`` file in the target's directory, fsyncs it,
    renames it over ``path`` (``os.replace``) and fsyncs the directory,
    so a reader never sees a torn file and a completed write survives
    power loss; on failure the temp file is removed and the target is
    left as it was.  The temp name starts with the target's, so a
    leftover from a killed writer says what it was for
    (:meth:`ResultCache.gc` ages such leftovers out).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    try:
        # Persist the rename itself: without the directory fsync a
        # power loss can roll the file back to its previous contents
        # even though the caller was told the write landed.
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:  # pragma: no cover - platform without dir fsync
        pass


def instr_signature(dyn) -> tuple:
    """The timing-relevant identity of one dynamic instruction.

    Exactly the :class:`~repro.functional.trace.DynInstr` content the
    timing models consume, and nothing else:

    * ``pc``/``opcode``/``dest``/``srcs``/``slot`` drive fetch, map,
      issue and functional-unit selection (``klass``, ``latency`` and
      the ``is_*`` flags are derived from ``opcode`` and so carry no
      extra information);
    * ``taken``/``next_pc`` train the predictors and charge redirects;
    * ``eaddr`` drives the cache hierarchy and store forwarding.

    ``seq``/``index`` are the instruction's *position*, already fixed
    by where it sits in the trace, and ``size`` is never read by any
    timing model — including any of them would split traces that every
    simulator times identically.  This is the same judgement as the
    blockcache's per-record comparison key
    (``repro.core.blockcache._DYN_KEY``), applied here at whole-trace
    granularity.
    """
    return (
        dyn.pc, dyn.opcode.name, dyn.dest, dyn.srcs, dyn.taken,
        dyn.next_pc, dyn.eaddr, dyn.slot,
    )


def fingerprint_trace(trace: Sequence) -> str:
    """A stable digest of a dynamic trace's replayed content.

    Hashes :func:`instr_signature` for every record (plus the length),
    so two traces fingerprint equal **iff** every simulator times them
    identically: content the models never read (``size``, and the
    position fields that restate the record index) cannot split the
    fingerprint, and every consumed field is separated unambiguously
    so no two distinct signatures can collide by concatenation.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(len(trace)).encode())
    for dyn in trace:
        digest.update(repr(instr_signature(dyn)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheKey:
    """The full set of inputs that determine one cell's result."""

    simulator: str
    config_hash: str
    workload: str
    trace_fingerprint: str
    package_version: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]


class ResultCache:
    """One-file-per-cell result store under ``root``.

    Counts its own traffic (``hits`` / ``misses`` / ``invalidations`` /
    ``stores``) and mirrors the counts into ``metrics`` (a
    :class:`~repro.obs.registry.MetricsRegistry`) under
    ``exec.cache.*`` when one is attached.
    """

    def __init__(self, root, *, metrics: Optional[MetricsRegistry] = None):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.metrics = metrics
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.stores = 0

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"exec.cache.{name}").inc()

    def _path(self, key: CacheKey) -> str:
        return os.path.join(self.root, key.digest() + ".json")

    def get(self, key: CacheKey) -> Optional[SimResult]:
        """The stored result for ``key``, or None on miss.

        A present-but-untrustworthy entry (unreadable, undecodable, or
        carrying a different key) is deleted and counted as an
        invalidation in addition to the miss.
        """
        path = self._path(key)
        payload = None
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            pass
        except (OSError, ValueError):
            self._drop(path)
        if payload is not None:
            if payload.get("key") == key.to_dict():
                try:
                    result = SimResult.from_dict(payload["result"])
                except (KeyError, TypeError, ValueError):
                    self._drop(path)
                else:
                    self.hits += 1
                    self._count("hits")
                    try:
                        # Refresh mtime: recency is the LRU eviction
                        # order :meth:`gc` uses, so a hit keeps an
                        # entry alive.
                        os.utime(path)
                    except OSError:  # pragma: no cover - races
                        pass
                    return result
            else:
                self._drop(path)
        self.misses += 1
        self._count("misses")
        return None

    def get_digest(self, digest: str) -> Optional[Dict]:
        """The raw stored payload (key + result dicts) for an entry
        addressed by its bare ``digest`` — the lookup the job service's
        ``GET /v1/cells/{cache_key}`` serves.  Unlike :meth:`get` there
        is no probe key to validate against, so the stored payload is
        only checked for shape; unreadable entries return None without
        being invalidated (the keyed path owns repair).  Not counted as
        cache traffic."""
        if not digest or not all(
            c in "0123456789abcdef" for c in digest
        ):
            return None
        path = os.path.join(self.root, digest + ".json")
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != "repro-result-cache/1"
            or "result" not in payload
        ):
            return None
        return payload

    def put(self, key: CacheKey, result: SimResult) -> None:
        """Store ``result`` under ``key``, atomically and durably
        (overwrites): once this returns, the entry survives a crash or
        power loss, so a resumed grid may skip the cell."""
        payload = {
            "format": "repro-result-cache/1",
            "key": key.to_dict(),
            "result": result.to_dict(),
        }
        atomic_write(self._path(key), json.dumps(payload, sort_keys=True))
        self.stores += 1
        self._count("stores")

    def _unlink(self, path: str) -> bool:
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        except OSError:  # pragma: no cover - permission races
            return False
        return True

    def _unlink_if_unchanged(self, path: str, seen) -> bool:
        """Unlink ``path`` only if it is still the file the gc scan
        decided to evict.

        A concurrent writer lands entries with ``os.replace``; if the
        file has been replaced since the scan ``stat`` (fresh
        ``mtime_ns`` or size), evicting it would destroy a *new*
        result that was never examined — skip it instead.  The
        re-stat narrows the race to the instant between stat and
        unlink; the cache is single-host, so a same-nanosecond
        identical-size replacement is not a practical concern.
        """
        try:
            current = os.stat(path)
        except OSError:
            return False
        if (current.st_mtime_ns, current.st_size) != (
            seen.st_mtime_ns, seen.st_size
        ):
            return False
        return self._unlink(path)

    def _drop(self, path: str) -> bool:
        if not self._unlink(path):
            return False
        self.invalidations += 1
        self._count("invalidations")
        return True

    def gc(
        self,
        *,
        max_age_s: Optional[float] = None,
        live: Optional[Iterable] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict:
        """Prune the cache; returns a summary of what was reclaimed.

        Three independent criteria, applied in order:

        * ``live`` — an iterable of :class:`CacheKey` (or digest
          strings) that are *never* evicted, whatever their age or the
          size budget (the current experiment's working set); their
          bytes still count toward ``max_bytes`` — exactly once each,
          however many times (and in however many spellings) a member
          appears in ``live``;
        * ``max_age_s`` — entries not touched (stored or hit) within
          that many seconds of ``now`` are removed;
        * ``max_bytes`` — if the cache (live entries included) still
          exceeds this byte budget, least-recently-used evictable
          entries (oldest mtime first) are evicted until it fits.

        Orphaned ``.tmp`` files from interrupted writes are removed by
        the age pass as well.  Eviction re-stats each victim first, so
        gc racing a concurrent writer can never unlink an entry that
        was replaced after the scan.  ``now`` is injectable for tests.
        The summary — removed digests (sorted), bytes reclaimed,
        entries kept — is also mirrored into the attached metrics
        registry (``exec.cache.gc_removed`` /
        ``exec.cache.gc_bytes_reclaimed``).
        """
        if now is None:
            now = time.time()
        keep = set()
        for item in (live or ()):
            keep.add(item.digest() if isinstance(item, CacheKey) else item)

        entries = []   # (mtime, size, digest, path, stat)
        removed = []
        reclaimed = 0
        live_bytes = 0
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - deletion race
                continue
            if name.endswith(".tmp"):
                # Interrupted-write leftovers age out like entries.
                if max_age_s is not None and now - stat.st_mtime > max_age_s:
                    if self._unlink_if_unchanged(path, stat):
                        reclaimed += stat.st_size
                continue
            if not name.endswith(".json"):
                continue
            digest = name[:-len(".json")]
            if digest in keep:
                # Exempt from eviction, but the bytes are real: count
                # them toward the budget.  The ``keep`` *set* already
                # collapses a member passed both as a CacheKey and as
                # its raw digest, so each file is counted once.
                live_bytes += stat.st_size
                continue
            if max_age_s is not None and now - stat.st_mtime > max_age_s:
                if self._unlink_if_unchanged(path, stat):
                    removed.append(digest)
                    reclaimed += stat.st_size
                continue
            entries.append((stat.st_mtime, stat.st_size, digest, path, stat))

        if max_bytes is not None:
            total = live_bytes + sum(size for _, size, _, _, _ in entries)
            # Oldest mtime first = least recently used.  Only non-live
            # entries are evictable; a live set larger than the budget
            # empties everything else but is itself untouchable.
            entries.sort(key=lambda entry: entry[:3])
            for _, size, digest, path, stat in entries:
                if total <= max_bytes:
                    break
                if self._unlink_if_unchanged(path, stat):
                    removed.append(digest)
                    reclaimed += size
                    total -= size

        if self.metrics is not None:
            self.metrics.counter("exec.cache.gc_removed").inc(len(removed))
            self.metrics.counter("exec.cache.gc_bytes_reclaimed").inc(
                reclaimed
            )
        return {
            "removed": sorted(removed),
            "reclaimed_bytes": reclaimed,
            "kept": len(self),
        }

    def __len__(self) -> int:
        return sum(
            1 for name in os.listdir(self.root) if name.endswith(".json")
        )

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "stores": self.stores,
            "entries": len(self),
        }
