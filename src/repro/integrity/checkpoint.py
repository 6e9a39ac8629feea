"""Grid checkpointing: atomic persistence of partially completed grids.

A long parallel grid run that dies at cell 900 of 1000 currently
recomputes everything.  :class:`GridCheckpoint` is a merge-journal the
execution engine writes as cells complete: each completed cell is
recorded under its content-addressed cache-key digest, and the whole
journal is rewritten atomically and durably
(:func:`~repro.exec.cache.atomic_write`) every ``every`` completions,
so the file on disk is always a valid snapshot — a kill at any instant
loses at most the last ``every - 1`` cells.

On the next run, ``resume=True`` loads the journal and satisfies any
cell whose digest matches a recorded entry, so only the missing cells
execute.  Because entries are keyed by the same digest the result
cache uses (configuration hash + trace fingerprint + package version),
a checkpoint can never resurrect a stale result for a changed
configuration: the digest simply will not match.

The journal always *merges* on flush — existing entries on disk are
loaded first even when not resuming — so two interleaved runs over
different cells of the same grid extend one journal instead of
clobbering each other.

Merge-on-flush has a cost: a journal shared across reconfigurations
grows monotonically, accumulating entries whose digests no grid will
ever ask for again.  :meth:`GridCheckpoint.gc` prunes by entry age
and/or a live-digest set; the v2 journal format stamps each entry with
its record time to make the age pass possible.  v1 journals still
load (their entries are treated as recorded at load time, so an age
pass never silently destroys pre-timestamp work) and are upgraded to
v2 on the next flush.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional

from repro.exec.cache import atomic_write
from repro.result import SimResult

__all__ = ["CheckpointConflict", "GridCheckpoint"]


class CheckpointConflict(ValueError):
    """Two journal entries under the same digest hold *different*
    measurements.

    The digest binds configuration hash, trace fingerprint and package
    version, so any two honest recomputations of the same digest must
    agree canonically (volatile provenance/telemetry aside).  A
    mismatch means one of the journals is corrupt or the determinism
    invariant broke — silently keeping either payload would launder the
    corruption into downstream grids, so loading raises instead of
    last-write-wins."""


class GridCheckpoint:
    """Append-ish journal of completed grid cells, keyed by cache-key
    digest, rewritten atomically.

    Parameters
    ----------
    path:
        Journal file location (created on first flush; parent
        directory is created if missing).
    every:
        Flush after this many newly recorded cells.  ``1`` (the
        default) flushes on every completion — the safest setting and
        cheap next to a timing run; raise it for very fast cells.
    """

    FORMAT = "repro-grid-checkpoint/2"
    #: The pre-GC format: plain digest -> result cells, no timestamps.
    FORMAT_V1 = "repro-grid-checkpoint/1"

    def __init__(self, path, *, every: int = 1):
        self.path = os.fspath(path)
        self.every = max(1, int(every))
        self._entries: Dict[str, SimResult] = {}
        #: Unix timestamp each digest was recorded (or first seen, for
        #: entries loaded from a v1 journal).
        self._recorded: Dict[str, float] = {}
        self._dirty = 0
        self._loaded = False

    # -- reading -----------------------------------------------------------

    def load(self) -> Dict[str, SimResult]:
        """Read the journal from disk (merging into memory) and return
        a digest -> :class:`SimResult` mapping.

        Missing file means an empty journal; a corrupt or
        wrong-format file raises ``ValueError`` rather than silently
        discarding completed work.
        """
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except FileNotFoundError:
            self._loaded = True
            return dict(self._entries)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"corrupt grid checkpoint {self.path!r}: {exc}"
            ) from exc
        fmt = payload.get("format") if isinstance(payload, dict) else None
        if fmt not in (self.FORMAT, self.FORMAT_V1):
            raise ValueError(
                f"not a grid checkpoint: {self.path!r} has format="
                f"{fmt!r} (expected {self.FORMAT!r})"
            )
        now = time.time()
        parsed = []
        try:
            for digest, entry in payload.get("cells", {}).items():
                if fmt == self.FORMAT_V1:
                    result, recorded = entry, now
                else:
                    result = entry["result"]
                    recorded = float(entry.get("recorded", now))
                parsed.append((digest, SimResult.from_dict(result), recorded))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"corrupt grid checkpoint {self.path!r}: malformed entry "
                f"({exc!r})"
            ) from exc
        for digest, incoming, recorded in parsed:
            # In-memory entries are newer than what was on disk — but
            # a same-digest entry must *agree* with ours canonically;
            # a disagreement is corruption, never a dedup.
            existing = self._entries.get(digest)
            if existing is not None:
                if existing.canonical_dict() != incoming.canonical_dict():
                    raise CheckpointConflict(
                        f"checkpoint {self.path!r} holds a conflicting "
                        f"result for digest {digest}: same cell digest, "
                        f"different measurement (refusing to merge)"
                    )
                continue
            self._entries[digest] = incoming
            self._recorded[digest] = recorded
        self._loaded = True
        return dict(self._entries)

    def get(self, digest: str) -> Optional[SimResult]:
        if not self._loaded:
            self.load()
        return self._entries.get(digest)

    def __len__(self) -> int:
        return len(self._entries)

    # -- writing -----------------------------------------------------------

    def record(self, digest: str, result: SimResult) -> None:
        """Journal one completed cell; flushes every ``every`` records.

        A flush is *durable* (fsync, not just atomic-rename) before
        this returns, so a cell a resumed run skips can never be rolled
        back by a host power loss."""
        self._entries[digest] = result
        self._recorded[digest] = time.time()
        self._dirty += 1
        if self._dirty >= self.every:
            self.flush()

    def flush(self) -> None:
        """Atomically and durably rewrite the journal with every known
        entry.

        Merges with whatever is on disk first (another run may have
        extended the journal since we last read it), then writes it
        through :func:`~repro.exec.cache.atomic_write`, so readers never
        observe a torn file and a completed flush survives power loss.
        A file that is not a journal raises ``ValueError`` from the
        merge and is left as it was, never replaced.
        """
        if not self._loaded:
            self.load()
        payload = {
            "format": self.FORMAT,
            "cells": {
                digest: {
                    "recorded": self._recorded.get(digest, 0.0),
                    "result": result.to_dict(),
                }
                for digest, result in sorted(self._entries.items())
            },
        }
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        atomic_write(self.path, json.dumps(payload, sort_keys=True))
        self._dirty = 0

    # -- garbage collection ------------------------------------------------

    def gc(
        self,
        *,
        max_age_s: Optional[float] = None,
        live: Optional[Iterable[str]] = None,
        now: Optional[float] = None,
    ) -> List[str]:
        """Prune journal entries and rewrite the file; returns the
        pruned digests (sorted).

        ``max_age_s`` drops entries recorded longer ago than that
        (v1-era entries count as recorded when first loaded, so an
        age pass cannot destroy work that predates timestamps);
        ``live`` drops entries whose digest is not in the given set —
        pass the digests of the grid you still care about to shed
        every stale reconfiguration at once (an explicitly *empty*
        live set prunes every entry).  Passing neither is a no-op
        beyond a (possibly upgrading) rewrite of the journal.
        """
        # Re-merge from disk *before* pruning: another run may have
        # extended the journal since our last read, and the rewrite
        # below must not clobber its cells.  (Flushing the stale
        # in-memory view here used to drop concurrent work silently.)
        # The prune criteria then apply uniformly to merged and
        # in-memory entries, so pruned digests still leave the file —
        # they are judged dead, not merely skipped during the merge.
        self._loaded = False
        self.load()
        cutoff = None
        if max_age_s is not None:
            cutoff = (time.time() if now is None else now) - max_age_s
        keep = set(live) if live is not None else None

        pruned = []
        for digest in list(self._entries):
            recorded = self._recorded.get(digest, 0.0)
            stale = cutoff is not None and recorded < cutoff
            dead = keep is not None and digest not in keep
            if stale or dead:
                del self._entries[digest]
                self._recorded.pop(digest, None)
                pruned.append(digest)
        self.flush()
        return sorted(pruned)
