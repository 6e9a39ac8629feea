"""Pure helpers of the benchmark: percentiles, span self time, failure
accounting, result digests and the host-speed calibration.

Nothing here imports the ``repro`` package, so the self-tests
(``test_helpers.py``) run without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import contextlib
import statistics
import threading
import time
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

#: The seed whose inputs are the repository's own (Table 3's proxies as
#: shipped, so a run reproduces ``repro-experiments table3``).
DEFAULT_SEED = 0
#: Checked against committed digests; never used while tuning.
HELD_OUT_SEED = 20011

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_TAIL = 10

#: The fields of a serialised ``SimResult`` that hold simulated content.
#: Provenance and telemetry change with the package version and the
#: host, so they stay out of the digest.
DIGEST_FIELDS = ("simulator", "workload", "cycles", "instructions",
                 "stats", "cpi_stack")

OK = "ok"


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def percentile(samples: Iterable[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``samples``.

    Returns ``None`` -- no tail -- when fewer than :data:`MIN_TAIL`
    samples lie beyond it.
    """
    values = sorted(samples)
    rank = math.ceil(q / 100.0 * len(values))
    if rank < 1 or len(values) - rank < MIN_TAIL:
        return None
    return values[rank - 1]


def min_samples_for(q: float) -> int:
    """Smallest sample count for which :func:`percentile` has a tail."""
    n = MIN_TAIL + 1
    while percentile(range(n), q) is None:
        n += 1
    return n


# -- spans ---------------------------------------------------------------

def self_times(spans: Sequence[Mapping]) -> Dict[int, float]:
    """Self time of each span: its duration minus the part of its
    interval that its direct children cover.

    Each span is a mapping with ``id``, ``parent`` (an id or ``None``),
    ``start`` and ``end``.  Children are clipped to their parent and
    overlapping children count once.
    """
    children: Dict[int, List[Mapping]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    result: Dict[int, float] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child in sorted(children.get(span["id"], ()),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


# -- failure accounting --------------------------------------------------

def job_status(*, refused: bool = False, timed_out: bool = False,
               state: str = "done", text: Optional[str] = None,
               expected: Optional[str] = None) -> str:
    """Outcome of one service job: ``ok``, or why it counts as failed."""
    if refused:
        return "refused"
    if timed_out:
        return "timeout"
    if state != "done":
        return "failed"
    if expected is not None and text != expected:
        return "mismatch"
    return OK


def cell_status(*, failed: bool = False, present: bool = True,
                digest: Optional[str] = None,
                expected: Optional[str] = None,
                instructions: Optional[int] = None,
                trace_len: Optional[int] = None) -> str:
    """Outcome of one grid cell: ``ok``, or why it counts as failed.

    A cell fails when it lands in ``grid.failures``, is missing from
    the grid, retires a different number of instructions than its
    trace holds, or its digest differs from the reference.
    """
    if failed:
        return "failed"
    if not present:
        return "missing"
    if trace_len is not None and instructions != trace_len:
        return "instructions"
    if expected is not None and digest != expected:
        return "mismatch"
    return OK


def tally(statuses: Iterable[str]) -> Tuple[int, int, Dict[str, int]]:
    """Operations attempted, operations failed, and failures by reason."""
    attempted = 0
    reasons: Dict[str, int] = {}
    for status in statuses:
        attempted += 1
        if status != OK:
            reasons[status] = reasons.get(status, 0) + 1
    return attempted, sum(reasons.values()), reasons


# -- digests -------------------------------------------------------------

def cell_key(entry: Mapping) -> str:
    return f"{entry['simulator']}/{entry['workload']}"


def cell_digest(entry: Mapping) -> str:
    """SHA-256 over a serialised result's simulated content."""
    content = {name: entry.get(name) for name in DIGEST_FIELDS}
    blob = json.dumps(content, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def grid_digests(entries: Iterable[Mapping]) -> Dict[str, str]:
    """``simulator/workload`` -> digest for serialised results."""
    return {cell_key(entry): cell_digest(entry) for entry in entries}


def digest_mismatches(got: Mapping[str, str],
                      expected: Mapping[str, str]) -> List[str]:
    """Cells whose digest differs from the reference, or that only one
    side holds."""
    return sorted(
        key for key in set(got) | set(expected)
        if got.get(key) != expected.get(key)
    )


# -- host speed ----------------------------------------------------------

#: Iterations of the calibration loop in one chunk.
CHUNK_ITERATIONS = 60_000
#: Median time of one chunk on the 2-vCPU host the benchmark was
#: defined on: the speed every host time is scaled to.
REFERENCE_CHUNK_S = 0.005
#: Chunks in a batch drawn before or after a phase.
BATCH_CHUNKS = 20
#: Seconds between the chunks drawn while a phase runs.
SAMPLE_PERIOD_S = 0.1


def calibration_chunk(iterations: int = CHUNK_ITERATIONS) -> int:
    """A fixed pure-Python loop.  It does integer arithmetic only, so
    it allocates nothing the garbage collector tracks, and its time
    depends on the interpreter and the host, not on the heap of the
    program under test."""
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class HostSpeed:
    """The host's speed over a run, read off a fixed loop
    (:func:`calibration_chunk`) timed in batches of short chunks drawn
    between the run's operations, never inside one.

    Host time measured between two batches is scaled to reference
    seconds -- seconds on a host where a chunk takes
    :data:`REFERENCE_CHUNK_S` -- by :meth:`scale` over those batches
    and the ones between them.
    A shared host's speed drifts over seconds and minutes; the loop and
    the program slow down together, so the scaled time keeps the
    program's cost and sheds most of the drift.
    """

    def __init__(self, chunk: Callable[[], object] = calibration_chunk,
                 clock: Callable[[], float] = time.perf_counter):
        self.chunk = chunk
        self.clock = clock
        self.batches: List[List[float]] = []
        #: Seconds spent calibrating so far.
        self.spent = 0.0

    def sample(self, chunks: int = BATCH_CHUNKS) -> int:
        """Time one batch of ``chunks`` chunks; return its index."""
        batch = []
        for _ in range(chunks):
            began = self.clock()
            self.chunk()
            batch.append(self.clock() - began)
        self.batches.append(batch)
        self.spent += sum(batch)
        return self.latest

    @contextlib.contextmanager
    def during(self, period_s: float = SAMPLE_PERIOD_S) -> Iterator[None]:
        """Draw a chunk every ``period_s`` from a background thread while
        the body runs, and keep them as one batch.

        For a phase that keeps the host busy (the main thread, or
        forked workers on every CPU): the chunks are timed on the
        thread's own CPU clock, which leaves out the time it waits for
        the interpreter lock or for a CPU.  They cost the phase about
        their share of one CPU.
        """
        batch: List[float] = []
        stop = threading.Event()

        def draw() -> None:
            while not stop.wait(period_s):
                began = time.thread_time()
                self.chunk()
                batch.append(time.thread_time() - began)

        thread = threading.Thread(target=draw, daemon=True)
        thread.start()
        try:
            yield
        finally:
            stop.set()
            thread.join()
            if batch:
                self.batches.append(batch)

    @property
    def latest(self) -> int:
        """Index of the last batch drawn."""
        return len(self.batches) - 1

    def chunk_s(self, first: int = 0, last: Optional[int] = None) -> float:
        """Mean chunk time over batches ``first`` to ``last``
        (inclusive; ``None`` is the latest).  The mean, not the median:
        an operation's time adds up the host's slow and fast moments,
        and the mean of chunks spread over the phase does too, while
        the median ignores slow moments that fill less than half of it.
        """
        last = self.latest if last is None else last
        return statistics.fmean(
            t for batch in self.batches[first:last + 1] for t in batch
        )

    def scale(self, first: int = 0, last: Optional[int] = None) -> float:
        """Factor taking host seconds measured between batches
        ``first`` and ``last`` to reference seconds."""
        return REFERENCE_CHUNK_S / self.chunk_s(first, last)
