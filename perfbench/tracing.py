"""The traced run: spans recorded around public calls into each layer,
plus the program's own hot-path profiler, folded into per-layer metrics.

Spans are recorded from the benchmark's own code: :func:`traced`
replaces public functions and methods with wrappers for the duration
of one pass and restores them afterwards.  The program itself is not
edited.  Each span records its name, start, end, parent span, and the
id of the cell or job it belongs to; spans stay in memory until
:meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

from helpers import self_times

#: Profiler component -> per-layer metric prefix.  ``store-wait`` is
#: charged in three phases; its calls and time are summed.
COMPONENTS = {
    "fetch/icache": "memory.icache",
    "mem/dcache": "memory.dcache",
    "mem/dcache-store": "memory.dcache-store",
    "mem/l2": "memory.l2",
    "mem/tlb": "memory.tlb",
    "mem/maf": "memory.maf",
    "mem/dram": "dram.dram",
    "control/bpred": "predictors.bpred",
    "fetch/line-pred": "predictors.line-pred",
    "fetch/way-pred": "predictors.way-pred",
    "mem/load-use-pred": "predictors.load-use-pred",
    "issue/store-wait": "predictors.store-wait",
    "mem/store-wait": "predictors.store-wait",
    "retire/store-wait": "predictors.store-wait",
}

PHASES = ("fetch", "map", "issue", "mem", "execute", "control", "retire",
          "blockcache")

SIMULATORS = ("DS-10L", "sim-initial", "sim-alpha", "sim-stripped",
              "sim-outorder")

#: Read off the service's job events; zero where no service runs.
SERVICE_METRICS = ("service.queue_wait_s", "service.run_s",
                   "service.client_s", "service.requests_per_job")


class SpanRecorder:
    """In-memory spans, one parent stack per thread.

    ``op`` names the cell or job that spans opened from now on belong
    to, unless an enclosing span already names one.  The service runs
    one job at a time in a closed loop, so the worker thread's spans
    belong to the job the client is waiting on.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Dict] = []
        self.op = ""
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Dict]:
        """A span; a ``cell`` attribute names the op when no enclosing
        span or job does."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = dict(attrs)
        record.update(
            name=name,
            parent=parent["id"] if parent else None,
            op=(parent["op"] if parent else self.op)
            or attrs.get("cell", ""),
            start=self.clock(),
            end=None,
        )
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = self.clock()

    def wrap(self, func: Callable, name: str,
             attrs: Optional[Callable] = None,
             note: Optional[Callable] = None) -> Callable:
        """``func`` inside a span.  ``attrs(args, kwargs)`` gives fields known
        before the call, ``note(record, args, result)`` adds fields
        from its result.  ``functools.wraps`` keeps the signature
        visible to ``inspect.signature``, which the harness reads to
        decide which keywords a simulator accepts."""

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            fields = attrs(args, kwargs) if attrs is not None else {}
            with self.span(name, **fields) as record:
                result = func(*args, **kwargs)
                if note is not None:
                    note(record, args, result)
                return result

        return wrapper

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, *names: str) -> float:
        """Summed duration of spans named ``names``, counting a span
        nested in another of them once (``GridCheckpoint.record``
        flushes through ``GridCheckpoint.flush``)."""
        by_id = {s["id"]: s for s in self.spans}
        return sum(
            s["end"] - s["start"] for s in self.spans
            if s["name"] in names and (
                s["parent"] is None
                or by_id[s["parent"]]["name"] not in names
            )
        )

    def self_total(self, name: str) -> float:
        own = self_times(self.spans)
        return sum(own[s["id"]] for s in self.named(name))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@contextlib.contextmanager
def patched(replacements) -> Iterator[None]:
    """Set ``(owner, attribute, value)`` triples; restore on exit."""
    saved = [(owner, attr, owner.__dict__[attr])
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextlib.contextmanager
def traced(recorder: SpanRecorder, instrumentation) -> Iterator[None]:
    """Spans around the public calls of every layer the workloads use,
    and ``instrumentation`` threaded into every grid.

    The grid entry point is ``Harness.run_grid``; wrapping it reaches
    the grids the table drivers and the service worker run without
    changing their arguments.
    """
    from repro.core.simalpha import SimAlpha
    from repro.exec import cache as cache_mod
    from repro.exec import engine as engine_mod
    from repro.exec.cache import ResultCache
    from repro.integrity.checkpoint import GridCheckpoint
    from repro.service.client import ServiceClient
    from repro.simulators.refmachine import NativeMachine
    from repro.simulators.simoutorder import SimOutOrder
    from repro.validation.harness import Harness
    from repro.workloads.suite import WorkloadSet

    fingerprint = recorder.wrap(
        cache_mod.fingerprint_trace, "exec.fingerprint"
    )
    original_run_grid = Harness.__dict__["run_grid"]

    @functools.wraps(original_run_grid)
    def run_grid(self, *args, **kwargs):
        kwargs.setdefault("instrumentation", instrumentation)
        return original_run_grid(self, *args, **kwargs)

    built = set()

    def trace_built(record, args, trace):
        # Only the call that ran the functional machine counts; later
        # calls return the WorkloadSet's cached trace.
        key = (id(args[0]), args[1])
        if key not in built:
            built.add(key)
            record["instrs"] = len(trace)

    def cell(args, kwargs):
        workload = args[2] if len(args) > 2 else kwargs.get("workload")
        return {"cell": f"{args[0].name}/{workload}"}

    def hit(record, args, result):
        record["hit"] = result is not None

    replacements = [
        (cache_mod, "fingerprint_trace", fingerprint),
        (engine_mod, "fingerprint_trace", fingerprint),
        (Harness, "run_grid", run_grid),
        (WorkloadSet, "program", recorder.wrap(
            WorkloadSet.program, "workloads.program")),
        (WorkloadSet, "trace", recorder.wrap(
            WorkloadSet.trace, "functional.trace", note=trace_built)),
        (ResultCache, "get", recorder.wrap(
            ResultCache.get, "exec.cache.get", note=hit)),
        (ResultCache, "put", recorder.wrap(
            ResultCache.put, "exec.cache.put")),
        (GridCheckpoint, "record", recorder.wrap(
            GridCheckpoint.record, "integrity.checkpoint.record")),
        (GridCheckpoint, "flush", recorder.wrap(
            GridCheckpoint.flush, "integrity.checkpoint.flush")),
    ]
    for cls in (NativeMachine, SimAlpha, SimOutOrder):
        replacements.append((cls, "run_trace", recorder.wrap(
            cls.__dict__["run_trace"], "core.run_trace", attrs=cell)))
    for method in ("healthz", "submit", "status", "events",
                   "result_text"):
        replacements.append((ServiceClient, method, recorder.wrap(
            ServiceClient.__dict__[method], "service.request")))
    with patched(replacements):
        yield


def profile_metrics(instrumentation, trace_lengths: Dict[str, int]) -> Dict:
    """Pipeline phase shares, component costs and blockcache counters
    from every profiled cell.  ``trace_lengths`` maps workload names
    to dynamic instruction counts."""
    phases: Dict[str, float] = {}
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    total = 0.0
    instructions = 0
    for _, workload, observer in instrumentation.runs:
        profiler = observer.profiler
        if profiler is None:
            continue
        total += profiler.total_s
        instructions += trace_lengths.get(workload, 0)
        for phase, value in profiler.phases.items():
            phases[phase] = phases.get(phase, 0.0) + value
        for component, value in profiler.components.items():
            prefix = COMPONENTS.get(component)
            if prefix is None:
                continue
            seconds[prefix] = seconds.get(prefix, 0.0) + value
            calls[prefix] = (
                calls.get(prefix, 0) + profiler.component_calls[component]
            )
    metrics: Dict[str, float] = {}
    for phase in PHASES:
        metrics[f"core.{phase}.share"] = (
            phases.get(phase, 0.0) / total if total else 0.0
        )
    registry = instrumentation.registry
    replayed = registry.counter("blockcache.replayed_instructions").value
    metrics["core.blockcache.replayed_frac"] = (
        replayed / instructions if instructions else 0.0
    )
    metrics["core.blockcache.capture_failures"] = (
        registry.counter("blockcache.failures").value
    )
    for prefix in dict.fromkeys(COMPONENTS.values()):
        count = calls.get(prefix, 0)
        metrics[f"{prefix}.calls"] = count
        metrics[f"{prefix}.us_per_call"] = (
            seconds.get(prefix, 0.0) / count * 1e6 if count else 0.0
        )
    return metrics


def span_metrics(recorder: SpanRecorder, driver: Optional[str]) -> Dict:
    """Per-layer metrics read off the spans of one traced pass."""
    metrics: Dict[str, float] = {}
    traces = recorder.named("functional.trace")
    instrs = sum(s.get("instrs", 0) for s in traces)
    trace_s = recorder.self_total("functional.trace")
    metrics["workloads.build_s"] = recorder.total(
        "workloads.program", "workloads.build_macro"
    )
    metrics["functional.trace_s"] = trace_s
    metrics["functional.instrs"] = instrs
    metrics["functional.us_per_instr"] = (
        trace_s / instrs * 1e6 if instrs else 0.0
    )
    metrics["exec.fingerprint.calls"] = len(
        recorder.named("exec.fingerprint")
    )
    metrics["exec.fingerprint_s"] = recorder.total("exec.fingerprint")
    gets = recorder.named("exec.cache.get")
    metrics["exec.cache.gets"] = len(gets)
    metrics["exec.cache.get_s"] = recorder.total("exec.cache.get")
    metrics["exec.cache.hit_rate"] = (
        sum(1 for s in gets if s.get("hit")) / len(gets) if gets else 0.0
    )
    metrics["exec.cache.puts"] = len(recorder.named("exec.cache.put"))
    metrics["exec.cache.put_s"] = recorder.total("exec.cache.put")
    metrics["integrity.checkpoint.records"] = len(
        recorder.named("integrity.checkpoint.record")
    )
    metrics["integrity.checkpoint.record_s"] = recorder.total(
        "integrity.checkpoint.record", "integrity.checkpoint.flush"
    )
    metrics["validation.harness_s"] = (
        recorder.self_total(driver) if driver else 0.0
    )
    return metrics


def telemetry_metrics(cells, jobs: int, grid_wall: float) -> Dict:
    """Per-simulator host cost and pool occupancy from the cells'
    ``(simulator, instructions, wall seconds)``, as measured where each
    cell ran (pool workers included)."""
    wall: Dict[str, float] = {}
    instrs: Dict[str, int] = {}
    for simulator, instructions, seconds in cells:
        wall[simulator] = wall.get(simulator, 0.0) + seconds
        instrs[simulator] = instrs.get(simulator, 0) + instructions
    metrics = {
        f"sim.{name}.us_per_instr": (
            wall[name] / instrs[name] * 1e6 if instrs.get(name) else 0.0
        )
        for name in SIMULATORS
    }
    metrics["exec.pool.busy_frac"] = (
        sum(wall.values()) / (jobs * grid_wall) if grid_wall else 0.0
    )
    return metrics
