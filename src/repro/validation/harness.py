"""The validation harness: run simulator configurations over workload
sets and organise the results for the experiment drivers."""

from __future__ import annotations

import dataclasses
import inspect
import json
import time
import traceback
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.exec.spec import RunOptions
from repro.integrity.sanitizers import (
    IntegrityError,
    InvariantViolation,
    Sanitizers,
)
from repro.integrity.watchdog import SimulationStuck, Watchdog
from repro.obs.observer import Instrumentation, RunObserver
from repro.obs.provenance import capture_provenance
from repro.obs.registry import MetricsRegistry
from repro.obs.telemetry import TelemetryProbe, mirror_to_metrics
from repro.result import SimResult
from repro.workloads.suite import WorkloadSet

__all__ = [
    "SimulatorFactory",
    "CellFailure",
    "CellOutcome",
    "ResultGrid",
    "Harness",
    "quarantine_failure",
    "record_cell",
    "run_cell",
]

#: A factory producing a *fresh* simulator per run (predictor and cache
#: state must not leak between workloads).
SimulatorFactory = Callable[[], object]


def _with_dram_backend(
    factory: SimulatorFactory, backend: str
) -> SimulatorFactory:
    """Wrap ``factory`` so the simulators it builds run DRAM backend
    ``backend`` (``RunOptions.dram_backend``).

    The override rewrites the simulator's frozen config
    (``config.memory.dram.backend``) and rebuilds the simulator from
    it, so the backend choice lands in the provenance ``config_hash``
    — and therefore the result-cache key — exactly like any other
    configuration change.  Simulators without a DRAM model (the native
    reference machine) or without a rebuildable config pass through
    untouched: the option selects the timing model under simulators
    that have one, it never invents one.
    """

    def build() -> object:
        simulator = factory()
        config = getattr(simulator, "config", None)
        memory = getattr(config, "memory", None)
        dram = getattr(memory, "dram", None)
        if dram is None or getattr(dram, "backend", None) == backend:
            return simulator
        new_config = dataclasses.replace(
            config,
            memory=dataclasses.replace(
                memory, dram=dram.with_backend(backend)
            ),
        )
        try:
            return type(simulator)(config=new_config)
        except TypeError:
            return simulator

    return build


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one (simulator, workload) cell that could
    not produce a result.

    Every execution mode records a failing cell here, after its retry
    budget, instead of aborting the rest of the grid: ``"exception"``
    for a cell that raised, ``"invariant"`` for a result quarantined by
    the sanitizers (the violated invariants land in ``snapshot``),
    ``"stuck"`` for a detected livelock, and the failures only the
    pool can see — ``"crash"`` (a worker died) and ``"timeout"`` (a
    worker exceeded its budget).
    """

    simulator: str
    workload: str
    #: One of ``"exception"``, ``"invariant"``, ``"stuck"``,
    #: ``"crash"``, ``"timeout"``.
    kind: str
    message: str = ""
    #: Total attempts made (1 + retries).
    attempts: int = 1
    #: Wall-clock seconds spent on the final attempt (host time:
    #: blanked by ``ResultGrid.to_json(canonical=True)``).
    elapsed_s: float = 0.0
    #: Diagnostic state captured at failure time (for ``"invariant"``
    #: kinds, the violation records under a ``"violations"`` key).
    snapshot: Optional[Dict] = None

    def describe(self) -> str:
        """One-line human summary (the CLI's failure listing)."""
        head = f"{self.simulator} on {self.workload}: {self.kind}"
        return f"{head} - {self.message}" if self.message else head

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "CellFailure":
        names = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in names})


@dataclass
class ResultGrid:
    """Results indexed by (simulator name, workload name)."""

    results: Dict[str, Dict[str, SimResult]] = field(default_factory=dict)
    #: Cells that could not produce a result, in serial grid order.
    failures: List[CellFailure] = field(default_factory=list)

    def add(self, result: SimResult, *, replace: bool = False) -> None:
        """Insert ``result``; duplicate (simulator, workload) cells are
        an error unless ``replace=True``."""
        per_sim = self.results.setdefault(result.simulator, {})
        if result.workload in per_sim and not replace:
            raise ValueError(
                f"duplicate cell ({result.simulator!r}, "
                f"{result.workload!r}): the grid already holds a result "
                f"for this pair; pass replace=True to overwrite it"
            )
        per_sim[result.workload] = result

    def _per_sim(self, simulator: str) -> Dict[str, SimResult]:
        per_sim = self.results.get(simulator)
        if per_sim is None:
            raise KeyError(
                f"unknown simulator {simulator!r}; grid has simulators: "
                f"{self.simulators()}"
            )
        return per_sim

    def get(self, simulator: str, workload: str) -> SimResult:
        per_sim = self._per_sim(simulator)
        result = per_sim.get(workload)
        if result is None:
            raise KeyError(
                f"no result for workload {workload!r} under simulator "
                f"{simulator!r}; that simulator has workloads: "
                f"{sorted(per_sim)}"
            )
        return result

    def simulators(self) -> List[str]:
        return list(self.results)

    def workloads(self) -> List[str]:
        names: List[str] = []
        for per_sim in self.results.values():
            for name in per_sim:
                if name not in names:
                    names.append(name)
        return names

    def ipcs(self, simulator: str) -> Dict[str, float]:
        return {
            workload: result.ipc
            for workload, result in self._per_sim(simulator).items()
        }

    # -- persistence ------------------------------------------------------

    def to_json(
        self,
        *,
        indent: Optional[int] = None,
        canonical: bool = False,
    ) -> str:
        """Serialise the whole grid (stats, ``extra``, CPI stacks,
        provenance, failure records included) for persistence and
        cross-run diffing.

        ``canonical=True`` blanks everything that varies from run to
        run on identical measurements — the volatile provenance fields
        (``created``, ``host``, ``platform``, ``python``), the resource
        telemetry, and each failure's ``elapsed_s`` — so two runs of
        the same configurations serialise byte-identically iff they
        measured the same thing, in any execution mode: the form the
        determinism tests and cross-run diffs compare.
        """
        entries = []
        for per_sim in self.results.values():
            for result in per_sim.values():
                entries.append(
                    result.canonical_dict() if canonical
                    else result.to_dict()
                )
        failures = [f.to_dict() for f in self.failures]
        if canonical:
            for failure in failures:
                failure["elapsed_s"] = None
        payload = {
            "format": "repro-result-grid/1",
            "results": entries,
            "failures": failures,
        }
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ResultGrid":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        if payload.get("format") != "repro-result-grid/1":
            raise ValueError(
                f"not a serialised ResultGrid: format="
                f"{payload.get('format')!r}"
            )
        grid = cls()
        for entry in payload["results"]:
            grid.add(SimResult.from_dict(entry))
        for entry in payload.get("failures", ()):
            grid.failures.append(CellFailure.from_dict(entry))
        return grid


#: run_trace function -> its parameter-name set.  Keyed by the
#: underlying function object (bound methods are recreated on every
#: attribute access), so one inspect.signature pays for a whole grid.
_SIGNATURE_CACHE: "weakref.WeakKeyDictionary[Callable, frozenset]" = (
    weakref.WeakKeyDictionary()
)


def _signature_params(run_trace: Callable) -> frozenset:
    """The parameter names a simulator's ``run_trace`` accepts (cached)."""
    probe = getattr(run_trace, "__func__", run_trace)
    try:
        return _SIGNATURE_CACHE[probe]
    except (KeyError, TypeError):
        pass
    try:
        params = frozenset(inspect.signature(probe).parameters)
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        params = frozenset()
    try:
        _SIGNATURE_CACHE[probe] = params
    except TypeError:  # pragma: no cover - unweakrefable callable
        pass
    return params


def quarantine_failure(
    violations: Sequence[InvariantViolation],
    *,
    simulator: str = "",
    workload: str = "",
    attempts: int = 1,
    elapsed_s: float = 0.0,
) -> CellFailure:
    """Build the ``kind="invariant"`` :class:`CellFailure` recording a
    quarantined result."""
    first = violations[0] if violations else None
    return CellFailure(
        simulator=(first.simulator if first else "") or simulator,
        workload=(first.workload if first else "") or workload,
        kind="invariant",
        message=str(first) if first else "invariant violation",
        attempts=attempts,
        elapsed_s=elapsed_s,
        snapshot={"violations": [v.to_dict() for v in violations]},
    )


@dataclass
class CellOutcome:
    """What measuring one cell produced (see :func:`run_cell`)."""

    #: The measured result.  A quarantined cell keeps it (for
    #: :meth:`Harness.run_one`); executors only grid clean results.
    result: Optional[SimResult] = None
    #: Why the cell failed; ``None`` for a clean result.
    failure: Optional[CellFailure] = None
    #: What the cell raised, for :meth:`unwrap`.  Stays in the
    #: measuring process: it is dropped when the outcome is pickled.
    error: Optional[BaseException] = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self) -> Dict:
        return {**self.__dict__, "error": None}

    def unwrap(self) -> SimResult:
        """The result, or re-raise what the cell raised."""
        if self.error is not None:
            raise self.error
        return self.result


def _timed_run(simulator, trace, workload: str, options: RunOptions,
               sanitizer, instrumentation) -> SimResult:
    """Time one simulator on one trace with the options' hooks wired
    into the ``run_trace`` keywords the simulator accepts."""
    name = simulator.name
    run_trace = simulator.run_trace
    params = _signature_params(run_trace)
    kwargs = {}
    if "observer" in params:
        observer = None
        if instrumentation is not None and instrumentation.enabled:
            observer = instrumentation.observer(
                simulator=name, workload=workload
            )
        if sanitizer is not None:
            # Ride the engine's observer hook (sharing the
            # instrumentation observer when there is one).
            if observer is None:
                observer = RunObserver(
                    sanitizer=sanitizer, simulator=name, workload=workload,
                )
            else:
                observer.sanitizer = sanitizer
        if observer is not None:
            kwargs["observer"] = observer
    if options.watchdog_s is not None and "watchdog" in params:
        kwargs["watchdog"] = Watchdog(options.watchdog_s)
    if options.blockcache is not None and "blockcache" in params:
        kwargs["blockcache"] = options.blockcache
    probe = TelemetryProbe()
    result = run_trace(trace, workload, **kwargs)
    if result.telemetry is None:
        result.telemetry = probe.finish(result.instructions)
    if result.provenance is None:
        result.provenance = capture_provenance(
            getattr(simulator, "config", None), name=name,
        )
    return result


def record_cell(metrics: MetricsRegistry, simulator: str, workload: str,
                telemetry) -> None:
    """Record one freshly measured cell's series in ``metrics``: its
    wall time under ``harness.cell.<simulator>.<workload>``,
    ``harness.runs``, and its telemetry under ``telemetry.*``.  Called
    where the cell is settled, never in a pool worker, whose registry
    dies with it."""
    metrics.timer(f"harness.cell.{simulator}.{workload}").observe(
        telemetry.wall_s
    )
    metrics.counter("harness.runs").inc()
    mirror_to_metrics(metrics, simulator, workload, telemetry)


def run_cell(
    factory: SimulatorFactory,
    workload: str,
    trace,
    *,
    options: RunOptions,
    sanitizers: Sanitizers,
    instrumentation: Optional[Instrumentation] = None,
) -> CellOutcome:
    """Measure one (simulator, workload) cell and classify how it ended.

    The one cell path: :meth:`Harness.run_one`, the engine's in-process
    loop and its forked pool workers all measure cells here, so a cell
    ends the same way however it is scheduled.
    A fresh simulator from ``factory`` (under ``options.dram_backend``)
    runs ``trace`` with the instrumentation observer, a sanitizer from
    ``sanitizers``, the ``options.watchdog_s`` livelock watchdog and
    ``options.blockcache`` wired in; the result gets telemetry and
    provenance and is audited.  It records no metrics: the caller
    settling the cell does (:func:`record_cell`).

    The outcome holds the result, or a :class:`CellFailure`:
    ``"invariant"`` for an :class:`IntegrityError` or a violating
    audit, ``"stuck"`` for :class:`SimulationStuck`, ``"exception"``
    for anything else the simulator raised.  A strict sanitizer bundle
    raises :class:`IntegrityError` instead.
    """
    if options.dram_backend is not None:
        factory = _with_dram_backend(factory, options.dram_backend)
    name = ""
    result = failure = error = sanitizer = None
    started = time.perf_counter()
    try:
        simulator = factory()
        name = simulator.name
        sanitizer = sanitizers.run_sanitizer(
            simulator=name, workload=workload
        )
        result = _timed_run(
            simulator, trace, workload, options, sanitizer,
            instrumentation,
        )
        if sanitizer is not None:
            sanitizer.audit_result(result, expected_instructions=len(trace))
    except IntegrityError as exc:
        if sanitizers.strict:
            raise
        failure, error = quarantine_failure(
            [exc.violation], simulator=name, workload=workload,
        ), exc
    except SimulationStuck as exc:
        failure, error = CellFailure(
            simulator=name, workload=workload, kind="stuck",
            message=str(exc),
            snapshot={
                "detail": exc.detail, "instructions": exc.instructions,
                "retire": exc.retire, "state": exc.state,
            },
        ), exc
    except Exception as exc:
        failure, error = CellFailure(
            simulator=name, workload=workload, kind="exception",
            message=traceback.format_exc(limit=20),
        ), exc
    else:
        if sanitizer is not None and sanitizer.violations:
            failure = quarantine_failure(
                sanitizer.violations, simulator=name, workload=workload,
            )
    if failure is not None:
        failure = dataclasses.replace(
            failure, elapsed_s=time.perf_counter() - started
        )
    return CellOutcome(result, failure, error)


class Harness:
    """Runs (simulator x workload) grids with cached traces.

    ``options`` (a :class:`RunOptions`) are the harness-level execution
    defaults; options passed to :meth:`run_grid` or :meth:`run_one`
    merge over them.  ``metrics`` (a :class:`repro.obs.MetricsRegistry`)
    makes the harness record per-cell wall times and run counts; it is
    shared by every grid this harness runs.  ``instrumentation`` passed
    to the run methods additionally threads pipeline observers (CPI
    stacks, tracing) through simulators that support them.

    ``sanitizers`` (a :class:`repro.integrity.Sanitizers`; otherwise
    built from the options' ``sanitize``/``strict`` flags, disabled by
    default) arms the invariant checkers: every cell is audited, and
    in grid runs a violating result is *quarantined* — recorded as a
    ``kind="invariant"`` :class:`CellFailure` instead of entering the
    grid (strict bundles raise :class:`IntegrityError` instead).
    Failures from every grid this harness runs accumulate on
    ``failed_cells``, which is what the CLI's exit status reports.
    """

    def __init__(
        self,
        workloads: Optional[WorkloadSet] = None,
        options: Optional[RunOptions] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
        sanitizers: Optional[Sanitizers] = None,
    ):
        self.options = options if options is not None else RunOptions()
        self.workloads = workloads or WorkloadSet()
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry.disabled()
        )
        self.sanitizers = sanitizers if sanitizers is not None else (
            self.options.sanitizer_bundle() or Sanitizers.disabled()
        )
        #: Every failed/quarantined cell across all grids this harness
        #: has run (the CLI exit-status source).
        self.failed_cells: List[CellFailure] = []

    def _sanitizers_for(self, options: RunOptions) -> Sanitizers:
        """The sanitizer bundle one run should use: an explicitly
        attached live bundle wins, else whatever ``options`` ask for."""
        if self.sanitizers.enabled:
            return self.sanitizers
        return options.sanitizer_bundle() or self.sanitizers

    def run_one(
        self,
        factory: SimulatorFactory,
        workload: str,
        *,
        instrumentation: Optional[Instrumentation] = None,
        options: Optional[RunOptions] = None,
    ) -> SimResult:
        """Run one simulator (fresh instance) on one workload.

        ``options`` merges over the harness-level options for this call
        only; the single-cell view applies (see
        :meth:`RunOptions.trimmed`).  Returns the result and raises
        whatever the cell raised; a result the sanitizers would
        quarantine is still returned.
        """
        opts = (options or RunOptions()).merged_over(self.options).trimmed()
        result = run_cell(
            factory, workload, self.workloads.trace(workload),
            options=opts, sanitizers=self._sanitizers_for(opts),
            instrumentation=instrumentation,
        ).unwrap()
        record_cell(self.metrics, result.simulator, workload,
                    result.telemetry)
        return result

    def run_grid(
        self,
        factories: Sequence[SimulatorFactory],
        workload_names: Iterable[str],
        options: Optional[RunOptions] = None,
        *,
        progress: Optional[Callable[[str, str], None]] = None,
        instrumentation: Optional[Instrumentation] = None,
    ) -> ResultGrid:
        """Run every factory over every workload.

        ``options`` (a :class:`repro.exec.spec.RunOptions`) carries
        every execution knob — jobs, cache, timeout, retries,
        checkpoint/resume, ledger, live_progress, sanitize,
        watchdog_s, blockcache, dram_backend — merged over the
        harness-level options (a field left at its default inherits the
        harness's value).  The grid runs on the
        :class:`~repro.exec.engine.ExperimentEngine` (in process at
        ``jobs=1``, over forked workers above), where each cell is
        measured by :func:`run_cell`, so a failing cell becomes the
        same :class:`CellFailure` in every mode, and strict sanitizer
        bundles raise :class:`IntegrityError`.

        ``progress(simulator, workload)`` is called before each cell;
        with a metrics registry attached, each freshly measured cell's
        wall time is also recorded under
        ``harness.cell.<simulator>.<workload>``, in process or pooled.
        """
        from repro.exec.engine import ExperimentEngine

        opts = (options or RunOptions()).merged_over(self.options)
        grid = ExperimentEngine(
            self.workloads, opts,
            metrics=self.metrics, sanitizers=self._sanitizers_for(opts),
        ).run_grid(
            factories, workload_names,
            instrumentation=instrumentation, progress=progress,
        )
        self.failed_cells.extend(grid.failures)
        return grid
