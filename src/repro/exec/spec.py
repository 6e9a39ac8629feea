"""The typed experiment-request API: :class:`ExperimentSpec` and
:class:`RunOptions`.

Every way of running a grid — the Python API
(:meth:`~repro.validation.harness.Harness.run_grid`), the
``repro-experiments`` CLI, and the HTTP job service
(:mod:`repro.service`) — is a view over the same two frozen request
objects:

* :class:`RunOptions` collapses the execution knobs that used to be
  ~15 ad-hoc keyword arguments (jobs, cache, timeout, retries,
  checkpoint/resume, ledger, sanitizers, blockcache, ...)
  into one value object with canonical JSON round-tripping;
* :class:`ExperimentSpec` adds *what* to run — simulator names,
  workload names, per-simulator configuration overrides — on top of a
  :class:`RunOptions`, and hashes canonically so identical requests
  deduplicate to one simulation (the service's dedup key).

Both serialise to canonical JSON (``to_dict`` / ``from_dict`` /
``canonical_json``) with unknown keys rejected, so an HTTP client, a
shell script, and a Python caller all speak the same schema and a
malformed request fails loudly at the boundary instead of deep inside
a worker.

The ``cache`` / ``checkpoint`` / ``ledger`` fields accept either a
path (the JSON form) or a live object (:class:`~repro.exec.cache.
ResultCache`, :class:`~repro.integrity.GridCheckpoint`,
:class:`~repro.obs.telemetry.RunLedger`) for in-process callers;
``to_dict`` coerces live objects back to their paths.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "RunOptions",
    "ExperimentSpec",
    "SpecError",
    "simulator_registry",
    "register_simulator",
]


class SpecError(ValueError):
    """A request object failed validation (unknown key, unknown
    simulator or workload, out-of-range option).  The service maps
    this to HTTP 400; the CLI to a usage error."""


def _coerce_path(value):
    """A JSON-ready stand-in for a path-or-live-object field."""
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    for attribute in ("root", "path"):
        carried = getattr(value, attribute, None)
        if isinstance(carried, str):
            return carried
    raise SpecError(
        f"cannot serialise {type(value).__name__!r} into a spec; pass "
        f"a path instead of a live object"
    )


def _coerce_blockcache(value):
    """JSON form of a ``blockcache`` field (None/bool pass through, a
    BlockCacheConfig becomes its tuning dict)."""
    if value is None or isinstance(value, bool):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        payload = {
            k: v
            for k, v in dataclasses.asdict(value).items()
            if k != "debug_corrupt" and v is not None
        }
        payload.pop("debug_corrupt", None)
        return payload
    raise SpecError(
        f"blockcache must be None, a bool, or a BlockCacheConfig "
        f"(got {type(value).__name__})"
    )


@dataclass(frozen=True)
class RunOptions:
    """How to execute a grid: the complete, typed set of execution
    options shared by ``Harness.run_grid``, :class:`~repro.exec.
    engine.ExperimentEngine`, the CLI, and the job service.

    Every field has a serial-safe default, so ``RunOptions()`` is the
    plain in-process serial run.  Instances are frozen; derive
    variants with :meth:`replace`.
    """

    #: Worker processes for the parallel engine (1 = in-process).
    jobs: int = 1
    #: Result-cache directory (or a live ``ResultCache``).
    cache: Optional[object] = None
    #: Per-cell wall-clock budget in seconds (pool mode only).
    timeout: Optional[float] = None
    #: Extra attempts granted to a failing cell.
    retries: int = 0
    #: Grid-checkpoint journal path (or a live ``GridCheckpoint``).
    checkpoint: Optional[object] = None
    #: Skip cells the checkpoint journal already holds.
    resume: bool = False
    #: Per-cell telemetry JSONL path (or a live ``RunLedger``).
    ledger: Optional[object] = None
    #: Render the live cells/s + ETA progress line.
    live_progress: bool = False
    #: Arm the invariant sanitizers (quarantine violating cells).
    sanitize: bool = False
    #: With sanitize: abort on the first violation instead.
    strict: bool = False
    #: Livelock watchdog stall budget in seconds (None = disarmed).
    watchdog_s: Optional[float] = None
    #: Trace-compilation control: None = simulator default, False =
    #: detailed loop only, True = force on, or a ``BlockCacheConfig``.
    blockcache: Optional[object] = None
    #: DRAM timing model for every simulator in the grid (a registered
    #: :mod:`repro.dram.backends` name; None = each simulator's
    #: configured backend).  Measurement-relevant: it rewrites the
    #: simulator config, so it lands in the provenance ``config_hash``
    #: — and therefore the result-cache key — automatically.
    dram_backend: Optional[str] = None

    #: The run_one-relevant subset (see :meth:`trimmed`).
    _SINGLE_CELL_FIELDS = (
        "sanitize", "strict", "watchdog_s", "blockcache", "dram_backend",
    )

    def __post_init__(self):
        if int(self.jobs) < 1:
            raise SpecError(f"jobs must be >= 1 (got {self.jobs})")
        if int(self.retries) < 0:
            raise SpecError(f"retries must be >= 0 (got {self.retries})")
        if self.timeout is not None and self.timeout <= 0:
            raise SpecError(
                f"timeout must be positive (got {self.timeout})"
            )
        if self.watchdog_s is not None and self.watchdog_s <= 0:
            raise SpecError(
                f"watchdog_s must be positive (got {self.watchdog_s})"
            )
        if self.dram_backend is not None:
            from repro.dram.config import known_backend_names

            if self.dram_backend not in known_backend_names():
                raise SpecError(
                    f"unknown DRAM backend {self.dram_backend!r}; "
                    f"known: {known_backend_names()}"
                )

    # -- derivation --------------------------------------------------------

    def replace(self, **changes) -> "RunOptions":
        """A copy with ``changes`` applied (options are frozen)."""
        return dataclasses.replace(self, **changes)

    def merged_over(self, base: "RunOptions") -> "RunOptions":
        """Per-call options layered over harness-level defaults: every
        field still at its dataclass default inherits ``base``'s
        value, every explicitly set field wins."""
        changes = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            default = spec_field.default
            if value == default:
                changes[spec_field.name] = getattr(base, spec_field.name)
            else:
                changes[spec_field.name] = value
        return RunOptions(**changes)

    def trimmed(self) -> "RunOptions":
        """The :meth:`Harness.run_one` view: only the options that are
        meaningful for a single cell (sanitize, strict, watchdog_s,
        blockcache, dram_backend); everything else reset to defaults."""
        return RunOptions(**{
            name: getattr(self, name)
            for name in self._SINGLE_CELL_FIELDS
        })

    # -- resolution --------------------------------------------------------

    def sanitizer_bundle(self):
        """The :class:`~repro.integrity.Sanitizers` these options ask
        for, or ``None`` when sanitizing is off."""
        if not (self.sanitize or self.strict):
            return None
        from repro.integrity.sanitizers import Sanitizers

        return Sanitizers(strict=self.strict)

    # -- canonical JSON ----------------------------------------------------

    def to_dict(self) -> Dict:
        """JSON-ready form; live cache/checkpoint/ledger objects are
        coerced back to their paths."""
        payload = {}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in ("cache", "checkpoint", "ledger"):
                value = _coerce_path(value)
            elif spec_field.name == "blockcache":
                value = _coerce_blockcache(value)
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunOptions":
        """Inverse of :meth:`to_dict`; unknown keys raise
        :class:`SpecError` (the API-boundary contract)."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - names)
        if unknown:
            raise SpecError(
                f"unknown RunOptions key(s) {unknown}; known: "
                f"{sorted(names)}"
            )
        values = dict(payload)
        blockcache = values.get("blockcache")
        if isinstance(blockcache, Mapping):
            from repro.core.blockcache import BlockCacheConfig

            known = {
                f.name for f in dataclasses.fields(BlockCacheConfig)
            }
            bad = sorted(set(blockcache) - known)
            if bad:
                raise SpecError(
                    f"unknown blockcache key(s) {bad}; known: "
                    f"{sorted(known)}"
                )
            values["blockcache"] = BlockCacheConfig(**blockcache)
        try:
            return cls(**values)
        except TypeError as exc:
            raise SpecError(str(exc)) from None

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Simulator registry
# ----------------------------------------------------------------------

#: Extra factories registered at runtime (tests, plugins) — consulted
#: before the built-in registry, so a test can shadow a name.
_EXTRA_SIMULATORS: Dict[str, Callable[[], object]] = {}


def register_simulator(name: str, factory: Callable[[], object]) -> None:
    """Expose ``factory`` to specs under ``name`` (process-wide)."""
    _EXTRA_SIMULATORS[name] = factory


def simulator_registry() -> Dict[str, Callable[[], object]]:
    """Name -> zero-argument factory for every spec-addressable
    simulator (the built-in timing models plus anything registered via
    :func:`register_simulator`)."""
    from repro.core.simalpha import SimAlpha
    from repro.core.siminitial import make_sim_initial
    from repro.core.simstripped import make_sim_stripped
    from repro.simulators.eightway import EightWaySim
    from repro.simulators.refmachine import make_native_machine
    from repro.simulators.simoutorder import SimOutOrder

    registry: Dict[str, Callable[[], object]] = {
        "sim-alpha": SimAlpha,
        "sim-initial": make_sim_initial,
        "sim-stripped": make_sim_stripped,
        "sim-outorder": SimOutOrder,
        "8-way": EightWaySim,
        "native": make_native_machine,
    }
    registry.update(_EXTRA_SIMULATORS)
    return registry


def _overridden_factory(
    name: str,
    factory: Callable[[], object],
    overrides: Mapping,
) -> Callable[[], object]:
    """A factory producing ``name``'s simulator with configuration
    field ``overrides`` applied (fields must exist on the simulator's
    frozen config dataclass)."""
    probe = factory()
    config = getattr(probe, "config", None)
    if config is None or not dataclasses.is_dataclass(config):
        raise SpecError(
            f"simulator {name!r} has no overridable configuration"
        )
    known = {f.name for f in dataclasses.fields(config)}
    bad = sorted(set(overrides) - known)
    if bad:
        raise SpecError(
            f"unknown config field(s) {bad} for simulator {name!r}; "
            f"known: {sorted(known)}"
        )
    new_config = dataclasses.replace(config, **overrides)
    sim_class = type(probe)
    return lambda: sim_class(config=new_config)


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: a (simulator x workload) grid request.

    ``simulators`` and ``workloads`` are names resolved through
    :func:`simulator_registry` and the shared
    :class:`~repro.workloads.suite.WorkloadSet`;
    ``config_overrides`` maps a simulator name to configuration-field
    overrides applied on top of that simulator's default config.
    ``options`` is the :class:`RunOptions` execution envelope.
    """

    simulators: Tuple[str, ...]
    workloads: Tuple[str, ...]
    config_overrides: Mapping[str, Mapping] = field(default_factory=dict)
    options: RunOptions = field(default_factory=RunOptions)

    def __post_init__(self):
        object.__setattr__(self, "simulators", tuple(self.simulators))
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(
            self, "config_overrides",
            {
                str(sim): dict(overrides)
                for sim, overrides in dict(self.config_overrides).items()
            },
        )
        if not self.simulators:
            raise SpecError("spec needs at least one simulator")
        if not self.workloads:
            raise SpecError("spec needs at least one workload")
        stray = sorted(
            set(self.config_overrides) - set(self.simulators)
        )
        if stray:
            raise SpecError(
                f"config_overrides name simulator(s) {stray} that are "
                f"not in the spec's simulators {list(self.simulators)}"
            )

    @property
    def cells(self) -> int:
        """Grid size (the quota accountant's unit)."""
        return len(self.simulators) * len(self.workloads)

    # -- resolution --------------------------------------------------------

    def validate(self, *, workload_set=None, registry=None) -> None:
        """Raise :class:`SpecError` when a named simulator or workload
        does not exist (resolving config overrides as a side check)."""
        self.factories(registry=registry)
        if workload_set is None:
            from repro.workloads.suite import WorkloadSet

            workload_set = WorkloadSet()
        known = set(workload_set.names())
        missing = [w for w in self.workloads if w not in known]
        if missing:
            raise SpecError(
                f"unknown workload(s) {missing}; known: "
                f"{sorted(known)}"
            )

    def factories(self, *, registry=None) -> List[Callable[[], object]]:
        """Resolve the named simulators (with overrides applied) into
        the factory list ``Harness.run_grid`` consumes."""
        registry = registry if registry is not None else (
            simulator_registry()
        )
        factories = []
        for name in self.simulators:
            try:
                factory = registry[name]
            except KeyError:
                raise SpecError(
                    f"unknown simulator {name!r}; known: "
                    f"{sorted(registry)}"
                ) from None
            overrides = self.config_overrides.get(name)
            if overrides:
                factory = _overridden_factory(name, factory, overrides)
            factories.append(factory)
        return factories

    # -- canonical JSON ----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "simulators": list(self.simulators),
            "workloads": list(self.workloads),
            "config_overrides": {
                sim: dict(overrides)
                for sim, overrides in sorted(
                    self.config_overrides.items()
                )
            },
            "options": self.options.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"spec must be a JSON object (got "
                f"{type(payload).__name__})"
            )
        known = {"simulators", "workloads", "config_overrides", "options"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise SpecError(
                f"unknown ExperimentSpec key(s) {unknown}; known: "
                f"{sorted(known)}"
            )
        options = payload.get("options") or {}
        if isinstance(options, RunOptions):
            run_options = options
        elif isinstance(options, Mapping):
            run_options = RunOptions.from_dict(options)
        else:
            raise SpecError(
                f"options must be a JSON object (got "
                f"{type(options).__name__})"
            )
        return cls(
            simulators=tuple(payload.get("simulators") or ()),
            workloads=tuple(payload.get("workloads") or ()),
            config_overrides=payload.get("config_overrides") or {},
            options=run_options,
        )

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def dedup_key(self) -> str:
        """The canonical spec hash the service dedups requests by.

        Hashes the *measurement-relevant* subset — simulators,
        workloads, config overrides, and the options that change what
        a grid measures (blockcache, sanitize/strict, watchdog, DRAM
        backend) — so
        two requests differing only operationally (jobs, cache paths,
        progress rendering) still cost one simulation.
        """
        options = self.options.to_dict()
        measured = {
            name: options[name]
            for name in (
                "blockcache", "sanitize", "strict", "watchdog_s",
                "dram_backend",
            )
        }
        payload = {
            "simulators": list(self.simulators),
            "workloads": list(self.workloads),
            "config_overrides": self.to_dict()["config_overrides"],
            "options": measured,
        }
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:32]

