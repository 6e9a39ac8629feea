"""Experiment execution: process-pool parallelism + on-disk memoization.

The entry point is :class:`ExperimentEngine` (or, more conveniently,
:meth:`repro.validation.harness.Harness.run_grid`, which delegates here
for every ``RunOptions``)::

    from repro.validation import Harness
    from repro.core.simalpha import SimAlpha
    from repro.exec.spec import RunOptions
    from repro.simulators.simoutorder import SimOutOrder

    grid = Harness().run_grid(
        [SimAlpha, SimOutOrder], ["C-R", "M-D", "gzip"],
        RunOptions(jobs=4, cache=".repro-cache", timeout=120.0, retries=1),
    )
    for failure in grid.failures:      # fault-isolated, never raises
        print(failure.kind, failure.simulator, failure.workload)

Cells are content-addressed by :class:`CacheKey` — configuration hash,
workload, trace fingerprint, package version — so a second run over
unchanged inputs is pure cache hits and serialises byte-identically to
the run that populated the cache.

For crash-safe distribution one level up, :class:`ShardCoordinator`
(``RunOptions(shards=...)``) partitions the grid into work-stealing
leases over :class:`ShardRunner` subprocesses, each journaling to its
own fsynced :class:`~repro.integrity.GridCheckpoint`, so runner loss —
or coordinator loss, with a checkpoint — never loses completed cells.
"""

# Exports resolve lazily (PEP 562): the spec module must be importable
# from repro.validation.harness without this package init dragging in
# engine/coordinator, which import harness right back.
_EXPORTS = {
    "CacheKey": "repro.exec.cache",
    "ResultCache": "repro.exec.cache",
    "fingerprint_trace": "repro.exec.cache",
    "instr_signature": "repro.exec.cache",
    "ShardCoordinator": "repro.exec.coordinator",
    "shard_status": "repro.exec.coordinator",
    "CellFailure": "repro.exec.engine",
    "ExperimentEngine": "repro.exec.engine",
    "grid_cells": "repro.exec.engine",
    "ExperimentSpec": "repro.exec.spec",
    "RunOptions": "repro.exec.spec",
    "SpecError": "repro.exec.spec",
    "register_simulator": "repro.exec.spec",
    "simulator_registry": "repro.exec.spec",
    "Lease": "repro.exec.shard",
    "PipeTransport": "repro.exec.shard",
    "ShardRunner": "repro.exec.shard",
    "Transport": "repro.exec.shard",
    "shard_journal_path": "repro.exec.shard",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
