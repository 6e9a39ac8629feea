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
workload, program digest, model source digest — so a second run over
unchanged inputs is pure cache hits, builds no trace, and serialises
byte-identically to the run that populated the cache.
:meth:`ResultCache.put` is durable (:func:`atomic_write`: temp file,
fsync, rename, directory fsync), so a grid killed at any point and run
again over the same cache recomputes only the cells it had not
settled; the job service resumes a drained or crashed job exactly that
way.

The pool is also the crash-safe executor: a worker that dies mid-cell
settles as a ``crash`` failure and is retried within ``retries``, and
with ``RunOptions(checkpoint=..., resume=True)`` a grid run without a
result cache resumes, after its parent was killed, from its fsynced
:class:`~repro.integrity.GridCheckpoint` journal without recomputing a
journaled cell.
"""

# Exports resolve lazily (PEP 562): the spec module must be importable
# from repro.validation.harness without this package init dragging in
# the engine, which imports harness right back.
_EXPORTS = {
    "CacheKey": "repro.exec.cache",
    "ResultCache": "repro.exec.cache",
    "atomic_write": "repro.exec.cache",
    "CellFailure": "repro.exec.engine",
    "ExperimentEngine": "repro.exec.engine",
    "grid_cells": "repro.exec.engine",
    "ExperimentSpec": "repro.exec.spec",
    "RunOptions": "repro.exec.spec",
    "SpecError": "repro.exec.spec",
    "register_simulator": "repro.exec.spec",
    "simulator_registry": "repro.exec.spec",
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
