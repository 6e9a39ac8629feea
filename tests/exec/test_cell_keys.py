"""Result-cache keys name a cell's program and the model's source.

A key is ``(simulator, config_hash, workload, program_digest,
model_digest)``: building it needs no trace, so a warm grid runs the
functional machine zero times, and any edit to the package's source
makes every cell miss instead of serving a stale result.
"""

import dataclasses
import os
import shutil
from pathlib import Path

import pytest

import repro.exec.cache as cache_mod
import repro.exec.engine as engine_mod
import repro.workloads.suite as suite_mod
from exec_fakes import fake_factory
from repro.core.simalpha import SimAlpha
from repro.exec.cache import (
    ResultCache,
    fingerprint_trace,
    model_digest,
    source_digest,
)
from repro.exec.engine import ExperimentEngine, grid_cells
from repro.exec.spec import RunOptions
from repro.functional.machine import run_program
from repro.validation.cli import _QUICK_MACRO, _QUICK_MICRO
from repro.workloads.suite import WorkloadSet

FACTORIES = [fake_factory("fake-a"), fake_factory("fake-b", cpi=3.0)]
NAMES = ["C-R", "E-I"]


@pytest.fixture
def builds(monkeypatch):
    """Every program the functional machine runs and every trace
    fingerprinted, in this process, from here on."""
    calls = {"run_program": [], "fingerprint_trace": []}

    def run(program, **kwargs):
        calls["run_program"].append(program.name)
        return run_program(program, **kwargs)

    def fingerprint(trace):
        calls["fingerprint_trace"].append(len(trace))
        return fingerprint_trace(trace)

    monkeypatch.setattr(suite_mod, "run_program", run)
    monkeypatch.setattr(cache_mod, "fingerprint_trace", fingerprint)
    monkeypatch.setattr(engine_mod, "fingerprint_trace", fingerprint)
    return calls


def run(root, jobs=1, workloads=None):
    engine = ExperimentEngine(
        workloads or WorkloadSet(), RunOptions(jobs=jobs, cache=str(root)),
    )
    return engine.run_grid(FACTORIES, NAMES), engine.cache


@pytest.mark.parametrize("jobs", [1, 2])
def test_warm_grid_builds_nothing(tmp_path, builds, jobs):
    cold, _ = run(tmp_path)
    builds["run_program"].clear()
    builds["fingerprint_trace"].clear()

    warm, cache = run(tmp_path, jobs)
    assert builds == {"run_program": [], "fingerprint_trace": []}
    assert cache.hits == len(FACTORIES) * len(NAMES)
    assert warm.to_json(canonical=True) == cold.to_json(canonical=True)

    # With one workload's entries gone, exactly that trace is built,
    # in this (the parent) process.
    workloads = WorkloadSet()
    for cell in grid_cells(workloads, FACTORIES, ["E-I"]):
        os.unlink(os.path.join(tmp_path, cell.key.digest() + ".json"))
    again, cache = run(tmp_path, jobs, workloads)
    assert builds == {"run_program": ["E-I"], "fingerprint_trace": []}
    assert cache.misses == len(FACTORIES)
    assert again.to_json(canonical=True) == cold.to_json(canonical=True)


def test_model_edit_misses(tmp_path, monkeypatch):
    package = Path(cache_mod.__file__).resolve().parent.parent
    copy = tmp_path / "repro"
    shutil.copytree(
        package, copy, ignore=shutil.ignore_patterns("__pycache__"),
    )
    assert source_digest(copy) == model_digest()
    pipeline = copy / "core" / "pipeline.py"
    source = bytearray(pipeline.read_bytes())
    source[-1] = (source[-1] + 1) % 256
    pipeline.write_bytes(bytes(source))
    edited = source_digest(copy)
    assert edited != model_digest()

    factories = [SimAlpha, fake_factory("fake-a")]
    workloads = WorkloadSet()
    options = RunOptions(cache=str(tmp_path / "cache"))
    cold = ExperimentEngine(workloads, options).run_grid(factories, NAMES)
    monkeypatch.setattr(cache_mod, "model_digest", lambda: edited)
    engine = ExperimentEngine(workloads, options)
    again = engine.run_grid(factories, NAMES)
    assert engine.cache.hits == 0
    assert engine.cache.misses == len(factories) * len(NAMES)
    assert again.to_json(canonical=True) == cold.to_json(canonical=True)


def test_source_digest_needs_a_source_file(tmp_path):
    with pytest.raises(RuntimeError, match="no Python source"):
        source_digest(tmp_path)


def test_program_determines_trace():
    """The key's premise: equal program digests give equal traces."""
    first, second = WorkloadSet(), WorkloadSet()
    for name in _QUICK_MICRO + _QUICK_MACRO:
        assert first.program_digest(name) == second.program_digest(name)
        assert fingerprint_trace(first.trace(name)) == \
            fingerprint_trace(second.trace(name))


def test_register_replaces_the_cached_trace(tmp_path):
    """Registering a program under a cached name serves the new
    program's trace, and its cells miss a cache the old one filled."""
    workloads = WorkloadSet()
    cache = ResultCache(tmp_path)
    options = RunOptions(cache=cache)
    ExperimentEngine(workloads, options).run_grid(FACTORIES, ["E-I"])
    old = workloads.trace("E-I")

    program = dataclasses.replace(workloads.program("C-R"), name="E-I")
    workloads.register(program)
    new = run_program(program)
    assert fingerprint_trace(workloads.trace("E-I")) == \
        fingerprint_trace(new) != fingerprint_trace(old)

    hits = cache.hits
    grid = ExperimentEngine(workloads, options).run_grid(
        FACTORIES, ["E-I"]
    )
    assert cache.hits == hits
    assert grid.get("fake-a", "E-I").instructions == len(new)
