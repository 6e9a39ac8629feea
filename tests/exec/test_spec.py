"""Property tests for the ExperimentSpec / RunOptions request API.

The canonical-JSON round-trip is the contract every entry point
(Python API, CLI, HTTP service) leans on: a spec that survives
``to_dict -> json -> from_dict`` unchanged is a spec the service can
hash, dedup, persist, and replay byte-identically.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec.spec import ExperimentSpec, RunOptions, SpecError

# -- strategies ------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1,
    max_size=12,
)

_run_options = st.builds(
    RunOptions,
    jobs=st.integers(min_value=1, max_value=8),
    cache=st.none() | _names,
    timeout=st.none() | st.floats(min_value=0.5, max_value=300.0,
                                  allow_nan=False),
    retries=st.integers(min_value=0, max_value=3),
    checkpoint=st.none() | _names,
    resume=st.booleans(),
    ledger=st.none() | _names,
    live_progress=st.booleans(),
    sanitize=st.booleans(),
    strict=st.booleans(),
    watchdog_s=st.none() | st.floats(min_value=0.5, max_value=60.0,
                                     allow_nan=False),
    blockcache=st.none() | st.booleans(),
    escalation_grace_s=st.floats(min_value=0.0, max_value=10.0,
                                 allow_nan=False),
    dram_backend=st.none() | st.sampled_from(
        ["sdram", "closed-page", "ddr4", "ideal"]
    ),
)

_specs = st.builds(
    ExperimentSpec,
    simulators=st.lists(_names, min_size=1, max_size=3,
                        unique=True).map(tuple),
    workloads=st.lists(_names, min_size=1, max_size=3,
                       unique=True).map(tuple),
    options=_run_options,
)


# -- canonical round-trip --------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(_run_options)
def test_run_options_canonical_round_trip(options):
    payload = json.loads(options.canonical_json())
    rebuilt = RunOptions.from_dict(payload)
    assert rebuilt == options
    assert rebuilt.canonical_json() == options.canonical_json()


@settings(max_examples=60, deadline=None)
@given(_specs)
def test_spec_canonical_round_trip(spec):
    payload = json.loads(spec.canonical_json())
    rebuilt = ExperimentSpec.from_dict(payload)
    assert rebuilt == spec
    assert rebuilt.canonical_json() == spec.canonical_json()
    assert rebuilt.dedup_key() == spec.dedup_key()


@settings(max_examples=60, deadline=None)
@given(
    _specs,
    st.integers(min_value=2, max_value=8),
    _names,
    st.booleans(),
)
def test_dedup_key_ignores_operational_options(spec, jobs, path, live):
    """Two requests differing only in *how* they run (parallelism,
    cache/checkpoint paths, progress rendering) must hash the same —
    that is what lets the service charge N identical submissions one
    simulation."""
    operational = spec.options.replace(
        jobs=jobs, cache=path, checkpoint=path, ledger=path,
        live_progress=live, resume=not spec.options.resume,
    )
    twin = dataclasses.replace(spec, options=operational)
    assert twin.dedup_key() == spec.dedup_key()


@settings(max_examples=60, deadline=None)
@given(_specs)
def test_dedup_key_tracks_measurement_options(spec):
    """Options that change what a grid *measures* must change the
    hash: a sanitized run is not the same experiment."""
    flipped = dataclasses.replace(
        spec,
        options=spec.options.replace(sanitize=not spec.options.sanitize),
    )
    assert flipped.dedup_key() != spec.dedup_key()


@settings(max_examples=60, deadline=None)
@given(_specs)
def test_dedup_key_tracks_dram_backend(spec):
    """The DRAM backend selects the timing model under every grid
    simulator: two requests differing in backend are different
    experiments and must never dedup to one simulation."""
    other = "ideal" if spec.options.dram_backend != "ideal" else "ddr4"
    flipped = dataclasses.replace(
        spec, options=spec.options.replace(dram_backend=other)
    )
    assert flipped.dedup_key() != spec.dedup_key()


def test_unknown_dram_backend_rejected():
    with pytest.raises(SpecError, match="unknown DRAM backend"):
        RunOptions(dram_backend="rambus")


# -- validation at the boundary --------------------------------------------

def test_unknown_spec_key_rejected():
    with pytest.raises(SpecError, match="unknown ExperimentSpec key"):
        ExperimentSpec.from_dict({
            "simulators": ["sim-outorder"], "workloads": ["C-Ca"],
            "parallelism": 4,
        })


def test_unknown_options_key_rejected():
    with pytest.raises(SpecError, match="unknown RunOptions key"):
        RunOptions.from_dict({"jobs": 2, "n_workers": 4})
    # Job specs queued before the shard fabric and the refresh path
    # were deleted.
    with pytest.raises(SpecError, match="unknown RunOptions key"):
        RunOptions.from_dict({"shards": 1})
    with pytest.raises(SpecError, match="unknown RunOptions key"):
        RunOptions.from_dict({"refresh": False})


def test_empty_grid_rejected():
    with pytest.raises(SpecError, match="at least one simulator"):
        ExperimentSpec((), ("C-Ca",))
    with pytest.raises(SpecError, match="at least one workload"):
        ExperimentSpec(("sim-outorder",), ())


def test_out_of_range_options_rejected():
    with pytest.raises(SpecError):
        RunOptions(jobs=0)
    with pytest.raises(SpecError):
        RunOptions(timeout=-1.0)
    with pytest.raises(SpecError):
        RunOptions(retries=-1)


def test_unknown_simulator_named_at_resolution():
    spec = ExperimentSpec(("no-such-sim",), ("C-Ca",))
    with pytest.raises(SpecError, match="unknown simulator"):
        spec.factories()


# -- merged_over / trimmed -------------------------------------------------

def test_merged_over_explicit_fields_win():
    base = RunOptions(jobs=4, cache="warm", retries=2)
    call = RunOptions(jobs=2)
    merged = call.merged_over(base)
    assert merged.jobs == 2            # explicitly set: call wins
    assert merged.cache == "warm"      # left default: base shows
    assert merged.retries == 2


def test_trimmed_keeps_only_single_cell_options():
    options = RunOptions(jobs=8, cache="x", sanitize=True,
                         strict=True, watchdog_s=5.0)
    single = options.trimmed()
    assert single.sanitize and single.strict
    assert single.watchdog_s == 5.0
    assert single.jobs == 1
    assert single.cache is None

