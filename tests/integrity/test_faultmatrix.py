"""Fault-injection detection matrix: every injected corruption class
must be caught through its designed channel, with a clean control.

The in-process faults run everywhere (this is the tier-1 assertion of
the robustness acceptance criteria); the pool faults — which kill and
hang real worker processes — carry the ``fault_inject`` marker and run
in the integrity-smoke CI job.
"""

import json

import pytest

from repro.integrity.faultinject import (
    FAULTS,
    FaultedAlpha,
    run_detection_matrix,
    run_detection_sweep,
)
from repro.workloads.suite import WORKLOAD_FAMILIES

#: One cheap workload per family: the tier-1 sweep must stay fast while
#: still pairing every fault with a member of every stressing family.
REDUCED_FAMILIES = {
    "control": ("C-Ca",),
    "execute": ("E-D3",),
    "memory": ("M-D",),
    "dram": ("M-BANK",),
}


class TestRegistry:
    def test_at_least_six_fault_classes(self):
        in_process = [s for s in FAULTS.values() if not s.needs_pool]
        assert len(in_process) >= 6

    def test_every_fault_names_a_detection_channel(self):
        for spec in FAULTS.values():
            assert spec.expected, spec.name

    def test_every_fault_names_stressing_families(self):
        for spec in FAULTS.values():
            assert spec.families, spec.name
            unknown = [
                f for f in spec.families if f not in WORKLOAD_FAMILIES
            ]
            assert not unknown, (spec.name, unknown)

    def test_every_family_stresses_some_fault(self):
        paired = {f for spec in FAULTS.values() for f in spec.families}
        assert paired == set(WORKLOAD_FAMILIES)

    def test_dram_and_shared_maf_faults_registered(self):
        assert FAULTS["shared_maf_oversubscribe"].families == (
            "memory", "dram",
        )
        for name in (
            "dram_row_overcount",
            "dram_conflict_overflow",
            "dram_phantom_row_hit",
        ):
            assert FAULTS[name].families == ("dram",)
            assert FAULTS[name].expected[0].startswith("invariant:dram_")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            FaultedAlpha("no_such_fault")
        assert "no_such_fault" in str(excinfo.value)

    def test_shared_maf_fault_shares_one_file(self):
        sim = FaultedAlpha("shared_maf_oversubscribe")
        from repro.core.pipeline import AlphaPipeline

        pipeline = AlphaPipeline(sim.config)
        hier = pipeline.hierarchy
        assert hier.maf_i is hier.maf_d is hier.maf_l2


class TestInProcessMatrix:
    @pytest.fixture(scope="class")
    def matrix(self):
        return run_detection_matrix(include_pool_faults=False)

    def test_control_runs_are_clean(self, matrix):
        # One control per distinct workload: the default plus any
        # workload a pinned fault (blockcache_corruption) runs on.
        controls = [r for r in matrix.rows if r.fault == "control"]
        assert len(controls) >= 1
        for control in controls:
            assert not control.detected
            assert control.channels == []

    def test_no_silent_corruptions(self, matrix):
        assert matrix.silent_corruptions() == []

    def test_every_fault_caught_via_expected_channel(self, matrix):
        assert matrix.all_caught
        for row in matrix.rows:
            if row.fault == "control" or row.skipped:
                continue
            expected = FAULTS[row.fault].expected
            assert any(c in expected for c in row.channels), (
                row.fault, row.channels, expected
            )

    def test_render_mentions_every_fault(self, matrix):
        rendered = matrix.render()
        for row in matrix.rows:
            assert row.fault in rendered

    def test_every_row_carries_workload_and_family(self, matrix):
        for row in matrix.rows:
            if not row.skipped:
                assert row.workload and row.family, row


class TestSweep:
    """The workload-swept matrix over one cheap member per family."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return run_detection_sweep(
            family_members=REDUCED_FAMILIES,
            include_pool_faults=False,
        )

    def test_full_coverage(self, sweep):
        assert sweep.all_caught
        assert sweep.silent_corruptions() == []

    def test_every_in_process_fault_swept(self, sweep):
        swept = {r.fault for r in sweep.rows if not r.skipped}
        expected = {
            name for name, spec in FAULTS.items() if not spec.needs_pool
        }
        assert expected <= swept

    def test_one_clean_control_per_workload(self, sweep):
        controls = [r for r in sweep.rows if r.fault == "control"]
        fault_workloads = {
            r.workload for r in sweep.rows
            if r.fault != "control" and not r.skipped
        }
        assert {c.workload for c in controls} == fault_workloads
        assert all(not c.detected for c in controls)

    def test_cells_carry_family_pairing(self, sweep):
        for row in sweep.rows:
            if row.fault == "control" or row.skipped:
                continue
            assert row.family in FAULTS[row.fault].families, (
                row.fault, row.family,
            )
            pinned = FAULTS[row.fault].workloads
            if pinned:
                assert row.workload in pinned
            else:
                assert row.workload in REDUCED_FAMILIES[row.family]

    def test_shared_maf_caught_on_both_families(self, sweep):
        cells = [
            r for r in sweep.rows
            if r.fault == "shared_maf_oversubscribe"
        ]
        assert {c.family for c in cells} == {"memory", "dram"}
        for cell in cells:
            assert cell.detected
            assert "invariant:maf_occupancy" in cell.channels

    def test_dram_faults_caught_by_designed_invariants(self, sweep):
        for name in (
            "dram_row_overcount",
            "dram_conflict_overflow",
            "dram_phantom_row_hit",
        ):
            cells = [r for r in sweep.rows if r.fault == name]
            assert cells, name
            for cell in cells:
                assert cell.detected and cell.expected_channel, (
                    name, cell.workload, cell.channels,
                )

    def test_render_has_workload_and_family_columns(self, sweep):
        rendered = sweep.render()
        assert "workload" in rendered.splitlines()[0]
        assert "M-BANK" in rendered
        assert "dram" in rendered

    def test_json_round_trips(self, sweep):
        payload = json.loads(sweep.to_json())
        assert payload["workload"] == "sweep"
        assert len(payload["rows"]) == len(sweep.rows)

    def test_family_filter_drops_out_of_scope_faults(self):
        sweep = run_detection_sweep(
            families=["dram"],
            faults=["cycle_skew", "dram_row_overcount"],
            family_members=REDUCED_FAMILIES,
            include_pool_faults=False,
        )
        swept = {r.fault for r in sweep.rows if r.fault != "control"}
        assert swept == {"dram_row_overcount"}
        assert sweep.all_caught

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError, match="unknown workload family"):
            run_detection_sweep(families=["cache"])


class TestSweepDeterminism:
    def test_repeated_sweep_serialises_byte_identical(self):
        """The matrix is a measurement artifact: re-running the same
        sweep must reproduce the same JSON byte for byte (no wall-clock
        or ordering noise in rows, channels, or details)."""
        kwargs = dict(
            faults=["cycle_skew", "dram_row_overcount"],
            family_members={
                "control": ("C-Ca",),
                "execute": ("E-D3",),
                "dram": ("M-BANK",),
            },
            include_pool_faults=False,
        )
        cold = run_detection_sweep(**kwargs)
        again = run_detection_sweep(**kwargs)
        assert cold.to_json() == again.to_json()


#: One cheap representative fault per family — the CI matrix legs
#: (``pytest -m fault_inject -k <family>``) each sweep exactly one.
REPRESENTATIVE_FAULTS = {
    "control": "cycle_skew",
    "execute": "ipc_overflow",
    "memory": "maf_oversubscribe",
    "dram": "dram_row_overcount",
}


@pytest.mark.fault_inject
class TestFamilySmoke:
    @pytest.mark.parametrize(
        "family", sorted(REPRESENTATIVE_FAULTS)
    )
    def test_family_representative_detected(self, family):
        fault = REPRESENTATIVE_FAULTS[family]
        sweep = run_detection_sweep(
            faults=[fault],
            families=[family],
            family_members=REDUCED_FAMILIES,
            include_pool_faults=False,
        )
        assert sweep.all_caught, sweep.silent_corruptions()
        rows = [r for r in sweep.rows if r.fault == fault]
        assert rows
        assert all(r.family == family and r.detected for r in rows)


@pytest.mark.fault_inject
class TestPoolMatrix:
    """Worker-killing faults: the pool must diagnose a hard-killed and
    a hung worker rather than losing the grid."""

    def test_pool_faults_detected(self):
        matrix = run_detection_matrix(
            faults=["worker_crash", "worker_hang"],
            include_pool_faults=True,
        )
        skipped = [r.fault for r in matrix.rows if r.skipped]
        if skipped:
            pytest.skip(f"pool unavailable here: {skipped}")
        assert matrix.all_caught
        channels = {
            r.fault: r.channels
            for r in matrix.rows if r.fault != "control"
        }
        assert channels["worker_crash"] == ["crash"]
        assert channels["worker_hang"] == ["timeout"]
