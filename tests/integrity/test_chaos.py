"""Chaos harness: the process pool under induced failure.

Each scenario must end complete and byte-identical to the in-process
baseline, with its recovery evidence in the ``exec.*`` counters —
never a hang, never silent loss, never a double-count.
"""

import multiprocessing
import os
import tempfile

import pytest

from repro.integrity.chaos import (
    CHAOS_SCENARIOS,
    ChaosReport,
    run_chaos_scenario,
)

fork_available = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available,
        reason="the process pool requires the fork start method",
    ),
]


class TestScenarioRegistry:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_chaos_scenario("no-such-scenario")

    def test_registry_covers_the_required_failure_classes(self):
        assert set(CHAOS_SCENARIOS) == {
            "clean-control", "worker-sigkill", "parent-kill",
        }

    def test_empty_report_is_not_a_pass(self):
        assert not ChaosReport(outcomes=[]).all_passed


def _assert_passed(outcome):
    assert outcome.byte_identical, (
        f"{outcome.scenario} diverged: {outcome.detail}"
    )
    assert outcome.passed, f"{outcome.scenario}: {outcome.detail}"
    assert multiprocessing.active_children() == []


class TestScenarios:
    """Each scenario must end byte-identical with the right recovery
    evidence in the counters (the scenario's own checks)."""

    def test_clean_control(self):
        outcome = run_chaos_scenario("clean-control")
        _assert_passed(outcome)
        assert outcome.scenario == "clean-control"
        assert outcome.counters.get("exec.cells.retried", 0) == 0
        assert outcome.counters.get("exec.cells.failed", 0) == 0

    def test_worker_sigkill(self):
        outcome = run_chaos_scenario("worker-sigkill")
        _assert_passed(outcome)
        assert outcome.counters.get("exec.cells.retried", 0) >= 1

    def test_parent_kill_resumes_without_recompute(
        self, tmp_path, monkeypatch,
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        outcome = run_chaos_scenario("parent-kill")
        _assert_passed(outcome)
        resumed = outcome.counters.get("exec.checkpoint.resumed", 0)
        completed = outcome.counters.get("exec.cells.completed", 0)
        assert resumed >= 1
        assert resumed + completed == 8  # every cell, exactly once
        assert os.listdir(tmp_path) == []  # the journal's directory went
