"""Chaos harness: the sharded execution fabric under induced failure.

Each scenario asserts the ISSUE's invariant: every run ends complete
and byte-identical to the serial baseline (or with diagnosable
failures) — never a hang, never silent loss, never a double-count.
"""

import multiprocessing
from collections import deque

import pytest

from repro.integrity.chaos import (
    CHAOS_SCENARIOS,
    ChaosReport,
    ChaosTransport,
    run_chaos_scenario,
)
from repro.exec.shard import Transport

fork_available = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.chaos,
    pytest.mark.skipif(
        not fork_available,
        reason="sharded execution requires the fork start method",
    ),
]


class _LoopbackTransport(Transport):
    """In-memory transport: everything sent is received in order."""

    def __init__(self):
        self.queue = deque()

    def send(self, message):
        self.queue.append(message)

    def recv(self, timeout=None):
        return self.queue.popleft() if self.queue else None

    def poll(self, timeout=0.0):
        return bool(self.queue)

    def close(self):
        self.queue.clear()


class TestChaosTransport:
    def test_drop_every_n_send(self):
        inner = _LoopbackTransport()
        chaos = ChaosTransport(inner, drop_every=3)
        for index in range(6):
            chaos.send(("message", index))
        assert [m[1] for m in inner.queue] == [0, 1, 3, 4]
        assert chaos.dropped == 2

    def test_drop_every_n_recv_looks_like_timeout(self):
        inner = _LoopbackTransport()
        chaos = ChaosTransport(inner, drop_every=2)
        inner.send(("a",))
        inner.send(("b",))
        assert chaos.recv() == ("a",)
        assert chaos.recv() is None  # dropped, indistinguishable
        assert chaos.dropped == 1

    def test_duplicate_surfaces_through_pending(self):
        """Duplicates are queued inside the transport — exactly what a
        selector cannot see — and must be visible via pending()."""
        inner = _LoopbackTransport()
        chaos = ChaosTransport(inner, duplicate_every=2)
        inner.send(("a",))
        inner.send(("b",))
        assert chaos.recv() == ("a",)
        assert not chaos.pending()
        assert chaos.recv() == ("b",)
        assert chaos.pending()
        assert chaos.poll()
        assert chaos.recv() == ("b",)  # the queued duplicate
        assert not chaos.pending()
        assert chaos.duplicated == 1

    def test_queued_duplicates_do_not_recount(self):
        """Draining a duplicate must not advance the chaos counters —
        otherwise chaos compounds on its own artifacts."""
        inner = _LoopbackTransport()
        chaos = ChaosTransport(inner, duplicate_every=1)
        inner.send(("a",))
        assert chaos.recv() == ("a",)
        assert chaos.recv() == ("a",)
        assert chaos.duplicated == 1
        assert chaos.received == 1

    def test_delay_counts(self, monkeypatch):
        import repro.integrity.chaos as chaos_module

        naps = []
        monkeypatch.setattr(
            chaos_module.time, "sleep", lambda s: naps.append(s)
        )
        inner = _LoopbackTransport()
        chaos = ChaosTransport(inner, delay_every=2, delay_s=0.5)
        chaos.send(("a",))
        chaos.send(("b",))
        assert naps == [0.5]
        assert chaos.delayed == 1


class TestScenarioRegistry:
    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError):
            run_chaos_scenario("no-such-scenario")

    def test_registry_covers_the_required_failure_classes(self):
        required = {
            "runner-sigkill", "coordinator-kill", "journal-corruption",
            "message-drop", "message-duplicate", "message-delay",
        }
        assert required <= set(CHAOS_SCENARIOS)

    def test_empty_report_is_not_a_pass(self):
        assert not ChaosReport(outcomes=[]).all_passed


def _assert_passed(outcome):
    assert outcome.byte_identical, (
        f"{outcome.scenario} diverged: {outcome.detail}"
    )
    assert outcome.passed, f"{outcome.scenario}: {outcome.detail}"


class TestScenarios:
    """Each scenario must end byte-identical with the right recovery
    evidence in the counters (the scenario's own checks)."""

    def test_clean_control(self):
        outcome = run_chaos_scenario("clean-control")
        _assert_passed(outcome)
        assert outcome.scenario == "clean-control"

    def test_message_drop(self):
        _assert_passed(run_chaos_scenario("message-drop"))

    def test_message_duplicate(self):
        outcome = run_chaos_scenario("message-duplicate")
        _assert_passed(outcome)
        assert outcome.counters.get("shard.cells.deduped", 0) >= 1

    def test_message_delay(self):
        outcome = run_chaos_scenario("message-delay")
        _assert_passed(outcome)
        assert outcome.counters.get("shard.leases.expired", 0) == 0
        assert outcome.counters.get("shard.runners.lost", 0) == 0

    def test_runner_sigkill(self):
        outcome = run_chaos_scenario("runner-sigkill")
        _assert_passed(outcome)
        assert outcome.counters.get("shard.runners.lost", 0) >= 1

    def test_journal_corruption(self):
        outcome = run_chaos_scenario("journal-corruption")
        _assert_passed(outcome)
        assert outcome.counters.get("shard.journals.corrupt", 0) >= 1

    def test_coordinator_kill_resumes_without_recompute(self):
        outcome = run_chaos_scenario("coordinator-kill")
        _assert_passed(outcome)
        recovered = outcome.counters.get("shard.cells.recovered", 0)
        computed = outcome.counters.get("shard.cells.computed", 0)
        assert recovered >= 1
        assert recovered + computed == 8  # every cell, exactly once
