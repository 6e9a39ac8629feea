"""Sharded grid execution: coordinator, runners, leases, recovery.

Everything here runs the *production* shard path — forked
``shard_runner_main`` processes driven by a real
:class:`ShardCoordinator` — against the instant fake simulators, so
the distributed invariants (byte-identity with the serial run,
at-most-once commit, journal recovery) are exercised for real at unit
cost.
"""

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import pytest

from exec_fakes import fake_factory
from repro.exec.coordinator import ShardCoordinator, shard_status
from repro.exec.shard import PipeTransport, shard_journal_path
from repro.exec.spec import RunOptions
from repro.obs.registry import MetricsRegistry
from repro.result import RunStats, SimResult
from repro.validation.harness import Harness

fork_available = "fork" in multiprocessing.get_all_start_methods()

pytestmark = [
    pytest.mark.exec_pool,
    pytest.mark.skipif(
        not fork_available,
        reason="sharded execution requires the fork start method",
    ),
]

WORKLOADS = ["C-R", "E-I"]


@dataclass(frozen=True)
class SlowConfig:
    name: str
    delay_s: float = 0.1


class SlowSim:
    """Deterministic fake that burns wall-clock, widening the window
    in which a kill can land mid-lease."""

    def __init__(self, config: SlowConfig):
        self.config = config

    @property
    def name(self) -> str:
        return self.config.name

    def run_trace(self, trace, workload: str) -> SimResult:
        time.sleep(self.config.delay_s)
        return SimResult(
            simulator=self.name, workload=workload,
            cycles=len(trace) * 2.0, instructions=len(trace),
            stats=RunStats(),
        )


def slow_factory(name: str, delay_s: float = 0.1):
    config = SlowConfig(name, delay_s)
    return lambda: SlowSim(config)


def fake_grid_factories(count: int = 3):
    return [
        fake_factory(f"fake-{index}", cpi=1.0 + 0.5 * index)
        for index in range(count)
    ]


def counters(metrics: MetricsRegistry):
    return {
        name: counter.value
        for name, counter in metrics._counters.items()
    }


class TestPipeTransport:
    def test_round_trip_and_timeout(self):
        left, right = multiprocessing.Pipe(duplex=True)
        a, b = PipeTransport(left), PipeTransport(right)
        a.send(("ready", 0, None))
        assert b.poll(0.5)
        assert b.recv(timeout=0.5) == ("ready", 0, None)
        assert b.recv(timeout=0.01) is None  # timeout, not a hang
        assert not b.pending()  # pipes buffer nothing transport-side
        a.close()
        b.close()

    def test_recv_raises_on_peer_loss(self):
        left, right = multiprocessing.Pipe(duplex=True)
        a, b = PipeTransport(left), PipeTransport(right)
        a.close()
        with pytest.raises((EOFError, OSError)):
            b.recv()
        b.close()


class TestShardJournalPath:
    def test_derives_from_base(self):
        assert shard_journal_path("/tmp/grid.journal", 3) == \
            "/tmp/grid.journal.shard-3"


class TestCleanShardedRun:
    def test_byte_identical_to_serial_at_shards_4(self):
        """ISSUE acceptance: a clean sharded run at shards=4 must be
        byte-identical to the serial run under canonical
        serialisation."""
        serial = Harness().run_grid(fake_grid_factories(), WORKLOADS)
        metrics = MetricsRegistry()
        coordinator = ShardCoordinator(
            options=RunOptions(shards=4), metrics=metrics,
        )
        grid = coordinator.run_grid(fake_grid_factories(), WORKLOADS)
        assert grid.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        seen = counters(metrics)
        total = len(WORKLOADS) * 3
        assert seen["shard.cells.computed"] == total
        # A clean pull-based run commits nothing twice and re-grants
        # nothing.
        assert "shard.cells.deduped" not in seen
        assert "shard.leases.regranted" not in seen
        assert "shard.runners.lost" not in seen

    def test_real_simulators_shard_identically(self):
        """The production sims produce the same bytes sharded as
        serial (the fakes can't vouch for provenance hashing)."""
        from repro import SimAlpha

        serial = Harness().run_grid([SimAlpha], ["C-R"])
        grid = ShardCoordinator(
            options=RunOptions(shards=2)
        ).run_grid([SimAlpha], ["C-R"])
        assert grid.to_json(canonical=True) == \
            serial.to_json(canonical=True)

    def test_harness_options_shards_route_to_coordinator(self):
        serial = Harness().run_grid(fake_grid_factories(), WORKLOADS)
        sharded = Harness(options=RunOptions(shards=3)).run_grid(
            fake_grid_factories(), WORKLOADS
        )
        assert sharded.to_json(canonical=True) == \
            serial.to_json(canonical=True)

    def test_run_grid_options_shards_override_default(self):
        serial = Harness().run_grid(fake_grid_factories(), WORKLOADS)
        sharded = Harness().run_grid(
            fake_grid_factories(), WORKLOADS, RunOptions(shards=2)
        )
        assert sharded.to_json(canonical=True) == \
            serial.to_json(canonical=True)


class TestFailureSettlement:
    def test_failing_cell_settles_as_cell_failure(self):
        """A raising cell must land as a diagnosable CellFailure on
        the grid (and on the harness), not hang or vanish."""
        harness = Harness(options=RunOptions(shards=2))
        factories = fake_grid_factories(2) + [
            fake_factory("fake-raise", flavor="raise")
        ]
        grid = harness.run_grid(factories, WORKLOADS)
        [failure] = grid.failures
        assert failure.simulator == "fake-raise"
        assert failure.workload == "E-I"
        assert failure.kind == "exception"
        assert harness.failed_cells == [failure]
        # The healthy cells all settled normally.
        assert sum(len(row) for row in grid.results.values()) == \
            len(WORKLOADS) * 3 - 1

    def test_runner_crash_with_no_budget_settles_lost(self):
        """A cell that kills its runner, with shards=1 and zero
        respawns, must settle the remainder as kind='lost' — bounded,
        diagnosable, never a hang."""
        metrics = MetricsRegistry()
        coordinator = ShardCoordinator(
            options=RunOptions(shards=1),
            max_respawns=0, lease_timeout_s=10.0, metrics=metrics,
        )
        factories = [
            fake_factory("fake-ok"),
            fake_factory("fake-crash", flavor="crash"),
        ]
        grid = coordinator.run_grid(factories, WORKLOADS)
        kinds = {failure.kind for failure in grid.failures}
        assert "lost" in kinds
        assert counters(metrics)["shard.runners.lost"] == 1
        assert counters(metrics)["shard.cells.lost"] >= 1
        # Every cell settled one way or the other.
        settled = sum(len(row) for row in grid.results.values()) + \
            len(grid.failures)
        assert settled == len(WORKLOADS) * 2


class TestWorkStealing:
    def test_killed_runner_cells_stolen_by_survivors(self):
        """ISSUE acceptance: SIGKILL a runner mid-lease with the
        respawn budget at zero; survivors finish its cells within the
        lease timeout and the grid matches serial byte-for-byte."""
        serial = Harness().run_grid(
            [slow_factory(f"slow-{i}") for i in range(4)], WORKLOADS
        )
        pids = {}
        killed = []

        def on_event(event, payload):
            if event == "runner_started":
                pids[payload["runner_id"]] = payload["pid"]
            elif (event == "cell_committed" and not killed
                    and payload.get("runner_id") is not None):
                victims = [
                    rid for rid in pids
                    if rid != payload["runner_id"]
                ]
                if victims:
                    os.kill(pids[victims[0]], signal.SIGKILL)
                    killed.append(victims[0])

        metrics = MetricsRegistry()
        coordinator = ShardCoordinator(
            options=RunOptions(shards=2),
            max_respawns=0, lease_timeout_s=6.0,
            metrics=metrics, on_event=on_event,
        )
        grid = coordinator.run_grid(
            [slow_factory(f"slow-{i}") for i in range(4)], WORKLOADS
        )
        assert killed, "no runner was killed"
        assert grid.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        assert not grid.failures
        assert counters(metrics)["shard.runners.lost"] >= 1


class TestDuplicateCommits:
    def test_duplicated_messages_dedup_by_digest(self):
        """At-most-once commit: duplicating every received message
        must move the dedup counter, never double-commit."""
        from repro.integrity.chaos import ChaosTransport

        serial = Harness().run_grid(fake_grid_factories(), WORKLOADS)
        transports = []

        def wrapper(transport, runner_id):
            transport = ChaosTransport(transport, duplicate_every=2)
            transports.append(transport)
            return transport

        metrics = MetricsRegistry()
        coordinator = ShardCoordinator(
            options=RunOptions(shards=2),
            metrics=metrics, transport_wrapper=wrapper,
        )
        grid = coordinator.run_grid(fake_grid_factories(), WORKLOADS)
        assert grid.to_json(canonical=True) == \
            serial.to_json(canonical=True)
        assert any(t.duplicated for t in transports)
        assert counters(metrics).get("shard.cells.deduped", 0) >= 1


class TestCheckpointResume:
    def test_resume_recovers_everything_recomputes_nothing(
        self, tmp_path
    ):
        """ISSUE acceptance: after a completed checkpointed run, a
        resumed coordinator recovers every cell from the journal and
        recomputes none (asserted via shard.* counters)."""
        base = str(tmp_path / "grid.journal")
        first_metrics = MetricsRegistry()
        first = ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base),
            metrics=first_metrics,
        ).run_grid(fake_grid_factories(), WORKLOADS)
        total = len(WORKLOADS) * 3
        assert counters(first_metrics)["shard.cells.computed"] == total
        # Shard journals merged into the base journal afterwards.
        status = shard_status(base)
        assert [r["entries"] for r in status["journals"]] == [total]

        second_metrics = MetricsRegistry()
        second = ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base, resume=True),
            metrics=second_metrics,
        ).run_grid(fake_grid_factories(), WORKLOADS)
        seen = counters(second_metrics)
        assert seen["shard.cells.recovered"] == total
        assert "shard.cells.computed" not in seen  # zero recompute
        assert second.to_json(canonical=True) == \
            first.to_json(canonical=True)

    def test_surviving_shard_journals_recovered_on_resume(
        self, tmp_path
    ):
        """A coordinator that died before merging leaves
        ``<base>.shard-k`` journals behind; resume must honour them."""
        import json

        base = str(tmp_path / "grid.journal")
        done = ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base)
        ).run_grid(fake_grid_factories(), WORKLOADS)
        # Simulate the pre-merge crash state: move the merged journal
        # back out to a shard journal.
        os.replace(base, shard_journal_path(base, 0))
        metrics = MetricsRegistry()
        resumed = ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base, resume=True),
            metrics=metrics,
        ).run_grid(fake_grid_factories(), WORKLOADS)
        assert resumed.to_json(canonical=True) == \
            done.to_json(canonical=True)
        seen = counters(metrics)
        assert seen["shard.cells.recovered"] == len(WORKLOADS) * 3
        assert "shard.cells.computed" not in seen
        # And the recovered shard journal was re-merged into base.
        with open(base, encoding="utf-8") as handle:
            assert len(json.load(handle)["cells"]) == len(WORKLOADS) * 3

    def test_stale_shard_journals_quarantined_without_resume(
        self, tmp_path
    ):
        """A fresh (non-resume) run must not silently consume another
        run's leftover shard journals."""
        base = str(tmp_path / "grid.journal")
        stale = shard_journal_path(base, 7)
        with open(stale, "w", encoding="utf-8") as handle:
            handle.write("{not a journal")
        ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base)
        ).run_grid(fake_grid_factories(2), WORKLOADS)
        assert not os.path.exists(stale)
        assert os.path.exists(stale + ".stale")


class TestPrivateJournal:
    def test_merge_runs_only_for_a_callers_checkpoint(
        self, monkeypatch, tmp_path
    ):
        """Without a checkpoint the shard journals live in a private
        directory deleted when the run ends, so the coordinator merges
        nothing into it; with one, the shard journals are merged into
        the caller's base journal.  Counts the coordinator's own calls
        (runner processes journal in their own memory)."""
        from repro.integrity.checkpoint import GridCheckpoint

        calls = []
        for name in ("merge_from", "flush"):
            real = getattr(GridCheckpoint, name)

            def spy(self, *args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(self, *args, **kwargs)

            monkeypatch.setattr(GridCheckpoint, name, spy)

        private = ShardCoordinator(
            options=RunOptions(shards=2)
        ).run_grid(fake_grid_factories(), WORKLOADS)
        assert calls == []

        checkpointed = ShardCoordinator(
            options=RunOptions(
                shards=2, checkpoint=str(tmp_path / "grid.journal")
            )
        ).run_grid(fake_grid_factories(), WORKLOADS)
        assert calls.count("merge_from") >= 1
        assert calls.count("flush") >= 1
        assert checkpointed.to_json(canonical=True) == \
            private.to_json(canonical=True)


class TestShardStatus:
    def test_reports_entries_and_corruption(self, tmp_path):
        base = str(tmp_path / "grid.journal")
        ShardCoordinator(
            options=RunOptions(shards=2, checkpoint=base)
        ).run_grid(fake_grid_factories(2), WORKLOADS)
        with open(shard_journal_path(base, 9), "w",
                  encoding="utf-8") as handle:
            handle.write("{corrupt")
        status = shard_status(base)
        states = {r["path"]: r["state"] for r in status["journals"]}
        assert states[base] == "ok"
        assert "corrupt" in states[shard_journal_path(base, 9)]
        assert status["distinct_digests"] == len(WORKLOADS) * 2
