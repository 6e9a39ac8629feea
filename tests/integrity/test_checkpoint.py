"""Grid checkpoint/resume: atomic journals and interrupted grids."""

import json
import os

import pytest

from repro import SimAlpha
from repro.integrity.checkpoint import GridCheckpoint
from repro.exec.spec import RunOptions
from repro.result import SimResult
from repro.validation.harness import Harness, ResultGrid


#: Checkpoint paths holding something that is not a grid journal.
FOREIGN_FILES = [
    "{corrupt",
    '{"format": "something-else", "mine": 1}',
    "[1, 2]",
    '{"format": "repro-grid-checkpoint/2", "cells": {"d1": {}}}',
]


def make_result(sim="sim-alpha", workload="C-R"):
    return SimResult(sim, workload, cycles=100.0, instructions=50)


class TestJournal:
    def test_record_flush_load_round_trip(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        checkpoint.record("abc123", make_result())
        restored = GridCheckpoint(path).load()
        assert set(restored) == {"abc123"}
        assert restored["abc123"].cycles == 100.0

    def test_missing_file_is_empty(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "nope.ckpt")
        assert checkpoint.load() == {}
        assert checkpoint.get("anything") is None

    def test_corrupt_file_raises_not_discards(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(ValueError) as excinfo:
            GridCheckpoint(path).load()
        assert "corrupt" in str(excinfo.value)

    def test_wrong_format_raises(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        with pytest.raises(ValueError):
            GridCheckpoint(path).load()

    def test_load_detects_on_disk_conflict(self, tmp_path):
        """Two different measurements under one digest, one in memory
        and one on disk (a concurrent writer went insane), are refused
        rather than last-write-wins."""
        from repro.integrity.checkpoint import CheckpointConflict

        path = tmp_path / "grid.ckpt"
        GridCheckpoint(path).record("d1", make_result())
        mine = GridCheckpoint(path, every=10)  # defer the flush
        mine.record("d1", SimResult(
            "sim-alpha", "C-R", cycles=777.0, instructions=50
        ))
        with pytest.raises(CheckpointConflict):
            mine.load()

    def test_every_n_batches_flushes(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path, every=3)
        checkpoint.record("a", make_result(workload="C-R"))
        checkpoint.record("b", make_result(workload="E-I"))
        assert not os.path.exists(path)  # below the batch threshold
        checkpoint.record("c", make_result(workload="M-D"))
        assert os.path.exists(path)
        assert len(GridCheckpoint(path).load()) == 3

    def test_flush_merges_with_concurrent_writer(self, tmp_path):
        """Two journals over the same path extend each other rather
        than clobbering."""
        path = tmp_path / "grid.ckpt"
        first = GridCheckpoint(path)
        second = GridCheckpoint(path)
        first.record("a", make_result(workload="C-R"))
        second.record("b", make_result(workload="E-I"))
        merged = GridCheckpoint(path).load()
        assert set(merged) == {"a", "b"}

    def test_no_temp_droppings(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        for index in range(5):
            checkpoint.record(f"d{index}", make_result())
        leftovers = [
            name for name in os.listdir(tmp_path) if name != "grid.ckpt"
        ]
        assert leftovers == []

    def test_journal_is_always_valid_json(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        for index in range(3):
            checkpoint.record(f"d{index}", make_result())
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert payload["format"] == GridCheckpoint.FORMAT
            assert len(payload["cells"]) == index + 1


class TestGC:
    def test_age_pass_prunes_only_old_entries(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "grid.ckpt")
        checkpoint.record("old", make_result(workload="C-R"))
        checkpoint.record("new", make_result(workload="E-I"))
        checkpoint._recorded["old"] -= 3600.0
        pruned = checkpoint.gc(max_age_s=600.0)
        assert pruned == ["old"]
        assert set(GridCheckpoint(tmp_path / "grid.ckpt").load()) == {
            "new"
        }

    def test_live_set_pass_sheds_stale_digests(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "grid.ckpt")
        for digest in ("a", "b", "c"):
            checkpoint.record(digest, make_result())
        pruned = checkpoint.gc(live={"b"})
        assert pruned == ["a", "c"]
        assert set(GridCheckpoint(tmp_path / "grid.ckpt").load()) == {
            "b"
        }

    def test_no_criteria_is_a_rewrite_not_a_wipe(self, tmp_path):
        checkpoint = GridCheckpoint(tmp_path / "grid.ckpt")
        checkpoint.record("a", make_result())
        assert checkpoint.gc() == []
        assert len(GridCheckpoint(tmp_path / "grid.ckpt").load()) == 1

    def test_pruned_entries_stay_out_despite_merge(self, tmp_path):
        """gc must not merge the pruned entries straight back in from
        the on-disk copy it just read."""
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        checkpoint.record("a", make_result())
        checkpoint.record("b", make_result())
        fresh = GridCheckpoint(path)
        fresh.gc(live={"a"})
        assert set(GridCheckpoint(path).load()) == {"a"}

    def test_gc_preserves_concurrent_journal_entries(self, tmp_path):
        """gc's rewrite must merge cells another run journalled after
        our last read instead of clobbering them (flushing the stale
        in-memory view used to drop the concurrent cell silently)."""
        path = tmp_path / "grid.ckpt"
        mine = GridCheckpoint(path)
        mine.record("a", make_result())
        mine.load()
        other = GridCheckpoint(path)
        other.record("b", make_result())
        pruned = mine.gc(max_age_s=3600.0)
        assert pruned == []
        assert set(GridCheckpoint(path).load()) == {"a", "b"}

    def test_empty_live_set_prunes_every_entry(self, tmp_path):
        """An explicitly empty live set means nothing is live."""
        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        checkpoint.record("a", make_result())
        checkpoint.record("b", make_result())
        pruned = GridCheckpoint(path).gc(live=set())
        assert pruned == ["a", "b"]
        assert GridCheckpoint(path).load() == {}

    def test_v1_journal_loads_and_upgrades(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        payload = {
            "format": GridCheckpoint.FORMAT_V1,
            "cells": {"legacy": make_result().to_dict()},
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        checkpoint = GridCheckpoint(path)
        assert set(checkpoint.load()) == {"legacy"}
        # Pre-timestamp entries count as freshly recorded: an age pass
        # must not destroy them.
        assert checkpoint.gc(max_age_s=60.0) == []
        upgraded = json.loads(path.read_text(encoding="utf-8"))
        assert upgraded["format"] == GridCheckpoint.FORMAT
        assert "recorded" in upgraded["cells"]["legacy"]

    def test_pruned_journal_resumes_byte_identical(self, tmp_path):
        """GC half the journal, resume the grid: the recomputed cells
        must reproduce the uninterrupted serialisation exactly."""
        path = tmp_path / "grid.ckpt"
        uninterrupted = Harness().run_grid(
            [SimAlpha], ["C-Ca", "E-I"],
            RunOptions(checkpoint=GridCheckpoint(path)),
        )

        checkpoint = GridCheckpoint(path)
        full = checkpoint.load()
        survivor = sorted(full)[0]
        pruned = checkpoint.gc(live={survivor})
        assert len(pruned) == len(full) - 1

        resumed = Harness().run_grid(
            [SimAlpha], ["C-Ca", "E-I"],
            RunOptions(checkpoint=GridCheckpoint(path), resume=True),
        )
        assert resumed.to_json(canonical=True) == \
            uninterrupted.to_json(canonical=True)


class TestResume:
    WORKLOADS = ["C-Ca", "E-I"]

    def test_interrupted_grid_resumes_byte_identical(self, tmp_path):
        """Kill a grid midway (simulated by journalling only some
        cells), resume it, and require the canonical serialisation to
        match an uninterrupted run exactly."""
        path = tmp_path / "grid.ckpt"

        uninterrupted = Harness().run_grid(
            [SimAlpha], self.WORKLOADS,
            RunOptions(checkpoint=GridCheckpoint(tmp_path / "full.ckpt")),
        )

        # The "interrupted" journal holds only the first cell.
        full = GridCheckpoint(tmp_path / "full.ckpt").load()
        partial = GridCheckpoint(path)
        digest, result = sorted(full.items())[0]
        partial.record(digest, result)

        resumed = Harness().run_grid(
            [SimAlpha], self.WORKLOADS,
            RunOptions(checkpoint=GridCheckpoint(path), resume=True),
        )
        assert resumed.to_json(canonical=True) == \
            uninterrupted.to_json(canonical=True)

    def test_resume_skips_completed_cells(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        harness = Harness()
        harness.run_grid(
            [SimAlpha], self.WORKLOADS,
            RunOptions(checkpoint=GridCheckpoint(path)),
        )

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        resumed_harness = Harness(metrics=registry)
        grid = resumed_harness.run_grid(
            [SimAlpha], self.WORKLOADS,
            RunOptions(checkpoint=GridCheckpoint(path), resume=True),
        )
        assert sorted(grid.workloads()) == sorted(self.WORKLOADS)
        snap = registry.snapshot()
        assert snap["counters"]["exec.checkpoint.resumed"] == \
            len(self.WORKLOADS)

    def test_without_resume_flag_cells_recompute(self, tmp_path):
        path = tmp_path / "grid.ckpt"
        harness = Harness()
        harness.run_grid(
            [SimAlpha], ["C-Ca"],
            RunOptions(checkpoint=GridCheckpoint(path)),
        )

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        grid = Harness(metrics=registry).run_grid(
            [SimAlpha], ["C-Ca"],
            RunOptions(checkpoint=GridCheckpoint(path)),
        )
        assert grid.workloads() == ["C-Ca"]
        snap = registry.snapshot()
        assert "exec.checkpoint.resumed" not in snap["counters"]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("content", [
        "{corrupt",
        '{"format": "something-else", "cells": {}}',
    ], ids=["corrupt", "wrong-format"])
    def test_refused_journal_is_left_untouched(self, tmp_path, content,
                                               jobs):
        """A journal ``--resume`` cannot read raises, and stays on disk
        byte for byte: the grid must not flush an empty journal over
        the file it refused."""
        path = tmp_path / "grid.ckpt"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ValueError):
            Harness().run_grid(
                [SimAlpha], ["C-Ca"],
                RunOptions(checkpoint=str(path), resume=True, jobs=jobs),
            )
        assert path.read_text(encoding="utf-8") == content

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("content", FOREIGN_FILES,
                             ids=["corrupt", "foreign", "list",
                                  "bad-entry"])
    def test_no_cell_runs_over_a_foreign_file(self, tmp_path, content,
                                              resume, jobs):
        """Resuming or not, a checkpoint path holding something that is
        not a journal fails the grid before any cell runs, and the file
        is never recorded over."""
        from repro.obs import MetricsRegistry

        path = tmp_path / "grid.ckpt"
        path.write_text(content, encoding="utf-8")
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            Harness(metrics=registry).run_grid(
                [SimAlpha], ["C-Ca"],
                RunOptions(checkpoint=str(path), resume=resume, jobs=jobs),
            )
        assert path.read_text(encoding="utf-8") == content
        counters = registry.snapshot()["counters"]
        assert "exec.cells.completed" not in counters
        assert "exec.cells.launched" not in counters

    def test_harness_level_checkpoint_defaults(self, tmp_path):
        """The CLI configures checkpoint/resume on the harness; grids
        run without explicit arguments must still journal."""
        path = tmp_path / "grid.ckpt"
        harness = Harness(
            options=RunOptions(checkpoint=str(path), resume=True)
        )
        harness.run_grid([SimAlpha], ["C-Ca"])
        assert len(GridCheckpoint(path).load()) == 1


class TestDurability:
    def test_record_fsyncs_before_returning(self, tmp_path, monkeypatch):
        """A recorded cell must be durable (file fsync + rename +
        directory fsync) before record() returns — a resumed run skips
        every journaled cell, so a recorded cell must survive power
        loss."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = tmp_path / "grid.ckpt"
        GridCheckpoint(path).record("d1", make_result())
        # One fsync for the journal temp file, one for the directory.
        assert len(synced) >= 2
        assert len(GridCheckpoint(path).load()) == 1

    def test_record_with_batching_defers_fsync(self, tmp_path,
                                               monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        checkpoint = GridCheckpoint(tmp_path / "grid.ckpt", every=2)
        checkpoint.record("d1", make_result())
        assert synced == []  # below threshold: nothing durable yet
        checkpoint.record("d2", make_result(workload="E-I"))
        assert len(synced) >= 2
