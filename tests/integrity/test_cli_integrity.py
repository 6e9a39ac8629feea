"""CLI integrity surface: flags, exit codes, and the integrity
subcommand."""

import pytest

from repro.integrity.sanitizers import IntegrityError, InvariantViolation
from repro.validation.cli import main
from repro.validation.harness import CellFailure


def fake_experiment(kind="invariant"):
    """An experiment stub that leaves one failed cell on the harness."""

    def runner(quick, engine):
        engine["harness"].failed_cells.append(CellFailure(
            simulator="sim-alpha", workload="M-M", kind=kind,
            message="ipc_bound: IPC 50 outside (0, 11]",
        ))
        return "stub table"

    return runner


def strict_experiment(quick, engine):
    raise IntegrityError(InvariantViolation(
        invariant="cycle_monotonicity",
        message="retire went backwards",
        simulator="sim-alpha", workload="M-M",
    ))


class TestExitCodes:
    def test_failed_cells_exit_3(self, monkeypatch, capsys):
        import repro.validation.cli as cli

        monkeypatch.setitem(cli._EXPERIMENTS, "table2", fake_experiment())
        assert main(["table2", "--sanitize"]) == 3
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "sim-alpha on M-M: invariant" in err

    def test_strict_violation_exits_4(self, monkeypatch, capsys):
        import repro.validation.cli as cli

        monkeypatch.setitem(cli._EXPERIMENTS, "table2", strict_experiment)
        assert main(["table2", "--strict"]) == 4
        err = capsys.readouterr().err
        assert "cycle_monotonicity" in err

    def test_clean_run_exits_0(self, capsys):
        assert main(["table1"]) == 0


class TestFlagValidation:
    def test_resume_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])

    def test_stuck_after_must_be_positive(self):
        with pytest.raises(SystemExit):
            main(["table1", "--stuck-after", "0"])

    def test_sanitize_flags_reach_the_harness(self, monkeypatch):
        import repro.validation.cli as cli

        seen = {}

        def spy(quick, engine):
            harness = engine["harness"]
            seen["enabled"] = harness.sanitizers.enabled
            seen["strict"] = harness.sanitizers.strict
            seen["watchdog_s"] = harness.options.watchdog_s
            seen["checkpoint"] = harness.options.checkpoint
            seen["resume"] = harness.options.resume
            return "stub"

        monkeypatch.setitem(cli._EXPERIMENTS, "table2", spy)
        assert main([
            "table2", "--strict", "--stuck-after", "45",
            "--checkpoint", "/tmp/j.ckpt", "--resume",
        ]) == 0
        assert seen == {
            "enabled": True, "strict": True, "watchdog_s": 45.0,
            "checkpoint": "/tmp/j.ckpt", "resume": True,
        }

    def test_default_harness_has_integrity_off(self, monkeypatch):
        import repro.validation.cli as cli

        seen = {}

        def spy(quick, engine):
            harness = engine["harness"]
            seen["enabled"] = harness.sanitizers.enabled
            seen["watchdog_s"] = harness.options.watchdog_s
            return "stub"

        monkeypatch.setitem(cli._EXPERIMENTS, "table2", spy)
        assert main(["table2"]) == 0
        assert seen == {"enabled": False, "watchdog_s": None}


class TestIntegritySubcommand:
    def test_quick_matrix_runs_clean(self, capsys):
        assert main(["integrity", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "all faults detected; control clean" in out
        assert "maf_oversubscribe" in out

    def test_detection_failure_is_nonzero(self, monkeypatch, capsys):
        from repro.integrity import faultinject
        from repro.integrity.faultinject import Detection, DetectionMatrix

        def missing_matrix(workload="M-M", **kwargs):
            matrix = DetectionMatrix(workload=workload)
            matrix.rows.append(Detection(
                fault="control", description="", detected=False,
            ))
            matrix.rows.append(Detection(
                fault="cycle_skew", description="", detected=False,
            ))
            return matrix

        monkeypatch.setattr(
            faultinject, "run_detection_matrix", missing_matrix
        )
        assert main(["integrity", "--quick"]) == 1
        assert "SILENT CORRUPTIONS" in capsys.readouterr().out

    def test_sweep_flag_prints_coverage_report(self, monkeypatch, capsys):
        from repro.integrity import faultinject
        from repro.integrity.faultinject import Detection, DetectionMatrix

        seen = {}

        def fake_sweep(*, families=None, include_pool_faults=True,
                       **kwargs):
            seen["families"] = families
            seen["pool"] = include_pool_faults
            matrix = DetectionMatrix(workload="sweep")
            matrix.rows.append(Detection(
                fault="dram_row_overcount", description="",
                detected=True,
                channels=["invariant:dram_row_accounting"],
                expected_channel=True,
                workload="M-BANK", family="dram",
            ))
            return matrix

        monkeypatch.setattr(
            faultinject, "run_detection_sweep", fake_sweep
        )
        assert main(["integrity", "--sweep", "--families",
                     "dram,memory"]) == 0
        out = capsys.readouterr().out
        assert "Detection coverage" in out
        assert "1/1✓" in out
        assert seen == {"families": ["dram", "memory"], "pool": True}

    def test_sweep_rejects_unknown_family(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["integrity", "--sweep", "--families", "cache"])
        assert excinfo.value.code == 2
        assert "unknown workload family" in capsys.readouterr().err


class TestCheckpointFlag:
    @pytest.mark.parametrize("resume", [False, True])
    @pytest.mark.parametrize("content", [
        "{corrupt", '{"format": "something-else", "mine": 1}', "[1, 2]",
        '{"format": "repro-grid-checkpoint/2", "cells": {"d1": {}}}',
    ], ids=["corrupt", "foreign", "list", "bad-entry"])
    def test_foreign_file_is_a_usage_error(self, tmp_path, capsys,
                                           monkeypatch, content, resume):
        """``--checkpoint FILE`` over something that is not a journal
        prints one line and exits 2, before any cell runs, and leaves
        FILE byte-identical, with or without ``--resume``."""
        import repro.exec.engine as engine

        ran = []
        real_run_cell = engine.run_cell

        def run_cell(factory, workload, *args, **kwargs):
            ran.append(workload)
            return real_run_cell(factory, workload, *args, **kwargs)

        monkeypatch.setattr(engine, "run_cell", run_cell)
        path = tmp_path / "grid.ckpt"
        path.write_text(content, encoding="utf-8")
        argv = ["table2", "--quick", "--checkpoint", str(path)]
        assert main(argv + (["--resume"] if resume else [])) == 2
        assert ran == []
        assert path.read_text(encoding="utf-8") == content
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert str(path) in err


class TestCheckpointGcSubcommand:
    def _journal(self, tmp_path, *digests):
        from repro.integrity.checkpoint import GridCheckpoint
        from repro.result import SimResult

        path = tmp_path / "grid.ckpt"
        checkpoint = GridCheckpoint(path)
        for digest in digests:
            checkpoint.record(
                digest, SimResult("s", "C-R", cycles=1.0, instructions=1)
            )
        return path, checkpoint

    def test_age_pass_prunes_and_reports(self, tmp_path, capsys):
        path, checkpoint = self._journal(tmp_path, "old", "new")
        checkpoint._recorded["old"] -= 7200.0
        checkpoint.flush()
        assert main([
            "checkpoint-gc", str(path), "--gc-max-age", "3600",
        ]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 of 2 entries, 1 kept" in out

    def test_journal_path_via_checkpoint_flag(self, tmp_path, capsys):
        path, _ = self._journal(tmp_path, "a")
        assert main([
            "checkpoint-gc", "--checkpoint", str(path),
        ]) == 0
        assert "pruned 0 of 1 entries, 1 kept" in capsys.readouterr().out

    def test_missing_path_is_an_error(self):
        with pytest.raises(SystemExit):
            main(["checkpoint-gc"])

    def test_corrupt_journal_exits_2(self, tmp_path, capsys):
        path = tmp_path / "grid.ckpt"
        path.write_text("{truncated", encoding="utf-8")
        assert main(["checkpoint-gc", str(path)]) == 2
        assert "corrupt" in capsys.readouterr().err
