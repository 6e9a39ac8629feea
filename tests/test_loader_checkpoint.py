"""Tests for the program loader and architectural checkpoints."""

import pytest

from repro.core.simalpha import SimAlpha
from repro.functional.checkpoint import (
    load_checkpoint,
    restore,
    save_checkpoint,
    snapshot,
)
from repro.functional.machine import FunctionalMachine
from repro.isa.assembler import assemble
from repro.isa.loader import load_program, program_digest, save_program
from repro.isa.program import ProgramBuilder
from repro.validation.harness import Harness
from repro.workloads.kernels import checksum
from repro.workloads.macro import SPEC2000_PROFILES, build_macro
from repro.workloads.micro import control_recursive
from repro.workloads.suite import WorkloadSet
from tests.test_canonical_lock import all_classes_kernel


def _fp_loop(mnemonic: str):
    return assemble(f"""
        lda r1, #100
    loop:
        {mnemonic} f3, f1, f2
        subq r1, r1, #1
        bne r1, loop
        halt
    """)


def _canonical_grid(program) -> str:
    workloads = WorkloadSet()
    workloads.register(program)
    grid = Harness(workloads).run_grid([SimAlpha], [program.name])
    return grid.to_json(canonical=True)


class TestLoader:
    def test_save_load_roundtrip(self, tmp_path):
        program = checksum(words=64)
        path = tmp_path / "checksum.img"
        digest = save_program(program, path)
        reloaded = load_program(path)
        assert program_digest(reloaded) == digest
        assert reloaded.name == program.name

    def test_digest_is_content_addressed(self):
        a = checksum(words=64)
        b = checksum(words=64)
        c = checksum(words=65)
        assert program_digest(a) == program_digest(b)
        assert program_digest(a) != program_digest(c)
        # One opcode apart, and sim-alpha times them 165 and 1,257
        # cycles: a shared digest would let one be served the other's
        # cached result.
        assert program_digest(_fp_loop("mult")) != program_digest(
            _fp_loop("divs")
        )

    def test_reloaded_program_times_identically(self, tmp_path):
        for program in (
            control_recursive(depth=50, outer=3),
            build_macro(SPEC2000_PROFILES["equake"]),
            all_classes_kernel(),
        ):
            path = tmp_path / f"{program.name}.img"
            save_program(program, path)
            reloaded = load_program(path)
            assert _canonical_grid(reloaded) == _canonical_grid(program)

    def test_grid_over_a_full_width_immediate(self):
        """An immediate in [2^63, 2^64) is a 64-bit pattern to the
        machine, and every grid keys its cells by the program's
        encoding."""
        b = ProgramBuilder("wide-imm")
        b.load_imm("r1", 2**64 - 8)
        b.halt()
        workloads = WorkloadSet()
        workloads.register(b.build())
        grid = Harness(workloads).run_grid([SimAlpha], ["wide-imm"])
        assert not grid.failures
        assert grid.get("sim-alpha", "wide-imm").instructions == 2


class TestCheckpoint:
    def _run_state(self):
        program = assemble("""
            lda r1, #42
            lda r2, #4096
            stq r1, 0(r2)
            halt
        """)
        machine = FunctionalMachine(program)
        machine.run()
        return machine.state

    def test_snapshot_restore_roundtrip(self):
        state = self._run_state()
        restored = restore(snapshot(state))
        assert restored.read_int("r1") == 42
        assert restored.memory.load_word(4096) == 42

    def test_file_roundtrip(self, tmp_path):
        state = self._run_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        restored = load_checkpoint(path)
        assert restored.read_int("r2") == 4096
        assert restored.memory.load_word(4096) == 42

    def test_restore_is_independent(self):
        state = self._run_state()
        restored = restore(snapshot(state))
        restored.write_int("r1", 0)
        restored.memory.store_word(4096, 0)
        assert state.read_int("r1") == 42
        assert state.memory.load_word(4096) == 42

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="not a checkpoint"):
            restore({"format": "something-else"})

    def test_fp_state_preserved(self):
        from repro.functional.machine import ArchState

        state = ArchState()
        state.write_fp("f3", 2.5)
        restored = restore(snapshot(state))
        assert restored.read_fp("f3") == 2.5
