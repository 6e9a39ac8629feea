"""Equivalence lock for the precomputed per-class and per-opcode facts.

The timing models read every static instruction fact from plain
attributes (and per-simulator tables) derived once at import.  Each is
checked here against a reference derivation written the way the facts
used to be computed on every access, so the precomputation cannot
drift from the definitions.
"""

import pytest

from repro.core import pipeline
from repro.core.bugs import BugSet
from repro.core.config import MachineConfig
from repro.isa.instructions import LATENCY, InstrClass, Opcode
from repro.simulators import simoutorder

C = InstrClass

_LOADS = (C.INT_LOAD, C.FP_LOAD)
_STORES = (C.INT_STORE, C.FP_STORE)
_CONTROL = (C.COND_BRANCH, C.UNCOND_BRANCH, C.CALL, C.RETURN, C.JUMP)
_FP = (
    C.FP_ADD, C.FP_MUL, C.FP_DIV_S, C.FP_DIV_D, C.FP_SQRT_S, C.FP_SQRT_D,
    C.FP_LOAD, C.FP_STORE,
)
_DIV = (C.FP_DIV_S, C.FP_DIV_D, C.FP_SQRT_S, C.FP_SQRT_D)


def reference_class_facts(klass):
    is_load = klass in _LOADS
    is_store = klass in _STORES
    is_fp = klass in _FP
    return {
        "is_load": is_load,
        "is_store": is_store,
        "is_memory": is_load or is_store,
        "is_control": klass in _CONTROL,
        "is_fp": is_fp,
        "is_fp_operate": is_fp and not (is_load or is_store),
        "is_indirect_control": klass in (C.RETURN, C.JUMP),
    }


def reference_unit_need(klass):
    """The 21264 pipeline's capability bit, as it was computed per
    dynamic instruction."""
    facts = reference_class_facts(klass)
    if klass is C.INT_MUL:
        return pipeline._MUL
    if facts["is_memory"] and not facts["is_fp"]:
        return pipeline._MEM
    if klass is C.FP_LOAD or klass is C.FP_STORE:
        return pipeline._MEM
    if facts["is_control"]:
        return pipeline._BR
    if klass is C.FP_ADD:
        return pipeline._FADD
    if klass is C.FP_MUL:
        return pipeline._FMUL
    if klass in _DIV:
        return pipeline._FDIV
    return pipeline._ALU


def reference_outorder_pool(klass):
    """sim-outorder's unit kind, as its per-instruction closure chose it
    (pool order: ialu, imult, falu, fmult)."""
    facts = reference_class_facts(klass)
    if klass is C.INT_MUL:
        return 1
    if klass in (C.FP_MUL,) + _DIV:
        return 3
    if facts["is_fp"] and not facts["is_memory"]:
        return 2
    return 0


@pytest.mark.parametrize("klass", list(InstrClass), ids=lambda k: k.name)
def test_class_facts_match_reference(klass):
    for name, expected in reference_class_facts(klass).items():
        assert getattr(klass, name) is expected, name


def test_ordinals_are_dense_in_declaration_order():
    assert [k.ordinal for k in InstrClass] == list(range(len(InstrClass)))


@pytest.mark.parametrize("opcode", list(Opcode), ids=lambda o: o.name)
def test_opcode_facts_match_reference(opcode):
    assert opcode.latency == LATENCY[opcode.klass]
    assert opcode.reads_dest is (
        opcode in (Opcode.CMOVEQ, Opcode.CMOVNE)
    )


def test_no_fact_is_a_property():
    for cls in (InstrClass, Opcode):
        assert not [
            name for name, value in vars(cls).items()
            if isinstance(value, property)
        ]


@pytest.mark.parametrize("klass", list(InstrClass), ids=lambda k: k.name)
def test_pipeline_unit_table_matches_reference(klass):
    assert pipeline._UNIT_NEED[klass.ordinal] == reference_unit_need(klass)


@pytest.mark.parametrize("klass", list(InstrClass), ids=lambda k: k.name)
def test_outorder_pool_table_matches_reference(klass):
    assert simoutorder._POOL[klass.ordinal] == reference_outorder_pool(klass)


@pytest.mark.parametrize("wrong_fu_mix", [False, True])
def test_every_class_has_a_capable_unit(wrong_fu_mix):
    """The pipeline scans only the units whose capability matches, so
    every class needs one in both unit layouts (the generic-resource
    bug's included)."""
    p = pipeline.AlphaPipeline(
        MachineConfig(bugs=BugSet(wrong_fu_mix=wrong_fu_mix))
    )
    for klass in InstrClass:
        units = p._fp_units if klass.is_fp_operate else p._units
        assert any(
            unit[0] & pipeline._UNIT_NEED[klass.ordinal] for unit in units
        ), klass
