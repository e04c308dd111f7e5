"""Tests for translation validation of the IR optimizer."""

import pytest

from repro.codegen.ir import IRFunction, Instr, build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan
from repro.verify import translation_validate

SSN = r"[0-9]{3}-[0-9]{2}-[0-9]{4}"
FORMATS = [SSN, r"[0-9]{16}", r"[a-z]{3}-[0-9]{8}", r"[0-9]{8}[0-9]*"]


@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize("regex", FORMATS)
def test_optimize_validates_for_all_families(family, regex):
    """optimize() is proved semantics-preserving on every real plan."""
    pattern = pattern_from_regex(regex)
    plan = build_plan(pattern, family)
    func = build_ir(plan)
    assert translation_validate(func, optimize(func), pattern) is None


def test_catches_dropped_live_instruction():
    """A miscompiling optimizer (deleting live code) is refuted."""
    pattern = pattern_from_regex(SSN)
    func = build_ir(build_plan(pattern, HashFamily.PEXT))
    broken = IRFunction(name=func.name, plan=func.plan)
    # Drop the second-to-last non-ret instruction: its consumers now
    # reference a stale register or the return value changes.
    body = [instr for instr in func.instrs if instr.opcode != "ret"]
    victim = body[-1]
    broken.instrs = [
        instr for instr in func.instrs if instr is not victim
    ]
    mismatch = translation_validate(func, broken, pattern)
    assert mismatch is not None


def test_catches_changed_constant():
    pattern = pattern_from_regex(SSN)
    func = build_ir(build_plan(pattern, HashFamily.PEXT))
    twisted = IRFunction(name=func.name, plan=func.plan)
    twisted.instrs = [
        Instr("pext", instr.dest, (instr.args[0], instr.args[1] ^ 0x10))
        if instr.opcode == "pext"
        else instr
        for instr in func.instrs
    ]
    assert translation_validate(func, twisted, pattern) is not None


def test_validates_without_pattern():
    """Pattern-free TV still works (pure provenance comparison)."""
    func = build_ir(
        build_plan(pattern_from_regex(SSN), HashFamily.OFFXOR)
    )
    assert translation_validate(func, optimize(func)) is None


def test_reports_analysis_failure_of_broken_rewrite():
    func = build_ir(
        build_plan(pattern_from_regex(SSN), HashFamily.OFFXOR)
    )
    broken = IRFunction(name=func.name, plan=func.plan)
    broken.instrs = [Instr("mystery", "t0", ()), Instr("ret", "", ("t0",))]
    mismatch = translation_validate(func, broken)
    assert mismatch is not None and "abstract interpretation" in mismatch


def test_reports_analysis_failure_of_bad_load_width():
    """A nine-byte load is malformed IR, reported rather than raised."""
    func = build_ir(
        build_plan(pattern_from_regex(SSN), HashFamily.OFFXOR)
    )
    broken = IRFunction(name=func.name, plan=func.plan)
    broken.instrs = [Instr("load64", "t0", (0, 9)), Instr("ret", "", ("t0",))]
    mismatch = translation_validate(func, broken)
    assert mismatch is not None and "abstract interpretation" in mismatch
