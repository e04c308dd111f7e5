"""The pinned 48-plan analysis sweep (ISSUE acceptance criteria).

Every built-in format with a machine-word body (the paper's eight plus
the extended set, 12 formats) crossed with all four families must
analyze with **zero soundness violations**: for conforming keys, every
register's concrete value from the reference interpreter is admitted by
the analyzer's reduced-product abstraction.  On top of that the sweep
pins the entropy facts the paper predicts (the naive SSN funnel, the
AES and Pext non-funnels).
"""

import pytest

from repro.codegen.interp import interpret_registers
from repro.codegen.ir import build_ir, optimize_with_stats
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan
from repro.keygen import EXTENDED_KEY_TYPES, KEY_TYPES
from repro.verify.dataflow import analyze_dataflow, entropy_report

SPECS = {
    name: spec
    for name, spec in {**KEY_TYPES, **EXTENDED_KEY_TYPES}.items()
    if spec.length >= 8
}

KEYS_PER_PLAN = 25


def conforming_keys(spec):
    return [
        spec.encode((i * 9973) % spec.space_size)
        for i in range(KEYS_PER_PLAN)
    ]


def test_sweep_covers_48_plans():
    assert len(SPECS) * len(HashFamily) == 48


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("family", list(HashFamily), ids=lambda f: f.value)
def test_dataflow_sound_on_conforming_keys(name, family):
    """No register's concrete value escapes its abstract product."""
    spec = SPECS[name]
    pattern = pattern_from_regex(spec.regex)
    plan = build_plan(pattern, family)
    func = build_ir(plan)
    analysis = analyze_dataflow(func, pattern)
    violations = []
    for key in conforming_keys(spec):
        value, registers = interpret_registers(func, key)
        for register, concrete in registers.items():
            product = analysis.values.get(register)
            if product is not None and not product.admits(concrete):
                violations.append(
                    f"{name}/{family.value} {register}={concrete:#x} "
                    f"outside [{product.range.lo:#x}, "
                    f"{product.range.hi:#x}]"
                )
        assert analysis.ret is not None
        assert analysis.ret.admits(value)
    assert not violations, violations[:5]


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("family", list(HashFamily), ids=lambda f: f.value)
def test_optimized_ir_analyzes_soundly_too(name, family):
    """The rewritten IR is just as analyzable — and TV never rejects."""
    spec = SPECS[name]
    pattern = pattern_from_regex(spec.regex)
    plan = build_plan(pattern, family)
    func = build_ir(plan)
    optimized, stats = optimize_with_stats(func)
    assert stats["tv_rejected"] is False
    analysis = analyze_dataflow(optimized, pattern)
    for key in conforming_keys(spec)[:5]:
        value, registers = interpret_registers(optimized, key)
        assert analysis.ret is not None and analysis.ret.admits(value)
        for register, concrete in registers.items():
            product = analysis.values.get(register)
            assert product is None or product.admits(concrete)


class TestEntropyPins:
    def test_naive_ssn_funnels(self):
        """The paper's motivating defect: naive mixing loses SSN bits."""
        pattern = pattern_from_regex(KEY_TYPES["SSN"].regex)
        plan = build_plan(pattern, HashFamily.NAIVE)
        func = build_ir(plan)
        report = entropy_report(func, pattern)
        assert report.funneled_bits > 0
        assert report.avoidable_bits > 4.0

    def test_aes_ssn_does_not_lose_entropy(self):
        """AES funnels many bits into few but loses none (wide state)."""
        pattern = pattern_from_regex(KEY_TYPES["SSN"].regex)
        plan = build_plan(pattern, HashFamily.AES)
        func = build_ir(plan)
        report = entropy_report(func, pattern)
        assert report.avoidable_bits == 0.0
        assert report.lost_bits == 0.0

    def test_pext_ssn_is_funnel_free(self):
        pattern = pattern_from_regex(KEY_TYPES["SSN"].regex)
        plan = build_plan(pattern, HashFamily.PEXT)
        func = build_ir(plan)
        report = entropy_report(func, pattern)
        assert report.avoidable_bits == 0.0

