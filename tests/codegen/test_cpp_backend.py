"""Structural tests for the C++ backend (no C++ toolchain assumed)."""

from pathlib import Path

import pytest

from repro.codegen.cpp_backend import (
    CORE_FUNCTION,
    emit_cpp,
    emit_cpp_native,
    emit_skip_table_cpp,
    native_symbol,
    plan_isa_features,
    x86_jit_prelude,
)
from repro.core.synthesis import synthesize
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SkipTable,
    SynthesisPlan,
)
from repro.errors import SynthesisError


def make_plan(family=HashFamily.OFFXOR, combine=CombineOp.XOR, **overrides):
    defaults = dict(
        family=family,
        key_length=16,
        loads=(LoadOp(0), LoadOp(8)),
        skip_table=None,
        combine=combine,
        total_variable_bits=128,
        bijective=False,
        pattern_regex=r"\d{16}",
    )
    defaults.update(overrides)
    return SynthesisPlan(**defaults)


class TestHeaders:
    def test_x86_includes(self):
        source = emit_cpp(make_plan(), "x86")
        assert "#include <immintrin.h>" in source
        assert "#include <string>" in source

    def test_aarch64_includes(self):
        source = emit_cpp(make_plan(), "aarch64")
        assert "#include <arm_neon.h>" in source

    def test_format_in_comment(self):
        source = emit_cpp(make_plan(), "x86")
        assert r"\d{16}" in source

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            emit_cpp(make_plan(), "riscv")


class TestWordStruct:
    def test_struct_name_by_family(self):
        assert "struct synthesizedOffxorHash" in emit_cpp(make_plan())
        assert "struct synthesizedNaiveHash" in emit_cpp(
            make_plan(family=HashFamily.NAIVE)
        )

    def test_loads_present(self):
        source = emit_cpp(make_plan())
        assert "sepe_load_u64_le(ptr + 0)" in source
        assert "sepe_load_u64_le(ptr + 8)" in source

    def test_pext_intrinsic_and_mask(self):
        plan = make_plan(
            family=HashFamily.PEXT,
            loads=(LoadOp(0, mask=0x0F0F), LoadOp(8, mask=0x0F, shift=8)),
            combine=CombineOp.OR,
        )
        source = emit_cpp(plan, "x86")
        assert "_pext_u64" in source
        assert "0xf0f" in source
        assert "<<= 8" in source

    def test_pext_rejected_on_aarch64(self):
        plan = make_plan(family=HashFamily.PEXT)
        with pytest.raises(SynthesisError):
            emit_cpp(plan, "aarch64")

    def test_or_vs_xor_combine(self):
        assert " ^ " in emit_cpp(make_plan(combine=CombineOp.XOR))
        assert " | " in emit_cpp(make_plan(combine=CombineOp.OR))

    def test_partial_width_uses_memcpy(self):
        plan = make_plan(
            key_length=4,
            loads=(LoadOp(0, width=4),),
            short_key=True,
        )
        source = emit_cpp(plan)
        assert "std::memcpy(&h0, ptr + 0, 4)" in source

    def test_variable_length_tail_loop(self):
        table = SkipTable(initial_offset=0, skips=(8,))
        plan = make_plan(key_length=None, skip_table=table, loads=(LoadOp(0),))
        source = emit_cpp(plan)
        assert "while (p + 8 <= end)" in source


class TestAesStruct:
    def test_x86_aesenc(self):
        plan = make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)
        source = emit_cpp(plan, "x86")
        assert "_mm_aesenc_si128" in source
        assert "__m128i" in source

    def test_aarch64_neon_aes(self):
        plan = make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)
        source = emit_cpp(plan, "aarch64")
        assert "vaeseq_u8" in source
        assert "vaesmcq_u8" in source

    def test_odd_loads_duplicated(self):
        plan = make_plan(
            family=HashFamily.AES,
            combine=CombineOp.AESENC,
            loads=(LoadOp(0),),
            key_length=8,
        )
        source = emit_cpp(plan, "x86")
        # The single word at offset 0 appears twice in the absorbed pair.
        assert source.count("sepe_load_u64_le(ptr + 0)") == 2


class TestSkipTableEmission:
    def test_structure(self):
        table = SkipTable(initial_offset=4, skips=(8, 16, 8))
        plan = make_plan(key_length=None, skip_table=table, loads=(LoadOp(4),))
        source = emit_skip_table_cpp(plan)
        assert "sepe_skip[] = {4, 8, 16, 8}" in source
        assert "for (size_t c = 1; c <= 3; ++c)" in source

    def test_requires_table(self):
        with pytest.raises(SynthesisError):
            emit_skip_table_cpp(make_plan())


class TestBalancedOutput:
    @pytest.mark.parametrize("target", ["x86", "aarch64"])
    @pytest.mark.parametrize(
        "family", [HashFamily.NAIVE, HashFamily.OFFXOR, HashFamily.AES]
    )
    def test_braces_balanced(self, target, family):
        combine = (
            CombineOp.AESENC if family is HashFamily.AES else CombineOp.XOR
        )
        source = emit_cpp(make_plan(family=family, combine=combine), target)
        assert source.count("{") == source.count("}")
        assert source.count("(") == source.count(")")


SHIPPED_UNITS = Path(__file__).parent / "shipped_units"

# One plan per family (and the aarch64 Aes unit), chosen to cover the
# tail loop, pext with a rotate, and an odd load count for Aes.
SHIPPED_CASES = [
    ("naive", r"\d{8,24}", "x86"),
    ("offxor", r"\d{3}-\d{2}-\d{4}", "x86"),
    ("pext", r"[a-f0-9]{12}:[a-f0-9]{4,12}", "x86"),
    ("aes", r"([0-9a-f]{2}-){5}[0-9a-f]{2}", "x86"),
    ("aes", r"([0-9a-f]{2}-){5}[0-9a-f]{2}", "aarch64"),
]


class TestShippedUnitPinned:
    """``emit_cpp`` is what ``sepe keysynth`` ships and the paper
    figures show: its text is pinned byte for byte."""

    @pytest.mark.parametrize("family,regex,target", SHIPPED_CASES)
    def test_unit_unchanged(self, family, regex, target):
        plan = synthesize(regex, HashFamily(family)).plan
        expected = (SHIPPED_UNITS / f"{family}_{target}.cpp").read_text()
        assert emit_cpp(plan, target) == expected


class TestJitUnit:
    """``emit_cpp_native``: the same core behind a header-light prelude."""

    @pytest.mark.parametrize("family,regex,target", SHIPPED_CASES)
    def test_no_heavy_headers_and_no_functor(self, family, regex, target):
        plan = synthesize(regex, HashFamily(family)).plan
        source = emit_cpp_native([plan], target)
        symbol = native_symbol(plan)
        assert "#include <string>" not in source
        assert "struct synthesized" not in source
        assert f'extern "C" uint64_t {symbol}_hash(' in source
        assert f'extern "C" size_t {symbol}_hash_list(' in source
        if target == "x86":
            assert "immintrin" not in source
            assert "_mm_" not in source and "_pext_u64" not in source
        else:
            assert "#include <arm_neon.h>" in source

    @pytest.mark.parametrize("family,regex,target", SHIPPED_CASES)
    def test_core_shared_with_shipped_unit(self, family, regex, target):
        """Outside the prelude and the ISA spellings, both units hash
        with the same lines."""
        plan = synthesize(regex, HashFamily(family)).plan

        def core(source):
            body = source[source.index(f"uint64_t {CORE_FUNCTION}("):]
            return body[: body.index("\n}\n")]

        shipped, jit = core(emit_cpp(plan, target)), core(
            emit_cpp_native([plan], target)
        )
        spellings = [
            ("_pext_u64", "sepe_pext"),
            ("__m128i", "sepe_v2di"),
            ("_mm_set_epi64x", "sepe_set_epi64x"),
            ("_mm_aesenc_si128", "sepe_aesenc"),
        ]
        assert len(shipped.splitlines()) == len(jit.splitlines())
        for ours, theirs in spellings:
            assert shipped.count(ours) == jit.count(theirs)

    def test_prelude_helpers_follow_plan_features(self):
        word = emit_cpp_native([make_plan()])
        assert "__builtin_ia32" not in word
        pext = emit_cpp_native(
            [
                make_plan(
                    family=HashFamily.PEXT,
                    loads=(LoadOp(0, mask=0x0F0F), LoadOp(8)),
                )
            ]
        )
        assert "__builtin_ia32_pext_di" in pext
        assert "__builtin_ia32_aesenc128" not in pext
        aes = emit_cpp_native(
            [make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)]
        )
        assert "__builtin_ia32_aesenc128" in aes
        assert "__builtin_ia32_pext_di" not in aes

    def test_prelude_is_the_probe_prelude(self):
        plan = make_plan(family=HashFamily.AES, combine=CombineOp.AESENC)
        assert plan_isa_features(plan) == {"aes"}
        assert x86_jit_prelude({"aes"}) in emit_cpp_native([plan])
        assert "#include <" not in x86_jit_prelude({"aes", "pext"}).replace(
            "#include <cstddef>\n#include <cstdint>\n#include <cstring>\n",
            "",
        )

    def test_pext_still_rejected_on_aarch64(self):
        plan = make_plan(
            family=HashFamily.PEXT, loads=(LoadOp(0, mask=0x0F0F),)
        )
        with pytest.raises(SynthesisError):
            emit_cpp_native([plan], "aarch64")
