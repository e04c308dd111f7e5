"""Tests for the Python code generation backend."""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.codegen.python_backend import (
    LOAD_WINDOW_BYTES,
    _pext_expression,
    compile_plan,
    compile_source,
    emit_python,
)
from repro.core.synthesis import synthesize
from repro.keygen.keyspec import KEY_TYPES
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SkipTable,
    SynthesisPlan,
)
from repro.isa.bits import MASK64, pext

u64 = st.integers(min_value=0, max_value=MASK64)


def make_plan(loads, combine=CombineOp.XOR, key_length=16, skip_table=None):
    return SynthesisPlan(
        family=HashFamily.PEXT,
        key_length=key_length,
        loads=tuple(loads),
        skip_table=skip_table,
        combine=combine,
        total_variable_bits=0,
        bijective=False,
    )


class TestPextExpression:
    @given(u64, u64)
    @settings(max_examples=100)
    def test_equivalent_to_reference_pext(self, src, mask):
        expression = _pext_expression("x", mask)
        value = eval(expression, {"x": src})
        assert value == pext(src, mask)

    def test_zero_mask(self):
        assert _pext_expression("x", 0) == "0"

    def test_single_low_run_is_simple_and(self):
        assert _pext_expression("x", 0xFF) == "(x & 0xff)"

    def test_one_shift_and_one_and_per_run(self):
        assert (
            _pext_expression("x", 0x0F0F) == "(x & 0xf) | ((x >> 4) & 0xf0)"
        )


def _gather_distance(node):
    """Shift distance of a gather's left operand: ``_w`` is 0, ``_w >> d``
    is ``d``, ``_w << d`` is ``-d``."""
    if isinstance(node, ast.Name):
        return node.id, 0
    assert isinstance(node, ast.BinOp) and isinstance(node.left, ast.Name)
    amount = node.right.value
    sign = 1 if isinstance(node.op, ast.RShift) else -1
    return node.left.id, sign * amount


def _calls(source):
    return [
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
    ]


class TestFusedLowering:
    @pytest.mark.parametrize("name", ["SSN", "IPV4"])
    def test_pext_is_one_load_and_one_gather_per_distance(self, name):
        plan = synthesize(KEY_TYPES[name].regex, HashFamily.PEXT).plan
        source = emit_python(optimize(build_ir(plan, name="f")))
        assert _calls(source) == ["_ifb"]
        gathers = [
            _gather_distance(node.left)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
        ]
        assert gathers
        assert len(gathers) == len(set(gathers))

    def test_window_is_capped(self):
        plan = make_plan([LoadOp(offset) for offset in (0, 8, 16, 24)],
                         key_length=32)
        source = emit_python(optimize(build_ir(plan, name="f")))
        assert _calls(source).count("_ifb") == 32 // LOAD_WINDOW_BYTES
        key = bytes(range(7, 39))
        assert compile_source(source, "f")(key) == interpret(
            optimize(build_ir(plan, name="f")), key
        )

    def test_overlapping_or_is_materialized(self):
        """``or`` of operands that may share bits is not an xor: both
        sides are materialized and or-ed as written."""
        plan = make_plan(
            [LoadOp(0, mask=0xFF), LoadOp(1, mask=0xFF00)],
            combine=CombineOp.OR,
        )
        func = optimize(build_ir(plan, name="f"))
        function = compile_source(emit_python(func), "f")
        for key in (b"\x0f\xf0" + bytes(14), b"\xff" * 16, bytes(16)):
            assert function(key) == interpret(func, key)


class TestEmitPython:
    def test_compiles_and_runs(self):
        plan = make_plan([LoadOp(0), LoadOp(8)])
        function = compile_plan(plan, name="f")
        key = bytes(range(16))
        expected = int.from_bytes(key[0:8], "little") ^ int.from_bytes(
            key[8:16], "little"
        )
        assert function(key) == expected

    def test_or_combine(self):
        plan = make_plan(
            [LoadOp(0, mask=0x0F), LoadOp(8, mask=0x0F, shift=4)],
            combine=CombineOp.OR,
        )
        function = compile_plan(plan, name="f")
        key = b"\x05" + b"\x00" * 7 + b"\x09" + b"\x00" * 7
        assert function(key) == 0x95

    def test_rotation(self):
        plan = make_plan([LoadOp(0, rotate=8), LoadOp(8)])
        function = compile_plan(plan, name="f")
        key = b"\x01" + b"\x00" * 15
        assert function(key) == (1 << 8)

    def test_partial_width_load(self):
        plan = SynthesisPlan(
            family=HashFamily.NAIVE,
            key_length=4,
            loads=(LoadOp(0, width=4),),
            skip_table=None,
            combine=CombineOp.XOR,
            total_variable_bits=32,
            bijective=True,
            short_key=True,
        )
        function = compile_plan(plan, name="f")
        assert function(b"\x01\x02\x03\x04") == 0x04030201

    def test_tail_loop_semantics(self):
        table = SkipTable(initial_offset=0, skips=(8,))
        plan = make_plan(
            [LoadOp(0)], key_length=None, skip_table=table
        )
        function = compile_plan(plan, name="f")
        key = bytes(range(1, 21))  # 20 bytes: word + word + 4-byte tail
        expected = (
            int.from_bytes(key[0:8], "little")
            ^ int.from_bytes(key[8:16], "little")
            ^ int.from_bytes(key[16:20], "little")
        )
        assert function(key) == expected

    def test_aes_emitted_inline(self):
        plan = make_plan([LoadOp(0), LoadOp(8)], combine=CombineOp.AESENC)
        func = optimize(build_ir(plan, name="f"))
        source = emit_python(func)
        assert "_T0[" in source  # inline T-table gathers, no helper call
        function = compile_source(source, "f")
        assert 0 <= function(bytes(16)) <= MASK64

    def test_aes_inline_matches_reference_round(self):
        """The inline T-table emission equals aesenc on the same state."""
        from repro.codegen.ir import AES_INITIAL_STATE, AES_ROUND_KEY
        from repro.isa.aes import aesenc

        plan = make_plan([LoadOp(0), LoadOp(8)], combine=CombineOp.AESENC)
        function = compile_plan(plan, name="f")
        key = bytes(range(16))
        lo = int.from_bytes(key[0:8], "little")
        hi = int.from_bytes(key[8:16], "little")
        state = aesenc(
            AES_INITIAL_STATE ^ (lo | (hi << 64)), AES_ROUND_KEY
        )
        expected = (state ^ (state >> 64)) & MASK64
        assert function(key) == expected

    def test_docstring_embeds_family_and_format(self):
        plan = SynthesisPlan(
            family=HashFamily.OFFXOR,
            key_length=16,
            loads=(LoadOp(0),),
            skip_table=None,
            combine=CombineOp.XOR,
            total_variable_bits=1,
            bijective=False,
            pattern_regex=r"\d{16}",
        )
        source = emit_python(optimize(build_ir(plan, name="f")))
        assert "offxor" in source
        assert r"\\d{16}" in source or r"\d{16}" in source

    def test_unknown_opcode_rejected(self):
        from repro.codegen.ir import IRFunction, Instr

        func = IRFunction("f", make_plan([LoadOp(0)]))
        func.instrs.append(Instr("bogus", "x", ()))
        func.emit_ret("x")
        with pytest.raises(ValueError):
            emit_python(func)

    def test_missing_ret_rejected(self):
        from repro.codegen.ir import IRFunction

        func = IRFunction("f", make_plan([LoadOp(0)]))
        func.emit("const", (1,))
        with pytest.raises(ValueError):
            emit_python(func)

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_generated_matches_plan_semantics(self, key):
        """The generated function equals a direct interpretation of the
        plan, for random keys."""
        masks = [0x0F0F0F0F0F0F0F0F, 0xF0F0F0F0F0F0F0F0]
        plan = make_plan(
            [
                LoadOp(0, mask=masks[0]),
                LoadOp(8, mask=masks[1], shift=32),
            ],
            combine=CombineOp.XOR,
        )
        function = compile_plan(plan, name="f")
        w0 = int.from_bytes(key[0:8], "little")
        w1 = int.from_bytes(key[8:16], "little")
        expected = pext(w0, masks[0]) ^ (
            (pext(w1, masks[1]) << 32) & MASK64
        )
        assert function(key) == expected
