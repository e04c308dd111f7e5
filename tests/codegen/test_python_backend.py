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
from repro.keygen import Distribution, KeyGenerator, key_spec
from repro.keygen.keyspec import KEY_TYPES
from repro.perfect import rq_closed_set, synthesize_perfect
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


def _fast_path(source):
    """The ``try`` body of a tabulated function, or None for the gather
    form."""
    function = ast.parse(source).body[0]
    tries = [node for node in function.body if isinstance(node, ast.Try)]
    return tries[0].body if tries else None


def _varying_positions(name):
    """Key bytes that differ across conforming keys: the bytes a Pext
    plan keeps bits of."""
    keys = KeyGenerator(
        key_spec(name), Distribution.UNIFORM, seed=3
    ).distinct_pool(500)
    return {
        position
        for position in range(len(keys[0]))
        if len({key[position] for key in keys}) > 1
    }


@pytest.fixture(scope="module")
def perfect_mac_plan():
    return synthesize_perfect(rq_closed_set("MAC", 1000, seed=0)).plan


class TestFusedLowering:
    @pytest.mark.parametrize("name", ["SSN", "IPV4"])
    def test_pext_is_one_lookup_per_live_byte(self, name):
        """Table form: the fast path subscripts one table by each live
        key byte, once, with no call (no ``_ifb``) and no shift."""
        plan = synthesize(KEY_TYPES[name].regex, HashFamily.PEXT).plan
        source = emit_python(optimize(build_ir(plan, name="f")))
        fast = _fast_path(source)
        assert fast is not None
        nodes = [node for stmt in fast for node in ast.walk(stmt)]
        assert not any(isinstance(node, ast.Call) for node in nodes)
        assert not any(
            isinstance(node, ast.BinOp)
            and isinstance(node.op, (ast.LShift, ast.RShift))
            for node in nodes
        )
        lookups = [
            node
            for node in nodes
            if isinstance(node, ast.Subscript)
            and node.value.id.startswith("_t")
        ]
        positions = [lookup.slice.slice.value for lookup in lookups]
        assert sorted(positions) == sorted(_varying_positions(name))
        assert all(
            lookup.slice.value.id == "key" for lookup in lookups
        )

    @pytest.mark.parametrize(
        "name, family",
        [
            ("SSN", HashFamily.OFFXOR),
            ("IPV4", HashFamily.OFFXOR),
            ("MAC", HashFamily.OFFXOR),
            ("URL1", HashFamily.PEXT),
        ],
    )
    def test_few_gathers_over_many_bytes_keep_the_gather_form(
        self, name, family
    ):
        """Tables pay only when live bytes are fewer than twice the
        gathers plus windows; these plans have 2-4 gathers over 11-20
        live bytes."""
        plan = synthesize(KEY_TYPES[name].regex, family).plan
        source = emit_python(optimize(build_ir(plan, name="f")))
        assert _fast_path(source) is None
        assert "_t0" not in source
        gathers = [
            _gather_distance(node.left)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)
        ]
        assert len(gathers) == len(set(gathers))
        assert set(_calls(source)) == {"_ifb"}

    @pytest.mark.parametrize("name", ["SSN", "IPV4", "MAC", "perfect MAC"])
    def test_tabulated_short_keys_match_interpreter(
        self, name, perfect_mac_plan
    ):
        """A key shorter than the last live byte takes the zero-filled
        rerun; every length from empty to three bytes past the plan's,
        as bytes, bytearray and memoryview, matches the interpreter."""
        plan = (
            perfect_mac_plan
            if name == "perfect MAC"
            else synthesize(KEY_TYPES[name].regex, HashFamily.PEXT).plan
        )
        func = optimize(build_ir(plan, name="f"))
        source = emit_python(func)
        assert _fast_path(source) is not None
        function = compile_source(source, "f")
        spec = key_spec(name.split()[-1])
        data = KeyGenerator(spec, Distribution.UNIFORM, seed=5).distinct_pool(
            1
        )[0] + b"\x81\xff\x07"
        for length in range(plan.key_length + 4):
            key = data[:length]
            expected = interpret(func, key)
            for view in (key, bytearray(key), memoryview(key)):
                assert function(view) == expected, (length, type(view))

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
