"""Tests for the bit-level abstract interpreter."""

import pytest

from repro.codegen.interp import interpret
from repro.codegen.ir import Instr, IRFunction, build_ir
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SynthesisPlan,
)
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan
from repro.core.validate import sample_conforming_keys
from repro.errors import VerificationError
from repro.verify.absint import (
    EMPTY,
    MASK64,
    TAIL,
    AbstractValue,
    analyze_ir,
    const_value,
    seed_load,
)

SSN = r"[0-9]{3}-[0-9]{2}-[0-9]{4}"


def offxor_plan(**overrides):
    defaults = dict(
        family=HashFamily.OFFXOR,
        key_length=16,
        loads=(LoadOp(0), LoadOp(8)),
        skip_table=None,
        combine=CombineOp.XOR,
        total_variable_bits=128,
        bijective=False,
    )
    defaults.update(overrides)
    return SynthesisPlan(**defaults)


class TestAbstractValue:
    def test_const_is_fully_known(self):
        value = const_value(0xDEAD)
        assert value.is_const
        assert value.value == 0xDEAD
        assert value.known == MASK64

    def test_const_over_64_bits_widens(self):
        value = const_value(1 << 100)
        assert value.width == 128
        assert value.is_const

    def test_conflicting_known_bits_rejected(self):
        with pytest.raises(ValueError):
            AbstractValue(zeros=1, ones=1, prov=(EMPTY,) * 64)

    def test_admits(self):
        value = const_value(0b1010)
        assert value.admits(0b1010)
        assert not value.admits(0b1000)

    def test_influence_unions_bits(self):
        prov = [EMPTY] * 64
        prov[0] = frozenset((3,))
        prov[1] = frozenset((9, TAIL))
        value = AbstractValue(0, 0, tuple(prov))
        assert value.influence() == {3, 9, TAIL}


class TestSeedLoad:
    def test_digit_byte_splits_known_and_variable(self):
        pattern = pattern_from_regex(r"[0-9]{8}")
        value = seed_load(pattern, 0, 8)
        # ASCII digits 0x30-0x39: the quad lattice fixes bits 4-7 of
        # each byte (0x30) and leaves bits 0-3 variable.
        for byte in range(8):
            assert (value.ones >> (8 * byte)) & 0xFF == 0x30
            assert value.prov[8 * byte] == frozenset((8 * byte,))
            assert value.prov[8 * byte + 5] == EMPTY

    def test_bits_past_load_width_are_zero(self):
        pattern = pattern_from_regex(r"[0-9]{8}")
        value = seed_load(pattern, 0, 4)
        assert value.zeros >> 32 == (1 << 32) - 1

    def test_bytes_past_pattern_become_tail(self):
        pattern = pattern_from_regex(r"[0-9]{8}")
        value = seed_load(pattern, 4, 8)
        assert TAIL in value.prov[32]

    def test_no_pattern_is_fully_unknown(self):
        value = seed_load(None, 0, 8)
        assert value.known == 0
        assert value.prov[13] == frozenset((13,))

    @pytest.mark.parametrize("width", [0, 9])
    def test_width_outside_one_word_rejected(self, width):
        with pytest.raises(VerificationError, match="width"):
            seed_load(pattern_from_regex(r"[0-9]{16}"), 0, width)


class TestAnalyzeIr:
    def test_stops_at_first_ret(self):
        func = IRFunction("f", offxor_plan())
        a = func.emit("const", (1,))
        func.emit_ret(a)
        b = func.emit("const", (2,))
        func.emit_ret(b)
        result = analyze_ir(func)
        assert result.ret is not None
        assert result.ret.value == 1

    def test_undefined_register_rejected(self):
        func = IRFunction("f", offxor_plan())
        func.emit("shl", ("ghost", 3))
        with pytest.raises(VerificationError):
            analyze_ir(func)

    def test_unknown_opcode_rejected(self):
        func = IRFunction("f", offxor_plan())
        func.instrs.append(Instr("mystery", "t0", ()))
        with pytest.raises(VerificationError):
            analyze_ir(func)

    def test_xor_with_self_is_zero(self):
        func = IRFunction("f", offxor_plan())
        word = func.emit("load64", (0, 8))
        gone = func.emit("xor", (word, word))
        func.emit_ret(gone)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert result.ret.is_const and result.ret.value == 0

    def test_or_with_self_is_identity(self):
        func = IRFunction("f", offxor_plan())
        word = func.emit("load64", (0, 8))
        same = func.emit("or", (word, word))
        func.emit_ret(same)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert result.ret == result.values[word]

    def test_known_one_pins_or_output(self):
        func = IRFunction("f", offxor_plan())
        word = func.emit("load64", (0, 8))
        ones = func.emit("const", (MASK64,))
        pinned = func.emit("or", (word, ones))
        func.emit_ret(pinned)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert result.ret.is_const
        assert result.ret.influence() == frozenset()

    def test_tail_xor_taints_every_bit(self):
        func = IRFunction("f", offxor_plan(key_length=None,
                                           loads=(LoadOp(0),),
                                           skip_table=None))
        word = func.emit("load64", (0, 8))
        acc = func.emit("tail_xor", (word, 8))
        func.emit_ret(acc)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert all(TAIL in entry for entry in result.ret.prov)

    def test_mul_by_zero_is_const(self):
        func = IRFunction("f", offxor_plan())
        word = func.emit("load64", (0, 8))
        zero = func.emit("mul64", (word, 0))
        func.emit_ret(zero)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert result.ret.is_const and result.ret.value == 0

    def test_aes_state_is_128_bits(self):
        plan = build_plan(pattern_from_regex(r"[0-9]{16}"), HashFamily.AES)
        func = build_ir(plan)
        result = analyze_ir(func, pattern_from_regex(r"[0-9]{16}"))
        assert result.ret.width == 64  # folded back down
        widths = {value.width for value in result.values.values()}
        assert 128 in widths


# One malformed instruction per opcode that takes registers; "state" is
# the 128-bit AES state, "word" a 64-bit load.
WIDTH_CASES = [
    ("pext", ("state", MASK64)),
    ("shl", ("state", 3)),
    ("shr", ("state", 3)),
    ("rotl", ("state", 3)),
    ("mul64", ("state", 3)),
    ("xor", ("state", "word")),
    ("or", ("word", "state")),
    ("aes_absorb", ("state", "state", "word")),
    ("aes_fold", ("word",)),
    ("tail_xor", ("state", 11)),
]


class TestOperandWidths:
    """Each opcode checks its operands' register widths.

    The SSN Aes plan has both a 128-bit AES state register and 64-bit
    words; an opcode fed the wrong one is malformed IR (``shr`` of the
    state, say, is a 125-bit value no 64-bit fact describes), so the
    analyzer must refuse it rather than model it at another width.
    """

    @pytest.mark.parametrize(
        "opcode, args", WIDTH_CASES, ids=[case[0] for case in WIDTH_CASES]
    )
    def test_width_mismatch_rejected(self, opcode, args):
        pattern = pattern_from_regex(SSN)
        func = build_ir(build_plan(pattern, HashFamily.AES))
        registers = {
            "state": next(
                i.dest for i in func.instrs if i.opcode == "aes_absorb"
            ),
            "word": next(
                i.dest for i in func.instrs if i.opcode == "load64"
            ),
        }
        operands = tuple(registers.get(arg, arg) for arg in args)
        func.instrs = [i for i in func.instrs if i.opcode != "ret"] + [
            Instr(opcode, "bad", operands),
            Instr("ret", "", ("bad",)),
        ]
        with pytest.raises(VerificationError, match=opcode):
            analyze_ir(func, pattern)


@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize(
    "regex", [SSN, r"[0-9]{16}", r"[a-f]{12}", r"[0-9]{4}\.[0-9]{4}"]
)
class TestSoundness:
    def test_concrete_runs_satisfy_abstraction(self, family, regex):
        """Every concrete hash value must be admitted per register.

        This is the abstract-interpretation soundness property: running
        the interpreter on conforming keys can never produce a value
        the abstract domain excludes.
        """
        pattern = pattern_from_regex(regex)
        plan = build_plan(pattern, family)
        func = build_ir(plan)
        result = analyze_ir(func, pattern)
        assert result.ret is not None
        for key in sample_conforming_keys(pattern, 24, seed=11):
            concrete = interpret(func, key)
            assert result.ret.admits(concrete), (
                f"{family.value}: abstract value excludes concrete "
                f"hash {concrete:#x} of {key!r}"
            )
