"""Tests for the KeyPattern data model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pattern import BytePattern, KeyPattern
from repro.core.quads import key_to_quads
from repro.errors import KeyFormatError


def fixed_pattern_for(key: bytes) -> KeyPattern:
    """A pattern with every bit of ``key`` constant."""
    return KeyPattern.fixed(key_to_quads(key))


class TestBytePattern:
    def test_constant(self):
        byte = BytePattern(0xFF, ord("x"))
        assert byte.is_constant and not byte.is_free
        assert byte.possible_bytes() == [ord("x")]

    def test_free(self):
        byte = BytePattern(0x00, 0x00)
        assert byte.is_free
        assert len(byte.possible_bytes()) == 256

    def test_digit_template(self):
        byte = BytePattern(0xF0, 0x30)
        possible = byte.possible_bytes()
        assert possible == list(range(0x30, 0x40))
        assert byte.matches(ord("7"))
        assert not byte.matches(ord("A"))

    def test_value_outside_mask_rejected(self):
        with pytest.raises(ValueError):
            BytePattern(0x0F, 0x10)

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            BytePattern(0x1FF, 0)

    def test_variable_mask_complements(self):
        byte = BytePattern(0xF0, 0x30)
        assert byte.variable_mask == 0x0F
        assert byte.const_mask | byte.variable_mask == 0xFF

    @given(st.integers(min_value=0, max_value=255))
    def test_possible_bytes_all_match(self, mask):
        byte = BytePattern(mask, mask & 0x5A)
        assert all(byte.matches(value) for value in byte.possible_bytes())

    def test_possible_bytes_matches_bit_enumeration(self):
        # Reference: set each combination of the free bits on top of the
        # constant value.  Every valid (mask, value) pair is checked:
        # each bit is free, constant 0 or constant 1 (3 ** 8 pairs).
        def enumerate_free_bits(mask: int, value: int):
            free = [bit for bit in range(8) if not (mask >> bit) & 1]
            values = []
            for combo in range(1 << len(free)):
                byte = value
                for index, bit in enumerate(free):
                    if (combo >> index) & 1:
                        byte |= 1 << bit
                values.append(byte)
            return sorted(values)

        pairs = [
            (mask, value)
            for mask in range(256)
            for value in range(256)
            if value & ~mask == 0
        ]
        assert len(pairs) == 3 ** 8
        for mask, value in pairs:
            assert BytePattern(mask, value).possible_bytes() == (
                enumerate_free_bits(mask, value)
            )


class TestKeyPatternConstruction:
    def test_fixed_factory(self):
        pattern = fixed_pattern_for(b"abcdefgh")
        assert pattern.is_fixed_length
        assert pattern.num_bytes == 8
        assert pattern.body_length == 8

    def test_quad_count_must_divide(self):
        with pytest.raises(ValueError):
            KeyPattern.fixed([0, 1, 2])

    def test_quad_count_must_match_max_length(self):
        with pytest.raises(ValueError):
            KeyPattern(quads=(0,) * 8, min_length=1, max_length=3)

    def test_negative_min_length(self):
        with pytest.raises(ValueError):
            KeyPattern(quads=(), min_length=-1, max_length=0)

    def test_max_below_min(self):
        with pytest.raises(ValueError):
            KeyPattern(quads=(0,) * 8, min_length=3, max_length=2)

    def test_unbounded_tail(self):
        pattern = KeyPattern(
            quads=tuple(key_to_quads(b"abcdefgh")),
            min_length=8,
            max_length=None,
        )
        assert not pattern.is_fixed_length
        assert pattern.body_length == 8


class TestConstantStructure:
    def test_all_constant(self):
        pattern = fixed_pattern_for(b"constant")
        assert pattern.constant_byte_positions() == list(range(8))
        assert pattern.variable_byte_positions() == []
        assert pattern.variable_bit_count() == 0

    def test_runs(self):
        # const const var var const const const const const
        quads = []
        template = [True, True, False, False] + [True] * 5
        for constant in template:
            quads.extend([1, 2, 3, 0] if constant else [None] * 4)
        pattern = KeyPattern.fixed(quads)
        assert pattern.constant_runs() == [(0, 2), (4, 5)]
        assert pattern.variable_runs() == [(2, 2)]

    def test_runs_min_length_filter(self):
        quads = []
        for constant in [True, False] + [True] * 8 + [False]:
            quads.extend([0, 0, 0, 0] if constant else [None] * 4)
        pattern = KeyPattern.fixed(quads)
        # The single-byte run at 0 is filtered; the 8-byte run survives.
        assert pattern.constant_runs(min_run=8) == [(2, 8)]

    def test_variable_bit_count_digits(self):
        # A digit byte has 4 variable bits under the quad abstraction.
        quads = [0, 3, None, None] * 3
        pattern = KeyPattern.fixed(quads)
        assert pattern.variable_bit_count() == 12


class TestMatching:
    def test_exact_constant_match(self):
        pattern = fixed_pattern_for(b"hello-yz")
        assert pattern.matches(b"hello-yz")
        assert not pattern.matches(b"hello-ya")
        assert not pattern.matches(b"hello")

    def test_template_match(self):
        quads = [0, 3, None, None] * 8  # eight digit bytes
        pattern = KeyPattern.fixed(quads)
        assert pattern.matches(b"01234567")
        assert pattern.matches(b"99999999")
        assert not pattern.matches(b"0123456a")

    def test_length_bounds(self):
        pattern = KeyPattern(
            quads=tuple(key_to_quads(b"abcdefgh")),
            min_length=8,
            max_length=None,
        )
        assert pattern.matches(b"abcdefgh" + b"anything")
        assert not pattern.matches(b"abcdefg")

    def test_require_match_raises(self):
        pattern = fixed_pattern_for(b"abcdefgh")
        with pytest.raises(KeyFormatError):
            pattern.require_match(b"xxxxxxxx")


class TestWordMask:
    def test_full_constant_word(self):
        pattern = fixed_pattern_for(b"abcdefgh")
        mask, value = pattern.word_const_mask(0)
        assert mask == (1 << 64) - 1
        assert value == int.from_bytes(b"abcdefgh", "little")

    def test_digit_word(self):
        quads = [0, 3, None, None] * 8
        pattern = KeyPattern.fixed(quads)
        mask, value = pattern.word_const_mask(0)
        assert mask == 0xF0F0F0F0F0F0F0F0
        assert value == 0x3030303030303030

    def test_bounds_checked(self):
        pattern = fixed_pattern_for(b"abcdefgh")
        with pytest.raises(ValueError):
            pattern.word_const_mask(1)

    def test_partial_width(self):
        pattern = fixed_pattern_for(b"abcdefgh")
        mask, value = pattern.word_const_mask(0, width=4)
        assert mask == 0xFFFFFFFF
        assert value == int.from_bytes(b"abcd", "little")
