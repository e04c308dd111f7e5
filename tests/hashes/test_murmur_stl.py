"""Tests for the STL murmur port (the paper's Figure 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashes.murmur_stl import DEFAULT_SEED, MUL, stl_hash_bytes
from repro.isa.bits import MASK64
from repro.isa.memory import load_bytes, load_u64_le, shift_mix


def reference_figure1(key: bytes, seed: int = DEFAULT_SEED) -> int:
    """An independent transliteration of Figure 1, used as an oracle."""
    length = len(key)
    len_aligned = length & ~0x7
    hash_value = (seed ^ (length * MUL)) & MASK64
    offset = 0
    while offset != len_aligned:
        data = (shift_mix((load_u64_le(key, offset) * MUL) & MASK64) * MUL) \
            & MASK64
        hash_value ^= data
        hash_value = (hash_value * MUL) & MASK64
        offset += 8
    if length & 0x7:
        data = load_bytes(key, len_aligned, length & 0x7)
        hash_value ^= data
        hash_value = (hash_value * MUL) & MASK64
    hash_value = (shift_mix(hash_value) * MUL) & MASK64
    return shift_mix(hash_value)


class TestConstants:
    def test_multiplier_from_figure1(self):
        assert MUL == (0xC6A4A793 << 32) + 0x5BD1E995

    def test_default_seed_is_libstdcpp(self):
        assert DEFAULT_SEED == 0xC70F6907


class TestAgainstFigure1Oracle:
    @pytest.mark.parametrize("length", list(range(0, 26)))
    def test_all_tail_lengths(self, length):
        key = bytes((i * 7 + 3) & 0xFF for i in range(length))
        assert stl_hash_bytes(key) == reference_figure1(key)

    @given(st.binary(max_size=64))
    @settings(max_examples=100)
    def test_random_keys(self, key):
        assert stl_hash_bytes(key) == reference_figure1(key)

    @given(st.binary(max_size=16), st.integers(min_value=0, max_value=MASK64))
    @settings(max_examples=50)
    def test_seed_parameter(self, key, seed):
        assert stl_hash_bytes(key, seed) == reference_figure1(key, seed)


class TestBehaviour:
    def test_deterministic(self):
        assert stl_hash_bytes(b"hello") == stl_hash_bytes(b"hello")

    def test_64bit_range(self):
        for key in (b"", b"a", b"x" * 100):
            assert 0 <= stl_hash_bytes(key) <= MASK64

    def test_length_sensitivity(self):
        assert stl_hash_bytes(b"ab") != stl_hash_bytes(b"ab\x00")

    def test_single_bit_avalanche(self):
        base = stl_hash_bytes(b"\x00" * 16)
        flipped = stl_hash_bytes(b"\x01" + b"\x00" * 15)
        differing = bin(base ^ flipped).count("1")
        assert differing >= 16  # murmur mixes well

    def test_distinct_on_sample(self, ssn_keys):
        hashes = {stl_hash_bytes(key) for key in ssn_keys}
        assert len(hashes) == len(set(ssn_keys))


class TestRowKernel:
    """``stl_hash_rows`` (``stl_hash_bytes.lanes``) against the port."""

    np = pytest.importorskip("numpy")

    @staticmethod
    def _rows(keys, length):
        np = TestRowKernel.np
        return np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
            len(keys), length
        )

    @pytest.mark.parametrize("length", [*range(65), 255, 256, 300])
    def test_parity_with_scalar_port(self, length):
        from repro.hashes.murmur_stl import stl_hash_rows

        keys = [
            bytes((17 * row + 31 * col + length) & 0xFF
                  for col in range(length))
            for row in range(5)
        ]
        assert stl_hash_rows(self._rows(keys, length)).tolist() == [
            stl_hash_bytes(key) for key in keys
        ]

    @pytest.mark.parametrize("length", [0, 7, 8, 24])
    def test_empty_batch(self, length):
        from repro.hashes.murmur_stl import stl_hash_rows

        values = stl_hash_rows(self._rows([], length))
        assert values.shape == (0,)
        assert values.dtype == self.np.uint64

    @given(st.lists(st.binary(min_size=24, max_size=24), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_random_rows(self, keys):
        from repro.hashes.murmur_stl import stl_hash_rows

        values = stl_hash_rows(self._rows(keys, 24))
        assert values.tolist() == [stl_hash_bytes(key) for key in keys]

    def test_exposed_as_lanes(self):
        from repro.hashes.murmur_stl import stl_hash_rows

        assert stl_hash_bytes.lanes is stl_hash_rows
