"""A single software AES round, matching the x86 ``aesenc`` instruction.

The paper's **Aes** hash family combines key words with one AES encode
round (``aesenc`` on x86, ``AESE`` on aarch64) instead of xor, trading a
slower instruction for better mixing (Section 4, "Synthetic Hash
Functions").  ``aesenc dst, key`` computes::

    state = ShiftRows(dst)
    state = SubBytes(state)
    state = MixColumns(state)
    dst   = state XOR key

This module implements those four steps bit-exactly over 128-bit integers
(little-endian byte order, i.e. byte 0 of the state is the low-order byte,
exactly as an ``xmm`` register maps to memory).  The S-box is generated
from first principles (GF(2^8) inversion plus the affine map) at import
time rather than pasted as a table, and verified by unit tests against
published vectors.
"""

from __future__ import annotations

from typing import List

MASK128 = (1 << 128) - 1
"""All-ones 128-bit mask for truncating state values."""


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) with the AES polynomial x^8+x^4+x^3+x+1."""
    product = 0
    for _ in range(8):
        if b & 1:
            product ^= a
        b >>= 1
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
    return product


def _build_sbox() -> List[int]:
    """Construct the AES S-box: multiplicative inverse then affine transform."""
    # Build inverses via exponentiation tables over the generator 3.
    exp = [0] * 256
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value = _gf_mul(value, 3)
    sbox = [0] * 256
    for byte in range(256):
        # exp has period 255, so reduce the exponent: byte 1 has log 0 and
        # its inverse is exp[255 % 255] == exp[0] == 1.
        inv = 0 if byte == 0 else exp[(255 - log[byte]) % 255]
        # Affine transformation: b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4) ^ 0x63
        result = inv
        for shift in range(1, 5):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[byte] = result ^ 0x63
    return sbox


SBOX = _build_sbox()
"""The AES substitution box, generated from GF(2^8) arithmetic."""

INV_SBOX = [0] * 256
for _index, _substituted in enumerate(SBOX):
    INV_SBOX[_substituted] = _index

# ShiftRows permutation on the 16 state bytes.  The AES state is column
# major: byte i sits at row i % 4, column i // 4.  Row r rotates left by r,
# so the output byte at (row r, col c) comes from (row r, col (c + r) % 4);
# output index o = 4*c + r reads input index _SHIFT_ROWS[o].
_SHIFT_ROWS = [4 * ((o // 4 + o % 4) % 4) + o % 4 for o in range(16)]


def _bytes_of(state: int) -> List[int]:
    """Split a 128-bit integer into its 16 little-endian bytes."""
    return [(state >> (8 * i)) & 0xFF for i in range(16)]


def _from_bytes(byte_values: List[int]) -> int:
    """Reassemble 16 little-endian bytes into a 128-bit integer."""
    state = 0
    for index, byte in enumerate(byte_values):
        state |= byte << (8 * index)
    return state


def sub_bytes(state: int) -> int:
    """Apply the AES S-box to every byte of the 128-bit state."""
    return _from_bytes([SBOX[b] for b in _bytes_of(state)])


def shift_rows(state: int) -> int:
    """Apply the AES ShiftRows permutation to the 128-bit state."""
    source = _bytes_of(state)
    return _from_bytes([source[_SHIFT_ROWS[i]] for i in range(16)])


def mix_columns(state: int) -> int:
    """Apply the AES MixColumns transform to each 4-byte column."""
    source = _bytes_of(state)
    output = [0] * 16
    for col in range(4):
        a0, a1, a2, a3 = source[4 * col : 4 * col + 4]
        output[4 * col + 0] = _gf_mul(a0, 2) ^ _gf_mul(a1, 3) ^ a2 ^ a3
        output[4 * col + 1] = a0 ^ _gf_mul(a1, 2) ^ _gf_mul(a2, 3) ^ a3
        output[4 * col + 2] = a0 ^ a1 ^ _gf_mul(a2, 2) ^ _gf_mul(a3, 3)
        output[4 * col + 3] = _gf_mul(a0, 3) ^ a1 ^ a2 ^ _gf_mul(a3, 2)
    return _from_bytes(output)


def aesenc(state: int, round_key: int) -> int:
    """One AES encryption round: the semantics of x86 ``aesenc``.

    >>> aesenc(0, 0) == mix_columns(sub_bytes(0))
    True
    """
    state &= MASK128
    round_key &= MASK128
    state = shift_rows(state)
    state = sub_bytes(state)
    state = mix_columns(state)
    return state ^ round_key


# ---------------------------------------------------------------------------
# Fast path: precomputed T-tables collapsing SubBytes+ShiftRows+MixColumns.
# The Aes hash family calls aesenc per key word, so per-call cost matters for
# the benchmark shape.  Each table maps one input byte directly to its 32-bit
# column contribution.
# ---------------------------------------------------------------------------

def _build_ttables() -> List[List[int]]:
    tables: List[List[int]] = [[0] * 256 for _ in range(4)]
    for byte in range(256):
        s = SBOX[byte]
        m = [
            [2, 3, 1, 1],
            [1, 2, 3, 1],
            [1, 1, 2, 3],
            [3, 1, 1, 2],
        ]
        for row in range(4):
            word = 0
            for out_row in range(4):
                word |= _gf_mul(s, m[out_row][row]) << (8 * out_row)
            tables[row][byte] = word
    return tables


_TTABLES = _build_ttables()


def aesenc_fast(state: int, round_key: int) -> int:
    """T-table implementation of :func:`aesenc` (bit-exact, ~4x faster).

    Tests assert ``aesenc_fast == aesenc`` over random states.
    """
    state &= MASK128
    t0, t1, t2, t3 = _TTABLES
    source = _bytes_of(state)
    result = 0
    for col in range(4):
        # After ShiftRows, column `col` row `r` holds the byte from
        # column (col + r) % 4, row r of the input.
        word = (
            t0[source[4 * ((col + 0) % 4) + 0]]
            ^ t1[source[4 * ((col + 1) % 4) + 1]]
            ^ t2[source[4 * ((col + 2) % 4) + 2]]
            ^ t3[source[4 * ((col + 3) % 4) + 3]]
        )
        result |= word << (32 * col)
    return (result ^ round_key) & MASK128


# ---------------------------------------------------------------------------
# Lane form: one round over k states at once, for the NumPy batch tier.
# A batch of 128-bit states is held as four uint32 *column planes*,
# ``uint32[4, k]``: plane c is column c (bytes 4c..4c+3, row r in byte r)
# of every state, so viewed as bytes each state byte is one strided byte
# plane and every T-table gather reads whole planes.  A per-plan constant
# is ``uint32[4, 1]`` and broadcasts against any k.
# ---------------------------------------------------------------------------

try:  # The lane form is a NumPy perf tier; the scalar forms need nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None
else:
    _TTABLE_PLANES = [
        _np.asarray(table, dtype=_np.uint32) for table in _TTABLES
    ]


def aes_planes(value: int):
    """A 128-bit constant as ``uint32[4, 1]`` column planes."""
    return _np.array(
        [[(value >> (32 * col)) & 0xFFFFFFFF] for col in range(4)],
        dtype=_np.uint32,
    )


def aesenc_planes(state, lo, hi, round_key):
    """``aesenc(state ^ (lo | hi << 64), round_key)`` for k lanes at once.

    ``state`` and ``round_key`` are column planes (``uint32[4, k]`` or a
    broadcast ``uint32[4, 1]``), ``lo``/``hi`` the ``uint64[k]`` halves
    of the absorbed block; returns the new ``uint32[4, k]`` state.  One
    round is 13 array ops: four xors take in the block, one copy extends
    the planes cyclically so that ShiftRows becomes slicing, and four
    T-table gathers plus four xors make the output columns.
    Bit-identical to :func:`aesenc_fast` on every lane.
    """
    count = lo.shape[0]
    lo_words = _np.ascontiguousarray(lo, dtype="<u8").view("<u4")
    hi_words = _np.ascontiguousarray(hi, dtype="<u8").view("<u4")
    # Planes 4..6 repeat columns 0..2: output columns 0..3 of row r read
    # input columns r..r+3 (mod 4), which is then the slice [r:r + 4].
    planes = _np.empty((7, count), dtype="<u4")
    _np.bitwise_xor(lo_words[0::2], state[0], out=planes[0])
    _np.bitwise_xor(lo_words[1::2], state[1], out=planes[1])
    _np.bitwise_xor(hi_words[0::2], state[2], out=planes[2])
    _np.bitwise_xor(hi_words[1::2], state[3], out=planes[3])
    planes[4:] = planes[:3]
    rows = planes.view(_np.uint8).reshape(7, count, 4)
    t0, t1, t2, t3 = _TTABLE_PLANES
    columns = _np.take(t0, rows[0:4, :, 0])
    columns ^= _np.take(t1, rows[1:5, :, 1])
    columns ^= _np.take(t2, rows[2:6, :, 2])
    columns ^= _np.take(t3, rows[3:7, :, 3])
    columns ^= round_key
    return columns


def aes_fold_planes(state):
    """Fold ``uint32[4, k]`` column planes to ``uint64[k]``: lo ^ hi."""
    folded = _np.empty((state.shape[1], 2), dtype="<u4")
    _np.bitwise_xor(state[0], state[2], out=folded[:, 0])
    _np.bitwise_xor(state[1], state[3], out=folded[:, 1])
    return folded.view("<u8").ravel()
