"""libstdc++'s ``_Hash_bytes``: the paper's **STL** baseline (Figure 1).

This is the murmur-derived function behind ``std::hash<std::string>`` in
GCC's standard library (``libstdc++-v3/libsupc++/hash_bytes.cc``).  The
port is line-for-line faithful: same multiplier, same seed, same aligned
main loop, same little-endian tail load, same final avalanche.

When NumPy is importable, :func:`stl_hash_rows` hashes a whole
``uint8[k, L]`` row view of equal-length keys in array ops, bit-identical
to :func:`stl_hash_bytes` per row.  It is exposed as
``stl_hash_bytes.lanes`` — the convention the generated batch kernels
use — so the router (:func:`repro.core.routes.hash_fallback`) hashes a
batch of unrouted keys with one call per length instead of one per key.
"""

from __future__ import annotations

from repro.isa.bits import MASK64

try:  # The row kernel is a NumPy perf tier; the scalar port needs nothing.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None

MUL = ((0xC6A4A793 << 32) + 0x5BD1E995) & MASK64
"""The murmur multiplier from Figure 1, line 2."""

DEFAULT_SEED = 0xC70F6907
"""libstdc++'s default seed for ``std::hash`` (``_Hash_impl::hash``)."""


def _shift_mix(value: int) -> int:
    return value ^ (value >> 47)


def stl_hash_bytes(key: bytes, seed: int = DEFAULT_SEED) -> int:
    """Hash ``key`` exactly as ``std::hash<std::string>`` does on 64-bit.

    The main loop consumes eight bytes at a time (Figure 1, lines 7-11);
    a sub-word tail is folded with a partial little-endian load (lines
    12-16); two shift-mix rounds finish (lines 17-18).

    >>> stl_hash_bytes(b"") == stl_hash_bytes(b"")
    True
    >>> stl_hash_bytes(b"abc") != stl_hash_bytes(b"abd")
    True
    """
    length = len(key)
    len_aligned = length & ~0x7
    hash_value = (seed ^ (length * MUL)) & MASK64
    for offset in range(0, len_aligned, 8):
        data = int.from_bytes(key[offset : offset + 8], "little")
        data = (_shift_mix((data * MUL) & MASK64) * MUL) & MASK64
        hash_value ^= data
        hash_value = (hash_value * MUL) & MASK64
    if length & 0x7:
        data = int.from_bytes(key[len_aligned:length], "little")
        hash_value ^= data
        hash_value = (hash_value * MUL) & MASK64
    hash_value = (_shift_mix(hash_value) * MUL) & MASK64
    hash_value = _shift_mix(hash_value)
    return hash_value


def stl_hash_rows(rows):
    """Hash every row of a ``uint8[k, L]`` view: ``uint64[k]``.

    Row ``i`` hashes exactly as ``stl_hash_bytes(rows[i].tobytes())``
    (default seed): the aligned words are mixed column-wise in three
    array ops, folded into the running hash one word column at a time,
    then the partial tail and the two shift-mix rounds.  Needs NumPy.
    """
    count, length = rows.shape
    len_aligned = length & ~0x7
    mul = _np.uint64(MUL)
    shift = _np.uint64(47)
    hash_value = _np.full(
        count, (DEFAULT_SEED ^ (length * MUL)) & MASK64, dtype=_np.uint64
    )
    if len_aligned:
        words = _np.ascontiguousarray(rows[:, :len_aligned]).view("<u8") * mul
        words ^= words >> shift
        words *= mul
        for column in words.T:
            hash_value ^= column
            hash_value *= mul
    if length & 0x7:
        tail = _np.zeros((count, 8), dtype=_np.uint8)
        tail[:, : length - len_aligned] = rows[:, len_aligned:]
        hash_value ^= tail.view("<u8").ravel()
        hash_value *= mul
    hash_value ^= hash_value >> shift
    hash_value *= mul
    hash_value ^= hash_value >> shift
    return hash_value


if _np is not None:
    stl_hash_bytes.lanes = stl_hash_rows
