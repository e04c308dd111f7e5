"""Bit-manipulation primitives: software ``pext``/``pdep`` and friends.

The x86 BMI2 instruction ``pext`` gathers the bits of a source word selected
by a mask into the contiguous low-order bits of the result (paper,
Figure 11).  ``pdep`` is its inverse scatter.  Python integers are
arbitrary-precision, so these functions operate on 64-bit values and mask
their results accordingly.

Because the masks SEPE generates are compile-time constants, the Python
code generator does not emit a bit-by-bit loop.  Instead it decomposes the
mask into contiguous runs of ones (:func:`mask_to_runs`) and emits one
shift/and/or triple per run (:func:`pext_via_runs`), which is how a software
fallback for ``pext`` is typically written.  Both strategies are bit-exact
with the hardware instruction; tests cross-check them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

MASK64 = (1 << 64) - 1
"""All-ones 64-bit mask used to truncate Python big-ints to machine words."""


def popcount(value: int) -> int:
    """Return the number of set bits in ``value``.

    Negative inputs are rejected because they have conceptually infinite
    two's-complement popcount.
    """
    if value < 0:
        raise ValueError("popcount requires a non-negative integer")
    return bin(value).count("1")


def rotl64(value: int, amount: int) -> int:
    """Rotate a 64-bit ``value`` left by ``amount`` bits (mod 64)."""
    amount %= 64
    value &= MASK64
    if amount == 0:
        return value
    return ((value << amount) | (value >> (64 - amount))) & MASK64


def rotr64(value: int, amount: int) -> int:
    """Rotate a 64-bit ``value`` right by ``amount`` bits (mod 64)."""
    return rotl64(value, 64 - (amount % 64))


def pext(src: int, mask: int) -> int:
    """Parallel bit extract, the semantics of x86 ``pext`` (Figure 11).

    Every bit of ``src`` whose position is set in ``mask`` is copied, in
    order, into the low bits of the result; all other result bits are zero.

    >>> hex(pext(0xAB, 0xF0))
    '0xa'
    >>> bin(pext(0b101101, 0b111000))
    '0b101'
    """
    src &= MASK64
    mask &= MASK64
    dst = 0
    out_pos = 0
    while mask:
        low = mask & -mask  # lowest set bit of the mask
        if src & low:
            dst |= 1 << out_pos
        out_pos += 1
        mask ^= low
    return dst


def pdep(src: int, mask: int) -> int:
    """Parallel bit deposit, the inverse of :func:`pext`.

    The low bits of ``src`` are scattered, in order, into the positions set
    in ``mask``.

    >>> hex(pdep(0xA, 0xF0))
    '0xa0'
    """
    src &= MASK64
    mask &= MASK64
    dst = 0
    in_pos = 0
    while mask:
        low = mask & -mask
        if src & (1 << in_pos):
            dst |= low
        in_pos += 1
        mask ^= low
    return dst


@lru_cache(maxsize=1024)
def _mask_to_runs_cached(mask: int) -> Tuple[Tuple[int, int, int], ...]:
    """Memoized core of :func:`mask_to_runs` over the normalized mask.

    Repeated synthesis of the same format decomposes the same masks for
    every pext emission; the decomposition is pure in the 64-bit mask, so
    it is cached (as an immutable tuple — callers get fresh lists).
    """
    runs: List[Tuple[int, int, int]] = []
    out_pos = 0
    bit = 0
    while mask >> bit:
        if (mask >> bit) & 1:
            start = bit
            while (mask >> bit) & 1:
                bit += 1
            length = bit - start
            runs.append((start, (1 << length) - 1, out_pos))
            out_pos += length
        else:
            bit += 1
    return tuple(runs)


def mask_to_runs(mask: int) -> List[Tuple[int, int, int]]:
    """Decompose ``mask`` into contiguous runs of set bits.

    Returns a list of ``(shift, run_mask, out_pos)`` triples, ordered from
    the least-significant run upward, such that::

        pext(x, mask) == OR over runs of ((x >> shift) & run_mask) << out_pos

    ``shift`` is the bit index where the run starts in the source,
    ``run_mask`` is ``(1 << run_length) - 1``, and ``out_pos`` is where the
    run lands in the compacted output.  This is the decomposition SEPE's
    Python backend unrolls into straight-line code, replacing the hardware
    ``pext`` with a handful of shifts.

    >>> mask_to_runs(0x0F0F)
    [(0, 15, 0), (8, 15, 4)]
    """
    if mask < 0:
        raise ValueError("mask must be non-negative")
    return list(_mask_to_runs_cached(mask & MASK64))


def mask_to_gathers(mask: int) -> List[Tuple[int, int]]:
    """Decompose ``mask`` into ``(distance, out_mask)`` bit gathers.

    Each run of :func:`mask_to_runs` moves by ``distance = shift -
    out_pos`` bits, so one shift and one and place it::

        pext(x, mask) == OR over gathers of (x >> distance) & out_mask

    (``x << -distance`` when ``distance`` is negative, which a pext run
    never is; callers composing shifts reuse the same form).  Runs are
    maximal, so every run has its own distance, strictly increasing.

    >>> mask_to_gathers(0x0F0F)
    [(0, 15), (4, 240)]
    """
    return [
        (shift - out_pos, run_mask << out_pos)
        for shift, run_mask, out_pos in mask_to_runs(mask)
    ]


def pext_via_runs(src: int, runs: List[Tuple[int, int, int]]) -> int:
    """Evaluate a pre-decomposed parallel bit extraction.

    ``runs`` must come from :func:`mask_to_runs`.  Equivalent to
    ``pext(src, mask)`` for the originating mask, but costs one shift/and/or
    per contiguous run rather than one branch per mask bit.
    """
    dst = 0
    for shift, run_mask, out_pos in runs:
        dst |= ((src >> shift) & run_mask) << out_pos
    return dst
