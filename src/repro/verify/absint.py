"""The bit domains of the hash IR's abstract interpreter.

Two cooperating domains describe each virtual register:

- **known bits** — masks of bits guaranteed zero / guaranteed one on
  every *conforming* key, seeded at each ``load64`` from the format's
  per-position byte classes (:class:`repro.core.pattern.BytePattern`);
- **bit provenance** — for every result bit, the set of input key bits
  (``byte_index * 8 + bit``) that can influence it, with the sentinel
  :data:`TAIL` standing in for the arbitrary bytes of a
  variable-length tail.

Provenance is an *over*-approximation of influence (a bit listed may
turn out irrelevant, a bit absent provably cannot matter), which is the
direction the bijectivity prover and the dead-input-bit lint need: an
output whose bits each depend on at most one key bit is injective on
those bits, and a variable key bit absent from the return value's
provenance provably never reaches the hash.

This module holds the domain and its per-opcode transfer functions
(AES registers are modeled at their native 128-bit width).  One pass
walks an IR function: the reduced-product pass of
:mod:`repro.verify.dataflow`, which pairs each transfer here with an
interval transfer; :func:`analyze_ir` is that pass projected onto
these two domains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple, Union

from repro.codegen.ir import IRFunction
from repro.core.pattern import KeyPattern
from repro.errors import VerificationError
from repro.obs.trace import span

TAIL = "tail"
"""Provenance sentinel: influence from variable-length tail bytes."""

MASK64 = (1 << 64) - 1

EMPTY: FrozenSet = frozenset()

BitSource = Union[int, str]
"""One provenance element: a key-bit index or the :data:`TAIL` marker."""


def _width_mask(width: int) -> int:
    return (1 << width) - 1


@dataclass(frozen=True)
class AbstractValue:
    """The abstract state of one register: known bits plus provenance.

    Attributes:
        zeros: mask of bits guaranteed zero for every conforming key.
        ones: mask of bits guaranteed one.
        prov: per-bit influence sets, bit 0 first; known bits always
            carry the empty set (a constant bit cannot be influenced).
        width: register width in bits (64, or 128 for AES state).
    """

    zeros: int
    ones: int
    prov: Tuple[FrozenSet[BitSource], ...]
    width: int = 64

    def __post_init__(self) -> None:
        mask = _width_mask(self.width)
        if self.zeros & self.ones:
            raise ValueError("a bit cannot be both known-zero and known-one")
        if (self.zeros | self.ones) & ~mask:
            raise ValueError("known bits outside the register width")
        if len(self.prov) != self.width:
            raise ValueError(
                f"expected {self.width} provenance sets, got {len(self.prov)}"
            )

    @property
    def known(self) -> int:
        """Mask of bits with a proven constant value."""
        return self.zeros | self.ones

    @property
    def unknown(self) -> int:
        """Mask of bits that may vary between conforming keys."""
        return ~self.known & _width_mask(self.width)

    @property
    def is_const(self) -> bool:
        """True when every bit is known (the register is a constant)."""
        return self.known == _width_mask(self.width)

    @property
    def value(self) -> int:
        """The constant value; meaningful only when :attr:`is_const`."""
        return self.ones

    def influence(self) -> FrozenSet[BitSource]:
        """Union of all per-bit provenance sets."""
        result: FrozenSet[BitSource] = frozenset()
        for entry in self.prov:
            if entry:
                result = result | entry
        return result

    def admits(self, concrete: int) -> bool:
        """Soundness check: can this abstract value describe ``concrete``?"""
        concrete &= _width_mask(self.width)
        return (concrete & self.zeros) == 0 and (
            concrete & self.ones
        ) == self.ones


def _make(
    zeros: int, ones: int, prov: Tuple[FrozenSet, ...], width: int = 64
) -> AbstractValue:
    """Build a value, clearing provenance on known bits (the invariant)."""
    known = zeros | ones
    cleaned = tuple(
        EMPTY if (known >> index) & 1 else entry
        for index, entry in enumerate(prov)
    )
    return AbstractValue(zeros, ones, cleaned, width)


def const_value(value: int, width: Optional[int] = None) -> AbstractValue:
    """The abstract value of a literal constant (64- or 128-bit)."""
    if width is None:
        width = 128 if value.bit_length() > 64 else 64
    mask = _width_mask(width)
    value &= mask
    return AbstractValue(~value & mask, value, (EMPTY,) * width, width)


def seed_load(
    pattern: Optional[KeyPattern], offset: int, width: int
) -> AbstractValue:
    """Abstract value of ``load64 offset width`` under a key format.

    Constant pattern bits become known bits; variable bits carry their
    key-bit index as provenance.  Bytes past the pattern's described
    positions (possible only in malformed plans) are treated as tail
    bytes; with no pattern at all, every loaded bit is unknown with its
    own key-bit provenance.

    Raises:
        VerificationError: when ``width`` is not 1..8 bytes — such a
            load does not fit the 64-bit register it defines.
    """
    if not 1 <= width <= 8:
        raise VerificationError(
            f"load64 width must be 1..8 bytes, got {width}"
        )
    zeros = 0
    ones = 0
    prov = []
    for index in range(8 * width):
        byte_index = offset + index // 8
        bit = index % 8
        if pattern is None:
            prov.append(frozenset((8 * byte_index + bit,)))
        elif byte_index < pattern.num_bytes:
            byte = pattern.byte_pattern(byte_index)
            if (byte.const_mask >> bit) & 1:
                if (byte.const_value >> bit) & 1:
                    ones |= 1 << index
                else:
                    zeros |= 1 << index
                prov.append(EMPTY)
            else:
                prov.append(frozenset((8 * byte_index + bit,)))
        else:
            prov.append(frozenset((TAIL,)))
    for index in range(8 * width, 64):
        zeros |= 1 << index
        prov.append(EMPTY)
    return AbstractValue(zeros, ones, tuple(prov), 64)


# -- per-opcode transfer functions -------------------------------------------


def _pext_value(src: AbstractValue, mask: int) -> AbstractValue:
    mask &= MASK64
    zeros = 0
    ones = 0
    prov = []
    for bit in range(64):
        if not (mask >> bit) & 1:
            continue
        position = len(prov)
        if (src.zeros >> bit) & 1:
            zeros |= 1 << position
        if (src.ones >> bit) & 1:
            ones |= 1 << position
        prov.append(src.prov[bit])
    for position in range(len(prov), 64):
        zeros |= 1 << position
        prov.append(EMPTY)
    return _make(zeros, ones, tuple(prov))


def _shl_value(src: AbstractValue, amount: int) -> AbstractValue:
    zeros = ((src.zeros << amount) | ((1 << amount) - 1)) & MASK64
    ones = (src.ones << amount) & MASK64
    prov = tuple(
        src.prov[index - amount] if index >= amount else EMPTY
        for index in range(64)
    )
    return _make(zeros, ones, prov)


def _shr_value(src: AbstractValue, amount: int) -> AbstractValue:
    high = (MASK64 << (64 - amount)) & MASK64 if amount else 0
    zeros = (src.zeros >> amount) | high
    ones = src.ones >> amount
    prov = tuple(
        src.prov[index + amount] if index + amount < 64 else EMPTY
        for index in range(64)
    )
    return _make(zeros, ones, prov)


def _rotl_value(src: AbstractValue, amount: int) -> AbstractValue:
    amount %= 64
    if amount == 0:
        return src

    def rotate(mask: int) -> int:
        return ((mask << amount) | (mask >> (64 - amount))) & MASK64

    prov = tuple(src.prov[(index - amount) % 64] for index in range(64))
    return _make(rotate(src.zeros), rotate(src.ones), prov)


def _mul_value(src: AbstractValue, multiplier: int) -> AbstractValue:
    multiplier &= MASK64
    if src.is_const:
        return const_value((src.value * multiplier) & MASK64, 64)
    if multiplier == 0:
        return const_value(0, 64)
    # Trailing zeros compose: tz(a * b) >= tz(a) + tz(b).
    trailing_src = 0
    while trailing_src < 64 and (src.zeros >> trailing_src) & 1:
        trailing_src += 1
    trailing_mul = (multiplier & -multiplier).bit_length() - 1
    trailing = min(64, trailing_src + trailing_mul)
    zeros = (1 << trailing) - 1
    # Bit i of the product depends on source bits 0..i (shifted partial
    # products plus carries only move influence upward).
    prov = []
    cumulative: FrozenSet[BitSource] = frozenset()
    for index in range(64):
        if src.prov[index]:
            cumulative = cumulative | src.prov[index]
        prov.append(cumulative)
    return _make(zeros, 0, tuple(prov))


def _xor_value(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    zeros = (a.zeros & b.zeros) | (a.ones & b.ones)
    ones = (a.zeros & b.ones) | (a.ones & b.zeros)
    prov = tuple(
        a.prov[index] | b.prov[index] for index in range(a.width)
    )
    return _make(zeros, ones, prov, a.width)


def _or_value(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    ones = a.ones | b.ones
    zeros = a.zeros & b.zeros
    prov = []
    for index in range(a.width):
        if (ones >> index) & 1:
            # A known-one operand pins the output bit: nothing can
            # influence it — this is what exposes lanes masked out by
            # constant-one bits as dead input bits.
            prov.append(EMPTY)
        elif (a.zeros >> index) & 1:
            prov.append(b.prov[index])
        elif (b.zeros >> index) & 1:
            prov.append(a.prov[index])
        else:
            prov.append(a.prov[index] | b.prov[index])
    return _make(zeros, ones, tuple(prov), a.width)


def _aes_absorb_value(
    state: AbstractValue, lo: AbstractValue, hi: AbstractValue
) -> AbstractValue:
    # One AES round diffuses aggressively; model full mixing: every
    # output bit may depend on every input bit of state and both words.
    union = state.influence() | lo.influence() | hi.influence()
    return AbstractValue(0, 0, (union,) * 128, 128)


def _aes_fold_value(state: AbstractValue) -> AbstractValue:
    low = _make(
        state.zeros & MASK64,
        state.ones & MASK64,
        state.prov[:64],
        64,
    )
    high = _make(
        state.zeros >> 64,
        state.ones >> 64,
        state.prov[64:],
        64,
    )
    return _xor_value(low, high)


def _tail_xor_value(acc: AbstractValue) -> AbstractValue:
    tail = frozenset((TAIL,))
    prov = tuple(acc.prov[index] | tail for index in range(64))
    return AbstractValue(0, 0, prov, 64)


# -- reduced product with the interval domain --------------------------------


def interval_from_bits(value: AbstractValue) -> Tuple[int, int]:
    """Tightest unsigned interval implied by the known-bit masks.

    Every admitted concrete value has all known-one bits set (so is at
    least ``ones``) and no known-zero bits set (so is at most ``ones``
    plus every unknown bit).
    """
    return value.ones, value.ones | value.unknown


def refine_known_bits(value: AbstractValue, lo: int, hi: int) -> AbstractValue:
    """Fold an interval fact ``lo <= value <= hi`` into the known bits.

    This is the bits-side half of the reduced product with the range
    domain (:mod:`repro.verify.dataflow`): all bits above the highest
    bit where ``lo`` and ``hi`` differ are shared by every value in the
    interval, so they become known.  (When ``lo == hi`` the value is a
    constant and every bit becomes known.)

    Raises:
        VerificationError: when the interval is empty or contradicts an
            already-known bit — either means one of the two domains is
            unsound, which the analyzer must refuse to paper over.
    """
    mask = _width_mask(value.width)
    if lo > hi:
        raise VerificationError(
            f"reduced product met an empty interval [{lo:#x}, {hi:#x}]"
        )
    if (lo | hi) & ~mask:
        raise VerificationError(
            f"interval [{lo:#x}, {hi:#x}] exceeds the {value.width}-bit width"
        )
    prefix = mask & ~((1 << (lo ^ hi).bit_length()) - 1)
    new_ones = value.ones | (prefix & lo)
    new_zeros = value.zeros | (prefix & ~lo & mask)
    if new_ones & new_zeros:
        raise VerificationError(
            "reduced product contradiction: interval "
            f"[{lo:#x}, {hi:#x}] conflicts with known bits "
            f"zeros={value.zeros:#x} ones={value.ones:#x}"
        )
    if new_ones == value.ones and new_zeros == value.zeros:
        return value
    return _make(new_zeros, new_ones, value.prov, value.width)


# -- the projection of the reduced-product pass ------------------------------


@dataclass
class AbstractResult:
    """Everything one abstract pass learned about an IR function.

    Attributes:
        values: final abstract value of every register defined before
            the (first) return.
        ret: abstract value of the returned register, or ``None`` for a
            function without ``ret``.
        ret_register: name of the returned register.
    """

    values: Dict[str, AbstractValue]
    ret: Optional[AbstractValue]
    ret_register: Optional[str]


def analyze_ir(
    func: IRFunction, pattern: Optional[KeyPattern] = None
) -> AbstractResult:
    """Abstractly interpret ``func`` under the key format ``pattern``.

    This is the bit projection of the reduced-product pass of
    :mod:`repro.verify.dataflow`: the known bits and provenance of
    every register, with the interval facts dropped.

    Without a pattern, loads are seeded fully unknown (every loaded bit
    carries its own provenance), which still supports provenance-only
    queries like translation validation.

    Raises:
        VerificationError: on an unknown opcode, an undefined register,
            or a width-mismatched operation — malformed IR the verifier
            must reject rather than mis-model.
    """
    # Function-local: the dataflow module builds on this one.
    from repro.verify.dataflow import _product_pass

    with span("verify.absint", function=func.name):
        result = _product_pass(func, pattern)
    return AbstractResult(
        {register: value.bits for register, value in result.values.items()},
        None if result.ret is None else result.ret.bits,
        result.ret_register,
    )
