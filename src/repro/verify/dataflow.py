"""The reduced-product abstract interpreter of the hash IR.

This module holds the one pass that walks an IR function abstractly.
It adds an interval domain to the bit domains of
:mod:`repro.verify.absint` and ties them together:

- **value ranges** — an unsigned interval ``[lo, hi]`` per register,
  with wraparound-aware transfer functions: an operation that can
  overflow its width widens to ⊤ rather than wrapping unsoundly, while
  provably in-range shifts/multiplies/adds stay exact;
- **one opcode table** — :data:`_TRANSFERS` gives every opcode the
  widths its register operands must have, its known-bits/provenance
  transfer and its interval transfer, so operand widths are checked in
  one place and each opcode is dispatched once;
- **reduced product** — after every opcode the interval and the
  known-bit masks refine each other
  (:func:`repro.verify.absint.refine_known_bits` and the interval
  intersection) until neither changes, so each domain benefits from
  what the other proved.  The fixpoint makes the refinement idempotent
  by construction, which the property suite pins;
- **entropy provenance** — per-output-bit min-entropy inflow bounds
  built from the bit-provenance sets and the format's byte classes
  (``log2(len(possible_bytes))`` distributed over each byte's variable
  bits), detecting *funnels*: many live input bits collapsing into few
  output bits, a static predictor of chi-square failures long before a
  single key is hashed.

:func:`analyze_dataflow` returns the full product per register;
:func:`repro.verify.absint.analyze_ir` projects the same pass onto its
bit domains.

The range facts computed **without** a pattern hold for *every* input
byte string — that is what licenses the analysis-driven rewrites in
:func:`repro.codegen.ir.optimize`, which must preserve hash values on
non-conforming keys too (the native tier and the serving sink compare
tiers on drifted traffic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from repro.codegen.ir import IRFunction
from repro.core.pattern import KeyPattern
from repro.errors import VerificationError
from repro.isa.bits import pext as concrete_pext
from repro.isa.bits import popcount, rotl64
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.verify.absint import (
    MASK64,
    TAIL,
    AbstractValue,
    _add_value,
    _aes_absorb_value,
    _aes_fold_value,
    _mul_value,
    _or_value,
    _pext_value,
    _rotl_value,
    _shl_value,
    _shr_value,
    _tail_xor_value,
    _width_mask,
    _xor_value,
    const_value,
    interval_from_bits,
    refine_known_bits,
    seed_load,
)

__all__ = [
    "Interval",
    "ProductValue",
    "DataflowResult",
    "EntropyReport",
    "analyze_dataflow",
    "entropy_report",
    "key_bit_entropy",
    "reduce_product",
]

# -- the interval domain -----------------------------------------------------


@dataclass(frozen=True)
class Interval:
    """An unsigned value range: every concrete value lies in [lo, hi]."""

    lo: int
    hi: int
    width: int = 64

    def __post_init__(self) -> None:
        if not 0 <= self.lo <= self.hi <= _width_mask(self.width):
            raise VerificationError(
                f"malformed {self.width}-bit interval "
                f"[{self.lo:#x}, {self.hi:#x}]"
            )

    @property
    def is_const(self) -> bool:
        return self.lo == self.hi

    def contains(self, concrete: int) -> bool:
        """Soundness check: can this interval describe ``concrete``?"""
        return self.lo <= (concrete & _width_mask(self.width)) <= self.hi


def top_interval(width: int = 64) -> Interval:
    return Interval(0, _width_mask(width), width)


def const_interval(value: int, width: int = 64) -> Interval:
    value &= _width_mask(width)
    return Interval(value, value, width)


# -- interval transfer functions ---------------------------------------------
#
# Each must over-approximate the concrete opcode on *arbitrary* inputs
# drawn from the operand intervals; wherever wraparound is possible the
# result widens to ⊤ instead of wrapping (precision is recovered by the
# reduced product when the bit domain knows more).  The property suite
# checks every one of these against the concrete interpreter.


def _iv_pext(src: Interval, mask: int) -> Interval:
    mask &= MASK64
    if src.is_const:
        return const_interval(concrete_pext(src.lo, mask))
    return Interval(0, _width_mask(popcount(mask)))


def _iv_shl(src: Interval, amount: int) -> Interval:
    if (src.hi << amount) <= MASK64:
        return Interval(src.lo << amount, src.hi << amount)
    return top_interval()


def _iv_shr(src: Interval, amount: int) -> Interval:
    return Interval(src.lo >> amount, src.hi >> amount)


def _iv_rotl(src: Interval, amount: int) -> Interval:
    amount %= 64
    if amount == 0:
        return src
    if src.is_const:
        return const_interval(rotl64(src.lo, amount))
    if src.hi < (1 << (64 - amount)):
        # No bit reaches the top, so the rotate is a plain shift —
        # monotone, hence exact on the bounds.  This is the fact the
        # rotl→shl strength reduction in ``optimize()`` relies on.
        return Interval(src.lo << amount, src.hi << amount)
    return top_interval()


def _iv_mul(src: Interval, multiplier: int) -> Interval:
    multiplier &= MASK64
    if multiplier == 0:
        return const_interval(0)
    if src.is_const:
        return const_interval((src.lo * multiplier) & MASK64)
    if src.hi * multiplier <= MASK64:
        return Interval(src.lo * multiplier, src.hi * multiplier)
    return top_interval()


def _iv_xor(a: Interval, b: Interval) -> Interval:
    if a.is_const and b.is_const:
        return const_interval(a.lo ^ b.lo, a.width)
    # xor cannot set a bit above the highest bit either operand can set.
    bound = _width_mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return Interval(0, bound, a.width)


def _iv_or(a: Interval, b: Interval) -> Interval:
    if a.is_const and b.is_const:
        return const_interval(a.lo | b.lo, a.width)
    # a|b >= max(a, b) and cannot exceed the joint bit length.
    bound = _width_mask(max(a.hi.bit_length(), b.hi.bit_length()))
    return Interval(max(a.lo, b.lo), bound, a.width)


def _iv_add(a: Interval, b: Interval) -> Interval:
    if a.hi + b.hi <= MASK64:
        return Interval(a.lo + b.lo, a.hi + b.hi)
    return top_interval()  # the sum can wrap for some operand pair


def _iv_aes_fold(state: Interval) -> Interval:
    if state.is_const:
        return const_interval((state.lo ^ (state.lo >> 64)) & MASK64)
    return top_interval()


# -- the reduced product -----------------------------------------------------


@dataclass(frozen=True)
class ProductValue:
    """One register's reduced-product state: known bits × interval."""

    bits: AbstractValue
    range: Interval

    def __post_init__(self) -> None:
        if self.bits.width != self.range.width:
            raise VerificationError(
                f"product widths disagree: bits {self.bits.width}, "
                f"range {self.range.width}"
            )

    @property
    def width(self) -> int:
        return self.bits.width

    def admits(self, concrete: int) -> bool:
        """Soundness check across both domains."""
        return self.bits.admits(concrete) and self.range.contains(concrete)

    def effective_width(self) -> int:
        """Highest possibly-set bit plus one, per the *product* facts."""
        return min(
            (self.bits.unknown | self.bits.ones).bit_length(),
            self.range.hi.bit_length(),
        )


def reduce_product(bits: AbstractValue, rng: Interval) -> ProductValue:
    """Refine known bits and interval against each other to a fixpoint.

    Bits → range: the interval meets ``[ones, ones | unknown]``.
    Range → bits: every bit above the highest differing bit of lo/hi is
    shared by all values in the interval and becomes known.  Each step
    is monotone (bits only become known, the interval only narrows), so
    the loop terminates; running it to the fixpoint makes the reduction
    idempotent — ``reduce(reduce(x)) == reduce(x)`` — which the
    property suite asserts.

    Raises:
        VerificationError: when the domains contradict each other,
            which can only mean one of them is unsound.
    """
    if bits.width != rng.width:
        raise VerificationError(
            f"product widths disagree: bits {bits.width}, range {rng.width}"
        )
    while True:
        blo, bhi = interval_from_bits(bits)
        lo = max(rng.lo, blo)
        hi = min(rng.hi, bhi)
        if lo > hi:
            raise VerificationError(
                "reduced product contradiction: interval "
                f"[{rng.lo:#x}, {rng.hi:#x}] vs known-bit range "
                f"[{blo:#x}, {bhi:#x}]"
            )
        refined = refine_known_bits(bits, lo, hi)
        narrowed = Interval(lo, hi, rng.width)
        if refined == bits and narrowed == rng:
            return ProductValue(bits, rng)
        bits, rng = refined, narrowed


def _product_const(value: int, width: Optional[int] = None) -> ProductValue:
    bits = const_value(value, width)
    return ProductValue(bits, const_interval(bits.value, bits.width))


# -- the opcode table --------------------------------------------------------

# Required width of each register operand; 0 means "the first operand's
# width" (xor and or work on 64-bit words and on 128-bit AES state).
_TRANSFERS: Dict[str, Tuple[Tuple[int, ...], Callable, Callable]] = {
    "pext": ((64,), _pext_value, _iv_pext),
    "shl": ((64,), _shl_value, _iv_shl),
    "shr": ((64,), _shr_value, _iv_shr),
    "rotl": ((64,), _rotl_value, _iv_rotl),
    "mul64": ((64,), _mul_value, _iv_mul),
    "xor": ((0, 0), _xor_value, _iv_xor),
    "or": ((0, 0), _or_value, _iv_or),
    "add": ((64, 64), _add_value, _iv_add),
    "aes_absorb": (
        (128, 64, 64),
        _aes_absorb_value,
        lambda state, lo, hi: top_interval(128),
    ),
    "aes_fold": ((128,), _aes_fold_value, _iv_aes_fold),
    "tail_xor": (
        (64,),
        lambda acc, start: _tail_xor_value(acc),
        lambda acc, start: top_interval(),
    ),
}
"""Opcode -> (operand widths, bit transfer, interval transfer).

Each transfer takes the register operands' abstract values in order,
then the instruction's immediates (a pext mask, a shift amount, a
tail start)."""


def _check_widths(op: str, widths: Tuple[int, ...], operands) -> None:
    first = operands[0].width
    for expected, operand in zip(widths, operands):
        if operand.width != (expected or first):
            if expected:
                raise VerificationError(
                    f"{op} expects a {expected}-bit operand, got a "
                    f"{operand.width}-bit register"
                )
            raise VerificationError(
                f"{op} mixes register widths {first} and {operand.width}"
            )


# -- the analyzer ------------------------------------------------------------


@dataclass
class DataflowResult:
    """Everything one multi-domain pass learned about an IR function.

    Attributes:
        values: final product state of every register defined before
            the (first) return.
        ret: product state of the returned register, or ``None``.
        ret_register: name of the returned register.
    """

    values: Dict[str, ProductValue]
    ret: Optional[ProductValue]
    ret_register: Optional[str]


def _product_pass(
    func: IRFunction, pattern: Optional[KeyPattern]
) -> DataflowResult:
    """The reduced-product pass itself, untraced.

    :func:`analyze_dataflow` and :func:`repro.verify.absint.analyze_ir`
    wrap it in their own spans.
    """
    values: Dict[str, ProductValue] = {}

    def get(arg) -> ProductValue:
        if isinstance(arg, int):
            return _product_const(arg)
        if arg not in values:
            raise VerificationError(
                f"register {arg!r} used before definition"
            )
        return values[arg]

    for instr in func.instrs:
        op, dest, args = instr.opcode, instr.dest, instr.args
        if op == "ret":
            register = args[0] if isinstance(args[0], str) else None
            return DataflowResult(values, get(args[0]), register)
        if op == "const":
            values[dest] = _product_const(args[0])
        elif op == "load64":
            values[dest] = reduce_product(
                seed_load(pattern, args[0], args[1]), top_interval()
            )
        elif op in ("xor", "or") and args[0] == args[1]:
            # x ^ x == 0 and x | x == x, whatever x is.
            source = get(args[0])
            values[dest] = (
                _product_const(0, source.width) if op == "xor" else source
            )
        elif op in _TRANSFERS:
            widths, bit_transfer, range_transfer = _TRANSFERS[op]
            operands = [get(arg) for arg in args[: len(widths)]]
            _check_widths(op, widths, operands)
            immediates = args[len(widths):]
            values[dest] = reduce_product(
                bit_transfer(*(o.bits for o in operands), *immediates),
                range_transfer(*(o.range for o in operands), *immediates),
            )
        else:
            raise VerificationError(f"unknown IR opcode: {op}")
    return DataflowResult(values, None, None)


def analyze_dataflow(
    func: IRFunction, pattern: Optional[KeyPattern] = None
) -> DataflowResult:
    """Run the reduced-product analysis over ``func``.

    Without a pattern, loads seed fully unknown (modulo the structural
    zero bytes of partial-width loads), so every derived fact holds for
    *arbitrary* input — the precondition for using these facts to
    justify rewrites that all backends must agree on.

    Raises:
        VerificationError: on malformed IR, or on a domain
            contradiction (an analyzer bug the caller must see).
    """
    with span("verify.dataflow", function=func.name):
        get_registry().counter("verify.dataflow.runs").inc()
        return _product_pass(func, pattern)


# -- entropy provenance ------------------------------------------------------


def key_bit_entropy(pattern: KeyPattern) -> Dict[int, float]:
    """Per-variable-key-bit entropy budget, in bits.

    Each byte class contributes ``log2(len(possible_bytes))`` bits of
    potential entropy (an upper bound: the quad lattice cannot express
    "only ten of sixteen nibble values occur", so this over-approximates
    real formats like decimal digits), split evenly across the byte's
    variable bit positions.  Keys are ``byte_index * 8 + bit``,
    matching the provenance encoding of :mod:`repro.verify.absint`.
    """
    shares: Dict[int, float] = {}
    for byte_index in range(pattern.num_bytes):
        byte = pattern.byte_pattern(byte_index)
        variable = [
            bit for bit in range(8) if (byte.variable_mask >> bit) & 1
        ]
        if not variable:
            continue
        share = math.log2(len(byte.possible_bytes())) / len(variable)
        for bit in variable:
            shares[8 * byte_index + bit] = share
    return shares


@dataclass(frozen=True)
class EntropyReport:
    """Min-entropy flow from the key format into one hash function.

    Attributes:
        live_input_bits: entropy of the variable key bits that reach
            the (finalizer-peeled) hash at all.
        total_input_bits: entropy of every variable key bit the fixed
            part of the format offers.
        capacity: ``sum(min(1, inflow))`` over output bits — an upper
            bound on how much of the input entropy the output can hold.
        active_output_bits: output bits with any inflow.
        lost_bits: live input entropy exceeding the capacity.
        avoidable_bits: the part of ``lost_bits`` a better 64-bit
            mixing could have kept (``min(live, 64) - capacity``);
            zero for variable-length plans, whose tail makes the
            budget unbounded.
        funneled_bits: output bits whose inflow exceeds one bit — the
            places where distinct inputs are forced to collide.
        max_inflow: the worst single output bit's inflow.
        has_tail: variable-length tail influence present.
        core_register: register the report was computed on (the return
            value with any invertible finalizer peeled off).
    """

    live_input_bits: float
    total_input_bits: float
    capacity: float
    active_output_bits: int
    lost_bits: float
    avoidable_bits: float
    funneled_bits: int
    max_inflow: float
    has_tail: bool
    core_register: Optional[str]

    def to_dict(self) -> Dict:
        return {
            "live_input_bits": round(self.live_input_bits, 3),
            "total_input_bits": round(self.total_input_bits, 3),
            "capacity": round(self.capacity, 3),
            "active_output_bits": self.active_output_bits,
            "lost_bits": round(self.lost_bits, 3),
            "avoidable_bits": round(self.avoidable_bits, 3),
            "funneled_bits": self.funneled_bits,
            "max_inflow": round(self.max_inflow, 3),
            "has_tail": self.has_tail,
            "core_register": self.core_register,
        }


def entropy_report(
    func: IRFunction,
    pattern: KeyPattern,
    result: Optional[DataflowResult] = None,
) -> EntropyReport:
    """Compute per-output-bit entropy inflow and funnel totals.

    The report is taken on the *core* value — the return register with
    any invertible finalizer (:func:`~repro.codegen.ir._emit_final_mix`
    rounds) peeled off, exactly as the bijectivity prover does — because
    a bijective mixer redistributes entropy but cannot create it, so a
    funnel upstream of the mixer is a funnel of the whole function.
    """
    from repro.verify.bijectivity import _peel_invertible_suffix

    if result is None:
        result = analyze_dataflow(func, pattern)
    if result.ret is None:
        raise VerificationError("function has no return value")
    core_register = _peel_invertible_suffix(func, result)
    core = (
        result.values.get(core_register)
        if core_register is not None
        else result.ret
    )
    if core is None:
        core = result.ret
        core_register = result.ret_register

    shares = key_bit_entropy(pattern)
    total_input = sum(shares.values())
    live_sources: FrozenSet = frozenset()
    capacity = 0.0
    active = 0
    funneled = 0
    max_inflow = 0.0
    has_tail = False
    for entry in core.bits.prov:
        if not entry:
            continue
        active += 1
        inflow = 0.0
        tail_here = False
        for source in entry:
            if source == TAIL:
                tail_here = True
                has_tail = True
            else:
                inflow += shares.get(source, 1.0)
        live_sources = live_sources | entry
        if tail_here:
            inflow = max(inflow, 1.0)
        capacity += min(1.0, inflow)
        if inflow > 1.0 + 1e-9:
            funneled += 1
        max_inflow = max(max_inflow, inflow)
    live_input = sum(
        shares.get(source, 1.0)
        for source in live_sources
        if source != TAIL
    )
    effective_capacity = min(capacity, live_input) if not has_tail else capacity
    lost = max(0.0, live_input - effective_capacity)
    if has_tail:
        avoidable = 0.0
    else:
        avoidable = max(0.0, min(live_input, 64.0) - effective_capacity)
    return EntropyReport(
        live_input_bits=live_input,
        total_input_bits=total_input,
        capacity=effective_capacity,
        active_output_bits=active,
        lost_bits=lost,
        avoidable_bits=avoidable,
        funneled_bits=funneled,
        max_inflow=max_inflow,
        has_tail=has_tail,
        core_register=core_register,
    )
