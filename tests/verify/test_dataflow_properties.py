"""Property-based soundness tests for the interval domain.

Every range transfer function in :mod:`repro.verify.dataflow` must be
*sound*: for any concrete operands admitted by the input intervals, the
concrete result of the operation must lie inside the transferred
interval.  Hypothesis drives random concrete values plus random
abstractions containing them (the "abstraction of a singleton" pattern
— the ROADMAP strategy-bridge item), so a wraparound case the
hand-written tests missed shows up as a shrunk counterexample.

Also covered: reduced-product refinement is idempotent and never drops
a value both component domains admit.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.bits import MASK64, pext, rotl64
from repro.verify.absint import EMPTY, AbstractValue, refine_known_bits
from repro.verify.dataflow import (
    Interval,
    _iv_aes_fold,
    _iv_mul,
    _iv_or,
    _iv_pext,
    _iv_rotl,
    _iv_shl,
    _iv_shr,
    _iv_xor,
    reduce_product,
)

u64 = st.integers(min_value=0, max_value=MASK64)
u128 = st.integers(min_value=0, max_value=(1 << 128) - 1)
shift = st.integers(min_value=0, max_value=63)


@st.composite
def value_with_interval(draw, width=64):
    """A concrete value plus a random interval containing it."""
    top = (1 << width) - 1
    value = draw(st.integers(min_value=0, max_value=top))
    lo = draw(st.integers(min_value=0, max_value=value))
    hi = draw(st.integers(min_value=value, max_value=top))
    return value, Interval(lo, hi, width)


@st.composite
def value_with_bits(draw, width=64):
    """A concrete value plus a random known-bits abstraction of it."""
    top = (1 << width) - 1
    value = draw(st.integers(min_value=0, max_value=top))
    known = draw(st.integers(min_value=0, max_value=top))
    bits = AbstractValue(
        zeros=~value & known & top,
        ones=value & known,
        prov=(EMPTY,) * width,
        width=width,
    )
    return value, bits


class TestUnaryTransferSoundness:
    @given(value_with_interval(), u64)
    def test_pext(self, src, mask):
        value, interval = src
        assert _iv_pext(interval, mask).contains(pext(value, mask))

    @given(value_with_interval(), shift)
    def test_shl(self, src, amount):
        value, interval = src
        assert _iv_shl(interval, amount).contains(
            (value << amount) & MASK64
        )

    @given(value_with_interval(), shift)
    def test_shr(self, src, amount):
        value, interval = src
        assert _iv_shr(interval, amount).contains(value >> amount)

    @given(value_with_interval(), st.integers(min_value=0, max_value=127))
    def test_rotl(self, src, amount):
        value, interval = src
        assert _iv_rotl(interval, amount).contains(rotl64(value, amount))

    @given(value_with_interval(), u64)
    def test_mul(self, src, multiplier):
        value, interval = src
        assert _iv_mul(interval, multiplier).contains(
            (value * multiplier) & MASK64
        )

    @given(value_with_interval(width=128))
    def test_aes_fold(self, src):
        value, interval = src
        assert _iv_aes_fold(interval).contains(
            (value ^ (value >> 64)) & MASK64
        )


class TestBinaryTransferSoundness:
    @given(value_with_interval(), value_with_interval())
    def test_xor(self, left, right):
        a, ia = left
        b, ib = right
        assert _iv_xor(ia, ib).contains(a ^ b)

    @given(value_with_interval(), value_with_interval())
    def test_or(self, left, right):
        a, ia = left
        b, ib = right
        assert _iv_or(ia, ib).contains(a | b)


class TestReducedProduct:
    @given(value_with_bits(), st.data())
    @settings(max_examples=300)
    def test_refinement_sound(self, abstraction, data):
        """The product admits every value both components admit."""
        value, bits = abstraction
        lo = data.draw(st.integers(min_value=0, max_value=value))
        hi = data.draw(st.integers(min_value=value, max_value=MASK64))
        product = reduce_product(bits, Interval(lo, hi))
        assert product.admits(value)

    @given(value_with_bits(), st.data())
    @settings(max_examples=300)
    def test_refinement_idempotent(self, abstraction, data):
        """Reducing an already-reduced product changes nothing."""
        value, bits = abstraction
        lo = data.draw(st.integers(min_value=0, max_value=value))
        hi = data.draw(st.integers(min_value=value, max_value=MASK64))
        once = reduce_product(bits, Interval(lo, hi))
        twice = reduce_product(once.bits, once.range)
        assert twice.bits == once.bits
        assert twice.range == once.range

    @given(value_with_bits())
    def test_refine_known_bits_sound(self, abstraction):
        """Prefix refinement from a range never forgets the value."""
        value, bits = abstraction
        refined = refine_known_bits(bits, value, value | bits.unknown)
        assert refined.admits(value)
