"""Ragged batches: key lengths that sum to ``n * key_length`` are no row view.

A batch entry of a fixed-length plan may hash its keys as one
``uint8[n, L]`` block only when *every* key is ``L`` bytes long.  A
batch of short and long keys whose lengths merely add up to ``n * L``
joins into a block of the right size, but its rows straddle key
boundaries.  Every batch tier must hash each key exactly as the scalar
function does, which zero-fills past a short key's end and ignores the
bytes past ``L`` of a long one.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.codegen import native as native_mod
from repro.codegen.batch import VECTOR_MIN_KEYS
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen import Distribution, generate_keys, key_spec

FORMATS = ("SSN", "MAC", "IPV4", "CPF")

SSN_REPRO = [b"123-45-678", b"123-45-67890"]
"""One key a byte short, one a byte long: 22 bytes, as two SSNs."""

_SYNTHESIZED = {}


def synthesized_for(name, family):
    """One synthesized hash per (format, family), shared by examples."""
    key = (name, family)
    if key not in _SYNTHESIZED:
        _SYNTHESIZED[key] = synthesize(key_spec(name).regex, family)
    return _SYNTHESIZED[key]


@st.composite
def ragged_batches(draw):
    """``(format, keys)``: at least ``VECTOR_MIN_KEYS`` keys of mixed
    lengths whose lengths sum to ``len(keys) * key_length``.

    Starts from conforming keys and moves bytes between them: each move
    cuts ``amount`` bytes off one key and appends as many drawn bytes to
    another, so the total never changes.
    """
    name = draw(st.sampled_from(FORMATS))
    count = draw(st.integers(VECTOR_MIN_KEYS, 48))
    seed = draw(st.integers(0, 2**16))
    keys = [
        bytearray(key)
        for key in generate_keys(name, count, Distribution.UNIFORM, seed=seed)
    ]
    moves = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1),
                st.integers(1, count - 1),
                st.integers(1, 12),
            ),
            min_size=1,
            max_size=8,
        )
    )
    for short, step, amount in moves:
        long = (short + step) % count
        amount = min(amount, len(keys[short]))
        del keys[short][len(keys[short]) - amount :]
        keys[long].extend(draw(st.binary(min_size=amount, max_size=amount)))
    return name, [bytes(key) for key in keys]


def _assert_sums_to_rows(name, keys):
    length = synthesized_for(name, HashFamily.PEXT).plan.key_length
    assert sum(map(len, keys)) == len(keys) * length


@settings(max_examples=60, deadline=None)
@given(batch=ragged_batches(), family=st.sampled_from(list(HashFamily)))
@example(batch=("SSN", SSN_REPRO * 10), family=HashFamily.PEXT)
def test_numpy_list_entry_hashes_each_key(batch, family):
    name, keys = batch
    _assert_sums_to_rows(name, keys)
    synthesized = synthesized_for(name, family)
    assert synthesized.hash_many(keys) == [
        synthesized.function(key) for key in keys
    ]


requires_compiler = pytest.mark.skipif(
    not native_mod.native_available(),
    reason="no working C++ toolchain on this host",
)


@pytest.mark.native
@requires_compiler
@settings(max_examples=60, deadline=None)
@given(batch=ragged_batches(), family=st.sampled_from(list(HashFamily)))
@example(batch=("SSN", SSN_REPRO), family=HashFamily.PEXT)
def test_native_batch_entries_hash_each_key(batch, family):
    name, keys = batch
    _assert_sums_to_rows(name, keys)
    synthesized = synthesized_for(name, family)
    module = synthesized.native_module
    expected = [synthesized.function(key) for key in keys]
    assert module.hash_many(keys) == expected
    assert module.hash_many_array(keys).tolist() == expected
