"""Flush-time sampling picks exactly the keys the per-key rule picks.

A streaming shard samples a flushed buffer by slice,
``keys[mask::mask + 1]``.  The reference model below is the per-key
rule it replaces: after appending a key to its route's pending buffer
(or the fallback buffer), sample it when ``len(buffer) & mask == 0``,
and start a fresh buffer once it holds ``flush_size`` keys.  After a
final ``flush()`` the two must have drawn the same samples, in the same
order, with the same counts.
"""

import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import HashFamily
from repro.core.routes import RouteState, RouteTable
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.serve.shard import Shard, sampling_mask

SWAP = None
"""An operation that swaps route ``r0`` for its next generation."""


@pytest.fixture(scope="module")
def tables():
    routes = [
        RouteState(f"r{index}", synthesize(regex, HashFamily.PEXT),
                   prefer_native=False)
        for index, regex in enumerate((
            KEY_TYPES["SSN"].regex,
            KEY_TYPES["MAC"].regex,
            # Two 14-byte formats: length 14 is contested, so those
            # keys resolve through the templates.
            KEY_TYPES["CPF"].regex,
            r"[A-Z]{14}",
        ))
    ]
    before = RouteTable(routes)
    first = routes[0]
    after = before.with_route(
        RouteState(first.route_id, first.synthesized,
                   generation=first.generation + 1, prefer_native=False)
    )
    return before, after


def key_pool():
    rng = random.Random(0)
    return (
        generate_keys("SSN", 8, Distribution.UNIFORM, seed=0)
        + generate_keys("MAC", 4, Distribution.UNIFORM, seed=0)
        + generate_keys("CPF", 4, Distribution.UNIFORM, seed=0)
        + [bytes(rng.choices(b"ABCDEFGHIJ", k=14)) for _ in range(4)]
        # Unrouted: a 14-byte key neither template accepts, and a
        # length no route owns.
        + [b"?" * 14, b"no-route-has-this-length"]
    )


KEYS = key_pool()

operations = st.lists(
    st.one_of(
        st.integers(0, len(KEYS) - 1),
        st.just(SWAP),
    ),
    max_size=300,
)


def reference_samples(tables, ops, flush_size, mask):
    """Today's per-key rule, as a model over buffer lengths."""
    table = tables[0]
    lengths = {}
    samples = {}
    unrouted = []
    for op in ops:
        if op is SWAP:
            table = tables[1]
            continue
        key = KEYS[op]
        route = table.fast.get(len(key))
        if route is None:
            route = table.resolve_checked(key)
        bucket = None if route is None else route.route_id
        length = lengths.get(bucket, 0) + 1
        if not length & mask:
            if bucket is None:
                unrouted.append(key)
            else:
                samples.setdefault(bucket, []).append(key)
        lengths[bucket] = 0 if length >= flush_size else length
    return samples, unrouted


@settings(max_examples=150, deadline=None)
@given(
    ops=operations,
    flush_size=st.integers(1, 40),
    sample_every=st.sampled_from([0, 1, 2, 3, 4, 5, 8, 64]),
)
def test_flush_sampling_matches_the_per_key_rule(
    tables, ops, flush_size, sample_every
):
    before, after = tables
    shard = Shard(0, before, stl_hash_bytes, flush_size=flush_size,
                  sample_every=sample_every)
    for op in ops:
        if op is SWAP:
            shard.table, shard.fast_map = after, after.fast
        else:
            shard.submit(KEYS[op])
    shard.flush()
    expected, expected_unrouted = reference_samples(
        tables, ops, flush_size, sampling_mask(sample_every)
    )
    samples, unrouted = shard.drain_samples()
    assert samples == expected
    assert unrouted == expected_unrouted
    assert shard.sampled == (
        sum(len(keys) for keys in expected.values()) + len(expected_unrouted)
    )
    assert shard.snapshot()["submitted"] == len(ops) - ops.count(SWAP)
