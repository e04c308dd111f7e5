"""Operation sequences against a dict model and a policy replay.

Each sequence of insert/find/erase (and ``assign`` on ``UnorderedMap``)
runs on a container and on a plain model.  Beyond the answers, the
table's observables are pinned: ``bucket_count`` and the resize-event
list must equal a replay of :class:`PrimeRehashPolicy` over the same
successful inserts, every node must sit in bucket
``(hash >> discard_bits) % bucket_count``, and ``bucket_collisions()``
must equal the B-Coll the model's stored hashes imply.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import LowMixingMap, UnorderedMap, UnorderedMultimap
from repro.containers.hashing_policy import PrimeRehashPolicy
from repro.obs import disable_container_telemetry, enable_container_telemetry

MASK64 = (1 << 64) - 1


def weak_hash(key: bytes) -> int:
    """Only the first two bytes count: distinct keys collide on the full
    64-bit hash, so the key equality probe is exercised, and the
    multiplier spreads entropy into the high bits for ``discard_bits``."""
    return (int.from_bytes(key[:2], "little") * 0x9E3779B97F4A7C15) & MASK64


keys = st.binary(min_size=1, max_size=3).map(lambda k: k[:1] + b"\x00" + k[1:])
ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert", "find", "erase", "assign"]),
        keys,
        st.integers(min_value=0, max_value=99),
    ),
    min_size=40,  # enough inserts to cross at least one resize
    max_size=300,
)


class PolicyReplay:
    """Bucket count and resize events of the policy, replayed."""

    def __init__(self):
        self.policy = PrimeRehashPolicy()
        self.bucket_count = self.policy.initial_bucket_count()
        self.size = 0
        self.events = []

    def inserted(self):
        if self.policy.needs_rehash(self.bucket_count, self.size):
            new = self.policy.next_bucket_count(self.bucket_count, self.size)
            self.events.append((self.bucket_count, new, self.size))
            self.bucket_count = new
        self.size += 1

    def erased(self, count):
        self.size -= count


def b_coll(hashes, bucket_count, discard_bits):
    per_bucket = Counter((h >> discard_bits) % bucket_count for h in hashes)
    return sum(n - 1 for n in per_bucket.values() if n > 1)


def check_observables(table, replay, stored_keys, discard_bits=0):
    assert len(table) == replay.size == len(stored_keys)
    assert table.bucket_count == replay.bucket_count
    assert table.telemetry.resize_events == replay.events
    for index, bucket in enumerate(table._buckets):
        for hash_value, key, _value in bucket:
            assert hash_value == weak_hash(key)
            assert (hash_value >> discard_bits) % table.bucket_count == index
    assert table.bucket_collisions() == b_coll(
        [weak_hash(key) for key in stored_keys],
        table.bucket_count,
        discard_bits,
    )


class TestUniqueKeyMaps:
    @given(ops)
    @settings(max_examples=80, deadline=None)
    def test_unordered_map(self, sequence):
        enable_container_telemetry()
        try:
            table = UnorderedMap(weak_hash)
        finally:
            disable_container_telemetry()
        model = {}
        replay = PolicyReplay()
        for op, key, value in sequence:
            if op == "insert":
                fresh = key not in model
                assert table.insert(key, value) is fresh
                if fresh:
                    model[key] = value
                    replay.inserted()
            elif op == "find":
                assert table.find(key) == model.get(key)
            elif op == "erase":
                removed = 1 if model.pop(key, None) is not None else 0
                assert table.erase(key) == removed
                replay.erased(removed)
            else:
                if key in model:
                    replay.erased(1)
                table.assign(key, value)
                model[key] = value
                replay.inserted()
        assert dict(table.items()) == model
        check_observables(table, replay, list(model))

    @pytest.mark.parametrize("discard_bits", [0, 48])
    @given(sequence=ops)
    @settings(max_examples=60, deadline=None)
    def test_low_mixing_map(self, discard_bits, sequence):
        enable_container_telemetry()
        try:
            table = LowMixingMap(weak_hash, discard_bits=discard_bits)
        finally:
            disable_container_telemetry()
        model = {}
        replay = PolicyReplay()
        for op, key, value in sequence:
            if op in ("insert", "assign"):
                fresh = key not in model
                assert table.insert(key, value) is fresh
                if fresh:
                    model[key] = value
                    replay.inserted()
            elif op == "find":
                assert table.find(key) == model.get(key)
            else:
                removed = 1 if model.pop(key, None) is not None else 0
                assert table.erase(key) == removed
                replay.erased(removed)
        assert dict(table.items()) == model
        check_observables(table, replay, list(model), discard_bits)


class TestMultimap:
    @given(ops)
    @settings(max_examples=80, deadline=None)
    def test_unordered_multimap(self, sequence):
        enable_container_telemetry()
        try:
            table = UnorderedMultimap(weak_hash)
        finally:
            disable_container_telemetry()
        model = {}
        replay = PolicyReplay()
        for op, key, value in sequence:
            if op in ("insert", "assign"):
                assert table.insert(key, value) is True
                model.setdefault(key, []).append(value)
                replay.inserted()
            elif op == "find":
                # Equal keys share a chain and keep their insertion
                # order through rehashes: find sees the oldest value.
                assert table.find(key) == model.get(key, [None])[0]
                assert table.find_all(key) == model.get(key, [])
            else:
                removed = len(model.pop(key, []))
                assert table.erase(key) == removed
                replay.erased(removed)
        stored = [key for key, values in model.items() for _ in values]
        assert Counter(table.items()) == Counter(
            (key, value) for key, values in model.items() for value in values
        )
        check_observables(table, replay, stored)
