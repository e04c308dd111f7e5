"""Shard.hash_many: length-run grouping against per-key hashing."""

import random

import pytest

from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.core.routes import RouteState, RouteTable
from repro.serve.shard import Shard

FORMATS = (
    (KEY_TYPES["SSN"].regex, HashFamily.PEXT),
    (KEY_TYPES["MAC"].regex, HashFamily.AES),
    # Two 14-byte formats: no route owns length 14 outright, so those
    # keys resolve one by one through the templates.
    (KEY_TYPES["CPF"].regex, HashFamily.OFFXOR),
    (r"[A-Z]{14}", HashFamily.NAIVE),
    (r"[0-9a-f]{20,30}", HashFamily.NAIVE),
)


@pytest.fixture(scope="module")
def table():
    return RouteTable(
        [
            RouteState(f"r{index}", synthesize(regex, family),
                       prefer_native=False)
            for index, (regex, family) in enumerate(FORMATS)
        ]
    )


def mixed_keys(seed):
    rng = random.Random(seed)
    keys = (
        generate_keys("SSN", 40, Distribution.UNIFORM, seed=seed)
        + generate_keys("MAC", 3, Distribution.UNIFORM, seed=seed)
        + generate_keys("CPF", 20, Distribution.UNIFORM, seed=seed)
        + [bytes(rng.choices(b"ABCDEFGHIJ", k=14)) for _ in range(5)]
        + [bytes(rng.choices(b"0123456789abcdef", k=rng.randint(20, 30)))
           for _ in range(17)]
        # Fallback keys: an unregistered length, a 14-byte key neither
        # template accepts, and the empty key.
        + [b"no-format-has-a-key-this-long-0123456789", b"?" * 14, b""]
    )
    rng.shuffle(keys)
    return keys


def counts(shard):
    snapshot = shard.snapshot()
    return {
        name: snapshot[name]
        for name in ("submitted", "hashed", "fallback", "routes")
    }


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hash_many_matches_per_key_hashing(table, seed):
    keys = mixed_keys(seed)
    batched = Shard(0, table, stl_hash_bytes)
    per_key = Shard(1, table, stl_hash_bytes)
    values = batched.hash_many(keys)
    assert values == [per_key.hash(key) for key in keys]
    assert counts(batched) == counts(per_key)
    assert counts(batched)["fallback"] == 3
    assert batched.snapshot()["routes"]["r3"] == 5


def test_hash_many_values_match_the_route_functions(table):
    keys = mixed_keys(3)
    values = Shard(0, table, stl_hash_bytes).hash_many(keys)
    for key, value in zip(keys, values):
        route = table.resolve(key)
        expected = stl_hash_bytes(key) if route is None else route.scalar(key)
        assert value == expected


def test_empty_and_single_key_batches(table):
    shard = Shard(0, table, stl_hash_bytes)
    assert shard.hash_many([]) == []
    key = generate_keys("SSN", 1, Distribution.UNIFORM, seed=4)[0]
    assert shard.hash_many([key]) == [table.resolve(key).scalar(key)]


def test_hash_many_array_is_the_list_path_unboxed(table):
    keys = mixed_keys(5)
    arrayed = Shard(0, table, stl_hash_bytes)
    listed = Shard(1, table, stl_hash_bytes)
    values = arrayed.hash_many_array(keys)
    assert str(values.dtype) == "uint64"
    assert values.tolist() == listed.hash_many(keys)
    assert counts(arrayed) == counts(listed)
