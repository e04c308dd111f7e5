"""Batched fallback hashing: ``fallback.lanes`` against one call per key.

The STL murmur fallback carries a NumPy row kernel as ``.lanes``;
:func:`repro.core.routes.hash_fallback` uses it for runs of unrouted
keys.  A custom fallback without ``.lanes`` must still be called once
per unrouted key, and both must yield the same values and the same
fallback counters through every front door.
"""

import random

import pytest

from repro.codegen.batch import VECTOR_MIN_KEYS
from repro.core.dispatch import FormatDispatcher
from repro.core.plan import HashFamily
from repro.core.routes import RouteState, RouteTable, hash_fallback
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.obs.metrics import MetricsRegistry
from repro.serve import HashService
from repro.serve.shard import Shard

np = pytest.importorskip("numpy")

SSN = KEY_TYPES["SSN"].regex
MAC = KEY_TYPES["MAC"].regex


class PerKeyFallback:
    """The STL port behind a plain callable: no ``.lanes``, calls counted."""

    def __init__(self):
        self.calls = 0

    def __call__(self, key):
        self.calls += 1
        return stl_hash_bytes(key)


def unrouted_keys(seed, count=90):
    """Keys of mixed lengths (0-40 bytes, 11 excluded) no route owns."""
    rng = random.Random(seed)
    lengths = [0, 1, 7, 8, 9, 16, 24, 24, 24, 33, 40]
    return [
        bytes(rng.choices(b"xyz#!", k=rng.choice(lengths)))
        for _ in range(count)
    ]


def mixed_batch(seed):
    keys = (
        generate_keys("SSN", 300, Distribution.UNIFORM, seed=seed)
        + generate_keys("MAC", 200, Distribution.UNIFORM, seed=seed)
        + unrouted_keys(seed)
    )
    random.Random(seed).shuffle(keys)
    return keys


def reference(keys, table):
    values = []
    for key in keys:
        route = table.resolve(key)
        values.append(
            stl_hash_bytes(key) if route is None else route.scalar(key)
        )
    return values


@pytest.fixture(scope="module")
def table():
    return RouteTable(
        [
            RouteState("r0", synthesize(SSN, HashFamily.PEXT),
                       prefer_native=False),
            RouteState("r1", synthesize(MAC, HashFamily.AES),
                       prefer_native=False),
        ]
    )


class TestHashFallback:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mixed_lengths_match_per_key(self, seed):
        keys = unrouted_keys(seed, count=200)
        values = hash_fallback(stl_hash_bytes, keys)
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [stl_hash_bytes(key) for key in keys]

    def test_rows_of_one_length(self):
        keys = [bytes([i]) * 24 for i in range(VECTOR_MIN_KEYS)]
        rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(-1, 24)
        values = hash_fallback(stl_hash_bytes, keys, rows)
        assert values.tolist() == [stl_hash_bytes(key) for key in keys]

    def test_without_lanes_one_call_per_key(self):
        fallback = PerKeyFallback()
        keys = unrouted_keys(2, count=64)
        assert hash_fallback(fallback, keys) == [
            stl_hash_bytes(key) for key in keys
        ]
        assert fallback.calls == len(keys)

    def test_short_batches_stay_per_key(self):
        keys = [b"k" * 24] * (VECTOR_MIN_KEYS - 1)
        values = hash_fallback(stl_hash_bytes, keys)
        assert values == [stl_hash_bytes(key) for key in keys]

    def test_empty(self):
        assert list(hash_fallback(stl_hash_bytes, [])) == []


class TestFrontDoorsAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_format_dispatcher(self, table, seed):
        keys = mixed_batch(seed)
        results = {}
        for name, fallback in (
            ("lanes", stl_hash_bytes), ("per_key", PerKeyFallback())
        ):
            registry = MetricsRegistry()
            dispatcher = FormatDispatcher(
                fallback=fallback, registry=registry, prefer_native=False
            )
            dispatcher.register(SSN, family=HashFamily.PEXT)
            dispatcher.register(MAC, family=HashFamily.AES)
            results[name] = (
                dispatcher.hash_many(keys),
                registry.counter("dispatch.fallback").value,
            )
            if name == "per_key":
                assert fallback.calls == results[name][1]
        assert results["lanes"] == results["per_key"]
        values, fallback_count = results["lanes"]
        assert fallback_count == 90
        assert values == reference(keys, table)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_shard_hash_many_array(self, table, seed):
        keys = mixed_batch(seed)
        per_key = PerKeyFallback()
        batched = Shard(0, table, stl_hash_bytes)
        unbatched = Shard(1, table, per_key)
        values = batched.hash_many_array(keys)
        assert values.tolist() == unbatched.hash_many_array(keys).tolist()
        assert values.tolist() == reference(keys, table)
        assert batched.snapshot()["fallback"] == 90
        assert unbatched.snapshot()["fallback"] == 90
        assert per_key.calls == 90

    def test_service_stream(self):
        keys = mixed_batch(3) + unrouted_keys(4, count=300)
        delivered = {}
        for name, fallback in (
            ("lanes", stl_hash_bytes), ("per_key", PerKeyFallback())
        ):
            batches = []
            svc = HashService(
                shards=1,
                flush_size=64,
                sink=lambda route, batch, values: batches.append(
                    (route, list(batch), [int(v) for v in values])
                ),
                fallback=fallback,
                registry=MetricsRegistry(),
                prefer_native=False,
            )
            svc.register(SSN, family=HashFamily.PEXT)
            svc.register(MAC, family=HashFamily.AES)
            for key in keys:
                svc.submit(key)
            svc.flush()
            unrouted = [
                (key, value)
                for route, batch, values in batches
                if route is None
                for key, value in zip(batch, values)
            ]
            delivered[name] = (unrouted, svc.stats()["fallback"])
            if name == "per_key":
                assert fallback.calls == len(unrouted)
        assert delivered["lanes"] == delivered["per_key"]
        unrouted, fallback_count = delivered["lanes"]
        assert fallback_count == len(unrouted) == 390
        assert all(value == stl_hash_bytes(key) for key, value in unrouted)
