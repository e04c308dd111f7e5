"""HashService: registration, traffic interfaces, sharding, promotion."""

import threading

import pytest

from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.obs.metrics import MetricsRegistry
from repro.serve import HashService
from repro.serve.shard import sampling_mask

SSN = KEY_TYPES["SSN"].regex
MAC = KEY_TYPES["MAC"].regex


class CollectingSink:
    """Thread-safe (route, keys, values) recorder."""

    def __init__(self):
        self.lock = threading.Lock()
        self.batches = []

    def __call__(self, route, keys, values):
        with self.lock:
            self.batches.append((route, keys, values))

    @property
    def delivered(self):
        with self.lock:
            return sum(len(keys) for _, keys, _ in self.batches)


def service(**kwargs):
    kwargs.setdefault("registry", MetricsRegistry())
    return HashService(**kwargs)


class TestSamplingMask:
    def test_rounds_to_power_of_two(self):
        assert sampling_mask(1) == 0          # every key
        assert sampling_mask(64) == 63
        assert sampling_mask(100) == 127      # next power of two
        assert bin(sampling_mask(5)).count("0") <= 1

    def test_zero_disables(self):
        mask = sampling_mask(0)
        assert mask & 0xFFFF == 0xFFFF  # never fires in any real stream


class TestSynchronousHashing:
    @pytest.fixture(scope="class")
    def svc(self):
        svc = service(shards=2)
        svc.register(SSN, label="SSN")
        svc.register(MAC, label="MAC")
        return svc

    def test_matches_direct_synthesis(self, svc):
        direct = synthesize(SSN, HashFamily.PEXT)
        for key in generate_keys("SSN", 20, Distribution.UNIFORM, seed=0):
            assert svc.hash(key) == direct(key)
            assert svc(key) == direct(key)

    def test_unrouted_key_uses_fallback(self, svc):
        key = b"unregistered-length-key"
        assert svc.hash(key) == stl_hash_bytes(key)

    def test_hash_many_parity(self, svc):
        keys = (
            generate_keys("SSN", 15, Distribution.UNIFORM, seed=1)
            + generate_keys("MAC", 15, Distribution.UNIFORM, seed=1)
            + [b"???"]
        )
        assert svc.hash_many(keys) == [svc.hash(key) for key in keys]

    def test_hash_many_array_parity(self, svc):
        numpy = pytest.importorskip("numpy")
        keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=2)
        values = svc.hash_many_array(keys)
        assert values.dtype == numpy.uint64
        assert [int(v) for v in values] == svc.hash_many(keys)
        mixed = keys + [b"???"]
        assert list(svc.hash_many_array(mixed)) == svc.hash_many(mixed)

    def test_register_examples_infers_format(self):
        svc = service(shards=1)
        examples = generate_keys("SSN", 50, Distribution.UNIFORM, seed=3)
        state = svc.register_examples(examples, label="inferred")
        assert state.pattern.min_length == 11
        assert svc.hash(examples[0]) == state.synthesized.function(
            examples[0]
        )


class TestStreaming:
    def test_submit_delivers_everything_on_flush(self):
        sink = CollectingSink()
        svc = service(shards=1, flush_size=32, sink=sink)
        state = svc.register(SSN)
        keys = generate_keys("SSN", 100, Distribution.UNIFORM, seed=4)
        for key in keys:
            svc.submit(key)
        # 100 keys at flush_size 32: three full flushes, 4 pending.
        assert sink.delivered == 96
        svc.flush()
        assert sink.delivered == 100
        reference = state.synthesized.function
        for route, batch_keys, values in sink.batches:
            assert route.route_id == state.route_id
            assert [int(v) for v in values] == [
                reference(key) for key in batch_keys
            ]

    def test_fallback_traffic_reaches_sink_with_none_route(self):
        sink = CollectingSink()
        svc = service(shards=1, flush_size=8, sink=sink)
        svc.register(SSN)
        for _ in range(10):
            svc.submit(b"odd-length-key")
        svc.flush()
        fallback_batches = [
            batch for batch in sink.batches if batch[0] is None
        ]
        assert sum(len(b[1]) for b in fallback_batches) == 10
        assert all(
            int(value) == stl_hash_bytes(key)
            for _, batch_keys, values in fallback_batches
            for key, value in zip(batch_keys, values)
        )

    def test_sampling_feeds_shard_accumulators(self):
        svc = service(shards=1, sample_every=8, flush_size=64)
        svc.register(SSN)
        for key in generate_keys("SSN", 256, Distribution.UNIFORM, seed=5):
            svc.submit(key)
        (shard,) = svc.shards
        assert shard.sampled == 256 // 8
        samples, unrouted = shard.drain_samples()
        assert sum(len(keys) for keys in samples.values()) == 32
        assert unrouted == []
        # Drained: the next drain starts empty.
        assert shard.drain_samples() == ({}, [])

    def test_stats_shape(self):
        svc = service(shards=2)
        svc.register(SSN, label="SSN")
        for key in generate_keys("SSN", 10, Distribution.UNIFORM, seed=6):
            svc.hash(key)
        stats = svc.stats()
        assert stats["registered"] == 1
        assert stats["hashed"] == 10
        assert stats["fallback"] == 0
        assert len(stats["shards"]) == 2
        (route_row,) = stats["routes"]
        assert route_row["label"] == "SSN"
        assert route_row["hashed"] == 10
        assert route_row["generation"] == 0


class TestSharding:
    def test_threads_bind_round_robin_and_promote(self):
        svc = service(shards=2)
        svc.register(SSN)
        bound = []
        barrier = threading.Barrier(3)

        def worker():
            barrier.wait()
            shard = svc.shard_for_caller()
            bound.append(shard.index)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(bound) == [0, 0, 1]
        # The doubly-assigned lane was promoted to the locked discipline.
        shared_flags = sorted(shard.shared for shard in svc.shards)
        assert shared_flags == [False, True]
        assert svc.registry.counter("serve.shard_promotions").value == 1

    def test_oversubscribed_service_loses_nothing(self):
        # 6 submitter threads on 2 shards: every lane is shared, every
        # submitted key must reach the sink exactly once.
        sink = CollectingSink()
        svc = service(shards=2, flush_size=64, sink=sink)
        svc.register(SSN)
        per_thread = 2_000
        barrier = threading.Barrier(6)

        def worker(seed):
            keys = generate_keys(
                "SSN", per_thread, Distribution.UNIFORM, seed=seed
            )
            submit = svc.submitter()
            barrier.wait()
            for key in keys:
                submit(key)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        svc.flush()
        assert sink.delivered == 6 * per_thread
        assert all(shard.shared for shard in svc.shards)

    def test_swap_mid_traffic_changes_generation_not_results(self):
        sink = CollectingSink()
        svc = service(shards=1, flush_size=16, sink=sink)
        state = svc.register(SSN)
        keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=7)
        for key in keys[:32]:
            svc.submit(key)
        from repro.core.routes import RouteState

        successor = RouteState(
            state.route_id,
            synthesize(SSN, HashFamily.PEXT),
            generation=state.generation + 1,
        )
        svc.swap_route(successor)
        assert svc.table.version == 2  # register + swap
        for key in keys[32:]:
            svc.submit(key)
        svc.flush()
        assert sink.delivered == 64
        generations = {route.generation for route, _, _ in sink.batches}
        assert 1 in generations  # post-swap traffic served by gen 1
        # Same format either side of the swap: identical hash values.
        for route, batch_keys, values in sink.batches:
            reference = route.synthesized.function
            assert [int(v) for v in values] == [
                reference(key) for key in batch_keys
            ]

    def test_start_twice_raises_and_stop_is_idempotent(self):
        svc = service(shards=1)
        svc.register(SSN)
        svc.start(interval=60)
        try:
            with pytest.raises(RuntimeError):
                svc.start(interval=60)
        finally:
            svc.stop()
        svc.stop()  # second stop: no-op
        assert svc.reconciler is None
