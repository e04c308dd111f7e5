"""HashService: registration, traffic interfaces, lanes, sink faults."""

import sys
import threading
from collections import Counter

import pytest

from repro.core.plan import HashFamily
from repro.core.routes import RouteState
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

    @pytest.mark.parametrize("routed", [True, False])
    def test_raising_sink_counts_the_lost_batch(self, routed):
        batches = []

        def sink(route, keys, values):
            batches.append(len(keys))
            if len(batches) == 2:
                raise RuntimeError("sink down")

        svc = service(shards=1, flush_size=32, sink=sink)
        svc.register(SSN)
        if routed:
            keys = generate_keys("SSN", 160, Distribution.UNIFORM, seed=9)
        else:
            keys = [b"off-format-key-%04d" % index for index in range(160)]
        raised = 0
        for key in keys[:128]:
            try:
                svc.submit(key)
            except RuntimeError:
                raised += 1
        assert raised == 1  # re-raised to the submitter
        assert svc.stats()["hashed"] == 128
        assert sum(batches) - batches[1] == 96
        registry = svc.registry
        assert registry.counter("serve.sink_errors").value == 1
        assert registry.counter("serve.sink_dropped_keys").value == 32
        # Later traffic keeps flowing through the same lane.
        for key in keys[128:]:
            svc.submit(key)
        svc.flush()
        assert sum(batches) - batches[1] == 128
        assert svc.stats()["pending"] == 0

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
    def test_first_threads_own_lanes_later_threads_share_one(self):
        lock_held = []

        def sink(route, keys, values):
            lane = svc.shard_for_caller()
            lock_held.append((lane.index, lane.lock.locked()))

        svc = service(shards=2, flush_size=1, sink=sink)
        svc.register(SSN)
        key = generate_keys("SSN", 1, Distribution.UNIFORM, seed=8)[0]
        bound = []
        barrier = threading.Barrier(5)

        def worker():
            barrier.wait()
            shard = svc.shard_for_caller()
            assert svc.shard_for_caller() is shard  # bound for life
            bound.append(shard)
            svc.submit(key)

        threads = [threading.Thread(target=worker) for _ in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(shard.index for shard in bound) == [0, 1, 2, 2, 2]
        lanes = svc.shards
        assert [shard.shared for shard in lanes] == [False, False, True]
        assert svc.registry.counter("serve.shard_promotions").value == 3
        # Exclusive lanes never lock; the overflow lane always does.
        assert sorted(lock_held) == [
            (0, False), (1, False), (2, True), (2, True), (2, True)
        ]
        # The overflow lane takes part in table installs like the rest
        # (register, the native upgrade at go-live, register).
        svc.register(MAC)
        assert {shard.table.version for shard in lanes} == {
            3 if svc.table.routes[0].native else 2
        }

    def test_oversubscribed_service_loses_nothing(self):
        # 6 submitter threads on 2 lanes: two own a lane, four share
        # the locked overflow lane.  With the reconciler draining
        # samples, a swap landing mid-traffic and a tiny switch
        # interval, every submitted key must reach the sink exactly
        # once.
        sink = CollectingSink()
        svc = service(shards=2, flush_size=64, sink=sink)
        state = svc.register(SSN)
        per_thread = 2_000
        streams = [
            generate_keys("SSN", per_thread, Distribution.UNIFORM, seed=seed)
            for seed in range(6)
        ]
        barrier = threading.Barrier(6)
        halfway = threading.Event()
        swapped = threading.Event()

        def worker(keys):
            submit = svc.submitter()
            barrier.wait()
            for position, key in enumerate(keys):
                if position == per_thread // 2:
                    # The swap lands while the slower threads still
                    # submit; every thread's second half runs after it.
                    halfway.set()
                    swapped.wait()
                submit(key)

        threads = [
            threading.Thread(target=worker, args=(keys,)) for keys in streams
        ]
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        svc.start(interval=0.001)
        try:
            for thread in threads:
                thread.start()
            halfway.wait()
            try:
                svc.swap_route(
                    RouteState(
                        state.route_id,
                        state.synthesized,
                        generation=state.generation + 1,
                    )
                )
            finally:
                swapped.set()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(switch_interval)
            svc.stop()
        svc.flush()
        assert sink.delivered == 6 * per_thread
        delivered = Counter(
            key for _, batch_keys, _ in sink.batches for key in batch_keys
        )
        assert delivered == Counter(key for keys in streams for key in keys)
        assert [shard.shared for shard in svc.shards] == [False, False, True]
        assert 1 in {route.generation for route, _, _ in sink.batches}

    def test_swap_mid_traffic_changes_generation_not_results(self):
        sink = CollectingSink()
        svc = service(shards=1, flush_size=16, sink=sink)
        state = svc.register(SSN)
        keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=7)
        for key in keys[:32]:
            svc.submit(key)
        successor = RouteState(
            state.route_id,
            synthesize(SSN, HashFamily.PEXT),
            generation=state.generation + 1,
        )
        svc.swap_route(successor)
        # register, the native upgrade at go-live (where the plan
        # compiles, as its successor's did), swap
        assert svc.table.version == (3 if successor.native else 2)
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
