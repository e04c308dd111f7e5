"""The shard lane cache: one dict probe per submitted key.

``Shard.lanes`` maps a key length ``fast_map`` owns to the pending
buffer of that length's route.  These tests pin when the cache must be
forgotten — a table install, an install landing during a cache miss, a
swap that changes a route's key length — and that a threaded stream
with concurrent installs still delivers every key exactly once, each
hashed by the route it was delivered with.
"""

import sys
import threading
from collections import Counter

from repro.core.plan import HashFamily
from repro.core.routes import RouteState
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.obs.metrics import MetricsRegistry
from repro.serve import HashService
from tests.serve.test_service import CollectingSink

SSN = KEY_TYPES["SSN"].regex
MAC = KEY_TYPES["MAC"].regex
UPPER = r"[A-Z]{11}"
"""A second 11-byte format: registering it contests the SSN length."""

SSN_WIDENED = r"\d{3}-\d{2}-\d{4,6}"

UPPER_KEYS = [b"ABCDEFGHIJK", b"ZYXWVUTSRQP", b"QWERTYUIOPA", b"MNBVCXZLKJH"]


def upper_key(number):
    """A distinct ``[A-Z]{11}`` key per number: its base-26 digits."""
    digits = []
    for _ in range(11):
        number, digit = divmod(number, 26)
        digits.append(65 + digit)
    return bytes(digits)


def service(**kwargs):
    """A service over a fresh registry, and the sink it delivers to."""
    sink = CollectingSink()
    return HashService(sink=sink, registry=MetricsRegistry(), **kwargs), sink


def deliveries(sink):
    """Every delivered ``(route, key, value)``, in delivery order."""
    return [
        (route, key, int(value))
        for route, keys, values in sink.batches
        for key, value in zip(keys, values)
    ]


def assert_each_hashed_by_its_route(sink):
    for route, key, value in deliveries(sink):
        if route is None:
            assert value == stl_hash_bytes(key)
        else:
            assert value == route.synthesized.function(key)


class TestInvalidation:
    def test_registering_a_route_of_a_cached_length(self):
        svc, sink = service(shards=1)
        ssn = svc.register(SSN)
        ssn_keys = generate_keys("SSN", 20, Distribution.UNIFORM, seed=3)
        for key in ssn_keys[:10]:
            svc.submit(key)
        (shard,) = svc.shards
        assert list(shard.lanes) == [11]
        assert shard.lanes[11] is shard.pending[ssn.route_id][1]
        upper = svc.register(UPPER)
        assert shard.lanes == {}
        for key in UPPER_KEYS + ssn_keys[10:]:
            svc.submit(key)
        # Length 11 is contested now: it is never cached again.
        assert 11 not in shard.lanes
        svc.flush()
        routed = {key: route.route_id for route, key, _ in deliveries(sink)}
        assert {routed[key] for key in UPPER_KEYS} == {upper.route_id}
        assert {routed[key] for key in ssn_keys} == {ssn.route_id}
        assert_each_hashed_by_its_route(sink)

    def test_an_install_during_a_miss_clears_the_cache(self):
        svc, sink = service(shards=1)
        svc.register(SSN)
        submit = svc.submitter()
        (shard,) = svc.shards
        installed = []

        class InstallingMap(dict):
            """Lands a table install between the miss path's read of
            ``fast_map`` and its store into the cache."""

            def get(self, length, default=None):
                route = super().get(length, default)
                if not installed:
                    installed.append(svc.register(UPPER))
                return route

        shard.fast_map = InstallingMap(shard.fast_map)
        submit(generate_keys("SSN", 1, Distribution.UNIFORM, seed=4)[0])
        assert installed and shard.lanes == {}
        for key in UPPER_KEYS:
            submit(key)
        svc.flush()
        upper_routes = {
            route.route_id
            for route, key, _ in deliveries(sink)
            if key in UPPER_KEYS
        }
        assert upper_routes == {installed[0].route_id}
        assert_each_hashed_by_its_route(sink)

    def test_flush_clears_the_cache(self):
        svc, sink = service(shards=1, flush_size=4)
        svc.register(SSN)
        (shard,) = svc.shards
        for key in generate_keys("SSN", 4, Distribution.UNIFORM, seed=5):
            svc.submit(key)
        assert shard.lanes == {} and shard.pending == {}
        assert sink.delivered == 4


class TestSwaps:
    def test_swap_mid_buffer_flushes_through_the_old_generation(self):
        svc, sink = service(shards=1)
        state = svc.register(SSN)
        keys = generate_keys("SSN", 20, Distribution.UNIFORM, seed=6)
        for key in keys[:10]:
            svc.submit(key)
        svc.swap_route(
            RouteState(
                state.route_id,
                synthesize(SSN, HashFamily.PEXT),
                generation=state.generation + 1,
            )
        )
        svc.flush()
        assert [(route.generation, keys) for route, keys, _ in
                sink.batches] == [(0, keys[:10])]
        for key in keys[10:]:
            svc.submit(key)
        svc.flush()
        assert [route.generation for route, _, _ in sink.batches] == [0, 1]
        assert_each_hashed_by_its_route(sink)

    def test_swap_that_changes_the_key_length_flushes_first(self):
        svc, sink = service(shards=1)
        state = svc.register(SSN)
        keys = generate_keys("SSN", 10, Distribution.UNIFORM, seed=7)
        for key in keys:
            svc.submit(key)
        svc.swap_route(
            RouteState(
                state.route_id,
                synthesize(SSN_WIDENED, HashFamily.PEXT),
                generation=state.generation + 1,
            )
        )
        later = [b"123-45-678901", keys[0], b"987-65-43210"]
        for key in later:
            svc.submit(key)
        # The 12-byte key flushed the fixed-length buffer before joining.
        assert [(route.generation, batch) for route, batch, _ in
                sink.batches] == [(0, keys)]
        svc.flush()
        assert [(route.generation, batch) for route, batch, _ in
                sink.batches] == [(0, keys), (1, later)]
        assert_each_hashed_by_its_route(sink)


def test_threaded_stream_with_concurrent_installs_delivers_each_key_once():
    # Two exclusive lanes and the shared overflow lane, small buffers,
    # a tiny switch interval, and installs landing mid-stream: a route
    # contesting a cached length, then two swaps.  Producers stream in
    # passes until the installs are done and each has submitted keys
    # after the first install returned; those keys must resolve against
    # a table that has the new route.
    svc, sink = service(shards=2, flush_size=16)
    ssn = svc.register(SSN)
    svc.register(MAC)
    producers = 3
    submitted = [[] for _ in range(producers)]
    late_upper = [set() for _ in range(producers)]
    barrier = threading.Barrier(producers + 1, timeout=60)
    installed = threading.Event()
    done = threading.Event()

    def stream(index, pass_number):
        ssn_keys = generate_keys("SSN", 300, Distribution.UNIFORM, seed=index)
        mac_keys = generate_keys("MAC", 100, Distribution.UNIFORM, seed=index)
        for position, key in enumerate(ssn_keys):
            yield key
            if position % 3 == 0:
                yield mac_keys[position // 3]
                # Distinct across passes and producers.
                yield upper_key((pass_number * producers + index) * 1000
                                + position)
            if position % 50 == 0:
                yield b"fallback-%d-%d-%d" % (index, pass_number, position)

    def produce(index):
        submit = svc.submitter()
        keys = submitted[index]
        barrier.wait()
        pass_number = 0
        while not (done.is_set() and late_upper[index]):
            for key in stream(index, pass_number):
                if installed.is_set() and key.isalpha():
                    late_upper[index].add(key)
                keys.append(key)
                submit(key)
            pass_number += 1

    threads = [
        threading.Thread(target=produce, args=(index,))
        for index in range(producers)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        barrier.wait()
        upper = svc.register(UPPER)
        installed.set()
        for generation in (1, 2):
            svc.swap_route(
                RouteState(ssn.route_id, ssn.synthesized, generation=generation)
            )
    finally:
        # Producers stop once both are set, whatever happened above.
        installed.set()
        done.set()
        for thread in threads:
            thread.join(timeout=60)
        sys.setswitchinterval(switch_interval)
    assert not any(thread.is_alive() for thread in threads)
    svc.flush()
    delivered = deliveries(sink)
    assert Counter(key for _, key, _ in delivered) == Counter(
        key for keys in submitted for key in keys
    )
    assert_each_hashed_by_its_route(sink)
    late = set().union(*late_upper)
    for route, key, _ in delivered:
        if key in late:
            assert route is not None and route.route_id == upper.route_id
    assert [shard.shared for shard in svc.shards] == [False, False, True]
