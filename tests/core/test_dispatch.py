"""Tests for the multi-format dispatcher."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.batch import VECTOR_MIN_KEYS
from repro.core.dispatch import FormatDispatcher, build_dispatcher
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPES

SSN = KEY_TYPES["SSN"].regex       # length 11
IPV4 = KEY_TYPES["IPV4"].regex     # length 15
MAC = KEY_TYPES["MAC"].regex       # length 17


class TestRegistration:
    def test_register_by_regex(self):
        dispatcher = FormatDispatcher()
        synthesized = dispatcher.register(SSN)
        assert synthesized.family is HashFamily.PEXT
        assert dispatcher.format_count == 1

    def test_register_prebuilt(self):
        dispatcher = FormatDispatcher()
        prebuilt = synthesize(SSN, HashFamily.OFFXOR)
        returned = dispatcher.register(prebuilt)
        assert returned is prebuilt

    def test_build_helper(self):
        dispatcher = build_dispatcher([SSN, IPV4, MAC])
        assert dispatcher.format_count == 3

    def test_describe(self):
        dispatcher = build_dispatcher([SSN, MAC])
        description = "\n".join(dispatcher.describe())
        assert "len   11" in description
        assert "len   17" in description
        assert "fallback" in description


class TestRouting:
    @pytest.fixture(scope="class")
    def dispatcher(self):
        return build_dispatcher([SSN, IPV4, MAC])

    def test_routes_by_length(self, dispatcher):
        ssn_fn = dispatcher.route(b"123-45-6789")
        mac_fn = dispatcher.route(b"aa-bb-cc-dd-ee-ff")
        assert ssn_fn is not mac_fn
        assert ssn_fn is not stl_hash_bytes

    def test_specialized_value_matches_direct_synthesis(self, dispatcher):
        direct = synthesize(SSN, HashFamily.PEXT)
        assert dispatcher(b"123-45-6789") == direct(b"123-45-6789")

    def test_unknown_length_falls_back(self, dispatcher):
        key = b"a-key-of-unregistered-length!"
        assert dispatcher.route(key) is stl_hash_bytes
        assert dispatcher(key) == stl_hash_bytes(key)

    def test_all_formats_hash_via_dispatcher(self, dispatcher):
        for name in ("SSN", "IPV4", "MAC"):
            keys = generate_keys(name, 50, Distribution.UNIFORM, seed=1)
            for key in keys:
                assert 0 <= dispatcher(key) < (1 << 64)


class TestLengthCollisions:
    def test_same_length_formats_disambiguated_by_template(self):
        # Two 11-byte formats: SSN (digits+dashes) and 11 letters.
        dispatcher = build_dispatcher([SSN, r"[A-Z]{11}"])
        ssn_fn = dispatcher.route(b"123-45-6789")
        letters_fn = dispatcher.route(b"ABCDEFGHIJK")
        assert ssn_fn is not letters_fn

    def test_ambiguous_key_falls_back(self):
        dispatcher = build_dispatcher([SSN, r"[A-Z]{11}"])
        # 11 bytes but matches neither template.
        assert dispatcher.route(b"!!!!!!!!!!!") is stl_hash_bytes


class TestVerification:
    def test_verify_off_trusts_length(self):
        dispatcher = build_dispatcher([SSN], verify=False)
        # 11 bytes of garbage still routes to the SSN function.
        assert dispatcher.route(b"xxxxxxxxxxx") is not stl_hash_bytes

    def test_verify_on_checks_template(self):
        dispatcher = build_dispatcher([SSN], verify=True)
        assert dispatcher.route(b"xxxxxxxxxxx") is stl_hash_bytes
        assert dispatcher.route(b"123-45-6789") is not stl_hash_bytes


class TestStats:
    def test_counts_start_at_zero(self):
        dispatcher = build_dispatcher([SSN, MAC])
        stats = dispatcher.stats()
        assert stats["registered"] == 2
        assert stats["total_routes"] == 0
        assert stats["fallback_routes"] == 0
        assert len(stats["formats"]) == 2
        assert all(entry["routes"] == 0 for entry in stats["formats"])

    def test_route_traffic_split_by_format(self):
        dispatcher = build_dispatcher([SSN, MAC])
        for _ in range(3):
            dispatcher(b"123-45-6789")          # SSN
        dispatcher(b"aa-bb-cc-dd-ee-ff")        # MAC
        dispatcher(b"unregistered-length-key")  # fallback
        stats = dispatcher.stats()
        by_length = {
            entry["length"]: entry["routes"] for entry in stats["formats"]
        }
        assert by_length[11] == 3
        assert by_length[17] == 1
        assert stats["fallback_routes"] == 1
        assert stats["total_routes"] == 5

    def test_route_inspection_also_counted(self):
        dispatcher = build_dispatcher([SSN])
        dispatcher.route(b"123-45-6789")
        assert dispatcher.stats()["total_routes"] == 1

    def test_variable_length_format_reported_with_none_length(self):
        dispatcher = FormatDispatcher()
        dispatcher.register(r"abcdefgh[0-9]{4}.*", family=HashFamily.OFFXOR)
        dispatcher(b"abcdefgh1234-tail")
        stats = dispatcher.stats()
        (entry,) = stats["formats"]
        assert entry["length"] is None
        assert entry["routes"] == 1

    def test_dispatchers_do_not_share_counters(self):
        first = build_dispatcher([SSN])
        second = build_dispatcher([SSN])
        first(b"123-45-6789")
        assert first.stats()["total_routes"] == 1
        assert second.stats()["total_routes"] == 0

    def test_shared_registry_aggregates(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        first = FormatDispatcher(registry=registry)
        second = FormatDispatcher(registry=registry)
        first.register(SSN)
        second.register(SSN)
        first(b"123-45-6789")
        second(b"123-45-6789")
        counters = registry.snapshot()["counters"]
        (route_name,) = [
            name for name in counters if name.startswith("dispatch.route.")
        ]
        assert counters[route_name] == 2


class TestVariableLengthFormats:
    def test_variable_format_routes_by_template(self):
        dispatcher = FormatDispatcher()
        dispatcher.register(r"abcdefgh[0-9]{4}.*", family=HashFamily.OFFXOR)
        assert dispatcher.route(b"abcdefgh1234-and-more") is not (
            stl_hash_bytes
        )
        assert dispatcher.route(b"zzzzzzzz1234") is stl_hash_bytes

    def test_custom_fallback(self):
        from repro.hashes.fnv import fnv1a_64

        dispatcher = FormatDispatcher(fallback=fnv1a_64)
        assert dispatcher(b"anything") == fnv1a_64(b"anything")


class TestHashMany:
    @pytest.fixture(scope="class")
    def dispatcher(self):
        return build_dispatcher([SSN, IPV4, MAC])

    def test_matches_per_key_dispatch(self, dispatcher):
        keys = []
        for name in ("SSN", "IPV4", "MAC"):
            keys.extend(generate_keys(name, 40, Distribution.UNIFORM, seed=2))
        keys.append(b"no-format-has-this-length!")
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    def test_interleaved_formats_stay_aligned(self, dispatcher):
        ssn = generate_keys("SSN", 30, Distribution.UNIFORM, seed=3)
        mac = generate_keys("MAC", 30, Distribution.UNIFORM, seed=3)
        keys = [k for pair in zip(ssn, mac) for k in pair]
        results = dispatcher.hash_many(keys)
        for key, value in zip(keys, results):
            assert value == dispatcher(key)

    def test_empty_batch(self, dispatcher):
        assert dispatcher.hash_many([]) == []

    def test_counters_advance_by_group_size(self):
        dispatcher = build_dispatcher([SSN, MAC])
        keys = (
            generate_keys("SSN", 5, Distribution.UNIFORM, seed=4)
            + generate_keys("MAC", 7, Distribution.UNIFORM, seed=4)
            + [b"??", b"???"]
        )
        dispatcher.hash_many(keys)
        stats = dispatcher.stats()
        by_length = {
            entry["length"]: entry["routes"] for entry in stats["formats"]
        }
        assert by_length[11] == 5
        assert by_length[17] == 7
        assert stats["fallback_routes"] == 2

    def test_fallback_values_match_scalar_fallback(self):
        dispatcher = build_dispatcher([SSN])
        keys = [b"odd", b"123-45-6789", b"another-unknown-length"]
        results = dispatcher.hash_many(keys)
        assert results[0] == stl_hash_bytes(keys[0])
        assert results[2] == stl_hash_bytes(keys[2])


class TestCompileOnce:
    def test_routing_same_format_twice_compiles_once(self):
        """Steady-state routing performs zero exec: the callable compiled
        at registration is reused for every subsequent route."""
        from repro.obs.metrics import get_registry

        dispatcher = build_dispatcher([SSN])
        exec_counter = get_registry().counter("codegen.python.exec_calls")
        dispatcher(b"123-45-6789")  # warm any lazy path
        before = exec_counter.value
        for _ in range(50):
            dispatcher(b"123-45-6789")
        assert exec_counter.value == before

    def test_reregistering_format_hits_compile_cache(self):
        """A second dispatcher registering the same format gets its
        callable from the content-addressed cache — no new exec."""
        from repro.obs.metrics import get_registry

        build_dispatcher([MAC])  # ensure the cache entry exists
        exec_counter = get_registry().counter("codegen.python.exec_calls")
        before = exec_counter.value
        build_dispatcher([MAC])
        assert exec_counter.value == before

    def test_hash_many_reuses_batch_kernel(self):
        from repro.obs.metrics import get_registry

        dispatcher = build_dispatcher([SSN])
        keys = generate_keys("SSN", 30, Distribution.UNIFORM, seed=5)
        dispatcher.hash_many(keys)  # compiles the batch kernel lazily
        exec_counter = get_registry().counter("codegen.python.exec_calls")
        before = exec_counter.value
        for _ in range(10):
            dispatcher.hash_many(keys)
        assert exec_counter.value == before


class TestLatencyTelemetry:
    def test_off_by_default(self):
        dispatcher = build_dispatcher([SSN])
        keys = generate_keys("SSN", 5, Distribution.UNIFORM, seed=2)
        for key in keys:
            dispatcher(key)
        stats = dispatcher.stats()
        assert "latency" not in stats["formats"][0]
        assert "fallback_latency" not in stats

    def test_per_route_histograms_and_qps(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = FormatDispatcher(registry=registry, latency=True)
        dispatcher.register(SSN)
        keys = generate_keys("SSN", 20, Distribution.UNIFORM, seed=3)
        for key in keys:
            dispatcher(key)
        dispatcher(b"not-a-recognized-key")
        stats = dispatcher.stats()
        assert stats["formats"][0]["latency"]["count"] == 20
        assert stats["formats"][0]["latency"]["mean_ns"] > 0
        assert stats["fallback_latency"]["count"] == 1
        assert stats["qps"] > 0
        assert stats["elapsed_seconds"] > 0
        snapshot = registry.snapshot()
        names = set(snapshot["histograms"])
        assert any(name.startswith("dispatch.latency_ns.") for name in names)
        assert registry.counter("dispatch.requests_total").value == 21

    def test_hash_many_observes_per_key_latency(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = FormatDispatcher(registry=registry, latency=True)
        dispatcher.register(SSN)
        keys = generate_keys("SSN", 16, Distribution.UNIFORM, seed=4)
        values = dispatcher.hash_many(keys + [b"fallback-key!"])
        assert values[:16] == [dispatcher(k) for k in keys]
        stats = dispatcher.stats()
        # 16 batch observations + the 16 scalar calls above.
        assert stats["formats"][0]["latency"]["count"] == 32
        assert stats["fallback_latency"]["count"] == 1

    def test_latency_results_match_untimed_dispatch(self):
        timed = FormatDispatcher(latency=True)
        untimed = FormatDispatcher()
        timed.register(SSN)
        untimed.register(SSN)
        keys = generate_keys("SSN", 10, Distribution.UNIFORM, seed=5)
        assert [timed(k) for k in keys] == [untimed(k) for k in keys]


class TestHomogeneousBatchFastPath:
    """Contiguous same-length batches skip per-key resolution."""

    def test_matches_grouped_path(self):
        dispatcher = build_dispatcher([SSN, MAC])
        keys = generate_keys("SSN", 200, Distribution.UNIFORM, seed=6)
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    def test_counters_advance_like_per_key_routing(self):
        dispatcher = build_dispatcher([SSN])
        keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=7)
        dispatcher.hash_many(keys)
        stats = dispatcher.stats()
        assert stats["formats"][0]["routes"] == 64
        assert stats["total_routes"] == 64
        assert stats["fallback_routes"] == 0

    def test_ambiguous_length_takes_grouped_path(self):
        # Two 11-byte formats: the length is contested, so the batch
        # shortcut must not fire; per-key template matching decides.
        dispatcher = FormatDispatcher()
        dispatcher.register(SSN)
        dispatcher.register(r"[a-z]{5}\.[0-9]{5}")
        ssn = generate_keys("SSN", 10, Distribution.UNIFORM, seed=8)
        other = [b"abcde.12345"] * 10
        keys = ssn + other
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]
        by_regex = {
            entry["regex"]: entry["routes"]
            for entry in dispatcher.stats()["formats"]
        }
        # 10 keys each via hash_many plus 10 scalar calls each.
        assert sorted(by_regex.values()) == [20, 20]

    def test_tuple_batch_accepted(self):
        dispatcher = build_dispatcher([SSN])
        keys = tuple(generate_keys("SSN", 16, Distribution.UNIFORM, seed=9))
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]


class TestHashManyArray:
    def test_parity_and_dtype(self):
        numpy = pytest.importorskip("numpy")
        dispatcher = build_dispatcher([SSN, MAC])
        keys = generate_keys("SSN", 128, Distribution.UNIFORM, seed=10)
        values = dispatcher.hash_many_array(keys)
        assert values.dtype == numpy.uint64
        assert values.tolist() == dispatcher.hash_many(keys)

    def test_mixed_batch_falls_back_to_grouped_path(self):
        pytest.importorskip("numpy")
        dispatcher = build_dispatcher([SSN, MAC])
        keys = (
            generate_keys("SSN", 10, Distribution.UNIFORM, seed=11)
            + generate_keys("MAC", 10, Distribution.UNIFORM, seed=11)
            + [b"???"]
        )
        assert list(dispatcher.hash_many_array(keys)) == (
            dispatcher.hash_many(keys)
        )

    def test_counters_advance(self):
        pytest.importorskip("numpy")
        dispatcher = build_dispatcher([SSN])
        keys = generate_keys("SSN", 32, Distribution.UNIFORM, seed=12)
        dispatcher.hash_many_array(keys)
        assert dispatcher.stats()["formats"][0]["routes"] == 32


class TestStateLockTelemetry:
    def test_lock_waits_counter_registered_and_quiet(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = FormatDispatcher(registry=registry)
        dispatcher.register(SSN)
        dispatcher.stats()
        dispatcher.describe()
        # Uncontended admin calls never count a wait.
        assert registry.snapshot()["counters"]["dispatch.lock_waits"] == 0

    def test_contended_stats_still_one_consistent_snapshot(self):
        import threading

        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        dispatcher = FormatDispatcher(registry=registry)
        dispatcher.register(SSN)
        keys = generate_keys("SSN", 50, Distribution.UNIFORM, seed=13)
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                snapshots.append(dispatcher.stats())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(20):
                for key in keys:
                    dispatcher(key)
        finally:
            stop.set()
            thread.join()
        for stats in snapshots:
            # The invariant of the single critical section: the total
            # is the sum of exactly the per-format counts beside it.
            assert stats["total_routes"] == sum(
                entry["routes"] for entry in stats["formats"]
            )
        assert snapshots[-1]["registered"] == 1


    def test_concurrent_registration_while_hashing(self):
        """Registrations from several threads each install one route;
        a hashing thread meanwhile always sees a complete table."""
        import sys
        import threading

        hashes = [
            synthesize(regex, family)
            for regex, family in (
                (SSN, HashFamily.PEXT),
                (MAC, HashFamily.AES),
                (IPV4, HashFamily.OFFXOR),
                (r"[A-Z]{14}", HashFamily.NAIVE),
            )
        ]
        keys = generate_keys("SSN", 32, Distribution.UNIFORM, seed=15)
        expected = [stl_hash_bytes(key) for key in keys]
        dispatcher = FormatDispatcher()
        errors = []
        done = threading.Event()

        def register(synthesized):
            for _ in range(3):
                dispatcher.register(synthesized)

        def hash_keys():
            while not done.is_set():
                values = dispatcher.hash_many(keys)
                # Before any SSN route lands: the fallback; after: SSN.
                if values not in (expected, [hashes[0](k) for k in keys]):
                    errors.append(values)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader = threading.Thread(target=hash_keys)
            reader.start()
            writers = [
                threading.Thread(target=register, args=(synthesized,))
                for synthesized in hashes
            ]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=30)
            done.set()
            reader.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        assert not errors
        assert dispatcher.format_count == 12
        assert dispatcher.stats()["registered"] == 12


# -- columnar hash_many against per-key dispatch ------------------------------

CPF = KEY_TYPES["CPF"].regex       # length 14, shared with UPPER14
UPPER14 = r"[A-Z]{14}"
VARIABLE = r"[0-9a-f]{20,30}"
PROPERTY_FORMATS = (
    ("SSN", HashFamily.PEXT),
    ("IPV6", HashFamily.AES),
    ("URL1", HashFamily.OFFXOR),
    ("INTS", HashFamily.NAIVE),    # 100 bytes: a partial last load
    ("CPF", HashFamily.PEXT),
)
REGISTERED_LENGTHS = (11, 14, 39, 48, 100)


@functools.lru_cache(maxsize=None)
def _property_hashes():
    hashes = [
        synthesize(KEY_TYPES[name].regex, family)
        for name, family in PROPERTY_FORMATS
    ]
    hashes.append(synthesize(UPPER14, HashFamily.OFFXOR))
    hashes.append(synthesize(VARIABLE, HashFamily.NAIVE))
    return tuple(hashes)


@functools.lru_cache(maxsize=None)
def _pool(name):
    return tuple(generate_keys(name, 64, Distribution.UNIFORM, seed=21))


def _segment_keys(kind, count, rng):
    """``count`` keys of one kind: a format's own keys, same-length
    off-format bytes (trusted by length unless verifying), or bytes of
    a length no fixed format has."""
    if kind in KEY_TYPES:
        pool = _pool(kind)
        return [rng.choice(pool) for _ in range(count)]
    if kind == "UPPER14":
        alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        return [bytes(rng.choices(alphabet, k=14)) for _ in range(count)]
    if kind == "VARIABLE":
        return [
            bytes(rng.choices(b"0123456789abcdef", k=rng.randint(20, 30)))
            for _ in range(count)
        ]
    if kind == "OFF_FORMAT":
        length = rng.choice(REGISTERED_LENGTHS)
        return [rng.randbytes(length) for _ in range(count)]
    return [rng.randbytes(rng.choice((0, 1, 5, 24, 120))) for _ in range(count)]


_SEGMENTS = st.lists(
    st.tuples(
        st.sampled_from(
            [name for name, _family in PROPERTY_FORMATS]
            + ["UPPER14", "VARIABLE", "OFF_FORMAT", "UNKNOWN"]
        ),
        st.sampled_from([1, 2, VECTOR_MIN_KEYS - 1, VECTOR_MIN_KEYS, 40]),
    ),
    max_size=8,
)


def _dispatch_counters(registry):
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.startswith("dispatch.")
    }


class TestColumnarParityProperty:
    """``hash_many`` sorts by length and hashes runs as row views; it
    must agree value for value, and counter for counter, with routing
    every key through ``__call__``."""

    @settings(max_examples=80, deadline=None)
    @given(
        segments=_SEGMENTS,
        seed=st.integers(0, 2**16),
        shuffle=st.booleans(),
        verify=st.booleans(),
    )
    def test_matches_per_key_dispatch(self, segments, seed, shuffle, verify):
        from repro.obs.metrics import MetricsRegistry

        rng = random.Random(seed)
        keys = [
            key
            for kind, count in segments
            for key in _segment_keys(kind, count, rng)
        ]
        if shuffle:
            rng.shuffle(keys)
        registries = [MetricsRegistry() for _ in range(3)]
        per_key, listed, arrayed = (
            FormatDispatcher(verify=verify, registry=registry)
            for registry in registries
        )
        for dispatcher in (per_key, listed, arrayed):
            for synthesized in _property_hashes():
                dispatcher.register(synthesized)
        expected = [per_key(key) for key in keys]
        assert listed.hash_many(keys) == expected
        array = arrayed.hash_many_array(keys)
        assert str(array.dtype) == "uint64"
        assert array.tolist() == expected
        counters = [_dispatch_counters(registry) for registry in registries]
        assert counters[0]["dispatch.requests_total"] == len(keys)
        assert counters[1] == counters[0]
        assert counters[2] == counters[0]


# -- one router: the dispatcher and the service agree -------------------------


class TestSharedRouter:
    def test_contested_length_routes_by_template(self):
        """A 14-byte hex key belongs to the variable hex route even
        though only one *fixed* format has length 14."""
        dispatcher = FormatDispatcher()
        dispatcher.register(UPPER14)
        hex_route = dispatcher.register(r"[0-9a-f]{10,20}")
        key = b"0123456789abcd"
        expected = hex_route(key)
        assert dispatcher.route(key) is not dispatcher.route(b"ABCDEFGHIJKLMN")
        assert dispatcher(key) == expected
        assert dispatcher.hash_many([key, b"ABCDEFGHIJKLMN"])[0] == expected
        assert dispatcher.hash_many_array([key]).tolist() == [expected]

    def test_wide_variable_route_keeps_fixed_lengths_fast(self, monkeypatch):
        """An unbounded route contests only its own lengths: a
        homogeneous SSN batch is still one run call on a row view."""
        numpy = pytest.importorskip("numpy")
        dispatcher = FormatDispatcher()
        ssn = dispatcher.register(SSN)
        dispatcher.register(r"[a-z]{20}[a-z]*", family=HashFamily.OFFXOR)
        calls = []
        hash_many = ssn.hash_many

        def counting(keys):
            calls.append(keys)
            return hash_many(keys)

        monkeypatch.setattr(ssn, "hash_many", counting)
        keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=14)
        assert dispatcher.hash_many(keys) == [ssn(key) for key in keys]
        assert len(calls) == 1
        assert isinstance(calls[0], numpy.ndarray)
        assert calls[0].shape == (64, 11)


SERVICE_FORMATS = (
    (KEY_TYPES["SSN"].regex, HashFamily.PEXT),     # 11: owned
    (CPF, HashFamily.PEXT),                        # 14: contested
    (UPPER14, HashFamily.OFFXOR),                  # 14: contested
    (r"[0-9a-f]{13,16}", HashFamily.NAIVE),        # narrow variable
    (r"[a-z]{20}[a-z]*", HashFamily.OFFXOR),       # wide variable
    (KEY_TYPES["IPV6"].regex, HashFamily.AES),     # 39: inside the wide range
)
SERVICE_LENGTHS = (11, 13, 14, 15, 16, 20, 27, 39)


@functools.lru_cache(maxsize=None)
def _service_hashes():
    return tuple(synthesize(regex, family) for regex, family in SERVICE_FORMATS)


@functools.lru_cache(maxsize=None)
def _conforming_pool():
    rng = random.Random(31)
    keys = list(_pool("SSN")) + list(_pool("CPF")) + list(_pool("IPV6"))
    for _ in range(32):
        keys.append(bytes(rng.choices(b"ABCDEFGHIJKLMNOPQRSTUVWXYZ", k=14)))
        keys.append(
            bytes(rng.choices(b"0123456789abcdef", k=rng.randint(13, 16)))
        )
        keys.append(
            bytes(rng.choices(b"abcdefghijklmnopqrstuvwxyz",
                              k=rng.randint(20, 60)))
        )
    return tuple(keys)


_SERVICE_KEYS = st.one_of(
    st.sampled_from(_conforming_pool()),
    st.sampled_from(SERVICE_LENGTHS).flatmap(
        lambda length: st.binary(min_size=length, max_size=length)
    ),
    st.binary(max_size=48),
)


class TestDispatcherServiceParity:
    """``FormatDispatcher`` and ``HashService`` route through the same
    table, so they agree key by key; with ``verify=True`` the dispatcher
    differs only in sending keys no template accepts to the fallback."""

    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(_SERVICE_KEYS, max_size=40),
        homogeneous=st.integers(0, 2 * VECTOR_MIN_KEYS),
        rng=st.randoms(use_true_random=False),
        verify=st.booleans(),
    )
    def test_values_and_counters_agree(self, keys, homogeneous, rng, verify):
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import HashService

        keys = keys + [rng.choice(_pool("SSN")) for _ in range(homogeneous)]
        rng.shuffle(keys)
        service = HashService(
            shards=1,
            prefer_native=False,
            sample_every=0,
            registry=MetricsRegistry(),
        )
        registries = [MetricsRegistry() for _ in range(4)]
        dispatchers = [
            FormatDispatcher(verify=verify, registry=registry)
            for registry in registries
        ]
        for synthesized in _service_hashes():
            service.register(synthesized)
            for dispatcher in dispatchers:
                dispatcher.register(synthesized)
        table = service.table
        expected = [
            service.hash(key)
            if not verify or table.resolve_checked(key) is not None
            else stl_hash_bytes(key)
            for key in keys
        ]
        if not verify:
            assert service.hash_many(keys) == expected
            assert service.hash_many_array(keys).tolist() == expected
        tally, scalar, listed, arrayed = dispatchers
        for key in keys:
            tally.route(key)
        assert [scalar(key) for key in keys] == expected
        assert listed.hash_many(keys) == expected
        assert arrayed.hash_many_array(keys).tolist() == expected
        counters = [_dispatch_counters(registry) for registry in registries]
        assert counters[0]["dispatch.requests_total"] == len(keys)
        assert counters[1:] == [counters[0]] * 3
