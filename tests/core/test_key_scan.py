"""The two scan bodies of the columnar batch loop.

``core.routes.hash_columnar`` reads a batch's key lengths and joins its
keys either through the native key scan unit or through the Python scan
(``length_runs`` plus one ``b"".join``).  These tests hold the two to
the same order, runs and block bytes, check that the loop equals
per-key routing whichever body runs, and cover the native body's ways
back to the Python one: a key it cannot read, a list changed between
its two calls, ``SEPE_NATIVE=0`` and a failed compile.
"""

import random

import numpy as np
import pytest

from repro.codegen import native
from repro.core import routes
from repro.core.dispatch import FormatDispatcher
from repro.core.plan import HashFamily
from repro.core.routes import length_runs
from repro.errors import NativeUnavailableError
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.obs.metrics import get_registry

FORMATS = (
    (KEY_TYPES["SSN"].regex, HashFamily.PEXT),  # 11 bytes
    (KEY_TYPES["MAC"].regex, HashFamily.OFFXOR),  # 17 bytes
    (KEY_TYPES["IPV6"].regex, HashFamily.AES),  # 39 bytes
    (r"[a-z]{11}", HashFamily.NAIVE),  # contests SSN's length
    (r"[a-z]{4,9}@corp\.com", HashFamily.OFFXOR),  # 14-19 bytes
)


def _unit():
    unit = native.scan_unit()
    if unit is None:
        pytest.skip("no native toolchain for the key scan unit")
    return unit


@pytest.fixture(params=["native", "python"])
def scan_body(request, monkeypatch):
    """Run the test under each scan body."""
    if request.param == "native":
        _unit()
    else:
        monkeypatch.setattr(routes, "scan_unit", lambda: None)
    return request.param


def _dispatcher(prefer_native=False, verify=False):
    dispatcher = FormatDispatcher(prefer_native=prefer_native, verify=verify)
    for regex, family in FORMATS:
        dispatcher.register(regex, family)
    return dispatcher


def _conforming(rng, count):
    names = ("SSN", "MAC", "IPV6")
    return [
        key
        for name in names
        for key in generate_keys(
            name, count, Distribution.UNIFORM, seed=rng.randrange(1 << 20)
        )
    ]


def _ragged(rng, count, longest=300):
    """Conforming keys of every format, shuffled among random keys of
    0..``longest`` bytes."""
    keys = _conforming(rng, count)
    keys += [
        bytes(rng.choices(b"abc-:0123456789", k=rng.randint(0, longest)))
        for _ in range(count)
    ]
    keys += [
        bytes(rng.choices(b"abcdefghij", k=rng.randint(4, 9))) + b"@corp.com"
        for _ in range(count)
    ]
    rng.shuffle(keys)
    return keys


class _ReadsRows:
    def reads_rows(self, count):
        return True


class _EveryLengthReadsRows(dict):
    """A fast map whose every length is owned by a route that reads
    rows, so the native scan always gathers its block."""

    def get(self, length, default=None):
        return _ReadsRows()


def _native_parts(keys):
    return routes._native_scan(keys, _EveryLengthReadsRows(), stl_hash_bytes)


def _assert_same_scan(keys):
    scanned = _native_parts(keys)
    assert scanned is not None
    listed, order, runs, block = scanned
    ordered, expected_order, expected_runs = length_runs(keys)
    assert listed == list(keys)
    assert runs == expected_runs
    if expected_order is None:
        assert order is None
    else:
        assert np.array_equal(order, expected_order)
    if runs:
        assert bytes(block) == b"".join(ordered)


@pytest.mark.native
class TestScanBodiesAgree:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_ragged_batches(self, seed):
        _unit()
        rng = random.Random(seed)
        keys = _ragged(rng, 40, longest=255)
        _assert_same_scan(keys)

    @pytest.mark.parametrize(
        "keys",
        [
            [],
            [b"123-45-6789"],
            [b""],
            [b"123-45-6789"] * 40,
            [b"x" * 255] * 3,
            [b"", b"a", b""],
        ],
        ids=["empty", "one-key", "one-empty-key", "one-length",
             "longest-length", "empty-keys"],
    )
    def test_edge_batches(self, keys):
        _unit()
        _assert_same_scan(keys)

    def test_tuple_input(self):
        _unit()
        keys = tuple(_ragged(random.Random(7), 20, longest=60))
        _assert_same_scan(keys)

    @pytest.mark.parametrize(
        "odd",
        [
            bytearray(b"123-45-6789"),
            memoryview(b"123-45-6789"),
            "123-45-6789",
            b"k" * 256,
        ],
        ids=["bytearray", "memoryview", "str", "256-bytes"],
    )
    def test_key_the_unit_cannot_read_leaves_the_python_scan(self, odd):
        _unit()
        keys = _ragged(random.Random(3), 20, longest=60)
        keys.insert(len(keys) // 2, odd)
        assert _native_parts(keys) is None

    def test_gather_checks_sizes_and_capacity(self):
        unit = _unit()
        keys = [b"abc", b"defg", b"hi"]
        lens, total, same = unit.lengths(keys)
        assert (list(lens), total, same) == ([3, 4, 2], 9, False)
        assert bytes(unit.gather(keys, None, lens, total)) == b"abcdefghi"
        assert unit.gather(keys, None, lens, total - 1) is None
        keys[1] = b"defgh"
        assert unit.gather(keys, None, lens, total) is None
        keys.pop()
        assert unit.gather(keys, None, lens, total) is None

    def test_gather_refuses_positions_past_the_scan(self):
        unit = _unit()
        keys = [b"abc", b"defg", b"hi"]
        lens, total, _same = unit.lengths(keys)
        keys.append(b"xyz")
        order = np.array([0, 1, 3], dtype=np.intp)
        assert unit.gather(keys, order, lens, total) is None
        assert unit.gather(keys, np.array([2, 1, -1]), lens, total) is None
        with pytest.raises(ValueError):
            unit.gather(keys, np.array([2, 1], dtype=np.intp), lens, total)
        with pytest.raises(ValueError):
            unit.gather(keys, order.astype(np.int32), lens, total)


class TestHashColumnarEqualsPerKeyRouting:
    @pytest.mark.parametrize("prefer_native", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_ragged_batches(self, scan_body, prefer_native, seed):
        dispatcher = _dispatcher(prefer_native=prefer_native)
        keys = _ragged(random.Random(seed), 30)
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    def test_verify_resolves_every_key(self, scan_body):
        dispatcher = _dispatcher(verify=True)
        keys = _ragged(random.Random(11), 30, longest=40)
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    @pytest.mark.parametrize("count", [0, 1, 15, 16, 300])
    def test_one_length_batches(self, scan_body, count):
        dispatcher = _dispatcher()
        keys = generate_keys("SSN", count, Distribution.UNIFORM, seed=1)
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    def test_unowned_one_length_batch_takes_the_fallback_rows(
        self, scan_body
    ):
        dispatcher = _dispatcher()
        keys = [bytes([65 + i % 26]) * 24 for i in range(100)]
        assert dispatcher.hash_many(keys) == [
            stl_hash_bytes(key) for key in keys
        ]

    def test_tuple_input(self, scan_body):
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(5), 20, longest=40)
        assert dispatcher.hash_many(tuple(keys)) == [
            dispatcher(k) for k in keys
        ]

    @pytest.mark.parametrize(
        "make", [bytearray, memoryview], ids=["bytearray", "memoryview"]
    )
    def test_buffer_keys_mid_list(self, scan_body, make):
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(9), 20, longest=40)
        expected = [dispatcher(k) for k in keys]
        keys[len(keys) // 2] = make(keys[len(keys) // 2])
        assert dispatcher.hash_many(keys) == expected

    def test_str_key_mid_list_raises(self, scan_body):
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(9), 20, longest=40)
        keys[3] = "123-45-6789"
        with pytest.raises(TypeError):
            dispatcher.hash_many(keys)


@pytest.mark.native
class TestListChangedBetweenCalls:
    """Another thread may change the caller's list between the scan and
    the gather: the batch then takes the Python scan, and its values
    are those of the list as changed."""

    def _wrap_gather(self, monkeypatch, change):
        unit = _unit()
        real = unit._gather
        calls = []

        def gather(keys, *args):
            calls.append(len(keys))
            change(keys)
            return real(keys, *args)

        monkeypatch.setattr(unit, "_gather", gather)
        return calls

    def test_key_grows(self, monkeypatch):
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(1), 30, longest=40)
        index = keys.index(next(k for k in keys if len(k) == 11))

        def grow(listed):
            listed[index] = listed[index] + b"0"

        calls = self._wrap_gather(monkeypatch, grow)
        values = dispatcher.hash_many(keys)
        assert calls
        assert len(keys[index]) == 12
        assert values == [dispatcher(k) for k in keys]

    def test_list_shrinks(self, monkeypatch):
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(2), 30, longest=40)
        calls = self._wrap_gather(monkeypatch, lambda listed: listed.pop())
        values = dispatcher.hash_many(keys)
        assert calls and len(values) == len(keys) == calls[0] - 1
        assert values == [dispatcher(k) for k in keys]


class TestPythonScanServes:
    def test_kill_switch(self, monkeypatch):
        monkeypatch.setenv("SEPE_NATIVE", "0")
        assert native.scan_unit() is None
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(4), 20, longest=40)
        assert dispatcher.hash_many(keys) == [dispatcher(k) for k in keys]

    @pytest.mark.native
    def test_failed_compile_is_counted_once_and_never_retried(
        self, monkeypatch
    ):
        if not native.native_available():
            pytest.skip("no native toolchain")
        dispatcher = _dispatcher()
        keys = _ragged(random.Random(6), 20, longest=40)
        expected = [dispatcher(k) for k in keys]
        compiles = []

        def broken(*args, **kwargs):
            compiles.append(args)
            raise NativeUnavailableError("compiler removed")

        fallbacks = get_registry().counter("codegen.native.fallbacks")
        native.reset_native_state()
        monkeypatch.setattr(native, "compile_shared_object", broken)
        try:
            before = fallbacks.value
            with pytest.warns(RuntimeWarning, match="key scan unit"):
                assert dispatcher.hash_many(keys) == expected
            for _ in range(3):
                assert dispatcher.hash_many(keys) == expected
            assert native.scan_unit() is None
            assert len(compiles) == 1
            assert fallbacks.value - before == 1
        finally:
            native.reset_native_state()


@pytest.mark.native
def test_unit_compiles_on_the_first_batch_not_at_registration():
    if not native.native_available():
        pytest.skip("no native toolchain")
    compiles = get_registry().counter("codegen.native.compiles")
    native.reset_native_state()
    before = compiles.value
    dispatcher = _dispatcher()
    assert compiles.value == before
    keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=2)
    dispatcher.hash_many(keys)
    assert compiles.value == before + 1
    dispatcher.hash_many(keys)
    assert compiles.value == before + 1
    assert native.scan_unit() is not None
