"""Containers on the certified no-collision fast path."""

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.containers import UnorderedMap, UnorderedSet
from repro.containers.base import ContainerTelemetry
from repro.hashes import stl_hash_bytes
from repro.obs.metrics import MetricsRegistry
from repro.perfect import builtin_key_set, rq_closed_set, synthesize_perfect

MAC_SET = rq_closed_set("MAC", 1000, seed=0)
HEX = "0123456789abcdef"


@pytest.fixture(scope="module")
def perfect_http():
    return synthesize_perfect(builtin_key_set("http-methods"))


@pytest.fixture(scope="module")
def perfect_mac_map():
    perfect = synthesize_perfect(MAC_SET)
    table = UnorderedMap(perfect.container_function, perfect=True)
    table.insert_many((key, index) for index, key in enumerate(MAC_SET))
    return table


@st.composite
def mac_keys(draw):
    """MAC-format keys: uniform ones, and members with one hex digit
    changed, which often keep the member's perfect hash (the plan reads
    only some of each key's bits)."""
    if draw(st.booleans()):
        digits = draw(st.lists(st.sampled_from(HEX), min_size=12, max_size=12))
        return "-".join(
            "".join(digits[i:i + 2]) for i in range(0, 12, 2)
        ).encode()
    key = bytearray(draw(st.sampled_from(MAC_SET)))
    position = draw(st.sampled_from([i for i in range(17) if i % 3 != 2]))
    key[position] = ord(draw(st.sampled_from(HEX)))
    return bytes(key)


class TestOptIn:
    def test_requires_certificate(self):
        with pytest.raises(ValueError, match="certified"):
            UnorderedSet(stl_hash_bytes, perfect=True)

    def test_map_requires_certificate(self):
        with pytest.raises(ValueError, match="certified"):
            UnorderedMap(stl_hash_bytes, perfect=True)

    def test_perfect_hash_accepted(self, perfect_http):
        table = UnorderedSet(perfect_http, perfect=True)
        assert table.assume_perfect

    def test_default_stays_off(self, perfect_http):
        assert not UnorderedSet(perfect_http).assume_perfect


class TestLookups:
    def test_set_membership_on_closed_set(self, perfect_http):
        keys = builtin_key_set("http-methods")
        table = UnorderedSet(perfect_http, perfect=True)
        table.insert_many(keys)
        assert len(table) == len(keys)
        for key in keys:
            assert key in table
        # A key outside the certified closed set is not covered by the
        # certificate; lookups of it still miss (TestNonMembers).
        assert b"BREW\x00\x00\x00\x00" not in table
        assert not perfect_http.certificate.covers(
            list(keys) + [b"BREW\x00\x00\x00\x00"]
        )

    def test_map_values_on_closed_set(self, perfect_http):
        keys = builtin_key_set("http-methods")
        table = UnorderedMap(perfect_http, perfect=True)
        for index, key in enumerate(keys):
            table.assign(key, index)
        for index, key in enumerate(keys):
            assert table.find(key) == index

    def test_agrees_with_probing_table(self, perfect_http):
        keys = builtin_key_set("http-methods")
        fast = UnorderedSet(perfect_http, perfect=True)
        slow = UnorderedSet(perfect_http)
        fast.insert_many(keys)
        slow.insert_many(keys)
        for key in keys:
            assert fast.find(key) == slow.find(key)


class TestNonMembers:
    """A key outside the closed set may share a member's perfect hash;
    the fast path must still answer it as absent."""

    @given(key=mac_keys())
    @example(key=b"78-93-ff-c6-e6-25")  # hashes like b"78-93-cf-c6-e6-25"
    @settings(max_examples=200, deadline=None)
    def test_non_member_lookups_miss(self, perfect_mac_map, key):
        assume(key not in MAC_SET)
        assert perfect_mac_map.find(key) is None
        assert key not in perfect_mac_map
        assert perfect_mac_map.count(key) == 0

    def test_pinned_non_member_shares_a_member_hash(self, perfect_mac_map):
        """The pinned example above really exercises the hole: it
        collides with a member under the certified hash."""
        function = perfect_mac_map._hash
        assert function(b"78-93-ff-c6-e6-25") == function(b"78-93-cf-c6-e6-25")
        assert perfect_mac_map.find(b"78-93-cf-c6-e6-25") == MAC_SET.index(
            b"78-93-cf-c6-e6-25"
        )


class TestTelemetry:
    def test_fast_path_hits_counted(self, perfect_http):
        registry = MetricsRegistry()
        telemetry = ContainerTelemetry(registry)
        keys = builtin_key_set("http-methods")
        table = UnorderedMap(
            perfect_http, telemetry=telemetry, perfect=True
        )
        for key in keys:
            table.insert(key, None)
        for key in keys:
            table.find(key)
        assert telemetry.perfect_fast_path_hits.value == len(keys)
        assert (
            telemetry.snapshot()["perfect_fast_path_hits"] == len(keys)
        )

    def test_probing_table_records_no_hits(self, perfect_http):
        registry = MetricsRegistry()
        telemetry = ContainerTelemetry(registry)
        keys = builtin_key_set("http-methods")
        table = UnorderedMap(perfect_http, telemetry=telemetry)
        for key in keys:
            table.insert(key, None)
            table.find(key)
        assert telemetry.perfect_fast_path_hits.value == 0
