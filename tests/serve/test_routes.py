"""RouteState pre-resolution and the immutable RouteTable."""

import pytest

from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen import Distribution, generate_keys
from repro.keygen.keyspec import KEY_TYPES
from repro.core.routes import RouteState, RouteTable, build_route_state

SSN = KEY_TYPES["SSN"].regex    # length 11
IPV4 = KEY_TYPES["IPV4"].regex  # length 15
MAC = KEY_TYPES["MAC"].regex    # length 17


def route(route_id, regex, **kwargs):
    return build_route_state(route_id, regex, HashFamily.PEXT, **kwargs)


class TestRouteState:
    def test_pre_resolves_all_tiers(self):
        state = route("r0", SSN)
        keys = generate_keys("SSN", 10, Distribution.UNIFORM, seed=0)
        reference = [state.synthesized.function(key) for key in keys]
        assert [state.scalar(key) for key in keys] == reference
        assert list(state.batch(keys)) == reference
        if state.batch_array is not None:
            values = state.batch_array(keys)
            assert [int(v) for v in values] == reference

    def test_from_artifact(self):
        synthesized = synthesize(SSN, HashFamily.OFFXOR)
        state = build_route_state("r1", synthesized)
        assert state.synthesized is synthesized
        assert state.family is HashFamily.OFFXOR
        assert state.generation == 0

    def test_interp_tier_when_native_disabled(self):
        state = route("r2", SSN, prefer_native=False)
        assert not state.native
        assert state.batch_array is None
        assert state.scalar is state.synthesized.function

    def test_label_defaults_to_plan_regex(self):
        assert route("r3", SSN).label
        assert route("r4", SSN, label="ssn").label == "ssn"


class TestRouteTable:
    @pytest.fixture(scope="class")
    def table(self):
        return RouteTable([route("r0", SSN), route("r1", MAC)])

    def test_fast_map_by_length(self, table):
        assert table.fast[11].route_id == "r0"
        assert table.fast[17].route_id == "r1"

    def test_resolve(self, table):
        assert table.resolve(b"123-45-6789").route_id == "r0"
        assert table.resolve(b"aa-bb-cc-dd-ee-ff").route_id == "r1"
        assert table.resolve(b"no-such-length") is None

    def test_resolve_checked_matches_templates(self, table):
        assert table.resolve_checked(b"123-45-6789").route_id == "r0"
        # Right length, wrong template: the checked walk rejects it.
        assert table.resolve_checked(b"###########") is None

    def test_ambiguous_length_left_out_of_fast_map(self):
        # Two fixed 11-byte formats: length 11 is contested, so the
        # fast map must not claim it; resolution falls to templates.
        other = route("rx", r"[a-z]{5}\.[0-9]{5}")
        table = RouteTable([route("r0", SSN), other])
        assert 11 not in table.fast
        assert table.resolve(b"123-45-6789").route_id == "r0"
        assert table.resolve(b"abcde.12345").route_id == "rx"

    def test_narrow_variable_route_expands_into_fast_map(self):
        state = route("rv", r"abcdefgh[0-9]{4}[0-9]{0,2}")
        table = RouteTable([state])
        assert set(table.fast) == {12, 13, 14}
        assert table.resolve(b"abcdefgh1234").route_id == "rv"

    def test_unbounded_variable_route_disables_fast_map(self):
        state = route("rv", r"abcdefgh[0-9]{4}.*")
        table = RouteTable([route("r0", SSN), state])
        # The unbounded route contests only lengths 12 and up, so SSN's
        # length 11 stays owned; the route claims no fast entry itself.
        assert table.fast == {11: table.get("r0")}
        assert table.resolve(b"123-45-6789").route_id == "r0"
        assert table.resolve(b"abcdefgh1234-tail").route_id == "rv"

    def test_with_route_swaps_and_versions(self, table):
        successor = RouteState(
            "r0", synthesize(SSN, HashFamily.PEXT), generation=1
        )
        swapped = table.with_route(successor)
        assert swapped.version == table.version + 1
        assert swapped.get("r0").generation == 1
        assert table.get("r0").generation == 0  # original untouched
        assert swapped.get("r1") is table.get("r1")

    def test_with_route_requires_existing_id(self, table):
        with pytest.raises(KeyError):
            table.with_route(route("r9", IPV4))

    def test_added_rejects_duplicate_id(self, table):
        with pytest.raises(KeyError):
            table.added(route("r0", IPV4))
        grown = table.added(route("r2", IPV4))
        assert len(grown) == 3
        assert grown.version == table.version + 1
