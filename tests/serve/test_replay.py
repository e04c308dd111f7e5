"""Traffic replay harness: determinism, verification, drift injection."""

import pytest

from repro.keygen import Distribution, generate_keys, key_spec
from repro.serve.drift import DRIFT_NEW_LENGTH, DRIFT_WIDENED_BYTE_CLASS
from repro.serve.replay import (
    ReplayConfig,
    build_schedules,
    drifted_key,
    run_replay,
    scaling_ratio,
)

SMALL = dict(
    shards=2,
    threads=2,
    keys_per_thread=6_000,
    flush_size=256,
    sample_every=8,
)


class TestDriftedKey:
    def test_widened_preserves_length_and_landmarks(self):
        key = b"123-45-6789"
        out = drifted_key(key, DRIFT_WIDENED_BYTE_CLASS)
        assert len(out) == len(key)
        assert out[3:] == key[3:]
        assert all(0x61 <= byte <= 0x66 for byte in out[:3])

    def test_new_length_appends(self):
        assert drifted_key(b"123-45-6789", DRIFT_NEW_LENGTH) == (
            b"123-45-6789-7"
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            drifted_key(b"123-45-6789", "sideways")


class TestSchedules:
    def test_deterministic_and_sized(self):
        config = ReplayConfig(**SMALL)
        first = build_schedules(config)
        second = build_schedules(config)
        assert first == second
        assert len(first) == config.threads
        assert all(
            len(schedule) == config.keys_per_thread for schedule in first
        )
        # Threads get distinct streams (different seeds).
        assert first[0] != first[1]

    def test_interleaves_key_types(self):
        config = ReplayConfig(**SMALL)
        schedule = build_schedules(config)[0]
        lengths = {len(key) for key in schedule[:10]}
        assert lengths == {
            key_spec(name).length for name in config.key_types
        }

    def test_drift_applied_after_cut(self):
        config = ReplayConfig(
            drift=True, drift_at=0.5, drift_kind=DRIFT_NEW_LENGTH, **SMALL
        )
        schedule = build_schedules(config)[0]
        cut = int(len(schedule) * config.drift_at)
        target = key_spec(config.drift_key_type).length
        assert all(len(key) != target + 2 for key in schedule[:cut])
        drifted = [
            key for key in schedule[cut:] if len(key) == target + 2
        ]
        assert drifted  # the injected population exists
        assert all(key.endswith(b"-7") for key in drifted)


class TestRunReplay:
    def test_clean_replay_report(self):
        report = run_replay(ReplayConfig(**SMALL))
        config = ReplayConfig(**SMALL)
        total = config.threads * config.keys_per_thread
        assert report["submitted"] == total
        assert report["delivered"] == total
        assert report["hash_errors"] == 0
        assert report["checked_batches"] > 0
        assert report["fallback_keys"] == 0
        assert report["keys_per_sec"] > 0
        assert "swap_events" not in report  # drift off
        served = report["generations_served"]
        assert set(served) == {"r0@g0", "r1@g0"}
        assert sum(served.values()) == total

    def test_drift_replay_swaps_exactly_once_with_zero_errors(self):
        report = run_replay(
            ReplayConfig(
                drift=True,
                drift_kind=DRIFT_WIDENED_BYTE_CLASS,
                reconcile_interval=0.05,
                **SMALL,
            )
        )
        assert report["hash_errors"] == 0
        events = report["swap_events"]
        assert len(events) == 1
        (event,) = events
        assert event["verified"]
        assert event["reasons"] == [DRIFT_WIDENED_BYTE_CLASS]
        assert event["new_generation"] == 1
        assert event["swap_ms"] > 0
        assert report["swap_failures"] == []
        assert report["delivered"] == report["submitted"]

    def test_timed_replay_respects_deadline(self):
        config = ReplayConfig(
            shards=1,
            threads=1,
            keys_per_thread=2_000,
            seconds=0.3,
            flush_size=256,
        )
        report = run_replay(config)
        # The worker loops the schedule until the deadline: at least one
        # full pass, and everything submitted was delivered.
        assert report["submitted"] >= 2_000
        assert report["delivered"] == report["submitted"]
        assert report["hash_errors"] == 0

    @pytest.mark.native
    def test_every_route_is_native_when_producers_start(self, monkeypatch):
        """The replay goes live before its barrier: the producers find
        every route on its native tier and never pay the compile."""
        from repro.codegen import native as native_mod
        from repro.serve import replay

        if not native_mod.native_available():
            pytest.skip("no working C++ toolchain on this host")
        if not native_mod.detect_toolchain().supports({"pext"}):
            pytest.skip("host toolchain lacks pext")
        compiles = native_mod.get_registry().counter(
            "codegen.native.compiles"
        )
        seen = []
        real_worker = replay._submit_worker

        def worker(service, *args):
            seen.append(
                (
                    [route.native for route in service.table.routes],
                    compiles.value,
                )
            )
            real_worker(service, *args)

        monkeypatch.setattr(replay, "_submit_worker", worker)
        config = ReplayConfig(**dict(SMALL, keys_per_thread=500))
        report = run_replay(config)
        assert report["hash_errors"] == 0
        routes = len(config.key_types)
        assert [native for native, _ in seen] == [
            [True] * routes
        ] * config.threads
        # No compile ran between the producers' starts.
        assert len({count for _, count in seen}) == 1


class TestScalingRatio:
    def test_ratio_of_widest_over_one_shard(self):
        rows = [
            {"shards": 1, "keys_per_sec": 1e6},
            {"shards": 2, "keys_per_sec": 1.8e6},
            {"shards": 4, "keys_per_sec": 3e6},
        ]
        assert scaling_ratio(rows) == 3.0

    def test_requires_baseline_row(self):
        assert scaling_ratio([{"shards": 2, "keys_per_sec": 1.0}]) is None
        assert scaling_ratio([{"shards": 1, "keys_per_sec": 1.0}]) is None


class TestVerifyingSinkCatchesCorruption:
    def test_mismatched_values_counted_as_errors(self):
        from repro.serve.replay import VerifyingSink
        from repro.core.routes import build_route_state
        from repro.keygen.keyspec import KEY_TYPES

        state = build_route_state("r0", KEY_TYPES["SSN"].regex)
        sink = VerifyingSink(check_every=1)
        keys = generate_keys("SSN", 8, Distribution.UNIFORM, seed=0)
        good = [state.synthesized.function(key) for key in keys]
        sink(state, keys, good)
        assert sink.errors == 0
        corrupted = list(good)
        corrupted[0] ^= 1
        sink(state, keys, corrupted)
        assert sink.errors == 1
        assert sink.delivered == 16
