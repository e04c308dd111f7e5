"""Drift detection: the pattern ↔ accumulator embedding and its triggers."""

import pytest

from repro.core.fast_infer import PatternAccumulator
from repro.core.inference import infer_pattern
from repro.core.pattern import KeyPattern
from repro.keygen import Distribution, generate_keys
from repro.serve.drift import (
    DRIFT_NEW_LENGTH,
    DRIFT_WIDENED_BYTE_CLASS,
    accumulator_from_pattern,
    copy_accumulator,
    detect_drift,
    route_affinity,
)


def ssn_keys(n=200, seed=0):
    return generate_keys("SSN", n, Distribution.UNIFORM, seed=seed)


def hexified(keys):
    """SSN keys with area digits re-encoded as hex letters (same length)."""
    table = b"abcdefabcd"
    return [
        bytes(table[b - 0x30] for b in key[:3]) + key[3:] for key in keys
    ]


@pytest.fixture(scope="module")
def ssn_pattern():
    return infer_pattern(ssn_keys())


class TestEmbedding:
    def test_round_trip_is_exact(self, ssn_pattern):
        finished = accumulator_from_pattern(ssn_pattern).finish()
        assert finished.quads == ssn_pattern.quads
        assert finished.min_length == ssn_pattern.min_length
        assert finished.max_length == ssn_pattern.max_length

    def test_merging_conforming_keys_is_identity(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update(ssn_keys(seed=7))
        merged = (
            accumulator_from_pattern(ssn_pattern)
            .merge(copy_accumulator(observed))
            .finish()
        )
        assert merged.quads == ssn_pattern.quads

    def test_unbounded_pattern_rejected(self, ssn_pattern):
        unbounded = KeyPattern(
            ssn_pattern.quads,
            min_length=ssn_pattern.min_length,
            max_length=None,
        )
        with pytest.raises(ValueError):
            accumulator_from_pattern(unbounded)

    def test_copy_is_independent(self):
        original = PatternAccumulator()
        original.update(ssn_keys(10))
        copied = copy_accumulator(original)
        copied.update([b"x" * 11])
        assert original.state() != copied.state()
        assert original.count == 10


class TestDetectDrift:
    def test_conforming_sample_reports_no_drift(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update(ssn_keys(seed=3))
        report = detect_drift(ssn_pattern, observed)
        assert not report.drifted
        assert report.reasons == ()
        assert report.merged_pattern is None
        assert report.observed_count == 200

    def test_widened_byte_class(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update(hexified(ssn_keys(seed=4)))
        report = detect_drift(ssn_pattern, observed)
        assert report.drifted
        assert report.reasons == (DRIFT_WIDENED_BYTE_CLASS,)
        # Exactly the re-encoded area positions widened.
        assert report.widened_positions == (0, 1, 2)
        merged = report.merged_pattern
        assert merged is not None
        # The merged pattern covers both populations.
        for key in ssn_keys(20, seed=5) + hexified(ssn_keys(20, seed=6)):
            assert merged.matches(key)

    def test_new_length(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update([key + b"-7" for key in ssn_keys(seed=8)])
        report = detect_drift(ssn_pattern, observed)
        assert report.drifted
        assert DRIFT_NEW_LENGTH in report.reasons
        assert report.observed_lengths == (13, 13)
        merged = report.merged_pattern
        assert merged.min_length == 11
        assert merged.max_length == 13

    def test_min_keys_gate(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update(hexified(ssn_keys(10)))
        report = detect_drift(ssn_pattern, observed, min_keys=64)
        assert not report.drifted
        assert report.insufficient
        assert report.observed_count == 10

    def test_empty_sample(self, ssn_pattern):
        report = detect_drift(ssn_pattern, PatternAccumulator())
        assert not report.drifted
        assert report.insufficient
        assert report.observed_count == 0

    def test_observed_not_mutated(self, ssn_pattern):
        observed = PatternAccumulator()
        observed.update(hexified(ssn_keys()))
        before = observed.state()
        detect_drift(ssn_pattern, observed)
        assert observed.state() == before


class TestRouteAffinity:
    def test_length_drifted_keys_keep_landmarks(self, ssn_pattern):
        pool = PatternAccumulator()
        pool.update([key + b"-7" for key in ssn_keys(seed=9)])
        # Dashes at 3 and 6 survive the suffix: full agreement.
        assert route_affinity(ssn_pattern, pool) == 1.0

    def test_foreign_format_scores_low(self, ssn_pattern):
        pool = PatternAccumulator()
        pool.update(generate_keys("MAC", 100, Distribution.UNIFORM, seed=1))
        assert route_affinity(ssn_pattern, pool) < 0.5

    def test_empty_pool_scores_zero(self, ssn_pattern):
        assert route_affinity(ssn_pattern, PatternAccumulator()) == 0.0
