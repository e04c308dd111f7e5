"""Tests for the oracle registry and individual oracle behavior."""

import random

import pytest

from repro.fuzz.generators import FormatSpec, Piece, sample_keys
from repro.fuzz.oracles import (
    GROUP_DIFFERENTIAL,
    GROUP_METAMORPHIC,
    ORACLES,
    CaseContext,
    FuzzCase,
    all_oracles,
    resolve_oracles,
)

SSN_SPEC = FormatSpec(
    (
        Piece(3, b"0123456789"),
        Piece(1, b"-"),
        Piece(2, b"0123456789"),
        Piece(1, b"-"),
        Piece(4, b"0123456789"),
    )
)

TINY_SPEC = FormatSpec((Piece(4, b"01"),))
"""Body below the paper's 8-byte floor: synthesis refuses it."""


def _case(spec, seed=0, count=16):
    rng = random.Random(seed)
    return FuzzCase(spec, tuple(sample_keys(spec, rng, count)))


class TestRegistry:
    def test_both_groups_populated(self):
        groups = {oracle.group for oracle in all_oracles()}
        assert groups == {GROUP_DIFFERENTIAL, GROUP_METAMORPHIC}

    def test_descriptions_present(self):
        for oracle in all_oracles():
            assert oracle.description, oracle.name

    def test_resolve_all(self):
        assert resolve_oracles(None) == all_oracles()

    def test_resolve_subset_preserves_request_order(self):
        names = ["container", "python-vs-interp"]
        assert [o.name for o in resolve_oracles(names)] == names

    def test_resolve_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            resolve_oracles(["nonexistent"])

    def test_expected_oracles_registered(self):
        expected = {
            "python-vs-interp",
            "batch-vs-scalar",
            "infer-engines",
            "serialize-roundtrip",
            "regex-roundtrip",
            "stdlib-re",
            "cpp-emit",
            "join-permutation",
            "join-merge",
            "join-idempotent",
            "join-monotone",
            "pext-invariants",
            "dispatcher",
            "container",
            "verify-bijective",
        }
        assert expected <= set(ORACLES)


class TestCaseContext:
    def test_synthesis_cached_per_family(self):
        from repro.core.plan import HashFamily

        ctx = CaseContext(_case(SSN_SPEC))
        assert ctx.synthesized(HashFamily.PEXT) is ctx.synthesized(
            HashFamily.PEXT
        )
        assert ctx.ir(HashFamily.PEXT) is ctx.ir(HashFamily.PEXT)

    def test_sub_word_body_not_synthesizable(self):
        ctx = CaseContext(_case(TINY_SPEC))
        assert not ctx.synthesizable


class TestOraclesPass:
    """Every oracle holds on a healthy pipeline for a paper format."""

    @pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.name)
    def test_ssn_like_format(self, oracle):
        ctx = CaseContext(_case(SSN_SPEC))
        assert oracle.run(ctx) is None

    @pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.name)
    def test_variable_length_format(self, oracle):
        spec = FormatSpec(
            (Piece(6, b"abcdef0123456789"), Piece(2, b"-")), tail=5
        )
        ctx = CaseContext(_case(spec))
        assert oracle.run(ctx) is None

    @pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.name)
    def test_sub_word_body_skips_cleanly(self, oracle):
        """Degenerate formats are skipped, never crash an oracle."""
        ctx = CaseContext(_case(TINY_SPEC))
        assert oracle.run(ctx) is None

    @pytest.mark.parametrize("oracle", all_oracles(), ids=lambda o: o.name)
    def test_empty_key_set_skips_cleanly(self, oracle):
        ctx = CaseContext(FuzzCase(SSN_SPEC, ()))
        assert oracle.run(ctx) is None


class TestOraclesCatchBugs:
    def test_interp_fault_caught_by_differential_oracle(self):
        from repro.fuzz.faults import injected_fault
        from repro.fuzz.oracles import check_python_vs_interp

        case = _case(SSN_SPEC)
        with injected_fault("interp-bitflip"):
            message = check_python_vs_interp(CaseContext(case))
        assert message is not None and "!=" in message
        # And the healthy pipeline is restored on exit.
        assert check_python_vs_interp(CaseContext(case)) is None

    def test_off_length_fault_caught_by_python_vs_interp(self):
        """A compiled hash that is wrong only on keys of another length
        (a fused wide load that does not zero-fill like the per-load
        slices) is caught: the oracle also probes each key truncated by
        one byte, extended by 8, and the empty key."""
        from repro.core.plan import HashFamily
        from repro.fuzz.oracles import check_python_vs_interp

        case = _case(SSN_SPEC)
        ctx = CaseContext(case)
        length = len(case.keys[0])
        for family in HashFamily:
            ctx.ir(family)  # built from the honest plan first
            honest = ctx.synthesized(family)
            ctx._synthesized[family] = (
                lambda key, f=honest: f(key) ^ (len(key) != length)
            )
        message = check_python_vs_interp(ctx)
        assert message is not None and "!=" in message

    def test_batch_fault_caught_by_batch_oracle(self):
        from repro.fuzz.faults import injected_fault
        from repro.fuzz.oracles import check_batch_vs_scalar

        case = _case(SSN_SPEC)
        with injected_fault("batch-flip"):
            message = check_batch_vs_scalar(CaseContext(case))
        assert message is not None
        assert check_batch_vs_scalar(CaseContext(case)) is None

    def test_sum_trusting_column_reduction_caught_by_infer_oracle(
        self, monkeypatch
    ):
        """A column reduction that takes a chunk for rows when its key
        lengths only sum to ``n * L`` reads misaligned rows; the
        ragged-batch probe of ``infer-engines`` reports it."""
        np = pytest.importorskip("numpy")
        from repro.core.fast_infer import PatternAccumulator
        from repro.fuzz.oracles import check_infer_engines

        def columns_by_sum(self, keys):
            length = len(keys[0])
            try:
                joined = b"".join(keys)
            except TypeError:
                return False
            if not length or len(joined) != len(keys) * length:
                return False
            matrix = np.frombuffer(joined, dtype=np.uint8).reshape(
                len(keys), length
            )
            varying = np.bitwise_or.reduce(matrix, axis=0)
            varying ^= np.bitwise_and.reduce(matrix, axis=0)
            self.merge(
                PatternAccumulator.from_state(
                    (
                        len(keys),
                        length,
                        length,
                        joined[:length],
                        int.from_bytes(varying.tobytes(), "big"),
                    )
                )
            )
            return True

        ctx = CaseContext(_case(SSN_SPEC))
        assert check_infer_engines(ctx) is None
        monkeypatch.setattr(
            PatternAccumulator, "_update_columns", columns_by_sum
        )
        message = check_infer_engines(ctx)
        assert message is not None and "ragged batch" in message

    def test_unknown_fault_kind_rejected(self):
        from repro.fuzz.faults import injected_fault

        with pytest.raises(ValueError, match="unknown fault kind"):
            with injected_fault("gamma-ray"):
                pass
