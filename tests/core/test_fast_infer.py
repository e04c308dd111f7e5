"""Parity and property tests for the bitwise-parallel inference fold.

The contract under test: every way into :class:`PatternAccumulator` —
the :func:`infer_pattern` entry point, chunked :meth:`update` calls
(chunks below ``_NUMPY_MIN_KEYS`` take the big-int fold, equal-length
chunks at or above it the NumPy column reduction), and merged states —
produces *byte-for-byte* the same join as the reference per-quad
implementation (:func:`repro.core.quads.join_keys`), on every corpus
shape we can think of plus randomized fuzz corpora.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fast_infer import (
    _NUMPY_MIN_KEYS,
    PatternAccumulator,
    as_key_bytes,
    join_keys_fast,
    numpy_available,
)
from repro.core.inference import (
    _coverage_report_reference,
    coverage_report,
    infer_pattern,
    infer_pattern_from_file,
)
from repro.core.pattern import KeyPattern
from repro.core.quads import join_keys, quads_const_mask
from repro.errors import EmptyKeySetError

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="NumPy not installed"
)


def random_corpus(rng, n, min_len, max_len, alphabet=None):
    keys = []
    for _ in range(n):
        length = rng.randint(min_len, max_len)
        if alphabet:
            keys.append(bytes(rng.choice(alphabet) for _ in range(length)))
        else:
            keys.append(bytes(rng.randrange(256) for _ in range(length)))
    return keys


def reference_pattern(keys):
    """The pattern the reference per-quad join infers."""
    key_bytes = [as_key_bytes(key) for key in keys]
    lengths = [len(key) for key in key_bytes]
    return KeyPattern(
        quads=tuple(join_keys(key_bytes)),
        min_length=min(lengths),
        max_length=max(lengths),
    )


def chunked(keys, size=7):
    """Fold ``keys`` in chunks of ``size``: below ``_NUMPY_MIN_KEYS``,
    every chunk takes the big-int fold."""
    accumulator = PatternAccumulator()
    for start in range(0, len(keys), size):
        accumulator.update(keys[start : start + size])
    return accumulator


def at_numpy_size(keys):
    """``keys`` repeated to at least ``_NUMPY_MIN_KEYS``: the join is
    idempotent, so the pattern is unchanged, but an equal-length corpus
    now qualifies for the column reduction."""
    return list(keys) * -(-_NUMPY_MIN_KEYS // len(keys))


def assert_parity(keys):
    """Every way into the fold infers the reference pattern."""
    expected = reference_pattern(keys)
    assert infer_pattern(keys) == expected
    assert chunked(keys).finish() == expected
    assert infer_pattern(at_numpy_size(keys)) == expected


ADVERSARIAL_CORPORA = [
    [b"JFK", b"LAX", b"GRU"],
    [b"JFK", b"JFKL"],                      # prefix relationship
    [b"JFKL", b"JFK"],                      # ...in the other order
    [b"a"],                                  # single key
    [b""],                                   # single empty key
    [b"", b"abc", b"ab"],                    # empty key in a mixed set
    [b"\x00" * 12] * 7,                      # empty-byte (NUL) heavy
    [b"\x00" * 12, b"\x00" * 11 + b"\x01"],  # NULs with one varying bit
    [b"\xff" * 16] * 3,                      # 0xFF-heavy, all constant
    [b"\xff" * 16, b"\xfe" + b"\xff" * 15],  # 0xFF-heavy, one bit varies
    [b"\xff\x00" * 8, b"\x00\xff" * 8],      # alternating saturation
    [b"same-length-1", b"same-length-2"],
    [bytes([i]) for i in range(256)],        # every byte value, length 1
]

RAGGED_ROW_CORPORA = [
    # one byte short, one long
    [b"123-45-6789"] + [b"123-45-678", b"123-45-67890"] * 40
    + [b"987-65-4321"],
    [b"abcd"] + [b"", b"abcdefgh"] * 40 + [b"wxyz"],  # empty, double
    [b"abcd", b"abc", b"abcde"] * 30 + [b"abcd"],     # 4 + 3 + 5 = 3 * 4
]
"""Corpora whose lengths sum to ``n * L`` without every key being ``L``
bytes long, and whose first and last keys are ``L`` bytes long, so only
a scan of every length tells: they must infer variable length."""


class TestJoinParity:
    @pytest.mark.parametrize("keys", ADVERSARIAL_CORPORA)
    def test_bigint_matches_reference_adversarial(self, keys):
        assert chunked(keys).joined_quads() == join_keys(keys)

    @pytest.mark.parametrize("keys", ADVERSARIAL_CORPORA)
    def test_auto_engine_matches_reference_adversarial(self, keys):
        assert infer_pattern(keys) == reference_pattern(keys)
        assert join_keys_fast(keys) == join_keys(keys)

    @needs_numpy
    @pytest.mark.parametrize(
        "keys",
        [corpus for corpus in ADVERSARIAL_CORPORA
         if len({len(key) for key in corpus}) == 1 and corpus[0]],
    )
    def test_numpy_matches_reference_adversarial(self, keys):
        repeated = at_numpy_size(keys)
        assert PatternAccumulator()._update_columns(repeated)
        assert infer_pattern(repeated) == reference_pattern(keys)

    def test_empty_corpus_joins_empty(self):
        assert join_keys_fast([]) == []
        assert PatternAccumulator().update([]).joined_quads() == []

    def test_fuzz_mixed_length_corpora(self):
        rng = random.Random(1234)
        for round_index in range(30):
            keys = random_corpus(rng, rng.randint(1, 80), 0, 12)
            expected = reference_pattern(keys)
            assert infer_pattern(keys) == expected, round_index
            assert chunked(keys).finish() == expected, round_index

    def test_fuzz_structured_corpora(self):
        # Low-entropy alphabets freeze many quads: the interesting case.
        rng = random.Random(99)
        for alphabet in (b"01", b"0123456789", b"abcdef", b"\x00\xff"):
            for _ in range(10):
                assert_parity(random_corpus(rng, 50, 6, 6, alphabet=alphabet))

    def test_fuzz_numpy_equal_length(self):
        rng = random.Random(7)
        for length in (1, 2, 7, 8, 9, 16, 33):
            assert_parity(random_corpus(rng, 100, length, length))

    @needs_numpy
    def test_numpy_engine_rejects_mixed_lengths(self):
        assert not PatternAccumulator()._update_columns([b"ab", b"abc"] * 50)

    @pytest.mark.parametrize("keys", RAGGED_ROW_CORPORA)
    def test_lengths_summing_to_rows_infer_variable_length(self, keys):
        assert not PatternAccumulator()._update_columns(keys)
        pattern = infer_pattern(keys)
        assert not pattern.is_fixed_length
        assert pattern == reference_pattern(keys)
        assert chunked(keys).finish() == pattern

    def test_keys_of_256_bytes_or_more(self):
        rng = random.Random(8)
        for min_len, max_len in ((256, 256), (300, 300), (250, 260)):
            keys = random_corpus(rng, 80, min_len, max_len, alphabet=b"ab")
            assert_parity(keys)
        assert_parity([b"x" * 255, b"x" * 256] * 40)

    def test_bytearray_keys(self):
        rng = random.Random(9)
        for min_len, max_len in ((10, 10), (4, 9)):
            keys = random_corpus(rng, 100, min_len, max_len, b"0123")
            assert_parity([bytearray(key) for key in keys])

    def test_mixed_str_and_bytes_keys(self):
        rng = random.Random(10)
        for min_len, max_len in ((10, 10), (4, 9)):
            keys = random_corpus(rng, 100, min_len, max_len, b"0123-")
            mixed = [
                key.decode() if index % 2 else key
                for index, key in enumerate(keys)
            ]
            assert_parity(mixed)
        # Non-ASCII text is joined over its UTF-8 bytes.
        assert_parity(["é" * 5, b"\xc3\xa9" * 5, "ab" * 5] * 30)

    def test_non_key_types_raise_at_any_size(self):
        for keys in ([123], [b"ab"] * 100 + [3], [3.5] * 100):
            with pytest.raises(TypeError):
                infer_pattern(keys)

    def test_any_iterable_of_keys(self):
        keys = [b"abc", b"abd", b"ab"]
        expected = reference_pattern(keys)
        assert infer_pattern(iter(keys)) == expected
        assert PatternAccumulator().update(iter(keys)).finish() == expected


class TestPatternAccumulator:
    def test_chunked_updates_equal_one_shot(self):
        rng = random.Random(5)
        keys = random_corpus(rng, 90, 0, 10)
        one_shot = PatternAccumulator().update(keys)
        chunked = PatternAccumulator()
        for start in range(0, len(keys), 7):
            chunked.update(keys[start : start + 7])
        assert chunked.joined_quads() == one_shot.joined_quads()
        assert chunked.joined_quads() == join_keys(keys)
        assert chunked.count == len(keys)

    def test_merge_equals_union(self):
        rng = random.Random(6)
        for _ in range(20):
            left = random_corpus(rng, rng.randint(0, 40), 0, 9)
            right = random_corpus(rng, rng.randint(1, 40), 0, 9)
            merged = (
                PatternAccumulator()
                .update(left)
                .merge(PatternAccumulator().update(right))
            )
            assert merged.joined_quads() == join_keys(left + right)

    def test_merge_is_commutative(self):
        a_keys = [b"abcdef", b"abcxyz"]
        b_keys = [b"ab", b"abcd0f"]
        ab = (
            PatternAccumulator().update(a_keys)
            .merge(PatternAccumulator().update(b_keys))
        )
        ba = (
            PatternAccumulator().update(b_keys)
            .merge(PatternAccumulator().update(a_keys))
        )
        assert ab.joined_quads() == ba.joined_quads()
        assert ab.finish() == ba.finish()

    def test_merge_with_empty_is_identity(self):
        acc = PatternAccumulator().update([b"JFK", b"LAX"])
        before = acc.joined_quads()
        acc.merge(PatternAccumulator())
        assert acc.joined_quads() == before
        empty = PatternAccumulator()
        empty.merge(acc)
        assert empty.joined_quads() == before

    def test_finish_builds_the_inferred_pattern(self):
        keys = [b"abc", b"abcd", b"ab"]
        pattern = PatternAccumulator().update(keys).finish()
        assert pattern == infer_pattern(keys)
        assert pattern.min_length == 2
        assert pattern.max_length == 4

    def test_finish_empty_raises(self):
        with pytest.raises(EmptyKeySetError):
            PatternAccumulator().finish()

    def test_accepts_str_keys(self):
        acc = PatternAccumulator().update(["JFK", "LAX"])
        assert acc.joined_quads() == join_keys([b"JFK", b"LAX"])

    def test_rejects_non_key_types(self):
        with pytest.raises(TypeError):
            PatternAccumulator().update([123])

    def test_shorter_key_truncates_state_any_order(self):
        # min-length truncation must commute with every arrival order.
        keys = [b"longestkey", b"long", b"longer01"]
        expected = join_keys(keys)
        for order in ([0, 1, 2], [2, 1, 0], [1, 0, 2], [1, 2, 0]):
            acc = PatternAccumulator()
            for index in order:
                acc.update([keys[index]])
            assert acc.joined_quads() == expected

    def test_state_round_trip(self):
        acc = PatternAccumulator().update([b"abc", b"abd", b"ab"])
        restored = PatternAccumulator.from_state(acc.state())
        assert restored.joined_quads() == acc.joined_quads()
        assert restored.count == acc.count
        restored.update([b"zz"])
        assert restored.joined_quads() == join_keys(
            [b"abc", b"abd", b"ab", b"zz"]
        )

    @needs_numpy
    def test_bulk_numpy_update_matches_scalar(self):
        rng = random.Random(11)
        keys = random_corpus(rng, 300, 8, 8)
        bulk = PatternAccumulator().update(keys)            # bulk path
        scalar = chunked(keys)                              # big-int fold
        assert bulk.joined_quads() == scalar.joined_quads()
        assert bulk.count == scalar.count == len(keys)

    def test_saturated_corpus_early_exit_stays_exact(self):
        # Every bit varies quickly; the fold may stop XORing but the
        # result and the length bookkeeping must stay exact.
        rng = random.Random(12)
        keys = random_corpus(rng, 10_000, 6, 6)
        keys.append(b"\x00" * 6)
        keys.append(b"\xff" * 6)
        keys.append(b"tail-is-longer")
        assert join_keys_fast(keys) == join_keys(keys)


class TestParallelInference:
    """Shards folded apart and merged, as ``serve.reconciler`` joins
    per-shard states, equal one :func:`infer_pattern` call."""

    @staticmethod
    def sharded(keys, shards):
        size = max(1, -(-len(keys) // shards))
        states = [
            PatternAccumulator().update(keys[start : start + size]).state()
            for start in range(0, len(keys), size)
        ]
        accumulator = PatternAccumulator()
        for state in states:
            accumulator.merge(PatternAccumulator.from_state(state))
        return accumulator

    def test_parallel_matches_serial(self):
        rng = random.Random(21)
        keys = random_corpus(rng, 6000, 10, 10, alphabet=b"0123456789ab")
        assert self.sharded(keys, 2).finish() == infer_pattern(keys)

    def test_parallel_mixed_lengths(self):
        rng = random.Random(22)
        keys = random_corpus(rng, 5000, 4, 9, alphabet=b"xyz0")
        assert self.sharded(keys, 3).finish() == infer_pattern(keys)

    def test_empty_raises(self):
        with pytest.raises(EmptyKeySetError):
            self.sharded([], 2).finish()


class TestRewiredInference:
    def test_infer_pattern_engines_agree(self):
        keys = ["000-00", "555-55", "123-45"]
        expected = reference_pattern(keys)
        assert infer_pattern(keys) == expected
        assert chunked(keys, 2).finish() == expected
        halves = PatternAccumulator().update(keys[:1]).merge(
            PatternAccumulator().update(keys[1:])
        )
        assert halves.finish() == expected

    def test_infer_pattern_from_file_streams(self, tmp_path):
        rng = random.Random(31)
        keys = [
            "".join(rng.choice("0123456789abcdef") for _ in range(12))
            for _ in range(500)
        ]
        path = tmp_path / "keys.txt"
        path.write_text("\n".join(keys) + "\n\n", encoding="utf-8")
        assert infer_pattern_from_file(str(path)) == infer_pattern(keys)

    def test_infer_pattern_from_file_empty_raises(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n", encoding="utf-8")
        with pytest.raises(EmptyKeySetError):
            infer_pattern_from_file(str(path))

    def test_coverage_report_numpy_parity(self):
        rng = random.Random(41)
        corpora = [
            random_corpus(rng, 400, 6, 6),
            random_corpus(rng, 400, 0, 9),
            [b"\xff" * 4] * 300,
        ]
        for keys in corpora:
            assert coverage_report(keys) == _coverage_report_reference(keys)

    def test_coverage_report_small_corpus(self):
        assert coverage_report(["ab", "ac", "ad"]) == [1, 3]
        assert coverage_report(["ab", "a"]) == [1, 1]

    def test_as_key_bytes(self):
        assert as_key_bytes("J") == b"J"
        assert as_key_bytes(bytearray(b"J")) == b"J"
        with pytest.raises(TypeError):
            as_key_bytes(3.14)


class TestDispatcherRegisterExamples:
    def test_register_examples_routes_conforming_keys(self):
        from repro.core.dispatch import FormatDispatcher

        dispatcher = FormatDispatcher()
        synthesized = dispatcher.register_examples(
            ["123-45-6789", "987-65-4321", "000-11-2222"]
        )
        assert dispatcher.format_count == 1
        assert dispatcher(b"555-66-7777") == synthesized.function(
            b"555-66-7777"
        )
        stats = dispatcher.stats()
        assert stats["total_routes"] == 1
        assert stats["fallback_routes"] == 0

    def test_register_examples_empty_raises(self):
        from repro.core.dispatch import FormatDispatcher

        with pytest.raises(EmptyKeySetError):
            FormatDispatcher().register_examples([])


class TestQuadsConstMaskRegression:
    @staticmethod
    def _naive(quads):
        mask = 0
        value = 0
        for quad in quads:
            mask <<= 2
            value <<= 2
            if quad is not None:
                mask |= 3
                value |= quad
        return mask, value

    def test_matches_naive_on_fuzzed_patterns(self):
        rng = random.Random(51)
        for _ in range(100):
            quads = [
                rng.choice([None, 0, 1, 2, 3])
                for _ in range(rng.randint(0, 70))
            ]
            assert quads_const_mask(quads) == self._naive(quads)

    def test_long_pattern_fast_and_exact(self):
        # The old implementation shifted a growing big int per quad —
        # quadratic for patterns of thousands of quads.  4 * 4096 quads
        # must both finish promptly and agree with the naive fold.
        quads = ([0, 3, None, 2] * 4096)
        assert quads_const_mask(quads) == self._naive(quads)

    def test_partial_leading_group(self):
        assert quads_const_mask([0, 3]) == (15, 3)
        assert quads_const_mask([None, 3]) == (3, 3)
        assert quads_const_mask([2, None, 1, 0, 3]) == self._naive(
            [2, None, 1, 0, 3]
        )

    def test_empty(self):
        assert quads_const_mask([]) == (0, 0)
