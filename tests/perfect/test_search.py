"""The distinguishing-bit search: budgets, floors, and refusals."""

import pytest

from repro.errors import PerfectSearchError
from repro.perfect import SearchBudget
from repro.perfect.search import SearchOutcome, select_distinguishing_bits


def _separated(keys, bits):
    signatures = set()
    for key in keys:
        signatures.add(
            tuple((key[bit // 8] >> (bit % 8)) & 1 for bit in bits)
        )
    return len(signatures) == len(keys)


class TestSelect:
    def test_selection_separates_keys(self):
        keys = [bytes([value]) * 8 for value in range(16)]
        pool = list(range(8))
        outcome = select_distinguishing_bits(keys, pool)
        assert _separated(keys, outcome.bits)

    def test_hits_information_floor_on_counter_keys(self):
        # Keys are the numbers 0..15 in byte 0: four bits suffice and
        # the search should find exactly four.
        keys = [bytes([value]) + b"\x00" * 7 for value in range(16)]
        outcome = select_distinguishing_bits(keys, list(range(8)))
        assert len(outcome.bits) == outcome.floor == 4
        assert outcome.minimal_count

    def test_single_key_needs_no_bits(self):
        outcome = select_distinguishing_bits([b"x" * 8], list(range(8)))
        assert outcome.bits == ()

    def test_one_bit_for_two_keys(self):
        keys = [b"\x00" * 8, b"\x01" + b"\x00" * 7]
        outcome = select_distinguishing_bits(keys, list(range(8)))
        assert outcome.bits == (0,)

    def test_extra_symbols_distinguish_for_free(self):
        # Identical on every pool bit, but the extras differ.
        keys = [b"\x00" * 8, b"\x00" * 8]
        outcome = select_distinguishing_bits(
            keys, list(range(8)), extra=[8, 9]
        )
        assert outcome.bits == ()

    def test_inseparable_keys_refused(self):
        keys = [b"\x00" * 8, b"\x00" * 8]
        with pytest.raises(PerfectSearchError):
            select_distinguishing_bits(keys, list(range(8)))

    def test_budget_exhaustion_refused(self):
        keys = [bytes([value]) * 8 for value in range(32)]
        budget = SearchBudget(max_evaluations=1)
        with pytest.raises(PerfectSearchError, match="budget"):
            select_distinguishing_bits(keys, list(range(8)), budget=budget)

    def test_evaluations_are_recorded(self):
        keys = [bytes([value]) + b"\x00" * 7 for value in range(8)]
        outcome = select_distinguishing_bits(keys, list(range(8)))
        assert outcome.evaluations > 0

    def test_outcome_is_sorted(self):
        keys = [bytes([value]) + b"\x00" * 7 for value in range(13)]
        outcome = select_distinguishing_bits(keys, list(range(8)))
        assert list(outcome.bits) == sorted(outcome.bits)


class TestBudget:
    def test_charge_and_exhausted(self):
        budget = SearchBudget(max_evaluations=10)
        assert budget.charge(10)
        assert not budget.exhausted
        assert not budget.charge(1)
        assert budget.exhausted

    def test_pool_wider_than_a_word_refused(self):
        SearchBudget(max_pool=64)
        with pytest.raises(ValueError, match="max_pool"):
            SearchBudget(max_pool=65)

    def test_minimal_count_property(self):
        outcome = SearchOutcome(
            bits=(1, 2, 3),
            strategy="greedy",
            evaluations=5,
            floor=4,
            exhausted=False,
        )
        assert outcome.minimal_count
