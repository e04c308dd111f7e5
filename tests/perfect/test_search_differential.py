"""The bit-matrix search against a reference copy of the tuple search.

``select_distinguishing_bits`` runs on one NumPy bit matrix.  Below is
the earlier pure-Python search — tuple columns, per-key signatures,
one budget charge at a time — kept as the oracle: on every input, the
matrix search must return the same bits, strategy, evaluation count
and exhaustion flag, or refuse with the same message after the same
charges.
"""

import itertools
import random
from math import ceil, comb, log2

import pytest

from repro.errors import PerfectSearchError
from repro.perfect import synthesize_perfect
from repro.perfect.search import (
    MAX_HASH_BITS,
    SearchBudget,
    SearchOutcome,
    bit_matrix,
    select_distinguishing_bits,
)
from repro.perfect.synthesis import _repair_bits


# -- the reference search ----------------------------------------------


def _ref_columns(keys, pool):
    columns = {}
    for bit in pool:
        byte, offset = divmod(bit, 8)
        columns[bit] = tuple((key[byte] >> offset) & 1 for key in keys)
    return columns


def _ref_separates(subset, columns, extra, count):
    seen = set()
    cols = [columns[bit] for bit in subset]
    for index in range(count):
        signature = tuple(col[index] for col in cols)
        if extra is not None:
            signature = (extra[index],) + signature
        if signature in seen:
            return False
        seen.add(signature)
    return True


def _ref_greedy(keys, pool, columns, extra, budget):
    if extra is None:
        groups = [list(range(len(keys)))]
    else:
        by_extra = {}
        for index, symbol in enumerate(extra):
            by_extra.setdefault(symbol, []).append(index)
        groups = [group for group in by_extra.values() if len(group) > 1]
    chosen = []
    available = list(pool)
    while groups:
        colliding = sum(len(group) for group in groups)
        best_bit = None
        best_excess = colliding - len(groups)
        best_split = []
        for bit in available:
            if not budget.charge(colliding):
                return None
            column = columns[bit]
            excess = 0
            split = []
            for group in groups:
                zeros = [i for i in group if not column[i]]
                ones_count = len(group) - len(zeros)
                if len(zeros) > 1:
                    excess += len(zeros) - 1
                    split.append(zeros)
                if ones_count > 1:
                    ones = [i for i in group if column[i]]
                    excess += ones_count - 1
                    split.append(ones)
            if excess < best_excess:
                best_excess = excess
                best_bit = bit
                best_split = split
                if excess == 0:
                    break
        if best_bit is None:
            return None
        chosen.append(best_bit)
        available.remove(best_bit)
        groups = best_split
        if len(chosen) > MAX_HASH_BITS:
            return None
    return chosen


def _ref_exhaustive(chosen, pool, columns, extra, count, floor, budget):
    ranked = chosen + [bit for bit in pool if bit not in chosen]
    ranked = ranked[: budget.max_pool]
    for size in range(max(floor, 1), len(chosen)):
        if comb(len(ranked), size) > budget.exhaustive_limit:
            return None
        for subset in itertools.islice(
            itertools.combinations(ranked, size), budget.exhaustive_limit
        ):
            if not budget.charge(count):
                return None
            if _ref_separates(subset, columns, extra, count):
                return list(subset)
    return None


def _ref_minimize(chosen, columns, extra, count, budget):
    kept = list(chosen)
    shrunk = False
    for bit in reversed(chosen):
        if len(kept) <= 1:
            break
        candidate = [b for b in kept if b != bit]
        if not budget.charge(count):
            break
        if _ref_separates(candidate, columns, extra, count):
            kept = candidate
            shrunk = True
    return kept, shrunk


def reference_select(keys, pool, extra=None, budget=None):
    budget = budget if budget is not None else SearchBudget()
    count = len(keys)
    floor = ceil(log2(count)) if count > 1 else 0
    columns = _ref_columns(keys, pool)
    if count <= 1:
        return SearchOutcome((), "greedy", budget.evaluations, floor, False)
    chosen = _ref_greedy(keys, pool, columns, extra, budget)
    if chosen is None:
        detail = (
            "search budget exhausted"
            if budget.exhausted
            else f"no subset of the {len(pool)} live bit(s) separates "
            f"the {count} keys"
        )
        raise PerfectSearchError(
            f"cannot select distinguishing bits: {detail}"
        )
    strategy = "greedy"
    if len(chosen) > floor:
        smaller = _ref_exhaustive(
            chosen, pool, columns, extra, count, floor, budget
        )
        if smaller is not None:
            chosen = smaller
            strategy = "exhaustive"
        else:
            chosen, shrunk = _ref_minimize(
                chosen, columns, extra, count, budget
            )
            if shrunk:
                strategy = "greedy+minimized"
    return SearchOutcome(
        bits=tuple(sorted(chosen)),
        strategy=strategy,
        evaluations=budget.evaluations,
        floor=floor,
        exhausted=budget.exhausted,
    )


# -- the comparison ----------------------------------------------------


def _run(search, keys, pool, extra, budget_args):
    budget = SearchBudget(**budget_args)
    try:
        outcome = search(keys, pool, extra=extra, budget=budget)
    except PerfectSearchError as error:
        return ("refused", str(error), budget.evaluations)
    return ("selected", outcome, budget.evaluations)


def _assert_same(keys, pool, extra=None, **budget_args):
    expected = _run(reference_select, keys, pool, extra, budget_args)
    actual = _run(select_distinguishing_bits, keys, pool, extra, budget_args)
    assert actual == expected
    return expected


def _fixed_keys(rng, count, length, alphabet):
    keys = set()
    while len(keys) < count:
        keys.add(bytes(rng.choice(alphabet) for _ in range(length)))
    return sorted(keys, key=lambda _key: rng.random())


ALPHABETS = (
    b"0123456789",
    b"0123456789abcdef",
    bytes(range(256)),
    b"AB",
)


@pytest.mark.parametrize("seed", range(40))
def test_random_fixed_length_sets(seed):
    rng = random.Random(seed)
    length = rng.randrange(8, 14)
    alphabet = ALPHABETS[seed % len(ALPHABETS)]
    count = rng.randrange(2, min(160, len(alphabet) ** length))
    keys = _fixed_keys(rng, count, length, alphabet)
    pool = [bit for bit in range(length * 8) if rng.random() < 0.85]
    _assert_same(keys, pool)


@pytest.mark.parametrize("seed", range(20))
def test_random_variable_length_sets_with_extra(seed):
    rng = random.Random(1000 + seed)
    alphabet = ALPHABETS[seed % len(ALPHABETS)]
    keys = sorted(
        {
            bytes(
                rng.choice(alphabet)
                for _ in range(rng.randrange(8, 13))
            )
            for _ in range(rng.randrange(2, 120))
        },
        key=lambda _key: rng.random(),
    )
    # Pool bits index the shortest key; the extras carry the length and
    # a coarse tail symbol, as the variable-length synthesis passes.
    pool = [bit for bit in range(64) if rng.random() < 0.85]
    extra = [(len(key), key[-1] % 3) for key in keys]
    _assert_same(keys, pool, extra)


@pytest.mark.parametrize("seed", range(30))
def test_small_sets_with_extra_classes(seed):
    # Small sets over a wide pool: the greedy often overshoots, so the
    # exhaustive and drop-one stages run with class-aware signatures.
    rng = random.Random(4000 + seed)
    alphabet = bytes(range(256)) if seed % 2 else b"abcdefgh"
    keys = _fixed_keys(rng, rng.randrange(6, 40), 8, alphabet)
    extra = [rng.randrange(2) for _ in keys]
    _assert_same(keys, list(range(64)), extra)


@pytest.mark.parametrize("seed", [6, 10])
def test_budget_runs_out_at_the_separating_subset(seed):
    # Fixed-length sets the exhaustive stage solves: a cap one short of
    # the hit's charge refuses the hit, the exact cap keeps it.
    rng = random.Random(seed)
    length = rng.randrange(8, 14)
    alphabet = ALPHABETS[seed % len(ALPHABETS)]
    count = rng.randrange(2, min(160, len(alphabet) ** length))
    keys = _fixed_keys(rng, count, length, alphabet)
    pool = [bit for bit in range(length * 8) if rng.random() < 0.85]
    _kind, outcome, evaluations = _assert_same(keys, pool)
    assert outcome.strategy == "exhaustive"
    for cap in (evaluations - 1, evaluations):
        _assert_same(keys, pool, max_evaluations=cap)


def test_extra_of_mixed_symbol_types():
    keys = [bytes([value % 4]) + b"\x00" * 7 for value in range(12)]
    extra = [("a" if value < 6 else 7) for value in range(12)]
    _assert_same(keys, list(range(8)), extra)


def test_inseparable_sets_refused_identically():
    keys = [b"\x00" * 8, b"\x01" + b"\x00" * 7, b"\x01" + b"\x00" * 7]
    outcome = _assert_same(keys, list(range(16)))
    assert outcome[0] == "refused"
    # Pool bits that never vary: no bit splits anything.
    keys = [bytes([value]) + b"\x00" * 7 for value in range(8)]
    outcome = _assert_same(keys, list(range(8, 24)))
    assert outcome[0] == "refused"


def test_pool_with_repeated_bits():
    keys = [bytes([value, value * 7 % 256]) + b"\x00" * 6
            for value in range(40)]
    _assert_same(keys, [3, 0, 3, 9, 1, 9, 2, 12, 4, 5, 6, 7, 8, 10, 11])


@pytest.mark.parametrize("max_evaluations", [
    1, 31, 32, 33, 64, 95, 96, 97, 500, 4_000, 20_000, 200_000,
    1_747_100, 1_747_250,
])
def test_budget_runs_out_at_every_stage(max_evaluations):
    # c-keywords-shaped: the greedy lands above the floor, the
    # exhaustive stage enumerates tens of thousands of subsets, so the
    # cap falls partway through a greedy step (tiny budgets), the
    # exhaustive stage (middle) or the minimisation (large).
    rng = random.Random(7)
    keys = _fixed_keys(rng, 32, 8, b"abcdefghijklmnopqrstuvwxyz\x00")
    pool = list(range(64))
    _assert_same(keys, pool, max_evaluations=max_evaluations)


@pytest.mark.parametrize("seed", range(12))
def test_random_budgets(seed):
    rng = random.Random(500 + seed)
    keys = _fixed_keys(rng, rng.randrange(8, 60), 9, b"0123456789abcdef")
    pool = sorted(rng.sample(range(72), rng.randrange(8, 48)))
    _assert_same(
        keys,
        pool,
        max_evaluations=rng.randrange(1, 300_000),
        exhaustive_limit=rng.choice([1, 10, 500, 5_000, 50_000]),
        max_pool=rng.choice([1, 5, 12, 20, 32]),
    )


def test_exhaustive_limit_truncates_sizes():
    rng = random.Random(3)
    keys = _fixed_keys(rng, 20, 8, bytes(range(256)))
    for limit in (1, 20, 190, 1140, 4845):
        _assert_same(keys, list(range(64)), exhaustive_limit=limit)


def test_single_key_and_empty_pool():
    _assert_same([b"abcdefgh"], list(range(8)))
    _assert_same([b"abcdefgh"], [])
    _assert_same([b"abcdefgh", b"abcdefgi"], [])


# -- tail-fold repair --------------------------------------------------


def _ref_repair_bits(keys, colliding, pool, used):
    used_set = set(used)
    for bit in pool:
        if bit in used_set:
            continue
        byte, offset = divmod(bit, 8)
        for group in colliding:
            values = {(keys[i][byte] >> offset) & 1 for i in group}
            if len(values) > 1:
                return bit
    return None


@pytest.mark.parametrize("seed", range(30))
def test_repair_bits_matches_reference(seed):
    rng = random.Random(2000 + seed)
    keys = _fixed_keys(rng, rng.randrange(4, 80), 10, ALPHABETS[seed % 4])
    pool = [bit for bit in range(80) if rng.random() < 0.7]
    indices = list(range(len(keys)))
    rng.shuffle(indices)
    colliding = []
    while len(indices) >= 2 and rng.random() < 0.8:
        size = rng.randrange(2, min(6, len(indices)) + 1)
        colliding.append(sorted(indices[:size]))
        del indices[:size]
    if not colliding:
        colliding = [sorted(indices[:2])]
    used = [bit for bit in pool if rng.random() < 0.5]
    assert _repair_bits(
        bit_matrix(keys, pool), colliding, pool, used
    ) == _ref_repair_bits(keys, colliding, pool, used)


def test_repaired_variable_length_plan_is_pinned():
    # A variable-length set whose tail fold aliases after packing: the
    # repair adds bits 17, 9 and 40 to the search's selection.
    rng = random.Random(83)
    keys = sorted({
        (
            "k"
            + "".join(rng.choice("ab") for _ in range(7))
            + "".join(
                rng.choice("0123456789abcdef")
                for _ in range(rng.randrange(0, 12))
            )
        ).encode()
        for _ in range(rng.randrange(4, 60))
    })
    certificate = synthesize_perfect(keys).certificate
    assert certificate.certified
    assert certificate.selected_bits == (8, 9, 16, 17, 40)
    assert certificate.strategy == "greedy"
    assert certificate.evaluations == 102
