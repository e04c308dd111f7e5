"""Pinned search outcomes for the shipped and RQ closed key sets.

The distinguishing-bit search is an optimisation target, but its result
is part of every perfect plan: the selected bits decide the masks, the
certificate's ``selected_bits`` and ``evaluations``, and every hash
value.  These figures pin the outcome, budget charges included, so a
faster search must land on exactly the same plan.
"""

import pytest

from repro.core.plan import HashFamily
from repro.core.synthesis import build_plan
from repro.perfect import builtin_key_set, rq_closed_set, synthesize_perfect
from repro.perfect.search import select_distinguishing_bits
from repro.verify.bit_report import bit_report

GOLDEN = {
    "c-keywords": {
        "selected_bits": (0, 1, 4, 9, 11, 16, 17, 45),
        "strategy": "greedy",
        "evaluations": 1746882,
        "exhausted": False,
        "hash_bits": 8,
        "hashes": {
            "6175746f00000000": 1,
            "696e740000000000": 25,
            "7768696c65000000": 55,
        },
    },
    "http-methods": {
        "selected_bits": (0, 10, 16, 20),
        "strategy": "exhaustive",
        "evaluations": 3753,
        "exhausted": False,
        "hash_bits": 4,
        "hashes": {
            "4745540000000000": 11,
            "44454c4554450000": 2,
            "5041544348000000": 8,
        },
    },
    "enum-codec": {
        "selected_bits": (24, 25, 28, 34, 41, 48),
        "strategy": "greedy",
        "evaluations": 328083,
        "exhausted": False,
        "hash_bits": 6,
        "hashes": {
            "45565f4f50454e5f5f5f5f5f": 3,
            "45565f535441545f5f5f5f5f": 15,
            "45565f4c494e4b5f5f5f5f5f": 48,
        },
    },
    "rq-ssn": {
        "selected_bits": (
            0, 1, 2, 3, 8, 9, 10, 16, 18, 32, 34, 40, 56, 72, 73, 80,
            81, 82,
        ),
        "strategy": "greedy",
        "evaluations": 363880,
        "exhausted": False,
        "hash_bits": 18,
        "hashes": {
            "3930362d36392d31303539": 48393,
            "3136322d31352d39383937": 244321,
            "3831302d35322d33303531": 46616,
        },
    },
    "rq-mac": {
        "selected_bits": (
            0, 1, 2, 4, 8, 9, 10, 26, 28, 32, 33, 34, 49, 60, 74, 97, 106,
        ),
        "strategy": "greedy",
        "evaluations": 1031594,
        "exhausted": False,
        "hash_bits": 17,
        "hashes": {
            "63352d33652d64382d32632d30372d6364": 76627,
            "33622d36332d33352d37662d30612d3634": 30635,
            "64632d64362d33302d35352d64382d3465": 31924,
        },
    },
}


def _keys(name):
    if name.startswith("rq-"):
        return rq_closed_set(name[3:].upper(), 1000, seed=0)
    return list(builtin_key_set(name))


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def synthesized(request):
    keys = _keys(request.param)
    return request.param, keys, synthesize_perfect(keys)


def test_certificate_is_pinned(synthesized):
    name, _keys_, perfect = synthesized
    golden = GOLDEN[name]
    certificate = perfect.certificate
    assert certificate.certified
    assert certificate.selected_bits == golden["selected_bits"]
    assert certificate.strategy == golden["strategy"]
    assert certificate.evaluations == golden["evaluations"]
    assert certificate.hash_bits == golden["hash_bits"]


def test_hash_values_are_pinned(synthesized):
    name, _keys_, perfect = synthesized
    for key_hex, value in GOLDEN[name]["hashes"].items():
        assert perfect(bytes.fromhex(key_hex)) == value


def test_search_outcome_is_pinned(synthesized):
    # The pool synthesize_perfect searches: the Pext baseline's live
    # bits (every golden set is fixed-length, so no extra symbols).
    name, keys, perfect = synthesized
    pool = list(
        bit_report(build_plan(perfect.pattern, HashFamily.PEXT),
                   perfect.pattern).live_bits
    )
    outcome = select_distinguishing_bits(keys, pool)
    golden = GOLDEN[name]
    assert outcome.bits == golden["selected_bits"]
    assert outcome.strategy == golden["strategy"]
    assert outcome.evaluations == golden["evaluations"]
    assert outcome.exhausted is golden["exhausted"]
