"""The verifier's verdict on every built-in plan, pinned.

For each plan the 12 built-in formats with a machine-word body yield
under the four families: whether :func:`prove_bijectivity` certifies
it and which preconditions it refuses, the live and dead variable key
bits :func:`bit_report` finds, and that translation validation accepts
:func:`optimize` on it.  The abstract interpreter behind all three can
be restructured freely; these verdicts must not move.
"""

import pytest

from repro.codegen.ir import build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import build_plan
from repro.keygen import EXTENDED_KEY_TYPES, KEY_TYPES
from repro.verify import bit_report, prove_bijectivity, translation_validate

SPECS = {**KEY_TYPES, **EXTENDED_KEY_TYPES}

OVERLAP = ("overlapping-lanes",)
WIDE = ("too-many-variable-bits", "overlapping-lanes")

# (format, family) -> (certified, failed preconditions, live, dead)
VERDICTS = {
    ("CPF", "naive"): (False, OVERLAP, 44, 0),
    ("CPF", "offxor"): (False, OVERLAP, 44, 0),
    ("CPF", "aes"): (False, OVERLAP, 44, 0),
    ("CPF", "pext"): (True, (), 44, 0),
    ("E164", "naive"): (False, OVERLAP, 40, 0),
    ("E164", "offxor"): (False, OVERLAP, 40, 0),
    ("E164", "aes"): (False, OVERLAP, 40, 0),
    ("E164", "pext"): (True, (), 40, 0),
    ("IBAN_DE", "naive"): (False, WIDE, 80, 0),
    ("IBAN_DE", "offxor"): (False, WIDE, 80, 0),
    ("IBAN_DE", "aes"): (False, WIDE, 80, 0),
    ("IBAN_DE", "pext"): (False, WIDE, 80, 0),
    ("INTS", "naive"): (False, WIDE, 400, 0),
    ("INTS", "offxor"): (False, WIDE, 400, 0),
    ("INTS", "aes"): (False, WIDE, 400, 0),
    ("INTS", "pext"): (False, WIDE, 400, 0),
    ("IPV4", "naive"): (False, OVERLAP, 48, 0),
    ("IPV4", "offxor"): (False, OVERLAP, 48, 0),
    ("IPV4", "aes"): (False, OVERLAP, 48, 0),
    ("IPV4", "pext"): (True, (), 48, 0),
    ("IPV6", "naive"): (False, WIDE, 256, 0),
    ("IPV6", "offxor"): (False, WIDE, 256, 0),
    ("IPV6", "aes"): (False, WIDE, 256, 0),
    ("IPV6", "pext"): (False, WIDE, 256, 0),
    ("ISBN13", "naive"): (False, OVERLAP, 40, 0),
    ("ISBN13", "offxor"): (False, OVERLAP, 40, 0),
    ("ISBN13", "aes"): (False, OVERLAP, 40, 0),
    ("ISBN13", "pext"): (True, (), 40, 0),
    ("MAC", "naive"): (False, WIDE, 96, 0),
    ("MAC", "offxor"): (False, WIDE, 96, 0),
    ("MAC", "aes"): (False, WIDE, 96, 0),
    ("MAC", "pext"): (False, WIDE, 96, 0),
    ("SSN", "naive"): (False, OVERLAP, 36, 0),
    ("SSN", "offxor"): (False, OVERLAP, 36, 0),
    ("SSN", "aes"): (False, OVERLAP, 36, 0),
    ("SSN", "pext"): (True, (), 36, 0),
    ("URL1", "naive"): (False, WIDE, 160, 0),
    ("URL1", "offxor"): (False, WIDE, 160, 0),
    ("URL1", "aes"): (False, WIDE, 160, 0),
    ("URL1", "pext"): (False, WIDE, 160, 0),
    ("URL2", "naive"): (False, WIDE, 160, 0),
    ("URL2", "offxor"): (False, WIDE, 160, 0),
    ("URL2", "aes"): (False, WIDE, 160, 0),
    ("URL2", "pext"): (False, WIDE, 160, 0),
    ("UUID4", "naive"): (False, WIDE, 240, 0),
    ("UUID4", "offxor"): (False, WIDE, 240, 0),
    ("UUID4", "aes"): (False, WIDE, 240, 0),
    ("UUID4", "pext"): (False, WIDE, 240, 0),
}


def test_table_covers_every_synthesized_plan():
    assert len(VERDICTS) == 48
    assert {name for name, _ in VERDICTS} == {
        name for name, spec in SPECS.items() if spec.length >= 8
    }


@pytest.mark.parametrize(
    "name, family", sorted(VERDICTS), ids=lambda value: str(value)
)
def test_verdict(name, family):
    certified, preconditions, live, dead = VERDICTS[name, family]
    pattern = pattern_from_regex(SPECS[name].regex)
    plan = build_plan(pattern, HashFamily(family))
    proof = prove_bijectivity(plan, pattern)
    assert proof.certified is certified
    assert tuple(
        entry["precondition"] for entry in proof.failed_preconditions
    ) == preconditions
    report = bit_report(plan, pattern)
    assert (report.live_count, report.dead_count) == (live, dead)
    func = build_ir(plan)
    assert translation_validate(func, optimize(func), pattern) is None
