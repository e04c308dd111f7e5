"""Ablation: software pext strategies in generated code.

The Python backend does not emit a bit-by-bit pext loop.  It fuses the
whole load/pext/shift/or chain into bit gathers: one ``int.from_bytes``
per key window and one ``(w >> d) & m`` term per distinct shift distance
(DESIGN.md).  This bench measures what that buys: hashing SSNs with (a)
the generated fused function, (b) the same plan lowered one
shift/and/shift/or per mask run over one load per word (the previous
lowering, written out by hand), (c) a function calling the reference
bit-loop pext, and (d) the OffXor function (no extraction at all) as
the floor.
"""

from conftest import emit_report
from repro.bench.report import render_speedups
from repro.bench.runner import measure_h_time
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.isa.bits import pext
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys

MASK0 = 0x0F000F0F000F0F0F
MASK1 = 0x0F0F0F0000000000


def bitloop_pext_ssn(key, _ifb=int.from_bytes, _pext=pext):
    """The same Figure 12 plan, but with the O(64) bit-loop pext."""
    w0 = _ifb(key[0:8], "little")
    w1 = _ifb(key[3:11], "little")
    return _pext(w0, MASK0) | ((_pext(w1, MASK1) << 52) & (2**64 - 1))


def runs_pext_ssn(key, _ifb=int.from_bytes):
    """The same plan, one load per word and one shift/and/shift per run."""
    w0 = _ifb(key[0:8], "little")
    e1 = (
        (w0 & 0xF)
        | (((w0 >> 8) & 0xF) << 4)
        | (((w0 >> 16) & 0xF) << 8)
        | (((w0 >> 32) & 0xF) << 12)
        | (((w0 >> 40) & 0xF) << 16)
        | (((w0 >> 56) & 0xF) << 20)
    )
    w2 = _ifb(key[3:11], "little")
    e3 = (
        ((w2 >> 40) & 0xF)
        | (((w2 >> 48) & 0xF) << 4)
        | (((w2 >> 56) & 0xF) << 8)
    )
    return e1 | ((e3 << 52) & 0xFFFFFFFFFFFFFFFF)


def test_pext_decomposition_ablation(benchmark):
    keys = generate_keys("SSN", 3000, Distribution.UNIFORM, seed=1)
    fused = synthesize(r"\d{3}-\d{2}-\d{4}", HashFamily.PEXT)
    offxor = synthesize(r"\d{3}-\d{2}-\d{4}", HashFamily.OFFXOR)

    # All strategies must agree bit for bit before timing them.
    for key in keys[:200]:
        assert fused(key) == runs_pext_ssn(key) == bitloop_pext_ssn(key)

    def race():
        return {
            "Pext (fused gathers, generated)": measure_h_time(
                fused.function, keys, repeats=3
            ),
            "Pext (one shift/and/or per run)": measure_h_time(
                runs_pext_ssn, keys, repeats=3
            ),
            "Pext (bit-loop reference)": measure_h_time(
                bitloop_pext_ssn, keys, repeats=3
            ),
            "OffXor (no extraction)": measure_h_time(
                offxor.function, keys, repeats=3
            ),
        }

    times = benchmark.pedantic(race, rounds=1, iterations=1)
    emit_report(
        "ablation_pext",
        render_speedups(
            {name: [seconds] for name, seconds in times.items()},
            reference="Pext (bit-loop reference)",
            title="Software pext strategies on SSN keys",
        ),
    )
    # The generated extraction must soundly beat the bit loop ...
    assert times["Pext (fused gathers, generated)"] < times[
        "Pext (bit-loop reference)"
    ]
    # ... while extraction always costs something over plain OffXor
    # (the paper's gradual-specialization observation, Section 4.7).
    assert times["OffXor (no extraction)"] <= times[
        "Pext (fused gathers, generated)"
    ]
