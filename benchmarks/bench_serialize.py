"""Serialization payoff: fresh synthesis vs cached-plan compilation.

Plan serialization exists so synthesis runs once per format rather than
once per process.  This bench measures both paths for a large format
(INTS, where unrolled Pext synthesis is at its most expensive) and
verifies the restored function is identical.  Both paths start from an
empty compile cache and report their best of :data:`ROUNDS` rounds.
"""

import time

from conftest import emit_report
from repro.bench.report import render_table
from repro.codegen.cache import get_compile_cache
from repro.codegen.serialize import compile_serialized, dumps
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen.keyspec import KEY_TYPES


ROUNDS = 5
"""Each path's time is its best of this many cold rounds."""


def test_serialization_payoff(benchmark):
    regex = KEY_TYPES["INTS"].regex

    def measure():
        fresh_seconds = cached_seconds = float("inf")
        for _ in range(ROUNDS):
            # Earlier benches may have compiled this plan already;
            # "fresh" means analysis and codegen, so every round starts
            # from an empty compile cache.
            get_compile_cache().clear()
            started = time.perf_counter()
            synthesized = synthesize(regex, HashFamily.PEXT)
            fresh_seconds = min(fresh_seconds, time.perf_counter() - started)

            payload = dumps(synthesized.plan)
            started = time.perf_counter()
            restored = compile_serialized(payload)
            cached_seconds = min(
                cached_seconds, time.perf_counter() - started
            )

            key = KEY_TYPES["INTS"].encode(12345)
            assert restored(key) == synthesized(key)
        return fresh_seconds, cached_seconds, len(payload)

    fresh, cached, payload_bytes = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    emit_report(
        "serialize",
        render_table(
            [
                {"path": "synthesize (analysis + codegen)",
                 "seconds": fresh},
                {"path": "compile cached plan", "seconds": cached},
                {"path": f"payload size: {payload_bytes} bytes",
                 "seconds": float("nan")},
            ],
            title="Plan-cache payoff on the 100-digit INTS format",
        ),
    )
    # Skipping pattern analysis must save time.
    assert cached < fresh
