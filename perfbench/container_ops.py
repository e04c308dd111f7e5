"""container-ops: the paper's affectation loop (B-Time), then perfect lookups.

Each round synthesizes from cold the scalar generated-Python Pext
hashes for SSN and IPV4 and a certified perfect hash over a closed
1,000-key MAC set (the same set on every seed).  One caller then runs a
closed loop, calibrating the host speed after every window of
affectations or block of lookups (see ``common.HostSpeed``):

- Phase A: affectations on ``UnorderedMap`` in interweaved mode with
  mix (0.6, 0.2), spread 10,000 and a normal key distribution — the
  first half of a pass inserts, the rest draws insert/find/erase.  SSN
  and IPV4 passes alternate, each on a fresh map, and every answer is
  checked against a dict model of the same schedule.
- Phase B: seeded member lookups on ``UnorderedMap(perfect=True)``,
  checked against the closed set.

The chained table and the scalar tier do the work, writes beside
reads; there is no batching, native tier or serve layer.
"""

from __future__ import annotations

import itertools
import random
import time
from contextlib import nullcontext
from typing import Dict, List, Tuple

from repro.containers import UnorderedMap
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen import Distribution, KeyGenerator, key_spec
from repro.obs import (
    capture_spans,
    disable_container_telemetry,
    enable_container_telemetry,
)
from repro.obs.sinks import RingBufferSink
from repro.perfect import rq_closed_set, synthesize_perfect

from common import (
    WINDOW_OPS,
    HostSpeed,
    LayerClock,
    Outcome,
    RegistryDelta,
    cold_start,
    per,
    run_rounds,
    setup_layers,
    windows_of,
)

FORMATS = ("SSN", "IPV4")
SPREAD = 10_000
ROUNDS = 3
"""Untraced rounds per run; each sets up from cold and measures."""
AFFECTATIONS = 5 * WINDOW_OPS
"""Affectations per pass, in whole windows; each pass starts from an
empty map."""
MIX = (0.6, 0.2)
"""(P_insert, P_find) after the first half; erase takes the rest."""
PERFECT_FORMAT = "MAC"
PERFECT_KEYS = 1_000
PERFECT_SET_SEED = 0
"""The closed set is the same on every seed (only the lookups vary):
the perfect search picks a differently shaped plan for each set, and
that difference would read as run-to-run spread."""
PERFECT_LOOKUPS = 64 * WINDOW_OPS
LOOKUP_BLOCK = 8
"""Lookup windows between two host-speed calibrations."""
PHASE_A_SHARE = 0.7

INSERT, FIND, ERASE = 0, 1, 2

SETTINGS = {
    "loop": "closed",
    "threads": 1,
    "container": "UnorderedMap",
    "hash": "scalar generated Python, pext",
    "formats": list(FORMATS),
    "mode": "interweaved",
    "mix": list(MIX),
    "spread": SPREAD,
    "distribution": "normal",
    "affectations_per_pass": AFFECTATIONS,
    "perfect_set": f"{PERFECT_FORMAT} x {PERFECT_KEYS}, seed {PERFECT_SET_SEED}",
    "compile_cache": "in-memory only, cleared before every set-up",
    "rounds": ROUNDS,
}


def build_schedule(pool: List[bytes], rng: random.Random):
    """One interweaved pass and the answers a dict model gives for it."""
    half = AFFECTATIONS // 2
    ops = []
    for position in range(AFFECTATIONS):
        roll = rng.random()
        if position < half or roll < MIX[0]:
            op = INSERT
        elif roll < MIX[0] + MIX[1]:
            op = FIND
        else:
            op = ERASE
        ops.append((op, pool[rng.randrange(len(pool))], position))
    model: Dict[bytes, int] = {}
    expected: List[object] = []
    for op, key, value in ops:
        if op == INSERT:
            fresh = key not in model
            if fresh:
                model[key] = value
            expected.append(fresh)
        elif op == FIND:
            expected.append(model.get(key))
        else:
            expected.append(1 if model.pop(key, None) is not None else 0)
    return windows_of(ops), expected


def build_inputs(seed: int):
    rng = random.Random(seed)
    passes = []
    for name in FORMATS:
        pool = KeyGenerator(
            key_spec(name), Distribution.NORMAL, seed=rng.randrange(1 << 30)
        ).distinct_pool(SPREAD)
        passes.append((name, *build_schedule(pool, rng)))
    closed = rq_closed_set(PERFECT_FORMAT, PERFECT_KEYS, seed=PERFECT_SET_SEED)
    lookups = [closed[rng.randrange(len(closed))] for _ in range(PERFECT_LOOKUPS)]
    return passes, closed, windows_of(windows_of(lookups), LOOKUP_BLOCK)


def _affect(
    table: UnorderedMap, windows, speed: HostSpeed, durations: List[float]
) -> Tuple[List[object], int]:
    """Run one pass; returns every answer, in order, and its raw ns.

    The host speed is calibrated after every window and each window's
    time, at the reference speed, goes to ``durations``: a slow spell
    shorter than a pass would otherwise reach the p99 unscaled.
    """
    insert, find, erase = table.insert, table.find, table.erase
    answers: List[object] = []
    answer = answers.append
    perf = time.perf_counter_ns
    raw_ns = 0
    for window in windows:
        started = perf()
        for op, key, value in window:
            if op == INSERT:
                answer(insert(key, value))
            elif op == FIND:
                answer(find(key))
            else:
                answer(erase(key))
        elapsed = perf() - started
        speed.calibrate()
        durations.append(elapsed * speed.scale())
        raw_ns += elapsed
    return answers, raw_ns


def _lookup(table: UnorderedMap, windows, durations: List[int]) -> List[object]:
    find = table.find
    answers: List[object] = []
    answer = answers.append
    perf = time.perf_counter_ns
    for window in windows:
        started = perf()
        for key in window:
            answer(find(key))
        durations.append(perf() - started)
    return answers


def _differences(answers: List[object], expected: List[object]) -> int:
    if answers == expected:
        return 0
    missing = abs(len(expected) - len(answers))
    return missing + sum(1 for got, want in zip(answers, expected) if got != want)


def _round(
    passes, closed, lookup_blocks, seconds, traced, outcome
) -> Dict[str, object]:
    cold_start()
    spans = RingBufferSink(capacity=1 << 16)
    speed = HostSpeed()
    with capture_spans(spans) if traced else nullcontext():
        setup_delta = RegistryDelta()
        speed.calibrate()
        started = time.perf_counter()
        hashes = {
            name: synthesize(key_spec(name).regex, HashFamily.PEXT).function
            for name in FORMATS
        }
        perfect = synthesize_perfect(closed)
        raw_setup_s = time.perf_counter() - started
        speed.calibrate()
        setup_s = raw_setup_s * speed.scale()

    layers: Dict[str, float] = {}
    hash_clock = LayerClock(cpu=False)
    if traced:
        layers.update(setup_layers(spans.records(), setup_delta))
        hashes = {name: hash_clock.wrap(function) for name, function in hashes.items()}
        enable_container_telemetry()
    try:
        telemetry = RegistryDelta()
        durations: List[float] = []  # at the reference speed
        raw_ns = ops = 0
        speed.calibrate()
        deadline = time.perf_counter() + seconds * PHASE_A_SHARE
        while True:
            for name, windows, expected in passes:
                answers, pass_ns = _affect(
                    UnorderedMap(hashes[name]), windows, speed, durations
                )
                raw_ns += pass_ns
                ops += len(expected)
                outcome.fail(
                    _differences(answers, expected),
                    f"{name} affectation answers differ from the dict model",
                )
            if time.perf_counter() >= deadline:
                break
        if traced:
            layers.update(
                {
                    "containers.hash.ns_per_op": per(
                        hash_clock.wall_ns, hash_clock.calls
                    ),
                    "containers.table.self_ns_per_op": per(
                        raw_ns - hash_clock.wall_ns, ops
                    ),
                    "containers.resizes": telemetry.counter("containers.resizes"),
                    "containers.bucket_collisions_per_insert": per(
                        telemetry.histogram_sum("containers.chain_length_on_insert"),
                        telemetry.counter("containers.inserts"),
                    ),
                }
            )

        table = UnorderedMap(perfect.container_function, perfect=True)
        table.insert_many((key, index) for index, key in enumerate(closed))
        position = {key: index for index, key in enumerate(closed)}
        expected_blocks = [
            [position[key] for window in block for key in window]
            for block in lookup_blocks
        ]
        lookup_ns = 0.0  # at the reference speed
        lookups = 0
        perfect_delta = RegistryDelta()
        speed.calibrate()
        deadline = time.perf_counter() + seconds * (1.0 - PHASE_A_SHARE)
        schedule = itertools.cycle(list(zip(lookup_blocks, expected_blocks)))
        for block, expected in schedule:
            timings: List[int] = []
            answers = _lookup(table, block, timings)
            speed.calibrate()
            lookup_ns += sum(timings) * speed.scale()
            lookups += len(answers)
            outcome.fail(
                _differences(answers, expected),
                "perfect lookups differ from closed-set membership",
            )
            if time.perf_counter() >= deadline:
                break
        if traced:
            layers["containers.perfect_fast_path_hits_per_lookup"] = per(
                perfect_delta.counter("containers.perfect_fast_path_hits"), lookups
            )
    finally:
        if traced:
            disable_container_telemetry()
    outcome.attempted += ops + lookups
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ns": sum(durations) / ops,
        "raw_ns": raw_ns / ops,
        "ns_b": lookup_ns / lookups,
        "windows": durations,
        "layers": layers,
        "spans": [record.to_dict() for record in spans.records()],
    }


def run(seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    passes, closed, lookup_blocks = build_inputs(seed)
    run_rounds(
        trace,
        ROUNDS,
        lambda _index, traced: _round(
            passes, closed, lookup_blocks, seconds / ROUNDS, traced, outcome
        ),
        outcome,
    )
