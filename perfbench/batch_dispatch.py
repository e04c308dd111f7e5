"""batch-dispatch: ``FormatDispatcher.hash_many`` on 4096-key batches.

Each round builds a dispatcher from cold with ``prefer_native=False``
pinned, so the NumPy lane kernels do the hashing whatever
``SEPE_NATIVE_DISPATCH`` says.  It registers SSN/pext, IPV6/aes,
URL1/offxor and INTS/naive (100 B) through ``register_examples`` on a
seeded 10k-key sample each; set-up ends when every batch kernel is
compiled.  One caller then runs a closed loop of ``hash_many`` calls
that alternate two kinds of batch:

- homogeneous: one format, which takes the dispatcher's fast path;
- mixed: all four formats plus ~1% keys no format owns, which take
  per-key resolution, grouping and the fallback.

The host speed is calibrated after every pass over the call schedule
(see ``common.HostSpeed``).  ``core.dispatch`` and the four families'
NumPy kernels do almost all the work; there is no serve layer, native
tier or container.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List

from repro.core.dispatch import FormatDispatcher
from repro.core.plan import HashFamily
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys
from repro.obs import MetricsRegistry, capture_spans
from repro.obs.sinks import RingBufferSink

from common import (
    WINDOW_OPS,
    HostSpeed,
    LayerClock,
    Outcome,
    Reference,
    RegistryDelta,
    cold_start,
    per,
    run_rounds,
    setup_layers,
)

FORMATS = (
    ("SSN", HashFamily.PEXT),
    ("IPV6", HashFamily.AES),
    ("URL1", HashFamily.OFFXOR),
    ("INTS", HashFamily.NAIVE),
)
SAMPLE_KEYS = 10_000
ROUNDS = 3
"""Untraced rounds per run; each sets up from cold and measures."""
HOMOGENEOUS_PER_FORMAT = 4
MIXED_BATCHES = 8
CHECKED_POSITIONS = 16
"""Seeded positions per call that its checks draw from; this bounds
the interpreter's work (Aes rounds are slow there) however long a run
is, while every call still has a returned value checked."""
FALLBACK_SHARE = 0.01
FALLBACK_LENGTH = 24
"""No registered format has this length, so these keys fall back."""

SETTINGS = {
    "loop": "closed",
    "threads": 1,
    "prefer_native": False,
    "formats": {name: family.value for name, family in FORMATS},
    "keys_per_call": WINDOW_OPS,
    "registration_sample_keys": SAMPLE_KEYS,
    "fallback_share": FALLBACK_SHARE,
    "compile_cache": "in-memory only, cleared before every set-up",
    "rounds": ROUNDS,
}

_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz"


def build_inputs(seed: int):
    """Registration samples and the call schedule, all from ``seed``."""
    rng = random.Random(seed)

    def keys(name: str, count: int) -> List[bytes]:
        return generate_keys(
            name, count, Distribution.UNIFORM, seed=rng.randrange(1 << 30)
        )

    samples = {name: keys(name, SAMPLE_KEYS) for name, _family in FORMATS}
    homogeneous = [
        [keys(name, WINDOW_OPS) for _ in range(HOMOGENEOUS_PER_FORMAT)]
        for name, _family in FORMATS
    ]
    mixed = []
    for _ in range(MIXED_BATCHES):
        pools = [iter(keys(name, WINDOW_OPS)) for name, _family in FORMATS]
        batch: List[bytes] = []
        while len(batch) < WINDOW_OPS:
            if rng.random() < FALLBACK_SHARE:
                batch.append(bytes(rng.choices(_ALNUM, k=FALLBACK_LENGTH)))
            else:
                batch.append(next(rng.choice(pools)))
        mixed.append(batch)
    calls = []
    for index in range(HOMOGENEOUS_PER_FORMAT * len(FORMATS)):
        same = homogeneous[index % len(FORMATS)][index // len(FORMATS)]
        for kind, batch in ((True, same), (False, mixed[index % MIXED_BATCHES])):
            positions = rng.sample(range(WINDOW_OPS), CHECKED_POSITIONS)
            calls.append((kind, batch, positions))
    return samples, calls


def _round(
    samples, calls, seed, seconds, traced, outcome, reference
) -> Dict[str, object]:
    cold_start()
    fallback = LayerClock(cpu=False)
    kernels = {family: LayerClock() for _name, family in FORMATS}
    registry = MetricsRegistry()
    spans = RingBufferSink(capacity=1 << 16)
    with capture_spans(spans) if traced else nullcontext():
        setup_delta = RegistryDelta()
        speed = HostSpeed()
        speed.calibrate()
        setup_started = time.perf_counter()
        dispatcher = FormatDispatcher(
            fallback=fallback.wrap(stl_hash_bytes) if traced else stl_hash_bytes,
            registry=registry,
            prefer_native=False,
        )
        hashes = [
            dispatcher.register_examples(samples[name], family=family)
            for name, family in FORMATS
        ]
        for synthesized in hashes:
            synthesized.batch_function  # compiles the NumPy kernel now
        raw_setup_s = time.perf_counter() - setup_started
        speed.calibrate()
        setup_s = raw_setup_s * speed.scale()
    layers: Dict[str, float] = {}
    if traced:
        layers.update(setup_layers(spans.records(), setup_delta))
        for synthesized in hashes:
            synthesized.hash_many = kernels[synthesized.family].wrap(
                synthesized.hash_many
            )
    plans = {hashed.pattern.body_length: hashed.plan for hashed in hashes}

    rng = random.Random(seed)
    hash_many = dispatcher.hash_many
    perf = time.perf_counter_ns
    # [mixed calls, homogeneous calls], at the reference speed
    durations: List[List[float]] = [[], []]
    raw_ns = 0
    kinds = [0, 0]  # [fast path, grouped], as the dispatcher took them
    checks = []
    kernel_calls = fallback_calls = 0
    speed.calibrate()
    deadline = time.perf_counter() + seconds
    while True:
        block: List[List[int]] = [[], []]
        for homogeneous, batch, positions in calls:
            started = perf()
            values = hash_many(batch)
            block[homogeneous].append(perf() - started)
            if len(values) != len(batch):
                outcome.fail(len(batch), "hash_many returned a short batch")
                continue
            index = positions[rng.randrange(CHECKED_POSITIONS)]
            key = batch[index]
            checks.append((plans.get(len(key)), key, values[index]))
            if traced:
                seen = sum(clock.calls for clock in kernels.values())
                grouped = seen - kernel_calls != 1 or fallback.calls != fallback_calls
                kinds[grouped] += 1
                kernel_calls, fallback_calls = seen, fallback.calls
        speed.calibrate()
        scale = speed.scale()
        for kind in (0, 1):
            durations[kind] += [call * scale for call in block[kind]]
            raw_ns += sum(block[kind])
        if time.perf_counter() >= deadline:
            break

    keys = [len(durations[kind]) * WINDOW_OPS for kind in (0, 1)]
    busy = sum(durations[0]) + sum(durations[1])
    outcome.attempted += sum(keys)
    outcome.fail(
        reference.mismatches(checks), "hash_many values differ from the interpreter"
    )
    if traced:
        inside = sum(clock.wall_ns for clock in kernels.values()) + fallback.wall_ns
        layers.update(
            {
                "dispatch.self_ns_per_key": per(raw_ns - inside, sum(keys)),
                "dispatch.homogeneous_calls": kinds[0],
                "dispatch.grouped_calls": kinds[1],
                "dispatch.fallback.keys": registry.counter("dispatch.fallback").value,
            }
        )
        for family, clock in kernels.items():
            layers[f"codegen.batch.{family.value}.ns_per_key"] = per(
                clock.wall_ns, clock.items
            )
    return {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "ns": busy / sum(keys),
        "raw_ns": raw_ns / sum(keys),
        "ns_b": sum(durations[0]) / keys[0],
        "windows": durations[0] + durations[1],
        "layers": layers,
        "spans": [record.to_dict() for record in spans.records()],
    }


def run(seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    samples, calls = build_inputs(seed)
    reference = Reference()
    run_rounds(
        trace,
        ROUNDS,
        lambda index, traced: _round(
            samples,
            calls,
            seed * 1000 + index,
            seconds / ROUNDS,
            traced,
            outcome,
            reference,
        ),
        outcome,
    )
