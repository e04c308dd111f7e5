"""serve-stream: the sharded hash service under streaming traffic.

Each round builds ``HashService(shards=2)`` from cold, registers SSN
(11 B), MAC (17 B) and URL1 (48 B) under Pext with the native tier
pinned on, and starts the reconciler.  Two producer threads then run a
closed loop, each calling ``submit`` as soon as the previous call
returns, over a seeded interleaving of the three formats plus 1% keys
of a length no route owns (the fallback and unrouted-sample path).

- Phase A is the steady state: no swap may happen.
- Phase B switches SSN to the widened-byte-class drift (area digits
  become hex letters) and runs until the one strict-verified hot swap
  has landed and traffic has flowed through it; values delivered after
  it are checked against the new plan.

Each phase runs as segments of about a quarter second; between two
segments the producers wait while the host speed is calibrated on
every processor (see ``common.HostSpeed``), and each segment's time is
reported at the reference speed.

This is the only workload through ``serve.shard``/``routes``, native
marshaling and re-synthesis under traffic; it never touches the
dispatcher or the NumPy kernels.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from contextlib import nullcontext
from typing import Dict, List

from repro.hashes.murmur_stl import stl_hash_bytes
from repro.keygen import Distribution, generate_keys, key_spec
from repro.obs import capture_spans
from repro.obs.sinks import RingBufferSink
from repro.serve import HashService
from repro.serve.service import DEFAULT_SAMPLE_EVERY
from repro.serve.shard import DEFAULT_FLUSH_SIZE

from common import (
    HostSpeed,
    LayerClock,
    Outcome,
    Reference,
    RegistryDelta,
    Unsupported,
    cold_start,
    in_window,
    per,
    run_rounds,
    setup_layers,
    span_ms,
    windows_of,
)

FORMATS = ("SSN", "MAC", "URL1")
ROUTE_FOR_LENGTH = {key_spec(name).length: name for name in FORMATS}
"""The route label each routed key length belongs to."""
PRODUCERS = 2
SHARDS = 2
ROUNDS = 5
"""Untraced rounds per run; each sets up from cold and measures.  Two
producers sharing the GIL vary more from round to round than one
caller, so this workload takes the median of more rounds."""
SCHEDULE_KEYS = 60_000
"""Keys per producer and phase; producers loop their schedule, so
memory stays bounded however long a phase runs."""
OFF_FORMAT_SHARE = 0.01
OFF_FORMAT_LENGTH = 24
"""A length no route owns: these keys take the fallback path."""
RECONCILE_INTERVAL_S = 0.05
PHASE_A_SHARE = 0.65
PHASE_B_SHARE = 0.35
"""Phase B's least share of a round.  It lasts at least this long and
until traffic has flowed through the new plan, so the swap's cost is
spread over a phase of steady length."""
SUBMIT_WINDOW = 1024
"""Submits per timed window.  A producer loses the GIL to the other
about once per 5 ms switch interval, so a window's time is its work
plus a whole number of hand-offs; windows this short mostly lose none,
which keeps the median on the work and leaves the hand-offs to the
tail.  (At 4096 submits the median sat between the modes and moved
with host speed.)"""
SEGMENT_S = 0.25
"""Producer traffic between two host-speed calibrations."""
POST_SWAP_S = 0.25
"""Traffic kept flowing after the swap, so post-swap values exist."""
SWAP_TIMEOUT_S = 20.0
RECONCILER_THREAD = "sepe-reconciler"

SETTINGS = {
    "loop": "closed",
    "threads": PRODUCERS,
    "shards": SHARDS,
    "prefer_native": True,
    "family": "pext",
    "formats": list(FORMATS),
    "submit_window": SUBMIT_WINDOW,
    "flush_size": DEFAULT_FLUSH_SIZE,
    "sample_every": DEFAULT_SAMPLE_EVERY,
    "reconcile_interval_s": RECONCILE_INTERVAL_S,
    "off_format_share": OFF_FORMAT_SHARE,
    "compile_cache": "in-memory only, cleared before every set-up",
    "rounds": ROUNDS,
}

_ALNUM = b"0123456789abcdefghijklmnopqrstuvwxyz"
_HEX_FOR_DIGIT = b"abcdefabcd"


def drifted(key: bytes) -> bytes:
    """SSN with its area digits re-encoded as hex letters: same length
    and dashes, wider byte classes, so it still routes to SSN."""
    return bytes(_HEX_FOR_DIGIT[byte - 0x30] for byte in key[:3]) + key[3:]


def build_schedules(seed: int) -> List[List[List[List[bytes]]]]:
    """``[producer][phase]`` -> the keys, in whole timed windows."""
    rng = random.Random(seed)
    per_format = SCHEDULE_KEYS // len(FORMATS)
    schedules = []
    for _producer in range(PRODUCERS):
        phases = []
        for phase in range(2):
            streams = {
                name: iter(
                    generate_keys(
                        name,
                        per_format,
                        Distribution.UNIFORM,
                        seed=rng.randrange(1 << 30),
                    )
                )
                for name in FORMATS
            }
            labels = [name for name in FORMATS for _ in range(per_format)]
            rng.shuffle(labels)
            keys: List[bytes] = []
            for label in labels:
                if rng.random() < OFF_FORMAT_SHARE:
                    keys.append(bytes(rng.choices(_ALNUM, k=OFF_FORMAT_LENGTH)))
                key = next(streams[label])
                keys.append(drifted(key) if phase and label == "SSN" else key)
            phases.append(windows_of(keys, SUBMIT_WINDOW))
        schedules.append(phases)
    return schedules


class CheckingSink:
    """Counts every delivered key and keeps one seeded sample per batch."""

    def __init__(self, seed: int):
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self.delivered = 0
        self.samples: List[tuple] = []

    def __call__(self, route, keys, values) -> None:
        with self._lock:
            self.delivered += len(keys)
            index = self._rng.randrange(len(keys))
            self.samples.append((route, keys[index], values[index]))


class _Control:
    """Segment and phase hand-off between the main thread and the producers.

    A phase runs as segments of about :data:`SEGMENT_S`.  Between two
    segments the producers wait at the barrier while the main thread
    times the host-speed calibration, so no traffic contends with it.
    """

    def __init__(self) -> None:
        self.barrier = threading.Barrier(PRODUCERS + 1, timeout=2 * SWAP_TIMEOUT_S)
        self.pause = False
        self.done = [False, False]
        self.errors: List[BaseException] = []


def _produce(service, phases, control: _Control, report: Dict[int, tuple]) -> None:
    """One closed-loop producer: phase A, then phase B, on one shard.

    The producer carries on through its looped schedule from segment to
    segment, and records its window durations per segment.
    """
    try:
        submit = service.submitter()
        ident = threading.get_ident()
        perf = time.perf_counter_ns
        for phase, windows in enumerate(phases):
            schedule = itertools.cycle(windows)
            segments: List[List[int]] = []
            count = wall = cpu = 0
            while True:
                control.barrier.wait()  # a segment starts, or the phase ends
                if control.done[phase]:
                    break
                durations: List[int] = []
                cpu0 = time.thread_time_ns()
                wall0 = perf()
                while not control.pause:
                    window = next(schedule)
                    started = perf()
                    for key in window:
                        submit(key)
                    durations.append(perf() - started)
                    count += len(window)
                wall += perf() - wall0
                cpu += time.thread_time_ns() - cpu0
                segments.append(durations)
                report[phase] = (count, wall, cpu, segments, ident)
                control.barrier.wait()  # the segment is over
    except BaseException as exc:  # handed to the main thread
        control.errors.append(exc)
        control.barrier.abort()


def _run_phase(phase: int, control: _Control, speed: HostSpeed, service, last):
    """Drive one phase's segments until ``last()`` holds after one.

    Returns the phase's wall seconds, the same at the reference host
    speed, and each segment's scale to it.  The final flush, which
    delivers every key still buffered, is timed with the last segment.
    """
    wall = scaled = 0.0
    scales: List[float] = []
    speed.calibrate()
    while True:
        control.pause = False
        control.barrier.wait()
        started = time.perf_counter()
        time.sleep(SEGMENT_S)
        ending = last()
        control.pause = True
        control.barrier.wait()
        if ending:
            service.flush()
        elapsed = time.perf_counter() - started
        speed.calibrate()
        scales.append(speed.scale())
        wall += elapsed
        scaled += elapsed * scales[-1]
        if ending:
            break
    control.done[phase] = True
    control.barrier.wait()
    return wall, scaled, scales


def _wrap_route(route, clock: LayerClock) -> None:
    """Time the batch callables a shard flush calls on ``route``."""
    if route.batch_array is not None:
        route.batch_array = clock.wrap(route.batch_array)
    route.batch = clock.wrap(route.batch)


def _round(
    schedules,
    seed: int,
    seconds: float,
    traced: bool,
    outcome: Outcome,
    reference: Reference,
) -> Dict[str, object]:
    cold_start()
    flush = LayerClock()
    sink_clock = LayerClock()
    fallback = LayerClock(cpu=False)
    sink = CheckingSink(seed)
    spans = RingBufferSink(capacity=1 << 16)
    layers: Dict[str, float] = {}
    round_delta = RegistryDelta()
    with capture_spans(spans) if traced else nullcontext():
        setup_delta = RegistryDelta()
        speed = HostSpeed(every_cpu=True)
        speed.calibrate()
        setup_started = time.perf_counter()
        service = HashService(
            shards=SHARDS,
            prefer_native=True,
            sink=sink_clock.wrap(sink) if traced else sink,
            fallback=fallback.wrap(stl_hash_bytes) if traced else stl_hash_bytes,
        )
        for name in FORMATS:
            service.register(key_spec(name).regex, label=name)
        reconciler = service.start(interval=RECONCILE_INTERVAL_S)
        setup_ended = time.perf_counter()
        speed.calibrate()
        setup_s = (setup_ended - setup_started) * speed.scale()
        tiers = {
            route.label: {"native": route.native, "batch_tier": route.batch_tier}
            for route in service.table.routes
        }
        if not all(route.native for route in service.table.routes):
            service.stop()
            raise Unsupported(
                "it measures the native tier, but the routes degraded "
                f"(no working C++ compiler or ISA support): {tiers}"
            )
        if traced:
            layers.update(
                setup_layers(
                    in_window(spans.records(), setup_started, setup_ended),
                    setup_delta,
                )
            )
            for route in service.table.routes:
                _wrap_route(route, flush)
            install = service.swap_route

            def swap_route(new_state):
                _wrap_route(new_state, flush)
                install(new_state)

            service.swap_route = swap_route

        control = _Control()
        reports: List[Dict[int, tuple]] = [{} for _ in range(PRODUCERS)]
        threads = [
            threading.Thread(
                target=_produce,
                args=(service, schedules[index], control, reports[index]),
                name=f"bench-producer-{index}",
                daemon=True,
            )
            for index in range(PRODUCERS)
        ]
        for thread in threads:
            thread.start()
        try:
            # Phase A: steady state.
            phase_a_ends = time.perf_counter() + seconds * PHASE_A_SHARE
            wall_a, scaled_a, scales_a = _run_phase(
                0, control, speed, service, lambda: time.perf_counter() >= phase_a_ends
            )
            keys_a = sum(report[0][0] for report in reports)
            swaps_a = len(reconciler.events) + len(reconciler.failures)
            if traced:
                layers.update(
                    _serve_layers(reports, flush, sink_clock, fallback, keys_a)
                )
                layers["serve.sampled.keys"] = service.stats()["sampled"]
                for clock in (flush, sink_clock, fallback):
                    clock.reset()

            # Phase B: drift until the verified swap has landed.
            phase_b_delta = RegistryDelta()
            drift_unix = time.time()
            phase_b_started = time.perf_counter()
            long_enough = phase_b_started + seconds * PHASE_B_SHARE
            give_up = phase_b_started + SWAP_TIMEOUT_S

            def swapped() -> bool:
                now = time.perf_counter()
                if now >= give_up or reconciler.failures:
                    return True
                events = reconciler.events
                return bool(
                    events
                    and now >= long_enough
                    and time.time() >= events[0].unix_time + POST_SWAP_S
                )

            _, scaled_b, _ = _run_phase(1, control, speed, service, swapped)
            phase_b_ended = time.perf_counter()
        except BaseException:
            control.pause = True
            control.done[:] = [True, True]
            control.barrier.abort()
            raise
        finally:
            service.stop()
            for thread in threads:
                thread.join(timeout=SWAP_TIMEOUT_S)
    if control.errors:
        raise RuntimeError(f"producer failed: {control.errors[0]!r}")

    keys_b = sum(report[1][0] for report in reports)
    events = list(reconciler.events)
    swap_s = events[0].unix_time - drift_unix if events else SWAP_TIMEOUT_S
    # Checks, outside every timed window.
    outcome.attempted += keys_a + keys_b
    outcome.fail(keys_a + keys_b - sink.delivered, "keys submitted, never delivered")
    outcome.fail(swaps_a, "swap attempts during phase A")
    ssn = service.table.routes[0]
    verified = [
        event for event in events if event.verified and event.route_id == ssn.route_id
    ]
    if len(events) != 1 or len(verified) != 1 or reconciler.failures:
        outcome.fail(
            1,
            f"phase B needs exactly one verified SSN swap, saw {len(events)} "
            f"swaps and {len(reconciler.failures)} failures",
        )
    if not any(
        route is not None and route.route_id == ssn.route_id and route.generation == 1
        for route, _key, _value in sink.samples
    ):
        outcome.fail(1, "no value delivered by the swapped plan")
    # The route a key must take follows from its length alone: an
    # off-format key only through the fallback, any other key only
    # through its own format's route (either generation of it).
    checked, misrouted = [], 0
    for route, key, value in sink.samples:
        label = None if route is None else route.label
        if label != ROUTE_FOR_LENGTH.get(len(key)):
            misrouted += 1
        else:
            plan = None if route is None else route.synthesized.plan
            checked.append((plan, key, value))
    outcome.fail(misrouted, "keys delivered through the wrong route or the fallback")
    outcome.fail(
        reference.mismatches(checked), "delivered values differ from the interpreter"
    )
    if traced:
        records = spans.records()
        swap_records = [
            record
            for record in in_window(records, phase_b_started, phase_b_ended)
            if record.thread == RECONCILER_THREAD
        ]
        parents = {r.parent_id for r in swap_records if r.name == "serve.hot_swap"}
        layers.update(
            {
                "serve.swap_s": swap_s,
                "serve.swap_ms": round_delta.histogram_sum("serve.swap_ms"),
                "serve.reconcile.ms": span_ms(
                    [r for r in swap_records if r.span_id in parents],
                    "serve.reconcile",
                ),
                "serve.reconcile.passes": round_delta.counter("serve.reconcile_passes"),
                "serve.shard_promotions": round_delta.counter("serve.shard_promotions"),
                "swap.verify.plan.ms": span_ms(swap_records, "verify.plan"),
                "swap.core.synthesize.ms": span_ms(swap_records, "synthesize"),
                "swap.codegen.native.compile_ms": phase_b_delta.histogram_sum(
                    "codegen.native.compile_ms"
                ),
            }
        )
    return {
        "setup_s": setup_s,
        "raw_setup_s": setup_ended - setup_started,
        "tiers": tiers,
        "ns": scaled_a * 1e9 / keys_a,
        "raw_ns": wall_a * 1e9 / keys_a,
        "ns_b": scaled_b * 1e9 / keys_b,
        "windows": [
            window * scale
            for report in reports
            for segment, scale in zip(report[0][3], scales_a)
            for window in segment
        ],
        "swap_s": swap_s,
        "layers": layers,
        "spans": [record.to_dict() for record in spans.records()],
    }


def _serve_layers(reports, flush, sink, fallback, keys) -> Dict[str, float]:
    """Phase-A split of the producers' time, per key submitted."""
    wall = sum(report[0][1] for report in reports)
    cpu = sum(report[0][2] for report in reports)
    inside = sum(
        clock.thread_wall(report[0][4])
        for report in reports
        for clock in (flush, sink, fallback)
    )
    return {
        "serve.submit.self_ns_per_key": per(wall - inside, keys),
        "serve.gil_wait_ns_per_key": per(wall - cpu, keys),
        "serve.flush.ns_per_key": per(flush.wall_ns, flush.items),
        "serve.flush.cpu_ns_per_key": per(flush.cpu_ns, flush.items),
        "serve.flush.calls": flush.calls,
        "serve.flush.keys_per_call": per(flush.items, flush.calls),
        "serve.sink.ns_per_key": per(sink.wall_ns, sink.items),
        "serve.sink.cpu_ns_per_key": per(sink.cpu_ns, sink.items),
        "serve.fallback.ns_per_key": per(fallback.wall_ns, fallback.calls),
        "serve.fallback.keys": fallback.calls,
    }


def run(seed: int, seconds: float, trace: bool, outcome: Outcome) -> None:
    schedules = build_schedules(seed)
    reference = Reference()
    run_rounds(
        trace,
        ROUNDS,
        lambda index, traced: _round(
            schedules, seed * 1000 + index, seconds / ROUNDS, traced, outcome, reference
        ),
        outcome,
    )
