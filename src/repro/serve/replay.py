"""Traffic replay: the serve layer under realistic concurrent load.

This is the measurement harness behind the ledger's
``serve/scaling/*`` rows (:func:`repro.bench.ledger.collect_smoke_entries`)
and the ``sepe serve`` CLI.  It drives millions of
:mod:`repro.keygen` keys through a :class:`HashService` from several
submitter threads, optionally injecting a mid-stream format change,
and reports:

- **shard scaling** — aggregate streaming throughput with the same
  thread count over 1/2/4/... shards.  More shards ⇒ more lanes run
  the lock-free single-writer discipline instead of the contended
  mutex, which is where the speedup comes from on a GIL runtime (the
  hashing itself is batched into native code either way);
- **drift convergence** — with injection enabled, the replay records
  every verified hot swap (cause, swap latency, generations) and
  asserts *zero hash errors*: a verifying sink spot-checks flushed
  batches against the scalar reference tier throughout, across the
  swap boundary.

Key streams are deterministic (seeded) so runs are comparable; drifted
keys are derived from conforming ones:

- ``widened_byte_class``: SSN area digits re-encoded as hex letters —
  same length, same landmarks ('-' at 3 and 6), wider byte classes, so
  the keys still route to the SSN plan and its own samples widen;
- ``new_length``: a two-digit suffix appended — the keys miss every
  route, land in the fallback/unrouted pool, and come back via
  landmark-affinity attribution.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.plan import HashFamily
from repro.core.routes import RouteState
from repro.keygen import Distribution, generate_keys, key_spec
from repro.obs.metrics import MetricsRegistry
from repro.serve.drift import DRIFT_NEW_LENGTH, DRIFT_WIDENED_BYTE_CLASS
from repro.serve.service import HashService

_HEX_FOR_DIGIT = b"abcdefabcd"
"""Digit → hex-letter substitution used by the widened-class injector."""


@dataclass
class ReplayConfig:
    """One replay run, fully determined (seeded) by its fields."""

    shards: int = 2
    threads: int = 4
    keys_per_thread: int = 100_000
    seconds: Optional[float] = None
    key_types: Tuple[str, ...] = ("SSN", "MAC")
    family: HashFamily = HashFamily.PEXT
    flush_size: int = 1024
    sample_every: int = 64
    prefer_native: bool = True
    drift: bool = False
    drift_kind: str = DRIFT_WIDENED_BYTE_CLASS
    drift_at: float = 0.4
    drift_key_type: str = "SSN"
    reconcile_interval: float = 0.2
    drift_min_keys: int = 64
    check_every_batches: int = 16
    seed: int = 0

    def describe(self) -> Dict[str, object]:
        record = asdict(self)
        record["family"] = self.family.value
        record["key_types"] = list(self.key_types)
        return record


class VerifyingSink:
    """Delivery counter with spot-check verification against the
    scalar reference tier.

    Every ``check_every``-th delivered batch has its first and last
    values recomputed through the route's *generated Python* scalar
    (the tier the whole native/NumPy stack is parity-pinned against);
    a mismatch is a hash error.  Checks run outside the counter lock,
    and crucially keep running across hot swaps — the batch carries the
    :class:`RouteState` that hashed it, so a stale-plan flush verifies
    against the stale plan, exactly the correctness contract.
    """

    def __init__(self, check_every: int = 16):
        self.check_every = check_every
        self.lock = threading.Lock()
        self.delivered = 0
        self.batches = 0
        self.fallback_keys = 0
        self.checked = 0
        self.errors = 0
        self.generations_seen: Dict[Tuple[str, int], int] = {}

    def __call__(
        self,
        route: Optional[RouteState],
        keys: List[bytes],
        values: Sequence,
    ) -> None:
        with self.lock:
            self.batches += 1
            self.delivered += len(keys)
            if route is None:
                self.fallback_keys += len(keys)
                return
            marker = (route.route_id, route.generation)
            self.generations_seen[marker] = (
                self.generations_seen.get(marker, 0) + len(keys)
            )
            check = (
                self.check_every > 0
                and self.batches % self.check_every == 0
            )
        if not check:
            return
        reference = route.synthesized.function
        mismatches = 0
        for index in (0, len(keys) - 1):
            if int(values[index]) != reference(keys[index]):
                mismatches += 1
        with self.lock:
            self.checked += 1
            self.errors += mismatches


# -- key streams -------------------------------------------------------------


def drifted_key(key: bytes, kind: str) -> bytes:
    """Derive a drifted variant of a conforming SSN-style key."""
    if kind == DRIFT_WIDENED_BYTE_CLASS:
        # Area digits become hex letters: length and '-' landmarks
        # survive, the first three byte classes widen.
        head = bytes(_HEX_FOR_DIGIT[byte - 0x30] for byte in key[:3])
        return head + key[3:]
    if kind == DRIFT_NEW_LENGTH:
        return key + b"-7"
    raise ValueError(f"unknown drift kind {kind!r}")


def build_schedules(config: ReplayConfig) -> List[List[bytes]]:
    """Deterministic per-thread key schedules, drift pre-applied.

    Each thread's stream interleaves the configured key types
    round-robin; with drift enabled, every ``drift_key_type`` key past
    the ``drift_at`` fraction of the stream is replaced by its drifted
    variant — so the format change hits mid-stream on every thread at
    once, like a coordinated producer rollout.
    """
    per_type = -(-config.keys_per_thread // len(config.key_types))
    schedules: List[List[bytes]] = []
    for thread_index in range(config.threads):
        streams = [
            generate_keys(
                name,
                per_type,
                Distribution.UNIFORM,
                seed=config.seed + 1000 * thread_index + type_index,
            )
            for type_index, name in enumerate(config.key_types)
        ]
        schedule: List[bytes] = []
        for position in range(per_type):
            for stream in streams:
                schedule.append(stream[position])
        schedule = schedule[: config.keys_per_thread]
        if config.drift:
            cut = int(len(schedule) * config.drift_at)
            target_len = key_spec(config.drift_key_type).length
            for position in range(cut, len(schedule)):
                key = schedule[position]
                if len(key) == target_len and key[3:4] == b"-":
                    schedule[position] = drifted_key(
                        key, config.drift_kind
                    )
        schedules.append(schedule)
    return schedules


# -- the replay itself -------------------------------------------------------


def _submit_worker(
    service: HashService,
    schedule: List[bytes],
    barrier: threading.Barrier,
    deadline: Optional[float],
    submitted: List[int],
    slot: int,
) -> None:
    submit = service.submitter()
    barrier.wait()
    count = 0
    if deadline is None:
        for key in schedule:
            submit(key)
        count = len(schedule)
    else:
        while time.monotonic() < deadline:
            for key in schedule:
                submit(key)
            count += len(schedule)
    submitted[slot] = count


def run_replay(
    config: ReplayConfig,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Run one replay; returns a plain-dict report.

    The service is constructed fresh (routes registered, then gone live
    with :meth:`~repro.serve.service.HashService.ready`, so every route
    is on its native tier when the producers start), the reconciler
    started when drift injection is on,
    and all threads released together — so the measured window covers
    submission and flushing only, not synthesis.  After the stream
    drains, one final deterministic reconcile pass catches a drift
    whose samples arrived after the last timed pass, making
    "exactly one verified swap" assertable in CI.
    """
    schedules = build_schedules(config)
    sink = VerifyingSink(check_every=config.check_every_batches)
    service = HashService(
        shards=config.shards,
        family=config.family,
        flush_size=config.flush_size,
        sample_every=config.sample_every,
        prefer_native=config.prefer_native,
        sink=sink,
        registry=registry if registry is not None else MetricsRegistry(),
    )
    for name in config.key_types:
        service.register(key_spec(name).regex, label=name)
    # Go live before the barrier: the routes' one native compile is
    # set-up, never paid by a producer binding its lane.
    service.ready()
    reconciler = None
    if config.drift:
        reconciler = service.start(
            interval=config.reconcile_interval,
            drift_min_keys=config.drift_min_keys,
        )
    barrier = threading.Barrier(config.threads + 1)
    submitted = [0] * config.threads
    deadline: Optional[float] = None
    if config.seconds is not None:
        deadline = time.monotonic() + config.seconds
    threads = [
        threading.Thread(
            target=_submit_worker,
            args=(
                service,
                schedules[index],
                barrier,
                deadline,
                submitted,
                index,
            ),
            name=f"sepe-replay-{index}",
        )
        for index in range(config.threads)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    service.flush()
    elapsed = time.perf_counter() - started
    if reconciler is not None and not reconciler.events:
        # Samples that landed after the last timed pass: drain them
        # deterministically before declaring the run drift-free.
        reconciler.reconcile_once()
    service.stop()
    total = sum(submitted)
    stats = service.stats()
    report: Dict[str, object] = {
        "config": config.describe(),
        "elapsed_seconds": elapsed,
        "submitted": total,
        "delivered": sink.delivered,
        "keys_per_sec": total / elapsed if elapsed > 0 else 0.0,
        "ns_per_key": elapsed / total * 1e9 if total else 0.0,
        "hash_errors": sink.errors,
        "checked_batches": sink.checked,
        "fallback_keys": sink.fallback_keys,
        "generations_served": {
            f"{route_id}@g{generation}": count
            for (route_id, generation), count in sorted(
                sink.generations_seen.items()
            )
        },
        "stats": stats,
    }
    if reconciler is not None:
        report["swap_events"] = [
            event.to_dict() for event in reconciler.events
        ]
        report["swap_failures"] = [
            {
                "route_id": failure.route_id,
                "reasons": list(failure.reasons),
                "error": failure.error,
            }
            for failure in reconciler.failures
        ]
    return report


def measure_scaling(
    config: ReplayConfig,
    shard_counts: Sequence[int] = (1, 2, 4),
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Throughput rows across shard counts, same threads and stream.

    Drift injection is disabled for these rows (it is measured by its
    own run) but sampling stays on — the overhead of feeding the
    accumulators is part of the serving cost being reported.
    """
    from dataclasses import replace as dc_replace

    rows: List[Dict[str, object]] = []
    for shards in shard_counts:
        run_config = dc_replace(config, shards=shards, drift=False)
        samples: List[float] = []
        throughputs: List[float] = []
        for _ in range(repeats):
            report = run_replay(run_config)
            samples.append(report["ns_per_key"])
            throughputs.append(report["keys_per_sec"])
        best = min(samples)
        rows.append(
            {
                "shards": shards,
                "threads": config.threads,
                "keys": config.keys_per_thread * config.threads,
                "ns_per_key": best,
                "keys_per_sec": max(throughputs),
                "samples_ns_per_key": samples,
            }
        )
    return rows


def scaling_ratio(rows: Sequence[Dict[str, object]]) -> Optional[float]:
    """Aggregate-throughput ratio of the widest row over the 1-shard row."""
    by_shards = {row["shards"]: row for row in rows}
    if 1 not in by_shards or len(by_shards) < 2:
        return None
    widest = max(by_shards)
    base = by_shards[1]["keys_per_sec"]
    return by_shards[widest]["keys_per_sec"] / base if base else None
