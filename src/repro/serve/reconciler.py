"""The background reconciler: samples in, verified hot swaps out.

Every reconcile pass drains the per-shard sample lists, folds them into
central per-route :class:`PatternAccumulator`s (the monoid merge — the
shard partition is invisible to the result), and runs
:func:`~repro.serve.drift.detect_drift` per route:

1. **No drift** — the accumulators keep growing; nothing else happens.
2. **Widened byte class** — the route's own samples joined to a wider
   pattern.  The merged pattern (plan ⊔ observation) is re-synthesized
   with ``verify="strict"``; on success a fresh
   :class:`~repro.core.routes.RouteState` (generation + 1, callables
   pre-compiled, native tier JIT-ed *in this thread*) is installed via
   :meth:`HashService.swap_route` — one reference store per shard,
   traffic never pauses.
3. **New length** — drifted keys missed every route and landed in the
   *unrouted* accumulator.  The reconciler attributes them to the
   route whose constant-byte landmarks they preserve
   (:func:`~repro.serve.drift.route_affinity` ≥ the threshold), merges
   and swaps as above.  Samples no route claims stay pending (counted,
   never dropped silently) until either a claimant drifts into range
   or an operator registers the new format.

Failure is a first-class outcome: if strict verification refutes the
re-synthesized plan (or synthesis itself fails, e.g. the drifted body
fell below one machine word), the swap is abandoned, the old plan
keeps serving — correct for all still-conforming keys — and the
observed state for that route is reset so one poisoned sample cannot
wedge the loop re-attempting the same doomed swap.

Swap latency (resynthesize + verify + JIT + install) is measured into
``serve.swap_ms``; drift causes are counted per kind.  All of it runs
in the reconciler thread, so the measured latency is *convergence*
latency, not traffic stall — the replay benchmark asserts traffic
throughput holds through a swap.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.fast_infer import PatternAccumulator
from repro.core.pattern import KeyPattern
from repro.core.routes import RouteState
from repro.core.synthesis import synthesize
from repro.errors import SynthesisError, VerificationError
from repro.obs.trace import span
from repro.serve.drift import (
    DriftReport,
    copy_accumulator,
    detect_drift,
    route_affinity,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.service import HashService

SWAP_VERIFY_MODE = "strict"
"""Every hot swap is gated by strict static verification — a drifted
format must never swap in a refuted plan.  Not configurable on
purpose."""


@dataclass(frozen=True)
class SwapEvent:
    """One verified hot swap, as recorded for the benchmark report."""

    route_id: str
    label: str
    old_generation: int
    new_generation: int
    reasons: Tuple[str, ...]
    observed_keys: int
    swap_ms: float
    regex_before: str
    regex_after: str
    verified: bool = True
    unix_time: float = field(default=0.0, compare=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "route_id": self.route_id,
            "label": self.label,
            "old_generation": self.old_generation,
            "new_generation": self.new_generation,
            "reasons": list(self.reasons),
            "observed_keys": self.observed_keys,
            "swap_ms": self.swap_ms,
            "regex_before": self.regex_before,
            "regex_after": self.regex_after,
            "verified": self.verified,
            "unix_time": self.unix_time,
        }


@dataclass(frozen=True)
class SwapFailure:
    """A drift that could not be resolved into a verified swap."""

    route_id: str
    reasons: Tuple[str, ...]
    error: str
    unix_time: float = field(default=0.0, compare=False)


class Reconciler:
    """Periodic drift detection and hot-swap resynthesis.

    Runs :meth:`reconcile_once` every ``interval`` seconds in a daemon
    thread; the method is also public so tests and quiesce points can
    drive it deterministically.

    Args:
        service: the :class:`HashService` to reconcile.
        interval: seconds between passes.
        drift_min_keys: minimum sampled keys before a route (or the
            unrouted pool) is judged for drift.
        affinity_threshold: minimum landmark agreement for attributing
            unrouted samples to a route.
    """

    def __init__(
        self,
        service: "HashService",
        interval: float = 0.25,
        drift_min_keys: int = 64,
        affinity_threshold: float = 0.5,
    ):
        self.service = service
        self.interval = interval
        self.drift_min_keys = drift_min_keys
        self.affinity_threshold = affinity_threshold
        self.events: List[SwapEvent] = []
        self.failures: List[SwapFailure] = []
        self._observed: Dict[str, PatternAccumulator] = {}
        self._unrouted = PatternAccumulator()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._pass_lock = threading.Lock()
        registry = service.registry
        self._drift_counters = {
            "new_length": registry.counter("serve.drift.new_length"),
            "widened_byte_class": registry.counter(
                "serve.drift.widened_byte_class"
            ),
        }
        self._failure_counter = registry.counter("serve.swap_failures")
        self._error_counter = registry.counter("serve.reconcile_errors")
        self._pass_counter = registry.counter("serve.reconcile_passes")
        self._unrouted_gauge = registry.gauge("serve.unrouted_sampled")

    # -- thread lifecycle ----------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="sepe-reconciler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join()
            self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.reconcile_once()
            except Exception:  # pragma: no cover - resilience backstop
                # The reconciler must outlive any single bad pass; the
                # counter is the alarm, the next pass the retry.
                self._error_counter.inc()

    # -- one pass -------------------------------------------------------

    def reconcile_once(self) -> List[SwapEvent]:
        """Drain, merge, detect, swap; returns this pass's swap events.

        Serialized with a lock so a test driving it directly cannot
        race the background thread.
        """
        with self._pass_lock, span("serve.reconcile"):
            self._pass_counter.inc()
            self._drain_shards()
            events: List[SwapEvent] = []
            for route in self.service.table.routes:
                observed = self._observed.get(route.route_id)
                if observed is None:
                    continue
                report = detect_drift(
                    route.pattern, observed, min_keys=self.drift_min_keys
                )
                if report.drifted:
                    event = self._attempt_swap(route, report)
                    if event is not None:
                        events.append(event)
            unrouted_event = self._reconcile_unrouted()
            if unrouted_event is not None:
                events.append(unrouted_event)
            self._unrouted_gauge.set(self._unrouted.count)
            return events

    def _drain_shards(self) -> None:
        for shard in self.service.shards:
            samples, unrouted = shard.drain_samples()
            for route_id, keys in samples.items():
                accumulator = self._observed.get(route_id)
                if accumulator is None:
                    accumulator = self._observed[route_id] = (
                        PatternAccumulator()
                    )
                accumulator.update(keys)
            if unrouted:
                self._unrouted.update(unrouted)

    def _reconcile_unrouted(self) -> Optional[SwapEvent]:
        """Attribute fallback-sampled keys to the best-matching route.

        Keys that miss every route are either a drifted variant of a
        registered format (typically a *length* drift — new lengths
        cannot hit the old route, so their samples can only ever show
        up here) or a genuinely new format.  Landmark affinity
        separates the two: above the threshold the pool merges into the
        winning route and swaps; otherwise it stays pending for an
        operator.
        """
        pool = self._unrouted
        if pool.count < self.drift_min_keys:
            return None
        best: Optional[RouteState] = None
        best_score = 0.0
        for route in self.service.table.routes:
            score = route_affinity(route.pattern, pool)
            if score > best_score:
                best, best_score = route, score
        if best is None or best_score < self.affinity_threshold:
            return None
        merged = copy_accumulator(pool)
        observed = self._observed.get(best.route_id)
        if observed is not None:
            merged.merge(copy_accumulator(observed))
        report = detect_drift(best.pattern, merged, min_keys=1)
        if not report.drifted:  # pool already inside the pattern
            self._unrouted = PatternAccumulator()
            return None
        event = self._attempt_swap(best, report)
        if event is not None:
            self._unrouted = PatternAccumulator()
        return event

    # -- the swap itself ------------------------------------------------

    def _attempt_swap(
        self,
        route: RouteState,
        report: DriftReport,
        extra_count: int = 0,
    ) -> Optional[SwapEvent]:
        merged_pattern = report.merged_pattern
        assert merged_pattern is not None
        started = time.perf_counter()
        with span(
            "serve.hot_swap",
            route=route.route_id,
            reasons=",".join(report.reasons),
        ):
            try:
                new_state = self._build_successor(route, merged_pattern)
            except (SynthesisError, VerificationError) as exc:
                self._failure_counter.inc()
                self.failures.append(
                    SwapFailure(
                        route.route_id,
                        report.reasons,
                        f"{type(exc).__name__}: {exc}",
                        unix_time=time.time(),
                    )
                )
                # Reset so the same poisoned joined state does not
                # re-attempt (and re-fail) the identical swap forever.
                self._observed.pop(route.route_id, None)
                return None
            self.service.swap_route(new_state)
        swap_ms = (time.perf_counter() - started) * 1e3
        self.service.observe_swap_latency(swap_ms)
        for reason in report.reasons:
            counter = self._drift_counters.get(reason)
            if counter is not None:
                counter.inc()
        self._observed.pop(route.route_id, None)
        event = SwapEvent(
            route_id=route.route_id,
            label=route.label,
            old_generation=route.generation,
            new_generation=new_state.generation,
            reasons=report.reasons,
            observed_keys=report.observed_count + extra_count,
            swap_ms=swap_ms,
            regex_before=route.synthesized.plan.pattern_regex or "",
            regex_after=new_state.synthesized.plan.pattern_regex or "",
            unix_time=time.time(),
        )
        self.events.append(event)
        return event

    def _build_successor(
        self, route: RouteState, merged_pattern: KeyPattern
    ) -> RouteState:
        """Resynthesize under strict verification and pre-compile.

        Everything expensive — plan building, the static verifier, the
        batch lowering, the native JIT — happens here, in the
        reconciler thread, before a single traffic thread can observe
        the new state.
        """
        synthesized = synthesize(
            merged_pattern,
            family=route.family,
            name=route.synthesized.name,
            verify=SWAP_VERIFY_MODE,
        )
        return RouteState(
            route.route_id,
            synthesized,
            generation=route.generation + 1,
            prefer_native=self.service.prefer_native,
            label=route.label,
        )

    # -- introspection --------------------------------------------------

    def observed_count(self, route_id: str) -> int:
        accumulator = self._observed.get(route_id)
        return accumulator.count if accumulator is not None else 0

    @property
    def unrouted_count(self) -> int:
        return self._unrouted.count
