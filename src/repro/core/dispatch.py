"""Multi-format dispatch: one hash callable serving several formats.

Real applications rarely hash a single key format: a request router sees
session ids *and* resource paths; a network controller sees MAC *and*
IPv6 strings.  The paper's Figure 2 shows the handwritten version of
the answer — Polymur branches on key length before hashing — and SEPE
itself falls back to the standard hash for sub-word keys (footnote 5).

:class:`FormatDispatcher` automates that pattern over synthesized
functions: each registered format gets a specialized hash, and keys
route through one immutable :class:`~repro.core.routes.RouteTable` — by
key length first (an O(1) dict probe, since SEPE formats are
fixed-length) and by template match when lengths are contested;
anything unrecognized goes to the general-purpose fallback.  The
dispatcher is a synchronous façade over that table: the routing policy
and the columnar batch loop live in :mod:`repro.core.routes`, shared
with the sharded service.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.inference import KeyLike, infer_pattern
from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.routes import RouteState, RouteTable, hash_columnar
from repro.core.synthesis import SynthesizedHash, synthesize
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.obs.metrics import (
    NS_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricsRegistry,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None

HashCallable = Callable[[bytes], int]

FormatSource = Union[str, KeyPattern, SynthesizedHash]


class FormatDispatcher:
    """Route keys to format-specialized hashes, falling back when unsure.

    Every routing decision is counted: each registered format owns a
    route counter and misses land on a fallback counter, all held in a
    :class:`repro.obs.metrics.MetricsRegistry` (a private one by
    default, so two dispatchers never share counts).  A counter bump is
    one integer add, so the fast path stays one dict probe plus one add.
    :meth:`stats` snapshots the traffic split.

    Args:
        fallback: general-purpose 64-bit hash for unrecognized keys
            (defaults to the STL murmur port, matching SEPE's own
            fallback rule).
        verify: when True, even a unique-length match is template-checked
            before the specialized function runs; non-conforming keys go
            to the fallback.  Off by default — the paper's functions also
            assume conforming input (footnote 3's "assume you do not need
            to assert key format").
        registry: metrics registry holding the route counters; pass a
            shared registry to aggregate several dispatchers.
        latency: when True, every hashed key (and every ``hash_many``
            length run) is timed into a per-route nanosecond histogram
            (``dispatch.latency_ns.<label>``, exponential
            :data:`~repro.obs.metrics.NS_LATENCY_BUCKETS` edges) — the
            scrape surface the metric exporters publish.  Off by
            default: the untimed fast path stays one dict probe plus
            one counter add.
        prefer_native: when True, registration eagerly JIT-compiles each
            format's emitted C++ (through the compile cache) and routes
            scalar calls to the native entry point, and batch runs to
            it when the cost model ranks it first; formats whose native
            tier degrades (no compiler, unsupported ISA) silently keep
            the Python/NumPy path, so the dispatcher works identically
            on hosts without a toolchain.
    """

    def __init__(
        self,
        fallback: HashCallable = stl_hash_bytes,
        verify: bool = False,
        registry: Optional[MetricsRegistry] = None,
        latency: bool = False,
        prefer_native: bool = False,
    ):
        self._prefer_native = bool(prefer_native)
        self._fallback = fallback
        self._verify = verify
        self._table = RouteTable(())
        self._serial = itertools.count()
        # Per-route accounting, keyed by route id: the route counter
        # and, with ``latency=True``, its histogram.
        self._accounts: Dict[str, Tuple[Counter, Optional[Histogram]]] = {}
        self._registry = registry if registry is not None else MetricsRegistry()
        self._fallback_counter = self._registry.counter("dispatch.fallback")
        self._requests = self._registry.counter("dispatch.requests_total")
        self._native_formats = self._registry.counter(
            "dispatch.native_formats"
        )
        self._latency = latency
        self._fallback_latency: Optional[Histogram] = (
            self._registry.histogram(
                "dispatch.latency_ns.fallback", NS_LATENCY_BUCKETS
            )
            if latency
            else None
        )
        self._started_monotonic = time.monotonic()
        # Serializes register()/stats()/describe() — NOT taken on the
        # hashing hot path, which reads one immutable table snapshot.
        # Contention is observable: a blocked acquisition first fails a
        # non-blocking attempt and counts a lock-wait event.
        self._state_lock = threading.Lock()
        self._lock_waits = self._registry.counter("dispatch.lock_waits")

    # -- registration --------------------------------------------------

    def _acquire_state_lock(self) -> None:
        """Take the state lock, counting the wait when it was held."""
        if self._state_lock.acquire(blocking=False):
            return
        self._lock_waits.inc()
        self._state_lock.acquire()

    def register(
        self,
        source: FormatSource,
        family: HashFamily = HashFamily.PEXT,
    ) -> SynthesizedHash:
        """Register a format; synthesizes unless given a SynthesizedHash.

        Returns the synthesized function so callers can inspect it.

        Raises:
            SynthesisError: propagated from synthesis for unsupported
                formats (e.g. sub-word keys — register those under the
                fallback instead, which is what SEPE itself does).
        """
        if isinstance(source, SynthesizedHash):
            synthesized = source
        else:
            synthesized = synthesize(source, family)
        serial = next(self._serial)
        # Built outside the state lock: a native JIT compile must not
        # stall concurrent stats() readers.
        state = RouteState(
            f"r{serial}",
            synthesized,
            prefer_native=self._prefer_native,
            label=synthesized.plan.pattern_regex or f"format-{serial}",
        )
        if state.native:
            self._native_formats.inc()
        self._acquire_state_lock()
        try:
            self._accounts[state.route_id] = (
                self._registry.counter(f"dispatch.route.{state.label}"),
                self._registry.histogram(
                    f"dispatch.latency_ns.{state.label}", NS_LATENCY_BUCKETS
                )
                if self._latency
                else None,
            )
            self._table = self._table.added(state)
        finally:
            self._state_lock.release()
        return synthesized

    def register_examples(
        self,
        keys: Iterable[KeyLike],
        family: HashFamily = HashFamily.PEXT,
    ) -> SynthesizedHash:
        """Register a format learned from example keys (Figure 5a, inline).

        The format is inferred by :func:`repro.core.inference.infer_pattern`,
        then registered like any other source.  This is the production
        registration path: hand the dispatcher a key sample, get routed
        hashing.

        Raises:
            EmptyKeySetError: when ``keys`` is empty.
            SynthesisError: propagated from synthesis.
        """
        return self.register(infer_pattern(keys), family=family)

    @property
    def format_count(self) -> int:
        """Number of registered formats."""
        return len(self._table)

    # -- dispatch --------------------------------------------------------

    def _route_state(self, key: bytes) -> Optional[RouteState]:
        """Resolve ``key`` through the table and count the decision;
        None means fallback traffic."""
        self._requests.inc()
        table = self._table
        state = None if self._verify else table.fast.get(len(key))
        if state is None:
            state = table.resolve_checked(key)
            if state is None:
                self._fallback_counter.inc()
                return None
        self._accounts[state.route_id][0].inc()
        return state

    def route(self, key: bytes) -> HashCallable:
        """The function that would hash ``key`` (for inspection/tests)."""
        state = self._route_state(key)
        return self._fallback if state is None else state.scalar

    def __call__(self, key: bytes) -> int:
        if not self._latency:
            return self.route(key)(key)
        state = self._route_state(key)
        if state is None:
            function, histogram = self._fallback, self._fallback_latency
        else:
            function = state.scalar
            histogram = self._accounts[state.route_id][1]
        started = time.perf_counter_ns()
        value = function(key)
        histogram.observe(time.perf_counter_ns() - started)
        return value

    def hash_many(self, keys: Sequence[bytes]) -> List[int]:
        """Hash a batch of keys, routing once per length run, not per key.

        The batch goes through the shared columnar loop
        (:func:`~repro.core.routes.hash_columnar`): one stable sort by
        key length, one call per length run the table owns on a
        zero-copy row view, template resolution per key for contested
        lengths (and for every key with ``verify=True``), the scalar
        fallback for unrecognized keys.  Results are positionally
        aligned with ``keys``, and route/fallback counters advance
        exactly as per-key routing would.
        """
        if _np is None:
            return [self(key) for key in keys]
        return self.hash_many_array(keys).tolist()

    def hash_many_array(self, keys: Sequence[bytes]):
        """Like :meth:`hash_many`, returning the ``uint64`` array itself.

        Skips the ``tolist`` boxing — one Python int per key, the
        largest cost of the list contract on the native tier (~36 vs
        ~16 ns/key on the reference container).

        Raises:
            RuntimeError: when NumPy is unavailable.
        """
        if _np is None:
            raise RuntimeError("hash_many_array requires NumPy")
        self._requests.inc(len(keys))
        return hash_columnar(
            self._table, keys, self._fallback, self._count_run, self._verify
        )

    def _count_run(
        self, state: Optional[RouteState], count: int, elapsed_ns: int
    ) -> None:
        """Account one hashed run: its route counter (or the fallback's)
        and, with ``latency=True``, the per-key mean into the histogram."""
        if state is None:
            self._fallback_counter.inc(count)
            histogram = self._fallback_latency
        else:
            counter, histogram = self._accounts[state.route_id]
            counter.inc(count)
        if histogram is not None:
            histogram.observe_many(elapsed_ns / count, count)

    # -- introspection -----------------------------------------------------

    @staticmethod
    def _ordered_routes(table: RouteTable) -> List[RouteState]:
        """Fixed-length routes by length, then variable-length ones."""

        def order(route: RouteState) -> Tuple[int, int]:
            pattern = route.pattern
            if pattern.is_fixed_length:
                return 0, pattern.body_length
            return 1, 0

        return sorted(table.routes, key=order)

    def describe(self) -> List[str]:
        """Human-readable routing table, one line per registered format."""
        from repro.core.regex_render import render_regex

        lines = []
        for route in self._ordered_routes(self._table):
            pattern = route.pattern
            if pattern.is_fixed_length:
                lines.append(
                    f"len {pattern.body_length:4d}: {render_regex(pattern)}"
                )
            else:
                lines.append(
                    f"len {pattern.min_length}+  : {render_regex(pattern)}"
                )
        lines.append("otherwise  : fallback")
        return lines

    def stats(self) -> Dict[str, object]:
        """Per-format registration and route counts, plus fallback traffic.

        Returns a plain dict::

            {
              "registered": 3,
              "total_routes": 120,
              "fallback_routes": 7,
              "formats": [
                {"regex": ..., "length": 11, "routes": 64},
                {"regex": ..., "length": None, "routes": 49},
              ],
            }

        ``length`` is None for variable-length formats.  Counts include
        every routing decision, whether made via :meth:`route` directly
        or through ``__call__``.  The snapshot also carries
        ``elapsed_seconds`` since construction and the implied ``qps``;
        with ``latency=True`` each format (and the fallback) adds a
        ``latency`` summary (observation ``count`` and ``mean_ns``) from
        its histogram.

        The whole snapshot is taken in one critical section — route
        table and every counter value read back to back under the state
        lock — so concurrent registrations cannot interleave a
        half-visible format, and ``total_routes`` is the sum of exactly
        the per-format counts reported beside it.  Formatting (regex
        rendering) happens after release; waits on the lock are counted
        in ``dispatch.lock_waits``.
        """
        self._acquire_state_lock()
        try:
            routes = self._ordered_routes(self._table)
            counts = [
                self._accounts[route.route_id][0].value for route in routes
            ]
            fallback_routes = self._fallback_counter.value
            native_formats = self._native_formats.value
        finally:
            self._state_lock.release()
        formats = [
            self._format_stats(route, routes_count)
            for route, routes_count in zip(routes, counts)
        ]
        total = sum(counts)
        stats: Dict[str, object] = {
            "registered": len(routes),
            "total_routes": total + fallback_routes,
            "fallback_routes": fallback_routes,
            "formats": formats,
            "prefer_native": self._prefer_native,
            "native_formats": native_formats,
        }
        elapsed = time.monotonic() - self._started_monotonic
        stats["elapsed_seconds"] = elapsed
        stats["qps"] = (
            (total + fallback_routes) / elapsed if elapsed > 0 else 0.0
        )
        if self._latency and self._fallback_latency is not None:
            histogram = self._fallback_latency
            stats["fallback_latency"] = {
                "count": histogram.count,
                "mean_ns": histogram.mean,
            }
        return stats

    def _format_stats(
        self, route: RouteState, routes: int
    ) -> Dict[str, object]:
        from repro.core.regex_render import render_regex

        pattern = route.pattern
        record: Dict[str, object] = {
            "regex": render_regex(pattern),
            "length": pattern.body_length if pattern.is_fixed_length else None,
            "routes": routes,
            "native": route.native,
        }
        histogram = self._accounts[route.route_id][1]
        if histogram is not None:
            record["latency"] = {
                "count": histogram.count,
                "mean_ns": histogram.mean,
            }
        return record


def build_dispatcher(
    formats: Sequence[str],
    family: HashFamily = HashFamily.PEXT,
    fallback: HashCallable = stl_hash_bytes,
    verify: bool = False,
) -> FormatDispatcher:
    """Convenience: dispatcher over several format regexes at once."""
    dispatcher = FormatDispatcher(fallback=fallback, verify=verify)
    for regex in formats:
        dispatcher.register(regex, family=family)
    return dispatcher
