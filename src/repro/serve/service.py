"""The sharded online hash service: registration, routing, hot swaps.

:class:`HashService` is the long-running front-end the ROADMAP's
"online hash service" item calls for.  It owns N :class:`Shard`s, an
authoritative immutable :class:`RouteTable`, and (optionally) a
background :class:`~repro.serve.reconciler.Reconciler`.  Threads are
bound to lanes on first use via a thread-local, for life: the first N
submitter threads each own a private, lock-free lane; every later
thread binds to one shared overflow lane, created on first use, whose
methods run under its mutex.  A lane's mode never changes, so the
lock-free lanes carry no promotion handshake.

Traffic interfaces:

- :meth:`submit` — streaming: keys buffer per route and flush through
  the fastest batch tier (native ``hash_many_array`` when available);
  results are delivered to the service ``sink``.  This is the
  high-throughput path the replay benchmark measures.
- :meth:`hash` / :meth:`hash_many` / :meth:`hash_many_array` —
  synchronous, for request/response callers.

Hot swaps: the reconciler (or any caller of :meth:`swap_route`) builds
a fresh :class:`RouteState` — plan re-synthesized under
``verify="strict"``, callables pre-compiled — and the service installs
a new table snapshot into every shard with one reference store each.
Traffic never waits: resynthesis happens off the hot path, and until
the store lands each shard keeps serving the stale (still correct for
conforming keys) plan.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.fast_infer import as_key_bytes, infer_pattern_fast
from repro.core.inference import KeyLike
from repro.core.plan import HashFamily
from repro.core.routes import RouteState, RouteTable, build_route_state
from repro.core.synthesis import FormatSource, SynthesizedHash
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.obs.metrics import (
    MetricsRegistry,
    exponential_buckets,
    get_registry,
)
from repro.serve.shard import (
    DEFAULT_FLUSH_SIZE,
    Shard,
    SinkCallable,
)

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None

SWAP_MS_BUCKETS = exponential_buckets(1.0, 2.0, 14)
"""Histogram edges for hot-swap latency: 1 ms .. ~8 s."""

DEFAULT_SAMPLE_EVERY = 64
"""Default sampling period: ~1/64 of traffic feeds drift detection."""


class HashService:
    """Sharded, thread-safe serving layer over synthesized hashes.

    Args:
        shards: number of lock-free submission lanes.  The first this
            many submitter threads each own one for life; every later
            thread shares one extra overflow lane under a mutex.
        family: default synthesis family for registrations.
        fallback: hash for keys no route matches (STL murmur port,
            SEPE's own fallback rule).
        flush_size: keys buffered per route per shard before a batched
            flush.
        sample_every: feed ~1 key in this many into the per-shard
            pattern accumulators (rounded to a power of two; 0
            disables sampling and with it drift detection).
        prefer_native: route through the JIT tier when it is available;
            defaults True and degrades silently per route.
        verify: verification mode for *registrations* (hot swaps are
            always ``"strict"``; see the reconciler).
        sink: receives every flushed batch from :meth:`submit` traffic
            as ``(route_state, keys, values)``.
        registry: metrics registry; defaults to the process registry so
            ``sepe obs`` surfaces serve counters.
    """

    def __init__(
        self,
        shards: int = 4,
        *,
        family: HashFamily = HashFamily.PEXT,
        fallback: Callable[[bytes], int] = stl_hash_bytes,
        flush_size: int = DEFAULT_FLUSH_SIZE,
        sample_every: int = DEFAULT_SAMPLE_EVERY,
        prefer_native: bool = True,
        verify: Optional[str] = None,
        sink: Optional[SinkCallable] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.family = family
        self.prefer_native = prefer_native
        self.verify = verify
        self.registry = registry if registry is not None else get_registry()
        self._table = RouteTable(())
        self._fallback = fallback
        self._new_lane = functools.partial(
            Shard,
            fallback=fallback,
            flush_size=flush_size,
            sample_every=sample_every,
            sink=sink,
            registry=self.registry,
        )
        # Copy-on-write: the overflow lane is appended by replacing the
        # list, so readers iterate a stable snapshot without the lock.
        self._shards: List[Shard] = [
            self._new_lane(index, self._table) for index in range(shards)
        ]
        self._lanes = shards
        self._admin_lock = threading.Lock()
        self._tls = threading.local()
        self._assigned = 0
        self._route_serial = 0
        self._started_monotonic = time.monotonic()
        self._reconciler = None
        self._swap_counter = self.registry.counter("serve.swaps")
        self._swap_latency = self.registry.histogram(
            "serve.swap_ms", SWAP_MS_BUCKETS
        )
        # Counts threads bound to the shared overflow lane.
        self._promotions = self.registry.counter("serve.shard_promotions")
        self._table_version = self.registry.gauge("serve.table_version")

    # -- registration ---------------------------------------------------

    def register(
        self,
        source: Union[FormatSource, SynthesizedHash],
        family: Optional[HashFamily] = None,
        label: Optional[str] = None,
    ) -> RouteState:
        """Register a format; synthesizes unless given an artifact.

        Safe to call while traffic is flowing: the new table installs
        by reference swap like a hot swap does.

        Raises:
            SynthesisError: for unsupported formats (sub-word keys go
                to the fallback instead, as in SEPE itself).
            VerificationError: under ``verify="strict"``.
        """
        with self._admin_lock:
            route_id = f"r{self._route_serial}"
            self._route_serial += 1
            state = build_route_state(
                route_id,
                source,
                family=family or self.family,
                prefer_native=self.prefer_native,
                verify=self.verify,
                label=label,
            )
            self._install_table(self._table.added(state))
            return state

    def register_examples(
        self,
        keys: Iterable[KeyLike],
        family: Optional[HashFamily] = None,
        label: Optional[str] = None,
    ) -> RouteState:
        """Register a format inferred from example keys (Figure 5a)."""
        key_bytes = [as_key_bytes(key) for key in keys]
        return self.register(
            infer_pattern_fast(key_bytes), family=family, label=label
        )

    def _install_table(self, table: RouteTable) -> None:
        """Point every shard at a new snapshot (admin lock held).

        Three reference stores per shard (``table``, its lifted
        ``fast_map``, then an empty lane cache); a reader interleaving
        between them sees two complete snapshots at most one swap
        apart, which the stale-plan contract already permits.
        """
        self._table = table
        for shard in self._shards:
            shard.table = table
            shard.fast_map = table.fast
            shard.lanes = {}
        self._table_version.set(table.version)

    def swap_route(self, new_state: RouteState) -> None:
        """Install a replacement route state (the hot-swap commit).

        The caller (normally the reconciler) has already re-synthesized
        and verified; this method only swaps references, so traffic is
        never paused.
        """
        with self._admin_lock:
            self._install_table(self._table.with_route(new_state))
            self._swap_counter.inc()

    def observe_swap_latency(self, elapsed_ms: float) -> None:
        self._swap_latency.observe(elapsed_ms)

    # -- shard assignment ----------------------------------------------

    def shard_for_caller(self) -> Shard:
        """The calling thread's lane, bound on first use for life."""
        try:
            return self._tls.shard
        except AttributeError:
            return self._bind_caller()

    def _bind_caller(self) -> Shard:
        with self._admin_lock:
            index = self._assigned
            self._assigned += 1
            if index < self._lanes:
                shard = self._shards[index]
            else:
                if len(self._shards) == self._lanes:
                    self._shards = self._shards + [
                        self._new_lane(self._lanes, self._table, shared=True)
                    ]
                shard = self._shards[-1]
                self._promotions.inc()
        self._tls.shard = shard
        return shard

    # -- traffic --------------------------------------------------------

    def submit(self, key: bytes) -> None:
        """Streaming entry point: buffer, batch, deliver to the sink."""
        try:
            shard = self._tls.shard
        except AttributeError:
            shard = self._bind_caller()
        shard.submit(key)

    def submitter(self) -> Callable[[bytes], None]:
        """The calling thread's bound ``submit``, for tight loops.

        Equivalent to calling :meth:`submit` per key, minus the
        thread-local lookup and the service call frame — the pattern
        for producer threads that stream millions of keys::

            submit = service.submitter()   # once, on the producer
            for key in stream:
                submit(key)

        The binding stays valid across hot swaps (shards re-read their
        table snapshot per key).  On one of the first ``shards``
        threads it is the lock-free lane's ``submit``; on any later
        thread it is the overflow lane's locked ``submit``.
        """
        return self.shard_for_caller().submit

    def hash(self, key: bytes) -> int:
        """Synchronous scalar hash through the caller's lane."""
        return self.shard_for_caller().hash(key)

    def __call__(self, key: bytes) -> int:
        return self.shard_for_caller().hash(key)

    def hash_many(self, keys: Sequence[bytes]) -> List[int]:
        """Synchronous batch hash, grouped by route."""
        return self.shard_for_caller().hash_many(keys)

    def hash_many_array(self, keys: Sequence[bytes]):
        """Batch hash to a NumPy uint64 array, skipping list boxing.

        Raises:
            RuntimeError: when NumPy is unavailable.
        """
        if _np is None:
            raise RuntimeError("hash_many_array requires NumPy")
        return self.shard_for_caller().hash_many_array(keys)

    def flush(self) -> None:
        """Flush every shard's pending buffers.

        Intended at quiesce points (end of stream, shutdown): flushing
        an exclusive shard from another thread while its owner is
        mid-submit is outside the single-writer contract.
        """
        for shard in self._shards:
            shard.flush()

    # -- lifecycle ------------------------------------------------------

    def start(
        self,
        interval: float = 0.25,
        *,
        drift_min_keys: int = 64,
        affinity_threshold: float = 0.5,
    ):
        """Start the background reconciler; returns it.

        Raises:
            RuntimeError: when already started.
        """
        from repro.serve.reconciler import Reconciler

        with self._admin_lock:
            if self._reconciler is not None:
                raise RuntimeError("reconciler already running")
            reconciler = Reconciler(
                self,
                interval=interval,
                drift_min_keys=drift_min_keys,
                affinity_threshold=affinity_threshold,
            )
            self._reconciler = reconciler
        reconciler.start()
        return reconciler

    def stop(self) -> None:
        """Stop the reconciler (if running); traffic may continue."""
        with self._admin_lock:
            reconciler = self._reconciler
            self._reconciler = None
        if reconciler is not None:
            reconciler.stop()

    def __enter__(self) -> "HashService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
        self.flush()

    @property
    def reconciler(self):
        return self._reconciler

    @property
    def table(self) -> RouteTable:
        """The authoritative current snapshot."""
        return self._table

    @property
    def shards(self) -> List[Shard]:
        return list(self._shards)

    # -- introspection --------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Aggregate advisory snapshot across all shards.

        Counters are read without stopping traffic, so totals may lag
        in-flight operations by a few keys; the shape is stable::

            {
              "shards": [...per-shard snapshots...],
              "routes": [{"route_id", "label", "generation", "native",
                          "hashed", "qps"}, ...],
              "table_version": 3, "hashed": ..., "fallback": ...,
              "sampled": ..., "pending": ..., "qps": ...,
            }
        """
        table = self._table
        shard_snapshots = [shard.snapshot() for shard in self._shards]
        per_route: Dict[str, int] = {}
        for snapshot in shard_snapshots:
            for route_id, count in snapshot["routes"].items():
                per_route[route_id] = per_route.get(route_id, 0) + count
        elapsed = time.monotonic() - self._started_monotonic
        hashed = sum(snapshot["hashed"] for snapshot in shard_snapshots)
        routes = [
            {
                "route_id": route.route_id,
                "label": route.label,
                "generation": route.generation,
                "native": route.native,
                "hashed": per_route.get(route.route_id, 0),
                "qps": (
                    per_route.get(route.route_id, 0) / elapsed
                    if elapsed > 0
                    else 0.0
                ),
            }
            for route in table.routes
        ]
        return {
            "shards": shard_snapshots,
            "routes": routes,
            "table_version": table.version,
            "registered": len(table),
            "hashed": hashed,
            "fallback": sum(
                snapshot["fallback"] for snapshot in shard_snapshots
            ),
            "sampled": sum(
                snapshot["sampled"] for snapshot in shard_snapshots
            ),
            "pending": sum(
                snapshot["pending"] for snapshot in shard_snapshots
            ),
            "elapsed_seconds": elapsed,
            "qps": hashed / elapsed if elapsed > 0 else 0.0,
        }
