"""One serving shard: a single-writer submission lane with batch flushes.

The scaling mechanism of the serve layer is *not* "spread lock
contention thinner" — on a contended CPython lock the barging
implementation keeps throughput surprisingly flat across shard counts.
What sharding actually buys is the right to **elide the lock**: a shard
with exactly one registered submitter thread is a single-writer lane,
so its pending buffers, counters and sample lists can be plain Python
objects touched without synchronization, and every key costs one dict
probe, one list append and one counter add until the buffer fills and
one batched call — the native ``hash_many_array`` when the route has it
— amortizes the per-key cost to tens of nanoseconds.

The contract, precisely:

- **Exclusive shard** (``shared=False``): exactly one thread may call
  the submission/hash methods.  The service enforces this by
  assignment; the shard itself runs lock-free.
- **Shared shard** (``shared=True``): any number of threads; every
  operation takes the shard mutex.  Correct on any Python
  implementation — no reliance on GIL atomicity for compound updates.
- **Promotion** (exclusive → shared, when a second thread is assigned)
  uses a busy-flag handshake: the owner brackets every unlocked
  operation with ``busy``; :meth:`make_shared` flips ``shared`` and
  spins until the in-flight operation (if any) drains.  After that,
  every thread — the old owner included — sees ``shared`` and locks.

Route-table swaps need no handshake at all: shards read ``self.table``
once per operation, and the service replaces the whole immutable
:class:`~repro.core.routes.RouteTable` by reference.  Keys already
sitting in a pending buffer keep the :class:`RouteState` they resolved
under and are flushed through it — the stale plan serves until the
swap lands, never a torn mix of old offsets and new masks.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.routes import (
    RouteState,
    RouteTable,
    hash_columnar,
    hash_fallback,
)

SinkCallable = Callable[[Optional[RouteState], List[bytes], Sequence], None]
"""Receives every flushed batch: ``(route, keys, values)``; ``route`` is
None for fallback traffic.  ``values`` is a NumPy uint64 array when the
native array tier produced it — or, for fallback traffic, when the
fallback's row kernel (``fallback.lanes``) did — else a list of ints."""

DEFAULT_FLUSH_SIZE = 1024
"""Keys buffered per route before a batched flush; large enough to
amortize the Python→native boundary, small enough to bound latency."""

_NEVER_MASK = (1 << 62) - 1
"""Sampling mask that fires only every ~4.6e18 keys: effectively off."""


def sampling_mask(sample_every: int) -> int:
    """Round a sampling period up to a power of two, as an AND mask.

    ``position & mask == 0`` then holds for one key in ``mask + 1`` — a
    single AND on the hot path instead of a modulo.  The position is
    always a *per-route* ordinal (pending-buffer length on the
    streaming path, the route's cumulative count on the scalar path),
    never the shard-global tick: a global counter aliases against
    periodic traffic — a stream that strictly alternates two formats
    with a power-of-two period would sample only one of them — while a
    per-route ordinal samples every route at the configured rate
    regardless of interleaving.  ``0`` disables sampling.
    """
    if sample_every <= 0:
        return _NEVER_MASK
    period = 1
    while period < sample_every:
        period <<= 1
    return period - 1


class Shard:
    """A submission lane over a shared route-table snapshot.

    Not constructed directly in normal use — the
    :class:`~repro.serve.service.HashService` owns its shards, assigns
    submitter threads, and handles promotion.
    """

    def __init__(
        self,
        index: int,
        table: RouteTable,
        fallback: Callable[[bytes], int],
        *,
        flush_size: int = DEFAULT_FLUSH_SIZE,
        sample_every: int = 64,
        sink: Optional[SinkCallable] = None,
    ):
        self.index = index
        self.table = table
        # The length → route map, lifted out of the table so the hot
        # path pays one attribute load, not two.  The service stores
        # ``table`` and ``fast_map`` back to back on a swap; a reader
        # interleaving between the two stores sees one complete old
        # snapshot and one complete new one — both valid, and serving
        # one key through a just-replaced route is exactly the
        # stale-plan contract.
        self.fast_map = table.fast
        self.fallback = fallback
        self.flush_size = flush_size
        self.sample_mask = sampling_mask(sample_every)
        self.sink = sink
        self.lock = threading.Lock()
        self.shared = False
        self.busy = False
        # Hot-path state: plain objects, guarded by the single-writer
        # contract (exclusive) or by ``self.lock`` (shared).
        self.tick = 0
        self.hashed = 0
        self.fallback_count = 0
        self.sampled = 0
        self.pending: Dict[str, Tuple[RouteState, List[bytes]]] = {}
        self.fallback_pending: List[bytes] = []
        self.route_counts: Dict[str, int] = {}
        self.samples: Dict[str, List[bytes]] = {}
        self.unrouted_samples: List[bytes] = []

    # -- ownership ------------------------------------------------------

    def make_shared(self) -> None:
        """Promote to the locked discipline (second submitter arriving).

        Returns only after any in-flight unlocked operation has
        drained, so from the caller's perspective the shard is fully
        locked when this method returns.
        """
        if self.shared:
            return
        self.shared = True
        while self.busy:
            time.sleep(0)

    # -- streaming submission ------------------------------------------

    def submit(self, key: bytes) -> None:
        """Enqueue one key; hashes land at the sink in batched flushes."""
        if self.shared:
            with self.lock:
                self._submit(key)
            return
        self.busy = True
        if self.shared:  # promotion raced in between check and flag
            self.busy = False
            with self.lock:
                self._submit(key)
            return
        # Inlined mirror of _submit (keep in sync): the exclusive lane
        # is the throughput path, and the extra call frame per key is
        # measurable against a sub-microsecond budget.
        try:
            self.tick += 1
            route = self.fast_map.get(len(key))
            if route is None:
                self._submit_slow(key)
                return
            route_id = route.route_id
            entry = self.pending.get(route_id)
            if entry is None:
                entry = self.pending[route_id] = (route, [])
            buffer = entry[1]
            buffer.append(key)
            if not len(buffer) & self.sample_mask:
                samples = self.samples.get(route_id)
                if samples is None:
                    samples = self.samples[route_id] = []
                samples.append(key)
                self.sampled += 1
            if len(buffer) >= self.flush_size:
                self._flush_route(route_id, entry)
        finally:
            self.busy = False

    def _submit(self, key: bytes) -> None:
        self.tick += 1
        route = self.fast_map.get(len(key))
        if route is None:
            self._submit_slow(key)
            return
        route_id = route.route_id
        entry = self.pending.get(route_id)
        if entry is None:
            entry = self.pending[route_id] = (route, [])
        buffer = entry[1]
        buffer.append(key)
        if not len(buffer) & self.sample_mask:
            samples = self.samples.get(route_id)
            if samples is None:
                samples = self.samples[route_id] = []
            samples.append(key)
            self.sampled += 1
        if len(buffer) >= self.flush_size:
            self._flush_route(route_id, entry)

    def _submit_slow(self, key: bytes) -> None:
        """Contested-length and fallback submission (fast-map miss)."""
        route = self.table.resolve_checked(key)
        if route is None:
            buffer = self.fallback_pending
            buffer.append(key)
            if not len(buffer) & self.sample_mask:
                self.unrouted_samples.append(key)
                self.sampled += 1
            if len(buffer) >= self.flush_size:
                self._flush_fallback()
            return
        route_id = route.route_id
        entry = self.pending.get(route_id)
        if entry is None:
            entry = self.pending[route_id] = (route, [])
        buffer = entry[1]
        buffer.append(key)
        if not len(buffer) & self.sample_mask:
            samples = self.samples.get(route_id)
            if samples is None:
                samples = self.samples[route_id] = []
            samples.append(key)
            self.sampled += 1
        if len(buffer) >= self.flush_size:
            self._flush_route(route_id, entry)

    def _flush_route(
        self, route_id: str, entry: Tuple[RouteState, List[bytes]]
    ) -> None:
        del self.pending[route_id]
        route, keys = entry
        if route.batch_array is not None:
            values = route.batch_array(keys)
        else:
            values = route.batch(keys)
        self.hashed += len(keys)
        self._count_routed(route_id, len(keys))
        sink = self.sink
        if sink is not None:
            sink(route, keys, values)

    def _flush_fallback(self) -> None:
        keys = self.fallback_pending
        self.fallback_pending = []
        values = hash_fallback(self.fallback, keys)
        count = len(keys)
        self.hashed += count
        self.fallback_count += count
        sink = self.sink
        if sink is not None:
            sink(None, keys, values)

    def flush(self) -> None:
        """Flush every pending buffer through its batch tier.

        Owner-thread calls follow the usual discipline.  Calling from a
        *different* thread while an exclusive owner is actively
        submitting is not supported (the service only force-flushes at
        quiesce); on shared shards any thread may flush.
        """
        if self.shared:
            with self.lock:
                self._flush_all()
            return
        self.busy = True
        if self.shared:
            self.busy = False
            with self.lock:
                self._flush_all()
            return
        try:
            self._flush_all()
        finally:
            self.busy = False

    def _flush_all(self) -> None:
        for route_id, entry in list(self.pending.items()):
            self._flush_route(route_id, entry)
        if self.fallback_pending:
            self._flush_fallback()

    # -- synchronous hashing -------------------------------------------

    def hash(self, key: bytes) -> int:
        """Hash one key now (scalar tier), bypassing the pending buffers."""
        if self.shared:
            with self.lock:
                return self._hash(key)
        self.busy = True
        if self.shared:
            self.busy = False
            with self.lock:
                return self._hash(key)
        try:
            return self._hash(key)
        finally:
            self.busy = False

    def _hash(self, key: bytes) -> int:
        self.tick += 1
        route = self.fast_map.get(len(key))
        if route is None:
            route = self.table.resolve_checked(key)
        self.hashed += 1
        if route is None:
            self.fallback_count += 1
            if not self.fallback_count & self.sample_mask:
                self.unrouted_samples.append(key)
                self.sampled += 1
            return self.fallback(key)
        route_id = route.route_id
        count = self.route_counts.get(route_id, 0) + 1
        self.route_counts[route_id] = count
        if not count & self.sample_mask:
            self.samples.setdefault(route_id, []).append(key)
            self.sampled += 1
        return route.scalar(key)

    def hash_many(self, keys: Sequence[bytes]) -> List[int]:
        """Hash a batch now, positionally aligned (see
        :meth:`hash_many_array`)."""
        return self.hash_many_array(keys).tolist()

    def hash_many_array(self, keys: Sequence[bytes]):
        """Hash a batch now into a ``uint64`` array, through the shared
        columnar loop (:func:`~repro.core.routes.hash_columnar`): one
        batch call per length run a route owns, template resolution per
        key for contested lengths, the fallback for the rest."""
        if self.shared:
            with self.lock:
                return self._hash_many_array(keys)
        self.busy = True
        if self.shared:
            self.busy = False
            with self.lock:
                return self._hash_many_array(keys)
        try:
            return self._hash_many_array(keys)
        finally:
            self.busy = False

    def _hash_many_array(self, keys: Sequence[bytes]):
        count = len(keys)
        self.tick += count
        self.hashed += count
        return hash_columnar(self.table, keys, self.fallback, self._count_run)

    def _count_run(
        self, route: Optional[RouteState], count: int, _elapsed_ns: int
    ) -> None:
        if route is None:
            self.fallback_count += count
        else:
            self._count_routed(route.route_id, count)

    def _count_routed(self, route_id: str, count: int) -> None:
        self.route_counts[route_id] = (
            self.route_counts.get(route_id, 0) + count
        )

    # -- reconciler interface ------------------------------------------

    def drain_samples(
        self,
    ) -> Tuple[Dict[str, List[bytes]], List[bytes]]:
        """Detach and return the sample lists accumulated so far.

        Shared shards detach under the lock.  Exclusive shards detach
        by bare reference swap from the reconciler thread: the owner
        may concurrently append to a list the swap is about to drop, in
        which case that *sample* (not the key — the key was hashed
        normally) is lost.  Sampling is statistical by construction, so
        an occasionally dropped observation is an accepted cost of
        keeping the hot path lock-free; the monoid join is insensitive
        to duplicates and ordering either way.
        """
        if self.shared:
            with self.lock:
                return self._detach_samples()
        return self._detach_samples()

    def _detach_samples(
        self,
    ) -> Tuple[Dict[str, List[bytes]], List[bytes]]:
        samples, self.samples = self.samples, {}
        unrouted, self.unrouted_samples = self.unrouted_samples, []
        return samples, unrouted

    # -- introspection --------------------------------------------------

    def pending_count(self) -> int:
        return sum(
            len(entry[1]) for entry in self.pending.values()
        ) + len(self.fallback_pending)

    def snapshot(self) -> Dict[str, object]:
        """Advisory counters snapshot (may lag in-flight operations)."""
        return {
            "shard": self.index,
            "shared": self.shared,
            "submitted": self.tick,
            "hashed": self.hashed,
            "pending": self.pending_count(),
            "fallback": self.fallback_count,
            "sampled": self.sampled,
            "routes": dict(self.route_counts),
            "table_version": self.table.version,
        }
