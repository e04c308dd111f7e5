"""One serving shard: a submission lane with batch flushes.

The scaling mechanism of the serve layer is *not* "spread lock
contention thinner" — on a contended CPython lock the barging
implementation keeps throughput surprisingly flat across shard counts.
What sharding actually buys is the right to **elide the lock**: a shard
with exactly one submitter thread is a single-writer lane, so its
pending buffers, counters and sample lists can be plain Python objects
touched without synchronization, and every key costs one dict probe,
one list append and a length test until the buffer fills and one
batched call — the native ``hash_many_array`` when the route has it —
amortizes the per-key cost to tens of nanoseconds.

The contract, precisely — a lane's mode is fixed for its lifetime:

- **Exclusive lane** (``shared=False``): exactly one thread may call
  the submission/hash methods.  The service enforces this by binding
  one thread per lane for life; the shard itself runs lock-free.
- **Shared lane** (``shared=True``): any number of threads; the same
  method bodies run under the shard mutex, installed once at
  construction by one wrapper.  Correct on any Python implementation —
  no reliance on GIL atomicity for compound updates.

Drift sampling happens at flush, by slice: a flushed buffer yields
``keys[mask::mask + 1]``, which are exactly the keys whose 1-based
position ``p`` in the buffer satisfies ``p & mask == 0`` — the same
set a per-key test at submit would pick, at no per-key cost.

The one dict probe is the **lane cache**, ``lanes``: key length →
the pending buffer of the route that length resolves to.  A miss takes
the resolve path (``fast_map``, then the templates, then the fallback)
and caches the buffer only for a length ``fast_map`` owns, so
contested and unowned lengths never skip their template walk.  An entry
is right exactly while its buffer is pending and the length's owner is
unchanged, so two events clear the whole cache: a route flush (its
buffer is detached) and a table install (``HashService`` stores
``table``, ``fast_map``, then ``lanes = {}``).  The miss path reads
``fast_map`` before it resolves and checks it again after it caches: if
an install landed in between, the reset may have preceded the store, so
the miss path clears the cache itself.  A key submitted after an
install returns therefore resolves against the new table.

Route-table swaps need no handshake at all: the service replaces the
whole immutable :class:`~repro.core.routes.RouteTable` by reference.
Keys already sitting in a pending buffer keep the :class:`RouteState`
they resolved under and are flushed through it — the stale plan serves
until the swap lands, never a torn mix of old offsets and new masks.
A swap that changes a route's key length first flushes the route's
buffer, so a fixed-length route's buffer only holds keys of its length
and its flush hands the batch tier one ``uint8[n, L]`` row view of the
joined buffer instead of a key list.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.routes import (
    RouteState,
    RouteTable,
    hash_columnar,
    hash_fallback,
    row_view,
)
from repro.obs.metrics import MetricsRegistry, get_registry

SinkCallable = Callable[[Optional[RouteState], List[bytes], Sequence], None]
"""Receives every flushed batch: ``(route, keys, values)``; ``route`` is
None for fallback traffic.  ``values`` is a NumPy uint64 array when the
native array tier produced it — or, for fallback traffic, when the
fallback's row kernel (``fallback.lanes``) did — else a list of ints.
A sink that raises loses that batch: the shard counts it
(``serve.sink_errors``, ``serve.sink_dropped_keys``) and re-raises to
the submitter."""

DEFAULT_FLUSH_SIZE = 1024
"""Keys buffered per route before a batched flush; large enough to
amortize the Python→native boundary, small enough to bound latency."""

_NEVER_MASK = (1 << 62) - 1
"""Sampling mask that fires only every ~4.6e18 keys: effectively off."""

_LOCKED_METHODS = ("submit", "flush", "hash", "hash_many_array", "drain_samples")
"""The entry points a shared lane runs under its mutex."""


def sampling_mask(sample_every: int) -> int:
    """Round a sampling period up to a power of two, as an AND mask.

    ``position & mask == 0`` then holds for one key in ``mask + 1``.
    The position is always a *per-route* ordinal (position in the
    flushed buffer on the streaming path, the route's cumulative count
    on the scalar path), never a shard-global tick: a global counter
    aliases against periodic traffic — a stream that strictly
    alternates two formats with a power-of-two period would sample only
    one of them — while a per-route ordinal samples every route at the
    configured rate regardless of interleaving.  ``0`` disables
    sampling.
    """
    if sample_every <= 0:
        return _NEVER_MASK
    period = 1
    while period < sample_every:
        period <<= 1
    return period - 1


def _locked(lock: threading.Lock, method: Callable) -> Callable:
    @functools.wraps(method)
    def locked(*args):
        with lock:
            return method(*args)

    return locked


class Shard:
    """A submission lane over a shared route-table snapshot.

    Not constructed directly in normal use — the
    :class:`~repro.serve.service.HashService` owns its shards and binds
    submitter threads to them.
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
        shared: bool = False,
        registry: Optional[MetricsRegistry] = None,
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
        registry = registry if registry is not None else get_registry()
        self._sink_errors = registry.counter("serve.sink_errors")
        self._sink_dropped = registry.counter("serve.sink_dropped_keys")
        self.lock = threading.Lock()
        self.shared = shared
        if shared:
            for name in _LOCKED_METHODS:
                setattr(self, name, _locked(self.lock, getattr(self, name)))
        # Hot-path state: plain objects, guarded by the single-writer
        # contract (exclusive) or by ``self.lock`` (shared).
        self.hashed = 0
        self.fallback_count = 0
        self.sampled = 0
        self.pending: Dict[str, Tuple[RouteState, List[bytes]]] = {}
        # The lane cache: key length -> that length's pending buffer,
        # for lengths ``fast_map`` owns (see the module docstring).
        self.lanes: Dict[int, List[bytes]] = {}
        self.fallback_pending: List[bytes] = []
        self.route_counts: Dict[str, int] = {}
        self.samples: Dict[str, List[bytes]] = {}
        self.unrouted_samples: List[bytes] = []

    # -- streaming submission ------------------------------------------

    def submit(self, key: bytes) -> None:
        """Enqueue one key; hashes land at the sink in batched flushes."""
        buffer = self.lanes.get(len(key))
        if buffer is None:
            buffer = self._lane(key)
        buffer.append(key)
        if len(buffer) >= self.flush_size:
            self._flush_buffer(buffer)

    def _lane(self, key: bytes) -> List[bytes]:
        """The pending buffer for ``key`` on a lane-cache miss.

        Resolves through ``fast_map``, then the templates, then the
        fallback.  The route's buffer is cached under the key's length
        only when ``fast_map`` owns that length; contested and unowned
        lengths resolve again on every key.
        """
        fast_map = self.fast_map
        route = fast_map.get(len(key))
        owned = route is not None
        if not owned:
            route = self.table.resolve_checked(key)
            if route is None:
                return self.fallback_pending
        route_id = route.route_id
        entry = self.pending.get(route_id)
        if entry is not None and entry[0].key_length != route.key_length:
            # A swap changed the route's key length: the buffered keys
            # flush through the plan they resolved under first, so a
            # fixed-length buffer only ever holds keys of its length.
            self._flush_route(route_id, entry)
            entry = None
        if entry is None:
            entry = self.pending[route_id] = (route, [])
        buffer = entry[1]
        if owned:
            self.lanes[len(key)] = buffer
            if self.fast_map is not fast_map:
                # A table install landed since ``fast_map`` was read; its
                # reset may predate the store just made.
                self.lanes = {}
        return buffer

    def _flush_buffer(self, buffer: List[bytes]) -> None:
        """Flush the full pending buffer ``buffer``."""
        if buffer is self.fallback_pending:
            self._flush_fallback()
            return
        for route_id, entry in self.pending.items():
            if entry[1] is buffer:
                self._flush_route(route_id, entry)
                return

    def _sample(self, keys: List[bytes]) -> List[bytes]:
        """The keys the per-route sampling ordinal picks from a buffer."""
        mask = self.sample_mask
        picked = keys[mask :: mask + 1]
        self.sampled += len(picked)
        return picked

    def _flush_route(
        self, route_id: str, entry: Tuple[RouteState, List[bytes]]
    ) -> None:
        del self.pending[route_id]
        self.lanes = {}
        route, keys = entry
        picked = self._sample(keys)
        if picked:
            self.samples.setdefault(route_id, []).extend(picked)
        if route.batch_array is None:
            values = route.batch(keys)
        elif route.key_length is None:
            values = route.batch_array(keys)
        else:
            values = route.batch_array(
                row_view(b"".join(keys), 0, len(keys), route.key_length)
            )
        self.hashed += len(keys)
        self._count_routed(route_id, len(keys))
        self._deliver(route, keys, values)

    def _flush_fallback(self) -> None:
        keys = self.fallback_pending
        self.fallback_pending = []
        self.unrouted_samples.extend(self._sample(keys))
        values = hash_fallback(self.fallback, keys)
        count = len(keys)
        self.hashed += count
        self.fallback_count += count
        self._deliver(None, keys, values)

    def _deliver(
        self, route: Optional[RouteState], keys: List[bytes], values
    ) -> None:
        sink = self.sink
        if sink is None:
            return
        try:
            sink(route, keys, values)
        except BaseException:
            self._sink_errors.inc()
            self._sink_dropped.inc(len(keys))
            raise

    def flush(self) -> None:
        """Flush every pending buffer through its batch tier.

        Calling from a thread other than an exclusive lane's owner while
        that owner is actively submitting is not supported (the service
        only force-flushes at quiesce); on shared lanes any thread may
        flush.
        """
        for route_id, entry in list(self.pending.items()):
            self._flush_route(route_id, entry)
        if self.fallback_pending:
            self._flush_fallback()

    # -- synchronous hashing -------------------------------------------

    def hash(self, key: bytes) -> int:
        """Hash one key now (scalar tier), bypassing the pending buffers."""
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
        self.hashed += len(keys)
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

        Shared lanes detach under the lock.  Exclusive lanes detach by
        bare reference swap from the reconciler thread: the owner may
        concurrently extend a list the swap is about to drop, in which
        case those *samples* (not the keys — the keys were hashed
        normally) are lost.  Sampling is statistical by construction, so
        an occasionally dropped observation is an accepted cost of
        keeping the hot path lock-free; the monoid join is insensitive
        to duplicates and ordering either way.
        """
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
        pending = self.pending_count()
        return {
            "shard": self.index,
            "shared": self.shared,
            "submitted": self.hashed + pending,
            "hashed": self.hashed,
            "pending": pending,
            "fallback": self.fallback_count,
            "sampled": self.sampled,
            "routes": dict(self.route_counts),
            "table_version": self.table.version,
        }
