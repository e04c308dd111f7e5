"""Shared machinery for the unordered containers.

All four STL-style containers share one chained hash table.  Nodes store
the cached hash (like libstdc++'s ``_Hash_node`` with hash caching) so
rehashing never re-invokes the user hash, and lookups compare the cached
hash before the key — the behaviour B-Time measures.

The table is intentionally *not* built on Python ``dict``: the point of
this substrate is that bucket behaviour (and therefore B-Coll and
B-Time) is governed by the same policy as the paper's C++: chaining,
``hash % prime_bucket_count``, growth by prime doubling.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.containers.hashing_policy import PrimeRehashPolicy
from repro.obs.metrics import MetricsRegistry, get_registry

HashCallable = Callable[[bytes], int]


class ContainerTelemetry:
    """Online insert/chain/resize telemetry for one table.

    Created only when container telemetry is enabled (globally via
    :func:`repro.obs.enable_container_telemetry`, or per table with the
    ``telemetry`` constructor argument), so the disabled hot path costs
    one ``is not None`` check per insert and nothing per lookup.

    Counter and histogram instruments live in a metrics registry (the
    process-wide one by default), so several tables aggregate; the
    resize event list is per-table.
    """

    __slots__ = (
        "inserts",
        "resizes",
        "chain_on_insert",
        "resize_events",
        "perfect_fast_path_hits",
    )

    CHAIN_BUCKETS = (0, 1, 2, 3, 4, 8, 16, 32)

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else get_registry()
        self.inserts = registry.counter("containers.inserts")
        self.resizes = registry.counter("containers.resizes")
        self.chain_on_insert = registry.histogram(
            "containers.chain_length_on_insert", buckets=self.CHAIN_BUCKETS
        )
        self.perfect_fast_path_hits = registry.counter(
            "containers.perfect_fast_path_hits"
        )
        self.resize_events: List[Tuple[int, int, int]] = []

    def record_insert(self, chain_length: int) -> None:
        """One insert landed on a chain of ``chain_length`` prior nodes."""
        self.inserts.inc()
        self.chain_on_insert.observe(chain_length)

    def record_perfect_hit(self) -> None:
        """One lookup resolved on the certified-perfect fast path — the
        first hash match, with no chain walk past it."""
        self.perfect_fast_path_hits.inc()

    def record_resize(
        self, old_buckets: int, new_buckets: int, elements: int
    ) -> None:
        """The table grew from ``old_buckets`` to ``new_buckets``."""
        self.resizes.inc()
        self.resize_events.append((old_buckets, new_buckets, elements))

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of this table's telemetry."""
        return {
            "inserts": self.inserts.value,
            "resizes": self.resizes.value,
            "chain_on_insert": self.chain_on_insert.snapshot(),
            "resize_events": list(self.resize_events),
            "perfect_fast_path_hits": self.perfect_fast_path_hits.value,
        }


class HashTableBase:
    """A chained hash table with STL bucket semantics.

    Args:
        hash_function: the hash under test, ``bytes -> int``.
        policy: bucket growth policy (defaults to libstdc++'s).  The
            insert path inlines its ``needs_rehash`` test, reading
            ``max_load_factor``, and asks ``next_bucket_count`` for the
            new size.
        allow_duplicates: multimap/multiset behaviour when True.
        telemetry: a :class:`ContainerTelemetry` to record into; when
            None, one is attached automatically iff
            :func:`repro.obs.container_telemetry_enabled` — otherwise
            the table runs the zero-overhead no-op path.
        assume_perfect: opt into the no-collision fast path — a lookup
            stops at the first node whose cached hash matches and
            compares that one node's key: equal is a hit, anything else
            a miss, with no collision-chain walk past it.  Requires
            ``hash_function`` to carry a *certified*
            :class:`~repro.perfect.PerfectCertificate` (i.e. a
            :class:`~repro.perfect.PerfectHash`).  Lookups of any key
            are answered correctly; stored keys must belong to the
            certified closed set, where the hash is injective, so the
            first hash match is the only candidate.
    """

    __slots__ = (
        "_hash",
        "_policy",
        "_buckets",
        "_size",
        "_allow_duplicates",
        "_telemetry",
        "_assume_perfect",
    )

    _discard_bits = 0
    """Least-significant hash bits dropped before the bucket modulo: 0
    here (libstdc++'s plain ``hash % bucket_count``); the low-mixing
    container of RQ7 sets its own per instance."""

    def __init__(
        self,
        hash_function: HashCallable,
        policy: Optional[PrimeRehashPolicy] = None,
        allow_duplicates: bool = False,
        telemetry: Optional[ContainerTelemetry] = None,
        assume_perfect: bool = False,
    ):
        if assume_perfect:
            certificate = getattr(hash_function, "certificate", None)
            if certificate is None or not getattr(
                certificate, "certified", False
            ):
                raise ValueError(
                    "assume_perfect requires a hash carrying a certified "
                    "PerfectCertificate (see repro.perfect)"
                )
        self._hash = hash_function
        self._policy = policy or PrimeRehashPolicy()
        self._buckets: List[List[Tuple[int, bytes, Any]]] = [
            [] for _ in range(self._policy.initial_bucket_count())
        ]
        self._size = 0
        self._allow_duplicates = allow_duplicates
        self._assume_perfect = assume_perfect
        if telemetry is None:
            from repro.obs import container_telemetry_enabled

            if container_telemetry_enabled():
                telemetry = ContainerTelemetry()
        self._telemetry = telemetry

    # -- bucket mechanics ------------------------------------------------
    #
    # The hot paths (_insert, _find, _erase, _rehash) inline the bucket
    # rule of _bucket_index and the growth test of
    # PrimeRehashPolicy.needs_rehash: each saves a Python call per
    # operation, and the table's observables (bucket counts, chain
    # order, resize events) are exactly those of the helpers.

    def _bucket_index(self, hash_value: int) -> int:
        """Map a hash value to a bucket: ``(hash >> discard) % count``."""
        return (hash_value >> self._discard_bits) % len(self._buckets)

    def _rehash(self, new_count: int) -> None:
        """Redistribute every node over ``new_count`` fresh buckets,
        keeping each chain's relative order."""
        old_buckets = self._buckets
        buckets = self._buckets = [[] for _ in range(new_count)]
        discard = self._discard_bits
        for bucket in old_buckets:
            for node in bucket:
                buckets[(node[0] >> discard) % new_count].append(node)
        if self._telemetry is not None:
            self._telemetry.record_resize(
                len(old_buckets), new_count, self._size
            )

    def reserve(self, element_count: int) -> None:
        """Grow the table to hold ``element_count`` elements up front.

        One rehash straight to the target prime (STL ``reserve``),
        instead of the O(log n) doubling rehashes an element-at-a-time
        fill pays.  Shrinking is never performed.
        """
        target = self._policy.bucket_count_for(element_count)
        if target > len(self._buckets):
            self._rehash(target)

    # -- core operations -------------------------------------------------

    def _insert(self, key: bytes, value: Any) -> bool:
        """Insert a node; returns False for a rejected duplicate."""
        hash_value = self._hash(key)
        buckets = self._buckets
        bucket = buckets[(hash_value >> self._discard_bits) % len(buckets)]
        if not self._allow_duplicates:
            for node in bucket:
                if node[0] == hash_value and node[1] == key:
                    return False
        size = self._size
        if size + 1 > len(buckets) * self._policy.max_load_factor:
            self._rehash(
                self._policy.next_bucket_count(len(buckets), size)
            )
            buckets = self._buckets
            bucket = buckets[
                (hash_value >> self._discard_bits) % len(buckets)
            ]
        bucket.append((hash_value, key, value))
        self._size = size + 1
        if self._telemetry is not None:
            self._telemetry.record_insert(len(bucket) - 1)
        return True

    def _insert_many(self, items: Iterable[Tuple[bytes, Any]]) -> int:
        """Bulk insert with a single upfront reservation.

        Reserves capacity for every incoming item before the loop, so
        the per-item growth check never fires — one resize replaces the
        O(log n) a key-at-a-time fill performs.  Returns the number of
        items actually inserted (duplicates may be rejected, per the
        container's uniqueness rule).
        """
        items = list(items)
        self.reserve(self._size + len(items))
        insert = self._insert
        inserted = 0
        for key, value in items:
            if insert(key, value):
                inserted += 1
        return inserted

    def _find(self, key: bytes) -> Optional[Tuple[int, bytes, Any]]:
        hash_value = self._hash(key)
        buckets = self._buckets
        bucket = buckets[(hash_value >> self._discard_bits) % len(buckets)]
        if self._assume_perfect:
            # Certified-perfect hash: stored keys have distinct hashes,
            # so the first hash match is the only node that can hold
            # ``key``.  Its key is still compared: a key outside the
            # certified set may share a member's hash.
            for node in bucket:
                if node[0] == hash_value:
                    if node[1] != key:
                        return None
                    if self._telemetry is not None:
                        self._telemetry.record_perfect_hit()
                    return node
            return None
        for node in bucket:
            if node[0] == hash_value and node[1] == key:
                return node
        return None

    def _erase(self, key: bytes) -> int:
        """Erase all nodes equal to ``key`` (STL ``erase(key)`` semantics);
        returns the number removed."""
        hash_value = self._hash(key)
        buckets = self._buckets
        index = (hash_value >> self._discard_bits) % len(buckets)
        bucket = buckets[index]
        if not self._allow_duplicates:
            # Unique keys: at most one node matches.
            for position, node in enumerate(bucket):
                if node[0] == hash_value and node[1] == key:
                    del bucket[position]
                    self._size -= 1
                    return 1
            return 0
        kept = [
            node
            for node in bucket
            if not (node[0] == hash_value and node[1] == key)
        ]
        removed = len(bucket) - len(kept)
        if removed:
            buckets[index] = kept
            self._size -= removed
        return removed

    def _count(self, key: bytes) -> int:
        hash_value = self._hash(key)
        return sum(
            1
            for node in self._buckets[self._bucket_index(hash_value)]
            if node[0] == hash_value and node[1] == key
        )

    def _iter_nodes(self) -> Iterator[Tuple[int, bytes, Any]]:
        for bucket in self._buckets:
            yield from bucket

    def _clear(self) -> None:
        """Drop every node and shrink back to the initial bucket count."""
        self._buckets = [
            [] for _ in range(self._policy.initial_bucket_count())
        ]
        self._size = 0

    # -- observers ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: bytes) -> bool:
        return self._find(key) is not None

    @property
    def telemetry(self) -> Optional[ContainerTelemetry]:
        """The attached telemetry recorder, or None when disabled."""
        return self._telemetry

    @property
    def assume_perfect(self) -> bool:
        """True when the certified no-collision fast path is engaged."""
        return self._assume_perfect

    @property
    def bucket_count(self) -> int:
        """Current number of buckets."""
        return len(self._buckets)

    @property
    def load_factor(self) -> float:
        """Elements per bucket."""
        return self._size / len(self._buckets)

    def bucket_sizes(self) -> List[int]:
        """Size of every bucket, for collision statistics."""
        return [len(bucket) for bucket in self._buckets]

    def bucket_collisions(self) -> int:
        """The paper's B-Coll: extra chained nodes across all buckets.

        A bucket holding ``k`` nodes contributes ``k - 1`` collisions —
        the number of equality probes a worst-case lookup in that bucket
        pays beyond the first.
        """
        return sum(
            len(bucket) - 1 for bucket in self._buckets if len(bucket) > 1
        )

    def distinct_hash_values(self) -> int:
        """Number of distinct cached hash values currently stored."""
        return len({node[0] for bucket in self._buckets for node in bucket})

    def true_collisions(self) -> int:
        """The paper's T-Coll restricted to stored keys: distinct keys
        sharing a 64-bit hash value."""
        distinct_keys = len(
            {node[1] for bucket in self._buckets for node in bucket}
        )
        return distinct_keys - self.distinct_hash_values()
