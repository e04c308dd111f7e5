"""``std::unordered_set`` equivalent: unique keys, no mapped values."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.containers.base import HashTableBase


class UnorderedSet(HashTableBase):
    """A unique-key hash set with STL bucket semantics.

    >>> from repro.hashes import stl_hash_bytes
    >>> table = UnorderedSet(stl_hash_bytes)
    >>> table.insert(b"k")
    True
    >>> b"k" in table
    True
    """

    def __init__(
        self, hash_function, policy=None, telemetry=None, perfect=False
    ):
        """``perfect=True`` engages the certified no-collision fast path
        (a lookup compares the key of the first hash match only, with no
        chain walk); requires a :class:`~repro.perfect.PerfectHash` and
        stored keys from its certified closed key set.  Lookups of keys
        outside that set miss correctly."""
        super().__init__(
            hash_function,
            policy,
            allow_duplicates=False,
            telemetry=telemetry,
            assume_perfect=perfect,
        )

    def insert(self, key: bytes, value=None) -> bool:
        """Insert; returns False if already present.

        The unused ``value`` parameter keeps the four containers
        call-compatible for the benchmark driver.
        """
        return self._insert(key, None)

    def insert_many(self, keys: Iterable[bytes]) -> int:
        """Bulk insert with one upfront resize; returns the count
        actually inserted (duplicates are skipped)."""
        return self._insert_many((key, None) for key in keys)

    def find(self, key: bytes) -> bool:
        """Membership test (the driver's search operation)."""
        return self._find(key) is not None

    def erase(self, key: bytes) -> int:
        """Remove the key; returns 0 or 1."""
        return self._erase(key)

    def count(self, key: bytes) -> int:
        return self._count(key)

    def keys(self) -> Iterator[bytes]:
        """Iterate stored keys in bucket order."""
        for _hash, key, _value in self._iter_nodes():
            yield key

    def clear(self) -> None:
        """Remove every entry (STL ``clear``)."""
        self._clear()
