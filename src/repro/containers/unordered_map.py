"""``std::unordered_map`` equivalent: unique keys mapped to values."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

from repro.containers.base import HashTableBase


class UnorderedMap(HashTableBase):
    """A unique-key hash map with STL bucket semantics.

    >>> from repro.hashes import stl_hash_bytes
    >>> table = UnorderedMap(stl_hash_bytes)
    >>> table.insert(b"alpha", 1)
    True
    >>> table.insert(b"alpha", 2)   # duplicate key rejected, like STL insert
    False
    >>> table.find(b"alpha")
    1
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

    # insert/erase *are* the base bodies, not wrappers around them: the
    # affectation loop saves one Python frame per operation.
    insert = HashTableBase._insert
    """Insert; returns False if the key already exists (STL insert)."""

    def insert_many(self, items: Iterable[Tuple[bytes, Any]]) -> int:
        """Bulk insert with one upfront resize; returns the count
        actually inserted (existing keys are skipped, like ``insert``)."""
        return self._insert_many(items)

    def update(self, items: Iterable[Tuple[bytes, Any]]) -> None:
        """Bulk ``operator[]``: insert-or-overwrite every pair, after a
        single upfront reservation for the incoming batch."""
        items = list(items)
        self.reserve(len(self) + len(items))
        for key, value in items:
            self.assign(key, value)

    def assign(self, key: bytes, value: Any) -> None:
        """``operator[]`` semantics: insert or overwrite."""
        self._erase(key)
        self._insert(key, value)

    def find(self, key: bytes) -> Optional[Any]:
        """The mapped value, or None when absent."""
        node = self._find(key)
        return node[2] if node is not None else None

    erase = HashTableBase._erase
    """Remove the key; returns 0 or 1."""

    def count(self, key: bytes) -> int:
        """0 or 1, like STL ``count`` on unique-key containers."""
        return self._count(key)

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        """Iterate (key, value) pairs in bucket order."""
        for _hash, key, value in self._iter_nodes():
            yield key, value

    def keys(self) -> Iterator[bytes]:
        """Iterate stored keys in bucket order."""
        for _hash, key, _value in self._iter_nodes():
            yield key

    def values(self) -> Iterator[Any]:
        """Iterate mapped values in bucket order."""
        for _hash, _key, value in self._iter_nodes():
            yield value

    def clear(self) -> None:
        """Remove every entry (STL ``clear``)."""
        self._clear()
