"""The low-mixing container of RQ7 (Section 4.7).

The paper defines a *low-mixing container* as one whose bucket indexing
uses only part of the hash value.  The variant evaluated in Figures 17
and 18 indexes buckets by ``u % B`` where ``u`` is the hash with its
``X`` least-significant bits discarded — with ``X = 48``, every hash in
``[0, 2^48)`` lands in bucket 0.

SEPE's Naive/OffXor functions place key entropy in the low bits (their
xor of raw words leaves high bytes constant for short keys), so this
container is their worst case; Pext resists longer because its
compacting shifts push bits toward the top (Figure 12, step 3).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Tuple

from repro.containers.base import HashTableBase


class LowMixingMap(HashTableBase):
    """A unique-key map indexing buckets by the most-significant bits.

    Args:
        hash_function: the hash under test.
        discard_bits: how many least-significant bits to drop before the
            bucket modulo — the X axis of Figures 17 and 18.
    """

    __slots__ = ("_discard_bits",)

    def __init__(self, hash_function, discard_bits: int = 0, policy=None):
        if not 0 <= discard_bits < 64:
            raise ValueError(f"discard_bits out of range: {discard_bits}")
        # Assign before super().__init__: the base constructor sizes the
        # initial buckets, and any insert thereafter needs the field.
        self._discard_bits = discard_bits
        super().__init__(hash_function, policy, allow_duplicates=False)

    @property
    def discard_bits(self) -> int:
        """Least-significant bits dropped before bucket indexing."""
        return self._discard_bits

    def insert(self, key: bytes, value: Any = None) -> bool:
        """Insert; returns False if the key already exists."""
        return self._insert(key, value)

    def find(self, key: bytes) -> Optional[Any]:
        node = self._find(key)
        return node[2] if node is not None else None

    def erase(self, key: bytes) -> int:
        return self._erase(key)

    def items(self) -> Iterator[Tuple[bytes, Any]]:
        for _hash, key, value in self._iter_nodes():
            yield key, value
