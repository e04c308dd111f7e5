"""Bitwise-parallel pattern inference: the quad join as word-level ops.

The reference ``keybuilder`` path (:func:`repro.core.quads.join_keys`)
performs one lattice join per bit pair per key — four Python calls per
byte.  This module computes the *exact* same join with two machine
operations per key, using the observation that a quad stays concrete
across a corpus iff **both of its bits are constant**, and a bit is
constant iff ``key_i XOR key_0`` is zero at that bit for every ``i``.
The whole position-wise join therefore collapses to

    diff |= int(key_i) ^ int(key_0)        # over whole-key words

after which ``~diff`` marks the constant bits and the first key supplies
their values.  Variable-length corpora need no special lattice handling:
a byte position is joined with ⊤ by every key too short to reach it, so
only positions below the *shortest* key can stay concrete — the fold
keeps prefixes of ``min_length`` bytes and pads the tail with ⊤.

One fold computes it: :class:`PatternAccumulator`.  The join is a
commutative monoid, so chunk-level ``(base, diff, min, max)`` states
combine in any order — successive :meth:`~PatternAccumulator.update`
chunks stream a corpus that does not fit in memory, and
:meth:`~PatternAccumulator.merge` joins states built elsewhere.  Each
``update`` scans the chunk's key lengths once: a chunk of equal-length
byte keys reduces its ``uint8[n, L]`` matrix column by column in NumPy
(``or ^ and`` is exactly the difference mask), and any other chunk takes
a big-int XOR/OR fold.  ``tests/core/test_fast_infer.py`` pins both
byte-for-byte against the reference join.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

from repro.core.pattern import KeyPattern
from repro.core.quads import _BYTE_QUADS, QUADS_PER_BYTE, Quad
from repro.errors import EmptyKeySetError

try:  # NumPy is optional everywhere in this codebase; gate, never require.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None

KeyLike = Union[str, bytes]

_NUMPY_MIN_KEYS = 64
"""Below this chunk size the matrix copy costs more than it saves."""

_SATURATION_STRIDE = 1 << 12
"""How often the big-int fold checks whether every bit already varies."""


def as_key_bytes(key: KeyLike) -> bytes:
    """Accept str or bytes keys; strings are encoded as UTF-8."""
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, (bytes, bytearray)):
        return bytes(key)
    raise TypeError(f"keys must be str or bytes, got {type(key).__name__}")


def numpy_available() -> bool:
    """True when the NumPy column-reduce path can run at all."""
    return _np is not None


# -- mask <-> quad expansion ------------------------------------------------


def _expand_quads(
    base: bytes, diff: int, min_len: int, max_len: int
) -> List[Quad]:
    """Expand a (first-key prefix, difference mask) pair into quads.

    ``diff`` covers the ``min_len``-byte prefix in big-endian order
    (bit 0 = least-significant bit of the last prefix byte); a quad is
    concrete iff both of its bits are clear in ``diff``.  Bytes past
    ``min_len`` were joined with ⊤ by some key and pad out as ⊤.
    """
    quads: List[Quad] = []
    if min_len:
        table = _BYTE_QUADS
        for base_byte, diff_byte in zip(base, diff.to_bytes(min_len, "big")):
            if diff_byte == 0:
                quads.extend(table[base_byte])
            else:
                for shift in (6, 4, 2, 0):
                    if (diff_byte >> shift) & 3:
                        quads.append(None)
                    else:
                        quads.append((base_byte >> shift) & 3)
    if max_len > min_len:
        quads.extend([None] * (QUADS_PER_BYTE * (max_len - min_len)))
    return quads


# -- the streaming accumulator ----------------------------------------------


AccumulatorState = Tuple[int, int, int, bytes, int]
"""Picklable snapshot: (count, min_len, max_len, base_prefix, diff)."""


class PatternAccumulator:
    """Mergeable, streaming state for the quad-semilattice join.

    The join of Section 3.1 is a commutative, associative, idempotent
    fold, so partial joins computed over any partition of a corpus —
    successive :meth:`update` chunks, or :meth:`merge`-d states from
    other shards — finish to the same :class:`KeyPattern` as one
    monolithic join.  State is four scalars and one short prefix:

    - ``base``: the ``min_length``-byte prefix of the first key seen;
    - ``diff``: big-endian int over that prefix, set where any key
      disagreed with ``base`` (⊤ bits);
    - ``min_length`` / ``max_length``: the observed length range;
    - ``count``: keys folded so far (only emptiness matters).
    """

    __slots__ = ("_count", "_min_len", "_max_len", "_base", "_base_int",
                 "_diff")

    def __init__(self) -> None:
        self._count = 0
        self._min_len = 0
        self._max_len = 0
        self._base = b""
        self._base_int = 0
        self._diff = 0

    # -- introspection ------------------------------------------------------

    @property
    def count(self) -> int:
        """Number of keys folded into this state."""
        return self._count

    @property
    def min_length(self) -> int:
        """Shortest key seen (0 before the first update)."""
        return self._min_len

    @property
    def max_length(self) -> int:
        """Longest key seen (0 before the first update)."""
        return self._max_len

    # -- state transport -----------------------------------------------------

    def state(self) -> AccumulatorState:
        """Snapshot as a plain tuple (see :meth:`from_state`)."""
        return (
            self._count,
            self._min_len,
            self._max_len,
            self._base,
            self._diff,
        )

    @classmethod
    def from_state(cls, state: AccumulatorState) -> "PatternAccumulator":
        """Rebuild an accumulator from a :meth:`state` snapshot."""
        acc = cls()
        count, min_len, max_len, base, diff = state
        acc._count = count
        acc._min_len = min_len
        acc._max_len = max_len
        acc._base = base
        acc._base_int = int.from_bytes(base, "big")
        acc._diff = diff
        return acc

    # -- folding -------------------------------------------------------------

    def _truncate(self, new_min: int) -> None:
        """Shrink the tracked prefix when a shorter key arrives.

        Big-endian layout makes truncation a right shift: dropping the
        trailing bytes of the prefix drops the low-order bits.
        """
        drop = 8 * (self._min_len - new_min)
        self._base = self._base[:new_min]
        self._base_int >>= drop
        self._diff >>= drop
        self._min_len = new_min

    def update(self, keys: Iterable[KeyLike]) -> "PatternAccumulator":
        """Fold a chunk of keys into the state; returns ``self``.

        A list or tuple of at least ``_NUMPY_MIN_KEYS`` byte keys that
        all share one length takes the NumPy column reduction; every
        other chunk takes the big-int fold.  ``str`` keys are encoded
        as UTF-8.

        Raises:
            TypeError: for a key that is neither ``str`` nor bytes.
        """
        if (
            _np is not None
            and isinstance(keys, (list, tuple))
            and len(keys) >= _NUMPY_MIN_KEYS
            and self._update_columns(keys)
        ):
            return self
        base_int = self._base_int
        min_len = self._min_len
        max_len = self._max_len
        diff = self._diff
        count = self._count
        full = (1 << (8 * min_len)) - 1
        saturated = count > 0 and diff == full
        for key in keys:
            if not isinstance(key, bytes):
                key = as_key_bytes(key)
            length = len(key)
            if count == 0:
                self._base = key
                base_int = int.from_bytes(key, "big")
                min_len = max_len = length
                full = (1 << (8 * length)) - 1
                count = 1
                continue
            count += 1
            if length < min_len:
                drop = 8 * (min_len - length)
                self._base = self._base[:length]
                base_int >>= drop
                diff >>= drop
                min_len = length
                full = (1 << (8 * length)) - 1
                saturated = diff == full
            elif length > max_len:
                max_len = length
            if saturated or not min_len:
                continue
            key_int = int.from_bytes(key, "big")
            if length > min_len:
                key_int >>= 8 * (length - min_len)
            diff |= key_int ^ base_int
            if not (count & (_SATURATION_STRIDE - 1)) and diff == full:
                saturated = True
        self._count = count
        self._min_len = min_len
        self._max_len = max_len
        self._base_int = base_int
        self._diff = diff
        return self

    def _update_columns(self, keys: Sequence[KeyLike]) -> bool:
        """NumPy column reduction; False when the chunk does not qualify.

        One ``bytes(map(len, keys))`` scan and a ``count`` decide, as in
        :func:`repro.core.routes.length_runs` (a first and a last key of
        different lengths decide without it): *every* key must be ``L``
        bytes long for one ``0 < L < 256`` (lengths that merely sum to
        ``n * L`` do not make rows), and every key must join as bytes
        (a ``str`` key does not).  Per column, ``or ^ and`` is the set of
        bits that vary within the chunk, which merges into the running
        state exactly like a sub-accumulator would.
        """
        count = len(keys)
        try:
            length = len(keys[0])
            if length != len(keys[-1]):  # ragged: no need to scan
                return False
            lengths = bytes(map(len, keys))
        except (TypeError, ValueError):  # a non-key, or 256+ bytes long
            return False
        if not length or lengths.count(length) != count:
            return False
        try:
            joined = b"".join(keys)
        except TypeError:  # a str key
            return False
        if len(joined) != count * length:  # a buffer of wider items
            return False
        matrix = _np.frombuffer(joined, dtype=_np.uint8).reshape(count, length)
        varying = _np.bitwise_or.reduce(matrix, axis=0)
        varying ^= _np.bitwise_and.reduce(matrix, axis=0)
        diff = int.from_bytes(varying.tobytes(), "big")
        self.merge(
            PatternAccumulator.from_state(
                (count, length, length, joined[:length], diff)
            )
        )
        return True

    def merge(self, other: "PatternAccumulator") -> "PatternAccumulator":
        """Fold another accumulator's state into this one; returns ``self``.

        ``a.update(X).merge(b.update(Y))`` finishes identically to
        ``a.update(X + Y)`` — the monoid law that chunked streaming, the
        drift monitor and the parity tests rely on.
        """
        if other._count == 0:
            return self
        if self._count == 0:
            self._count = other._count
            self._min_len = other._min_len
            self._max_len = other._max_len
            self._base = other._base
            self._base_int = other._base_int
            self._diff = other._diff
            return self
        new_min = min(self._min_len, other._min_len)
        if self._min_len > new_min:
            self._truncate(new_min)
        drop = 8 * (other._min_len - new_min)
        other_base = other._base_int >> drop
        self._diff |= (other._diff >> drop) | (self._base_int ^ other_base)
        self._max_len = max(self._max_len, other._max_len)
        self._count += other._count
        return self

    # -- finishing -----------------------------------------------------------

    def joined_quads(self) -> List[Quad]:
        """The position-wise join so far, as :func:`join_keys` lists it."""
        if self._count == 0:
            return []
        return _expand_quads(
            self._base, self._diff, self._min_len, self._max_len
        )

    def finish(self) -> KeyPattern:
        """Close the fold and build the inferred :class:`KeyPattern`.

        Raises:
            EmptyKeySetError: when no key was ever folded in.
        """
        if self._count == 0:
            raise EmptyKeySetError(
                "cannot infer a pattern from zero examples"
            )
        return KeyPattern(
            quads=tuple(self.joined_quads()),
            min_length=self._min_len,
            max_length=self._max_len,
        )


def join_keys_fast(keys: Sequence[KeyLike]) -> List[Quad]:
    """Drop-in, bit-exact replacement for :func:`repro.core.quads.join_keys`."""
    return PatternAccumulator().update(keys).joined_quads()
