"""Pattern inference from example keys (Section 3.1, ``keybuilder``).

Given a set of representative keys, the inferred format is the
position-wise join of their quad sequences over the semilattice of
Definition 3.2.  Keys shorter than the longest example contribute ⊤ at the
positions they lack, which also makes the inferred pattern variable-length
whenever the examples disagree on length.

The join itself is one fold, :class:`~repro.core.fast_infer.PatternAccumulator`:
constant-bit masks folded with whole-key XOR/OR instead of one
Python-level lattice join per bit pair, which is what makes inferring a
format from a million-key corpus practical.  The reference per-quad join
(:func:`repro.core.quads.join_keys`) survives as the parity oracle,
pinned equal by the test suite on every corpus shape.

The paper stresses (Example 3.6) that examples must *exercise* every bit
that can vary: two well-chosen keys suffice for most formats, while a
biased sample (say, IPv4 addresses that all start with ``1``) would freeze
bits that actually vary.  Mischaracterizing variable bits as constant never
produces an incorrect hash — only one with more collisions (footnote 2).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.core.fast_infer import (
    KeyLike,
    PatternAccumulator,
    as_key_bytes,
    numpy_available,
)
from repro.core.pattern import KeyPattern
from repro.errors import EmptyKeySetError
from repro.obs.trace import span

_STREAM_CHUNK_KEYS = 1 << 16
"""Keys folded per accumulator update when streaming from a file."""

_COVERAGE_NUMPY_MIN_KEYS = 256
"""Below this, per-column ``np.unique`` costs more than the set loop."""


def infer_pattern(keys: Iterable[KeyLike]) -> KeyPattern:
    """Infer the :class:`KeyPattern` recognizing every example key.

    This is the join ``c_i = s_1[i] ∨ s_2[i] ∨ ... ∨ s_m[i]`` of
    Section 3.1, folded by one
    :class:`~repro.core.fast_infer.PatternAccumulator`.  The result is
    fixed-length when all examples share a length; otherwise
    ``min_length`` is the shortest example and ``max_length`` the
    longest.

    Raises:
        EmptyKeySetError: when ``keys`` is empty.
        TypeError: for a key that is neither ``str`` nor bytes.

    >>> pattern = infer_pattern(["JFK", "LAX", "GRU"])
    >>> pattern.is_fixed_length
    True
    >>> pattern.num_bytes
    3
    """
    if not isinstance(keys, (list, tuple)):
        keys = list(keys)
    with span("inference.join", keys=len(keys)):
        return PatternAccumulator().update(keys).finish()


def infer_pattern_from_file(path: str) -> KeyPattern:
    """Infer a pattern from a newline-separated file of example keys.

    Blank lines are ignored; trailing newlines are stripped (they are not
    part of the key format).  This backs the paper's command line
    ``keybuilder < file_with_keys.txt`` (Figure 5a).

    The file is *streamed*: keys fold into a
    :class:`~repro.core.fast_infer.PatternAccumulator` chunk by chunk,
    so corpora larger than memory infer in bounded space.

    Raises:
        EmptyKeySetError: when the file holds no non-blank line.
    """
    accumulator = PatternAccumulator()
    with span("inference.stream", path=path):
        chunk: List[bytes] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                key = line.rstrip("\n")
                if not key:
                    continue
                chunk.append(key.encode("utf-8"))
                if len(chunk) >= _STREAM_CHUNK_KEYS:
                    accumulator.update(chunk)
                    chunk = []
        if chunk:
            accumulator.update(chunk)
    return accumulator.finish()


def _coverage_report_reference(key_bytes: Sequence[bytes]) -> List[int]:
    """The original per-position set loop; kept as the parity oracle."""
    max_len = max(len(key) for key in key_bytes)
    counts = []
    for index in range(max_len):
        seen = {key[index] for key in key_bytes if index < len(key)}
        counts.append(len(seen))
    return counts


def coverage_report(keys: Sequence[KeyLike]) -> List[int]:
    """Report, per byte position, how many distinct byte values appear.

    A position with a single distinct value across all examples will be
    inferred constant; this helper lets users check whether their example
    set is "good" in the sense of Example 3.6 before synthesizing.

    Large corpora take a NumPy path (keys bucketed by length, columns
    reduced with ``np.unique``), which touches each key once instead of
    once per position.
    """
    key_bytes = [as_key_bytes(key) for key in keys]
    if not key_bytes:
        raise EmptyKeySetError("cannot analyze zero examples")
    if numpy_available() and len(key_bytes) >= _COVERAGE_NUMPY_MIN_KEYS:
        return _coverage_report_numpy(key_bytes)
    return _coverage_report_reference(key_bytes)


def _coverage_report_numpy(key_bytes: Sequence[bytes]) -> List[int]:
    """Column-wise distinct-byte counts via per-length matrices."""
    import numpy as np

    by_length = {}
    for key in key_bytes:
        by_length.setdefault(len(key), []).append(key)
    max_len = max(by_length)
    column_values: List[set] = [set() for _ in range(max_len)]
    for length, group in by_length.items():
        if length == 0:
            continue
        matrix = np.frombuffer(b"".join(group), dtype=np.uint8)
        matrix = matrix.reshape(len(group), length)
        for column in range(length):
            column_values[column].update(
                np.unique(matrix[:, column]).tolist()
            )
    return [len(values) for values in column_values]
