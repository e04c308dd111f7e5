"""Distinguishing-bit search for closed key sets.

The perfect tier's core question: which subset of the format's *live*
variable bits (the verifier's :func:`repro.verify.bit_report`, dead
lanes excluded) separates every key in the closed set?  Any such subset,
pext-packed into disjoint bottom-aligned lanes, is a collision-free hash
over the set by construction.

Two stages, in the spirit of PAPERS.md's SAT-based minimal-perfect-hash
construction but budgeted rather than complete:

1. **Greedy partition refinement** — repeatedly add the candidate bit
   that splits the most colliding signature groups, gperf's position
   search lifted from bytes to bits.  Fast, and usually lands within a
   bit or two of the information-theoretic floor ``ceil(log2 N)``.
2. **Budgeted exhaustive fallback** — when the greedy pick is above the
   floor, enumerate subsets of a ranked candidate pool from the floor
   upward (the CSP-style search), stopping at the first separating
   subset or when the evaluation budget runs dry; failing that, a
   drop-one local minimization pass tightens the greedy set.

Every signature evaluation is charged against a :class:`SearchBudget`,
so adversarial sets degrade to "best found so far", never to an
unbounded search.

Every stage runs on one ``uint8[keys, pool]`` bit matrix
(:func:`bit_matrix`, one vectorised extract from the joined keys).  The
greedy scores all candidate bits at once per step, by per-group
``reduceat`` over the colliding keys sorted by group; the exhaustive
and drop-one stages test subsets as masks over packed per-key
``uint64`` words, the exhaustive stage a batch of masks per NumPy call.
The budget is charged as if the evaluations ran one at a time — in
pool order, up to the first zero-excess bit or separating subset — so
the selection, strategy, evaluation count and exhaustion flag are those
of a one-bit-at-a-time search over per-key signatures (the differential
tests keep a reference copy of one).  On a 1,000-key MAC set the search
takes about 7 ms, against about 110 ms for the per-key signature search
(2-vCPU Xeon VM, Python 3.11, NumPy 2.4; EXPERIMENTS.md has the
per-stage figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, ceil, log2
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PerfectSearchError

__all__ = [
    "SearchBudget",
    "SearchOutcome",
    "bit_matrix",
    "group_splits",
    "select_distinguishing_bits",
]

MAX_HASH_BITS = 64
"""A selection wider than the accumulator cannot pack injectively."""


@dataclass
class SearchBudget:
    """Caps on the distinguishing-bit search.

    Attributes:
        max_evaluations: total per-key signature evaluations across all
            stages; the search degrades gracefully when it runs out.
        exhaustive_limit: subsets enumerated per target size in the
            exhaustive stage (on top of the evaluation cap).
        max_pool: candidate bits the exhaustive stage considers — the
            greedy-chosen bits first, then the best remaining ones; at
            most 64, the width of the per-key word it packs them into.
    """

    max_evaluations: int = 2_000_000
    exhaustive_limit: int = 50_000
    max_pool: int = 20

    evaluations: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_pool > MAX_HASH_BITS:
            raise ValueError(
                f"max_pool must be at most {MAX_HASH_BITS}, "
                f"got {self.max_pool}"
            )

    def charge(self, amount: int) -> bool:
        """Consume budget; False once the evaluation cap is exceeded."""
        self.evaluations += amount
        return self.evaluations <= self.max_evaluations

    @property
    def exhausted(self) -> bool:
        return self.evaluations > self.max_evaluations


@dataclass(frozen=True)
class SearchOutcome:
    """What the search settled on.

    Attributes:
        bits: selected key-bit indices (``byte * 8 + bit``), ascending.
        strategy: ``greedy`` | ``exhaustive`` | ``greedy+minimized``.
        evaluations: budget consumed (per-key signature evaluations).
        floor: the information-theoretic minimum ``ceil(log2 N)``.
        exhausted: the budget ran out before minimization finished.
    """

    bits: Tuple[int, ...]
    strategy: str
    evaluations: int
    floor: int
    exhausted: bool

    @property
    def minimal_count(self) -> bool:
        """Selection size hit the information-theoretic floor."""
        return len(self.bits) <= self.floor


def bit_matrix(keys: Sequence[bytes], pool: Sequence[int]) -> np.ndarray:
    """``uint8[len(keys), len(pool)]``: key ``i``'s value of pool bit ``j``.

    One vectorised extract from the joined key prefixes; every key must
    be long enough to index every pool bit.
    """
    columns = np.asarray(pool, dtype=np.intp)
    width = int(columns.max()) // 8 + 1 if len(columns) else 0
    rows = np.frombuffer(
        b"".join(key[:width] for key in keys), dtype=np.uint8
    ).reshape(len(keys), width)
    matrix = rows[:, columns >> 3]
    matrix >>= (columns & 7).astype(np.uint8)
    matrix &= 1
    return matrix


def _collision_groups(
    members: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The members sharing a label with another, sorted by label, and
    the offset where each label's group starts."""
    order = np.argsort(labels, kind="stable")
    members, labels = members[order], labels[order]
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    sizes = np.diff(starts, append=len(labels))
    shared = sizes > 1
    members = members[np.repeat(shared, sizes)]
    sizes = sizes[shared]
    return members, np.cumsum(sizes) - sizes


def group_splits(block: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``bool[groups, columns]``: does the column take both bit values
    within the group?  ``block``'s rows are sorted by group, and
    ``starts`` holds each group's first row."""
    highest = np.maximum.reduceat(block, starts, axis=0)
    return highest != np.minimum.reduceat(block, starts, axis=0)


def _affordable(budget: SearchBudget, amount: int) -> int:
    """How many ``charge(amount)`` calls succeed before one fails."""
    return max(0, (budget.max_evaluations - budget.evaluations) // amount)


def _greedy(
    matrix: np.ndarray, classes: Optional[np.ndarray], budget: SearchBudget
) -> Optional[List[int]]:
    """Partition refinement: grow the subset until every group is a
    singleton, picking the bit that leaves the fewest excess collisions.

    Every candidate column is scored at once over the colliding keys
    sorted by group (:func:`group_splits`), and each group a bit splits
    removes exactly one excess collision, so a bit's excess is
    ``current - splits``.  The scan is charged as a one-bit-at-a-time
    search charges it: in pool order, ``colliding`` per bit, stopping
    after the first bit that leaves no excess.  Returns the chosen
    column indices, or ``None`` when no candidate splits the remaining
    groups (keys identical on every pool bit) or the budget runs out
    first.
    """
    members = np.arange(len(matrix), dtype=np.intp)
    members, starts = _collision_groups(
        members, np.zeros_like(members) if classes is None else classes
    )
    chosen: List[int] = []
    available = list(range(matrix.shape[1]))
    while len(members):
        colliding = len(members)
        sizes = np.diff(starts, append=colliding)
        # Scoring every column, then keeping the available ones, is
        # cheaper than gathering the available columns first.
        splits = group_splits(matrix[members], starts).sum(axis=0)
        splits = splits[available]
        current = colliding - len(starts)  # excess collisions now
        perfect = np.flatnonzero(splits == current)
        scanned = int(perfect[0]) + 1 if len(perfect) else len(available)
        affordable = _affordable(budget, colliding)
        if affordable < scanned:
            budget.charge((affordable + 1) * colliding)
            return None
        budget.charge(scanned * colliding)
        if not scanned or not splits[:scanned].max():
            return None  # No bit makes progress: keys indistinguishable.
        column = available.pop(int(np.argmax(splits[:scanned])))
        chosen.append(column)
        group = np.repeat(np.arange(len(starts)), sizes)
        members, starts = _collision_groups(
            members, group * 2 + matrix[members, column]
        )
        if len(chosen) > MAX_HASH_BITS:
            return None
    return chosen


def _packed_words(matrix: np.ndarray, columns: Sequence[int]) -> np.ndarray:
    """One ``uint64`` per key: the value of ``columns[p]`` at bit ``p``."""
    words = np.zeros(len(matrix), dtype=np.uint64)
    for position, column in enumerate(columns):
        words |= matrix[:, column].astype(np.uint64) << np.uint64(position)
    return words


def _repeats(
    projections: np.ndarray, classes: Optional[np.ndarray]
) -> np.ndarray:
    """Per row of ``projections``: do two keys share a projection (and
    a class, when there are extra symbols)?

    Keys (the last axis) are in class order, so a stable sort by
    projection orders each row by (projection, class).
    """
    if classes is None:
        ordered = np.sort(projections, axis=-1)
        return (ordered[..., 1:] == ordered[..., :-1]).any(axis=-1)
    order = np.argsort(projections, axis=-1, kind="stable")
    ordered = np.take_along_axis(projections, order, axis=-1)
    ordered_classes = classes[order]
    return (
        (ordered[..., 1:] == ordered[..., :-1])
        & (ordered_classes[..., 1:] == ordered_classes[..., :-1])
    ).any(axis=-1)


def _combination_masks(width: int, size: int) -> np.ndarray:
    """Masks of every ``size``-subset of ``width`` positions, in the
    order of ``itertools.combinations(range(width), size)``.

    ``level[start]`` holds the ``s``-subsets of the positions from
    ``start`` on, built from ``s = 1`` up; a start whose prefix cannot
    hold the other ``size - s`` positions is skipped.
    """
    level = [np.zeros(1, dtype=np.uint64)] * (width + 1)
    for s in range(1, size + 1):
        grown = [np.zeros(0, dtype=np.uint64)] * (width + 1)
        for start in range(width - s, size - s - 1, -1):
            grown[start] = np.concatenate((
                level[start + 1] | np.uint64(1 << start),
                grown[start + 1],
            ))
        level = grown
    return level[0]


EXHAUSTIVE_BATCH_CELLS = 1 << 17
"""Subset-by-key cells the exhaustive stage tests per NumPy batch."""


def _exhaustive(
    chosen: List[int],
    pool: Sequence[int],
    matrix: np.ndarray,
    classes: Optional[np.ndarray],
    floor: int,
    budget: SearchBudget,
) -> Optional[List[int]]:
    """Enumerate subsets below the greedy size, smallest first.

    The candidate pool is the greedy selection followed by the remaining
    live bits (capped at ``budget.max_pool``); within the budget this is
    a complete search over that pool, so a hit is genuinely minimal for
    the sizes it finished.  Subsets are tested in batches of masks over
    per-key packed words, charged one key-set pass per subset in
    enumeration order up to the first hit.  ``chosen`` and the result
    are matrix columns.
    """
    chosen_bits = {pool[column] for column in chosen}
    ranked = chosen + [
        column for column, bit in enumerate(pool) if bit not in chosen_bits
    ]
    ranked = ranked[: budget.max_pool]
    words = None
    for size in range(max(floor, 1), len(chosen)):
        if comb(len(ranked), size) > budget.exhaustive_limit:
            # This size alone would blow the enumeration cap; larger
            # sizes only get worse.
            return None
        if words is None:
            words = _packed_words(matrix, ranked)
        count = len(words)
        masks = _combination_masks(len(ranked), size)
        # Batches double from one subset up to the cap, so an early hit
        # tests few subsets past it.
        first, step = 0, 1
        cap = max(1, EXHAUSTIVE_BATCH_CELLS // count)
        while first < len(masks):
            batch = masks[first : first + step]
            first, step = first + step, min(2 * step, cap)
            hits = np.flatnonzero(
                ~_repeats(words & batch[:, None], classes)
            )
            stop = int(hits[0]) if len(hits) else len(batch)
            affordable = _affordable(budget, count)
            if affordable < len(batch) and affordable <= stop:
                budget.charge((affordable + 1) * count)
                return None
            if len(hits):
                budget.charge((stop + 1) * count)
                mask = int(batch[stop])
                return [
                    column for position, column in enumerate(ranked)
                    if mask >> position & 1
                ]
            budget.charge(len(batch) * count)
    return None


def _minimize(
    chosen: List[int],
    matrix: np.ndarray,
    classes: Optional[np.ndarray],
    budget: SearchBudget,
) -> Tuple[List[int], bool]:
    """Drop-one local minimization of a separating set of columns."""
    words = _packed_words(matrix, chosen)
    count = len(words)
    kept = (1 << len(chosen)) - 1
    shrunk = False
    for position in reversed(range(len(chosen))):
        if bin(kept).count("1") <= 1:
            break
        candidate = kept & ~(1 << position)
        if not budget.charge(count):
            break
        if not _repeats(words & np.uint64(candidate), classes):
            kept = candidate
            shrunk = True
    return [
        column for position, column in enumerate(chosen)
        if kept >> position & 1
    ], shrunk


def select_distinguishing_bits(
    keys: Sequence[bytes],
    pool: Sequence[int],
    extra: Optional[Sequence] = None,
    budget: Optional[SearchBudget] = None,
) -> SearchOutcome:
    """Pick a small bit subset separating every key in the closed set.

    Args:
        keys: the closed key set (distinct; every key long enough to
            index every pool bit).
        pool: candidate key-bit indices — callers pass the verifier's
            *live* bits so constant bytes and dead lanes never enter.
        extra: optional per-key auxiliary symbols (length, tail fold for
            variable-length formats) that distinguish for free.
        budget: search caps; a default :class:`SearchBudget` when None.

    Raises:
        PerfectSearchError: when no subset of at most 64 pool bits
            separates the keys (or the budget dies before finding one).
    """
    budget = budget if budget is not None else SearchBudget()
    count = len(keys)
    floor = ceil(log2(count)) if count > 1 else 0
    if count <= 1:
        return SearchOutcome((), "greedy", budget.evaluations, floor, False)
    matrix = bit_matrix(keys, pool)
    # Extra symbols become class ids, and the keys are put in class
    # order: only keys of one class can collide.
    classes = None
    if extra is not None:
        ids: Dict = {}
        classes = np.array(
            [ids.setdefault(symbol, len(ids)) for symbol in extra],
            dtype=np.intp,
        )
        order = np.argsort(classes, kind="stable")
        matrix, classes = matrix[order], classes[order]
    chosen = _greedy(matrix, classes, budget)
    if chosen is None:
        detail = (
            "search budget exhausted"
            if budget.exhausted
            else f"no subset of the {len(pool)} live bit(s) separates "
            f"the {count} keys"
        )
        raise PerfectSearchError(
            f"cannot select distinguishing bits: {detail}"
        )
    strategy = "greedy"
    if len(chosen) > floor:
        smaller = _exhaustive(chosen, pool, matrix, classes, floor, budget)
        if smaller is not None:
            chosen = smaller
            strategy = "exhaustive"
        else:
            chosen, shrunk = _minimize(chosen, matrix, classes, budget)
            if shrunk:
                strategy = "greedy+minimized"
    return SearchOutcome(
        bits=tuple(sorted(pool[column] for column in chosen)),
        strategy=strategy,
        evaluations=budget.evaluations,
        floor=floor,
        exhausted=budget.exhausted,
    )
