"""``synthesize_perfect``: collision-free hashes for closed key sets.

The pipeline mirrors ordinary synthesis — pattern, plan, IR, compiled
callable — but the plan is *searched*, not derived: seed the candidate
pool from the verifier's live-bit report (constant bytes and dead lanes
never enter), select a distinguishing subset
(:mod:`repro.perfect.search`), pext-pack it into disjoint bottom-aligned
lanes, and exhaustively certify the result
(:mod:`repro.perfect.certificate`).  The emitted
:class:`~repro.core.plan.SynthesisPlan` is ordinary in every respect —
it flows through the interpreter, both backends, the NumPy batch
lowering, the native JIT, and the compile cache unchanged — except for
its ``perfect`` flag, which the ``perfect-claim`` lint audits.

Fallback ladder, each rung certified or refused:

1. disjoint shift-packed lanes over the selected bits (fixed length:
   injective on the set by construction, so no collision check runs;
   variable length: tail-fold xor may alias, so each round evaluates
   the plan on every key and adds split bits until it is clean);
2. rotation-folded lanes over all live bits with searched rotation
   assignments (the "mixer" search) when packing cannot work;
3. refusal (:class:`~repro.errors.PerfectSearchError`) — never an
   uncertified "perfect" hash.

On a fixed-length set, :func:`~repro.perfect.certificate.certify` is
the one pass that runs the interpreter over the keys: before it, the
format check reads the keys as one ``uint8[keys, L]`` array and the
search reads one bit matrix.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.analysis import analyze_fixed_loads, analyze_variable_loads
from repro.core.inference import infer_pattern
from repro.core.masks import extraction_masks, fold_rotations
from repro.core.pattern import KeyPattern
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SkipTable,
    SynthesisPlan,
)
from repro.core.regex_expand import pattern_from_regex
from repro.core.regex_render import render_regex
from repro.core.synthesis import (
    SynthesizedHash,
    VERIFY_MODES,
    build_plan,
    compile_python,
)
from repro.errors import PerfectSearchError, SynthesisError
from repro.obs.metrics import get_registry
from repro.obs.trace import span
from repro.perfect.certificate import (
    PerfectCertificate,
    certify,
    evaluate_plan,
)
from repro.perfect.search import (
    MAX_HASH_BITS,
    SearchBudget,
    SearchOutcome,
    bit_matrix,
    group_splits,
    select_distinguishing_bits,
)
from repro.verify.bit_report import bit_report

__all__ = ["PerfectHash", "synthesize_perfect"]

KeyLike = Union[bytes, str]

ROTATION_ATTEMPTS = 64
"""Seeded rotation assignments tried in the mixer fallback."""

REPAIR_ROUNDS = 16
"""Bound on add-a-bit repair iterations for tail-fold aliasing."""


@dataclass
class PerfectHash(SynthesizedHash):
    """A synthesized hash certified collision-free on its closed set.

    Everything a :class:`~repro.core.synthesis.SynthesizedHash` is —
    callable, batchable, native-JIT-able — plus the
    :class:`~repro.perfect.certificate.PerfectCertificate` binding it to
    the key set it was searched for.  Containers consult the
    certificate to engage their no-collision fast path.
    """

    certificate: Optional[PerfectCertificate] = field(
        default=None, compare=False
    )

    def __repr__(self) -> str:
        cert = self.certificate
        detail = (
            f"keys={cert.key_count}, hash_bits={cert.hash_bits}, "
            f"load_factor={cert.load_factor:.3g}"
            if cert is not None
            else "uncertified"
        )
        return (
            f"PerfectHash(format={self.plan.pattern_regex!r}, {detail})"
        )

    @property
    def container_function(self):
        """The bare compiled callable with the certificate attached.

        What you hand to ``UnorderedSet(..., perfect=True)``: the
        container validates the certificate at construction but calls
        the hash on every lookup, so the fast path should not pay the
        dataclass ``__call__`` indirection per key.
        """
        function = self.function
        function.certificate = self.certificate
        return function


def _normalize_keys(keys: Iterable[KeyLike]) -> List[bytes]:
    encoded = [
        key.encode("utf-8") if isinstance(key, str) else bytes(key)
        for key in keys
    ]
    deduped = list(dict.fromkeys(encoded))
    if not deduped:
        raise SynthesisError(
            "perfect synthesis requires at least one key"
        )
    return deduped


def _resolve_format(
    keys: Sequence[bytes], source: Optional[Union[str, KeyPattern]]
) -> KeyPattern:
    if source is None:
        pattern = infer_pattern(keys)
    elif isinstance(source, KeyPattern):
        pattern = source
    elif isinstance(source, str):
        pattern = pattern_from_regex(source)
    else:
        raise TypeError(
            f"format must be a regex string or KeyPattern, "
            f"got {type(source).__name__}"
        )
    length = pattern.body_length
    suspects: Sequence[bytes] = keys
    if pattern.is_fixed_length and {len(key) for key in keys} == {length}:
        # One uint8[keys, L] view against the per-column template;
        # only keys it flags go through the per-key match below.
        templates = pattern.byte_patterns()
        masks = np.array([t.const_mask for t in templates], dtype=np.uint8)
        values = np.array([t.const_value for t in templates], dtype=np.uint8)
        rows = np.frombuffer(b"".join(keys), dtype=np.uint8).reshape(
            len(keys), length
        )
        offending = ((rows & masks) != values).any(axis=1)
        suspects = [keys[index] for index in np.flatnonzero(offending)]
    for key in suspects:
        if not pattern.matches(key):
            raise SynthesisError(
                f"key {key!r} does not match the format "
                f"{render_regex(pattern)!r}; a perfect hash is only "
                f"meaningful over conforming keys"
            )
    return pattern


def _tail_fold(key: bytes, start: int) -> int:
    """The exact value ``tail_xor`` folds in for this key (interp.py)."""
    acc = 0
    position = start
    length = len(key)
    while position + 8 <= length:
        acc ^= int.from_bytes(key[position : position + 8], "little")
        position += 8
    if position < length:
        acc ^= int.from_bytes(key[position:length], "little")
    return acc


def _structured_layout(
    pattern: KeyPattern,
) -> Tuple[List[int], Optional[SkipTable]]:
    if pattern.is_fixed_length:
        return analyze_fixed_loads(pattern), None
    table, offsets = analyze_variable_loads(pattern)
    return offsets, table


def _selected_masks(
    pattern: KeyPattern, offsets: List[int], bits: Sequence[int]
) -> List[int]:
    """Per-word pext masks restricted to the selected bits.

    The full extraction masks assign each variable bit to exactly one
    word (the trailing-overlap rule), so intersecting them with the
    selection keeps every selected bit extracted exactly once.
    """
    wanted = set(bits)
    full = extraction_masks(pattern, offsets)
    masks: List[int] = []
    for offset, mask in zip(offsets, full):
        selected = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            local = low.bit_length() - 1
            if offset * 8 + local in wanted:
                selected |= low
            remaining ^= low
        masks.append(selected)
    return masks


def _packed_plan(
    pattern: KeyPattern,
    regex: str,
    bits: Sequence[int],
    final_mix: bool,
) -> SynthesisPlan:
    """Disjoint bottom-packed lanes over the selected bits (rung 1).

    Unlike the standard Pext packing, the last lane is *not* pushed to
    the top of the word: keeping the pack bottom-aligned keeps every
    hash value below ``2**len(bits)``, which is what makes the range
    (and thus minimality / load factor) claimable.
    """
    offsets, table = _structured_layout(pattern)
    masks = _selected_masks(pattern, offsets, bits)
    loads: List[LoadOp] = []
    cumulative = 0
    for offset, mask in zip(offsets, masks):
        if not mask:
            continue
        loads.append(LoadOp(offset, mask=mask, shift=cumulative))
        cumulative += bin(mask).count("1")
    if cumulative != len(set(bits)):
        raise PerfectSearchError(
            f"selected bits escaped the extraction masks "
            f"({cumulative} packed != {len(set(bits))} selected)"
        )
    if not loads:
        raise PerfectSearchError(
            "no selected bits to pack (empty selection)"
        )
    covers_all = pattern.is_fixed_length and cumulative == sum(
        bin(mask).count("1") for mask in extraction_masks(pattern, offsets)
    )
    return SynthesisPlan(
        family=HashFamily.PEXT,
        key_length=pattern.body_length if pattern.is_fixed_length else None,
        loads=tuple(loads),
        skip_table=table,
        combine=CombineOp.OR,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=covers_all and cumulative <= MAX_HASH_BITS,
        pattern_regex=regex,
        final_mix=final_mix,
        perfect=True,
    )


def _rotation_plan(
    pattern: KeyPattern,
    regex: str,
    rotations: Sequence[int],
    final_mix: bool,
) -> SynthesisPlan:
    """Rotation-folded lanes over *all* live bits (rung 2, the mixer)."""
    offsets, table = _structured_layout(pattern)
    masks = extraction_masks(pattern, offsets)
    pairs = [
        (offset, mask)
        for offset, mask in zip(offsets, masks)
        if mask
    ]
    loads = tuple(
        LoadOp(offset, mask=mask, rotate=rotation % 64)
        for (offset, mask), rotation in zip(pairs, rotations)
    )
    if not loads:
        raise PerfectSearchError("format has no variable bits to fold")
    return SynthesisPlan(
        family=HashFamily.PEXT,
        key_length=pattern.body_length if pattern.is_fixed_length else None,
        loads=loads,
        skip_table=table,
        combine=CombineOp.XOR,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=False,
        pattern_regex=regex,
        final_mix=final_mix,
        perfect=True,
    )


def _collisions(plan: SynthesisPlan, keys: Sequence[bytes]) -> List[List[int]]:
    """Groups of key indices sharing a hash value (len > 1 only)."""
    groups: Dict[int, List[int]] = {}
    for index, value in enumerate(evaluate_plan(plan, keys)):
        groups.setdefault(value, []).append(index)
    return [group for group in groups.values() if len(group) > 1]


def _repair_bits(
    matrix: np.ndarray,
    colliding: List[List[int]],
    pool: Sequence[int],
    used: Sequence[int],
) -> Optional[int]:
    """The first unused pool bit that splits at least one colliding
    group; ``matrix`` is :func:`~repro.perfect.search.bit_matrix` of the
    keys over ``pool``."""
    members = np.concatenate(colliding)
    sizes = np.array([len(group) for group in colliding])
    starts = np.cumsum(sizes) - sizes
    splits = group_splits(matrix[members], starts).any(axis=0)
    used_set = set(used)
    for column in np.flatnonzero(splits):
        if pool[column] not in used_set:
            return pool[column]
    return None


def _search_rotation_fallback(
    pattern: KeyPattern,
    regex: str,
    keys: Sequence[bytes],
    final_mix: bool,
    reasons: List[str],
) -> Optional[SynthesisPlan]:
    """Try seeded rotation assignments until one is collision-free."""
    offsets, _table = _structured_layout(pattern)
    masks = [mask for mask in extraction_masks(pattern, offsets) if mask]
    if not masks:
        return None
    counts = [bin(mask).count("1") for mask in masks]
    rng = random.Random(0x5E9E)
    base = fold_rotations(counts)
    for attempt in range(ROTATION_ATTEMPTS):
        rotations = (
            base
            if attempt == 0
            else [rng.randrange(64) for _ in counts]
        )
        try:
            plan = _rotation_plan(pattern, regex, rotations, final_mix)
        except PerfectSearchError:
            return None
        if not _collisions(plan, keys):
            return plan
    reasons.append(
        f"no collision-free rotation assignment in "
        f"{ROTATION_ATTEMPTS} attempts"
    )
    return None


def synthesize_perfect(
    keys: Iterable[KeyLike],
    format: Optional[Union[str, KeyPattern]] = None,
    name: Optional[str] = None,
    final_mix: bool = False,
    budget: Optional[SearchBudget] = None,
    verify: Optional[str] = None,
) -> PerfectHash:
    """Synthesize a hash certified collision-free on a closed key set.

    Args:
        keys: the closed set (``bytes`` or UTF-8 ``str``); duplicates
            are dropped.
        format: optional format regex or :class:`KeyPattern`; inferred
            from the keys when omitted.  Every key must conform.
        name: generated function name.
        final_mix: append the murmur finalizer.  The finalizer is a
            64-bit bijection, so perfection is preserved — but the
            compact range (``hash_bits``) is given up for distribution.
        budget: :class:`~repro.perfect.search.SearchBudget` caps.
        verify: like ``synthesize(verify=...)`` — ``"warn"``/"strict"``
            run the static verifier (including the ``perfect-claim``
            lint) over the emitted plan.

    Raises:
        SynthesisError: empty/ill-formatted input, or a body below 8
            bytes (pad the keys; see :func:`repro.perfect.pad_keys`).
        PerfectSearchError: no certifiable plan within the budget.
    """
    if verify not in VERIFY_MODES:
        raise ValueError(
            f"verify must be one of {VERIFY_MODES}, got {verify!r}"
        )
    started = time.perf_counter()
    registry = get_registry()
    key_list = _normalize_keys(keys)
    with span("perfect.synthesize", keys=len(key_list)) as synth_span:
        registry.counter("perfect.synthesized").inc()
        try:
            pattern = _resolve_format(key_list, format)
            if pattern.body_length < 8:
                raise SynthesisError(
                    f"key body of {pattern.body_length} bytes is below "
                    f"one machine word (paper footnote 5); pad the keys "
                    f"to at least 8 bytes (repro.perfect.pad_keys)"
                )
            regex = render_regex(pattern)
            plan, outcome = _search_plan(
                pattern, regex, key_list, final_mix, budget
            )
        except (SynthesisError, PerfectSearchError):
            registry.counter("perfect.refused").inc()
            raise
        function_name = name or "sepe_perfect_hash"
        python_source, compiled, ir = compile_python(plan, function_name)
        certificate = certify(
            plan,
            key_list,
            strategy=outcome.strategy,
            selected_bits=outcome.bits,
            evaluations=outcome.evaluations,
            fallback_used=outcome.strategy == "rotation-mixer",
            compiled=compiled,
        )
        if not certificate.certified:
            registry.counter("perfect.refused").inc()
            raise PerfectSearchError(
                "certification refused the searched plan: "
                + "; ".join(certificate.reasons)
            )
        registry.counter("perfect.certified").inc()
        synth_span.annotate("hash_bits", certificate.hash_bits)
        synth_span.annotate("strategy", certificate.strategy)
        report = None
        if verify:
            from repro.core.synthesis import _verify_synthesis

            report = _verify_synthesis(plan, pattern, verify)
    elapsed = time.perf_counter() - started
    return PerfectHash(
        family=HashFamily.PEXT,
        pattern=pattern,
        plan=plan,
        python_source=python_source,
        synthesis_seconds=elapsed,
        _callable=compiled,
        name=function_name,
        verification=report,
        certificate=certificate,
        ir=ir,
    )


def _search_plan(
    pattern: KeyPattern,
    regex: str,
    keys: List[bytes],
    final_mix: bool,
    budget: Optional[SearchBudget],
) -> Tuple[SynthesisPlan, SearchOutcome]:
    """The fallback ladder: packed lanes → repair → rotation mixer."""
    registry = get_registry()
    with span("perfect.search", keys=len(keys)):
        baseline = build_plan(pattern, HashFamily.PEXT)
        pool = list(bit_report(baseline, pattern).live_bits)
        extra = None
        if not pattern.is_fixed_length:
            tail_start = baseline.tail_start or pattern.body_length
            extra = [
                (len(key), _tail_fold(key, tail_start)) for key in keys
            ]
        reasons: List[str] = []
        outcome = None
        if pool:
            try:
                outcome = select_distinguishing_bits(
                    keys, pool, extra=extra, budget=budget
                )
            except PerfectSearchError as error:
                reasons.append(str(error))
        if not pool or (outcome is not None and not outcome.bits):
            # Nothing to select (keys that differ only in their
            # variable-length tails), or nothing selected: a single key,
            # or keys their tail symbols already separate.  The
            # structural baseline plan (which folds the tail) is the
            # only candidate; the exhaustive certification pass decides.
            plan = replace(baseline, final_mix=final_mix, perfect=True)
            outcome = SearchOutcome((), "structural", 0, 0, False)
            if _collisions(plan, keys):
                raise PerfectSearchError(
                    "keys are indistinguishable by body bits and their "
                    "tail folds collide; no perfect plan exists in this "
                    "plan vocabulary"
                )
            return plan, outcome
        if outcome is not None:
            plan = _packed_plan(pattern, regex, outcome.bits, final_mix)
            if pattern.is_fixed_length:
                # The selected bits separate every key and the lanes
                # extract each of them exactly once, so the plan is
                # injective on the set; certify's pass checks it.
                return plan, outcome
            bits = list(outcome.bits)
            matrix = None
            # Variable-length plans xor an unselected tail fold into the
            # packed lanes, which can alias across keys: repair by
            # adding split bits until the concrete evaluation is clean.
            for _round in range(REPAIR_ROUNDS):
                colliding = _collisions(plan, keys)
                if not colliding:
                    return plan, replace(
                        outcome, bits=tuple(sorted(bits))
                    )
                if len(bits) >= min(MAX_HASH_BITS, len(pool)):
                    break
                if matrix is None:
                    matrix = bit_matrix(keys, pool)
                bit = _repair_bits(matrix, colliding, pool, bits)
                if bit is None:
                    break
                bits.append(bit)
                plan = _packed_plan(pattern, regex, bits, final_mix)
            reasons.append(
                "packed-lane plan still collides after repair"
            )
        registry.counter("perfect.fallbacks").inc()
        plan = _search_rotation_fallback(
            pattern, regex, keys, final_mix, reasons
        )
        if plan is not None:
            return plan, SearchOutcome(
                (), "rotation-mixer", 0, 0, False
            )
        raise PerfectSearchError(
            "no certifiable perfect plan: " + "; ".join(reasons)
        )
