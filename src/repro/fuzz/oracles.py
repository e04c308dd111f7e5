"""Differential and metamorphic oracles over one fuzz case.

An *oracle* is a predicate that must hold for **every** valid (format,
key-set) pair, not just the paper's eight formats.  Two groups:

- **differential** — independently-implemented execution paths must
  agree bit for bit: compiled Python vs the IR interpreter, batch vs
  scalar kernels, all inference engines vs the reference join, a plan
  round-tripped through JSON vs the original, the rendered regex vs
  Python's own ``re`` engine, the JIT-compiled native entry points vs
  the interpreter (auto-skipped, with a recorded reason, on hosts
  without a C++ compiler).
- **metamorphic** — algebraic laws of the pipeline itself: the quad
  join is a commutative, associative, idempotent monoid fold
  (Definition 3.2 / Theorem 3.3), Pext masks partition exactly the
  varying bits, dispatcher routing is deterministic, containers stay
  coherent under any synthesized hash.

Oracles receive a :class:`CaseContext` (which lazily synthesizes and
caches per-case artifacts so several oracles share one synthesis) and
return ``None`` on success or a failure message.  Degenerate cases an
oracle cannot judge (e.g. sub-word bodies, which synthesis refuses by
design) are *skipped* by returning ``None`` — a skip is not evidence.

Crashes are not caught here: the harness treats any exception escaping
an oracle as a failure in its own right, because "valid format crashes
the pipeline" is exactly the class of bug the fuzzer exists to find.
"""

from __future__ import annotations

import random
import re as stdlib_re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.codegen.interp import interpret
from repro.codegen.ir import IRFunction, build_ir, optimize
from repro.codegen.serialize import compile_serialized, dumps, loads
from repro.core.fast_infer import _NUMPY_MIN_KEYS, PatternAccumulator
from repro.core.inference import infer_pattern
from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.quads import join_keys, leq
from repro.core.regex_expand import pattern_from_regex
from repro.core.regex_render import render_regex
from repro.core.synthesis import SynthesizedHash, build_plan, synthesize
from repro.core.validate import sample_conforming_keys
from repro.verify import prove_bijectivity
from repro.containers import UnorderedMap
from repro.core.dispatch import FormatDispatcher
from repro.errors import SynthesisError
from repro.fuzz.generators import FormatSpec
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.isa.bits import popcount

GROUP_DIFFERENTIAL = "differential"
GROUP_METAMORPHIC = "metamorphic"

_SMALL_BATCH = 3
"""Batch size below the vectorized guard's minimum, so the list entry
maps the scalar function and both batch paths are exercised."""


@dataclass(frozen=True)
class FuzzCase:
    """One unit of fuzz work: a format spec plus conforming keys."""

    spec: FormatSpec
    keys: Tuple[bytes, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.keys, tuple):
            object.__setattr__(self, "keys", tuple(self.keys))


class CaseContext:
    """Lazily-built, per-case artifacts shared by all oracles.

    Synthesis, IR building and pattern expansion run at most once per
    case regardless of how many oracles consume them; the process-wide
    compile cache already dedupes the ``exec`` cost across cases.
    """

    def __init__(self, case: FuzzCase):
        self.case = case
        self.spec = case.spec
        self.keys: Tuple[bytes, ...] = case.keys
        self._regex: Optional[str] = None
        self._pattern: Optional[KeyPattern] = None
        self._synthesized: Dict[HashFamily, SynthesizedHash] = {}
        self._ir: Dict[HashFamily, IRFunction] = {}

    @property
    def regex(self) -> str:
        if self._regex is None:
            self._regex = self.spec.regex()
        return self._regex

    @property
    def pattern(self) -> KeyPattern:
        if self._pattern is None:
            self._pattern = pattern_from_regex(self.regex)
        return self._pattern

    @property
    def synthesizable(self) -> bool:
        """Whether the default pipeline accepts this format at all."""
        return self.pattern.body_length >= 8

    def synthesized(self, family: HashFamily) -> SynthesizedHash:
        cached = self._synthesized.get(family)
        if cached is None:
            cached = synthesize(self.pattern, family)
            self._synthesized[family] = cached
        return cached

    def ir(self, family: HashFamily) -> IRFunction:
        cached = self._ir.get(family)
        if cached is None:
            synthesized = self.synthesized(family)
            cached = optimize(
                build_ir(synthesized.plan, name=synthesized.name)
            )
            self._ir[family] = cached
        return cached


@dataclass(frozen=True)
class Oracle:
    """A named invariant check over a :class:`CaseContext`."""

    name: str
    group: str
    check: Callable[[CaseContext], Optional[str]]
    description: str

    def run(self, ctx: CaseContext) -> Optional[str]:
        """None on success/skip, a human-readable message on failure."""
        return self.check(ctx)


ORACLES: Dict[str, Oracle] = {}


def _oracle(name: str, group: str):
    def decorate(fn: Callable[[CaseContext], Optional[str]]):
        ORACLES[name] = Oracle(
            name=name,
            group=group,
            check=fn,
            description=(fn.__doc__ or "").strip().splitlines()[0],
        )
        return fn

    return decorate


def all_oracles() -> List[Oracle]:
    """Every registered oracle, in registration order."""
    return list(ORACLES.values())


def resolve_oracles(names: Optional[Sequence[str]]) -> List[Oracle]:
    """Map oracle names to oracles; ``None`` selects all.

    Raises:
        KeyError: for an unknown oracle name.
    """
    if names is None:
        return all_oracles()
    selected = []
    for name in names:
        if name not in ORACLES:
            raise KeyError(
                f"unknown oracle {name!r}; known: {', '.join(ORACLES)}"
            )
        selected.append(ORACLES[name])
    return selected


# -- differential oracles ----------------------------------------------------


def _off_length_keys(keys: Sequence[bytes]) -> List[bytes]:
    """Each key, then it truncated by one byte and extended by 8, then
    ``b""``: the non-conforming lengths where a fused wide load of the
    scalar backend reads past a key's end and must zero-fill exactly as
    the interpreter's per-load slices do."""
    probes: List[bytes] = []
    for key in keys:
        probes.extend((key, key[:-1], key + b"\xa5" * 8))
    probes.append(b"")
    return probes


def _ragged_batch(keys: Sequence[bytes], length: int) -> List[bytes]:
    """The off-length probes of ``keys``, with the extended ones cut
    (never back to ``length``) or the empty one padded so that the
    lengths sum to ``len(batch) * length``: a ragged batch that a
    length-sum check would take for one of fixed-length keys."""
    batch = _off_length_keys(keys)
    excess = sum(map(len, batch)) - len(batch) * length
    if excess < 0:
        batch[-1] = b"\xa5" * -excess
        excess = 0
    for index, probe in enumerate(batch):
        cut = min(excess, len(probe) - length - 1)
        if cut > 0:
            batch[index] = probe[:-cut]
            excess -= cut
    return batch


@_oracle("python-vs-interp", GROUP_DIFFERENTIAL)
def check_python_vs_interp(ctx: CaseContext) -> Optional[str]:
    """Compiled Python backend agrees with the IR interpreter, all
    families, on each key and on its off-length neighbours."""
    if not ctx.synthesizable:
        return None
    probes = _off_length_keys(ctx.keys)
    for family in HashFamily:
        synthesized = ctx.synthesized(family)
        func = ctx.ir(family)
        for key in probes:
            expected = interpret(func, key)
            actual = synthesized(key)
            if actual != expected:
                return (
                    f"{family.value}: compiled {actual:#x} != "
                    f"interpreted {expected:#x} for key {key!r}"
                )
    return None


@_oracle("batch-vs-scalar", GROUP_DIFFERENTIAL)
def check_batch_vs_scalar(ctx: CaseContext) -> Optional[str]:
    """hash_many agrees with the scalar callable: lane body and mapped
    scalar function."""
    if not ctx.synthesizable:
        return None
    keys = list(ctx.keys)
    for family in HashFamily:
        synthesized = ctx.synthesized(family)
        scalar = [synthesized(key) for key in keys]
        batched = synthesized.hash_many(keys)
        if batched != scalar:
            index = next(
                i for i, (a, b) in enumerate(zip(batched, scalar)) if a != b
            )
            return (
                f"{family.value}: hash_many[{index}] = {batched[index]:#x} "
                f"!= scalar {scalar[index]:#x} for key {keys[index]!r}"
            )
        small = keys[:_SMALL_BATCH]
        if synthesized.hash_many(small) != scalar[: len(small)]:
            return f"{family.value}: small-batch mapped path diverges"
        length = synthesized.plan.key_length
        if length is not None:
            ragged = _ragged_batch(keys, length)
            if synthesized.hash_many(ragged) != list(map(synthesized, ragged)):
                return f"{family.value}: ragged batch diverges from scalar"
    return None


def _joined_pattern(keys: Sequence[bytes]) -> KeyPattern:
    """The reference join's pattern of ``keys``."""
    lengths = [len(key) for key in keys]
    return KeyPattern(
        quads=tuple(join_keys(keys)),
        min_length=min(lengths),
        max_length=max(lengths),
    )


def _repeated(keys: Sequence[bytes]) -> List[bytes]:
    """``keys`` repeated up to the NumPy chunk size; the join is
    idempotent, so the inferred pattern is unchanged."""
    return list(keys) * -(-_NUMPY_MIN_KEYS // len(keys))


@_oracle("infer-engines", GROUP_DIFFERENTIAL)
def check_infer_engines(ctx: CaseContext) -> Optional[str]:
    """``infer_pattern``, a two-chunk ``update`` and the ``merge`` of two
    halves each infer the reference join's pattern, and so does
    ``infer_pattern`` on a ragged batch.

    ``infer_pattern`` runs on the keys repeated up to the NumPy chunk
    size: an equal-length case then takes the column reduction, while
    the chunk and merge checks take the big-int fold.  The ragged batch
    (:func:`_ragged_batch` at the first key's length) is repeated the
    same way; its lengths sum to ``n * L``, so a column reduction that
    trusted the sum would read misaligned rows."""
    if not ctx.keys:
        return None
    keys = list(ctx.keys)
    reference = _joined_pattern(keys)
    half = len(keys) // 2
    chunked = PatternAccumulator().update(keys[:half]).update(keys[half:])
    merged = PatternAccumulator().update(keys[:half]).merge(
        PatternAccumulator().update(keys[half:])
    )
    ragged = _ragged_batch(keys, len(keys[0]))
    checks = [
        ("infer_pattern", infer_pattern(_repeated(keys)), reference),
        ("two-chunk update", chunked.finish(), reference),
        ("merge of halves", merged.finish(), reference),
        (
            "infer_pattern on a ragged batch",
            infer_pattern(_repeated(ragged)),
            _joined_pattern(ragged),
        ),
    ]
    for name, result, expected in checks:
        if result != expected:
            return (
                f"{name} inferred {render_regex(result)!r}, "
                f"reference says {render_regex(expected)!r}"
            )
    return None


@_oracle("serialize-roundtrip", GROUP_DIFFERENTIAL)
def check_serialize_roundtrip(ctx: CaseContext) -> Optional[str]:
    """serialize -> deserialize -> re-execute matches plan and interpreter."""
    if not ctx.synthesizable:
        return None
    for family in HashFamily:
        plan = ctx.synthesized(family).plan
        rebuilt_plan = loads(dumps(plan))
        if rebuilt_plan != plan:
            return f"{family.value}: plan round-trip not equal"
        rebuilt = compile_serialized(
            dumps(plan), name=f"fuzz_{family.value}_roundtrip"
        )
        func = ctx.ir(family)
        for key in ctx.keys:
            expected = interpret(func, key)
            actual = rebuilt(key)
            if actual != expected:
                return (
                    f"{family.value}: deserialized function {actual:#x} != "
                    f"interpreted {expected:#x} for key {key!r}"
                )
    return None


@_oracle("regex-roundtrip", GROUP_DIFFERENTIAL)
def check_regex_roundtrip(ctx: CaseContext) -> Optional[str]:
    """pattern -> render -> parse -> expand reproduces the same pattern."""
    pattern = ctx.pattern
    for key in ctx.keys:
        if not pattern.matches(key):
            return f"expanded pattern rejects conforming key {key!r}"
    rendered = render_regex(pattern)
    reparsed = pattern_from_regex(rendered)
    if reparsed != pattern:
        return (
            f"render/parse round trip changed the pattern: "
            f"{rendered!r} re-expanded differently"
        )
    if render_regex(reparsed) != rendered:
        return f"rendering is not a fixed point for {rendered!r}"
    return None


@_oracle("stdlib-re", GROUP_DIFFERENTIAL)
def check_stdlib_re(ctx: CaseContext) -> Optional[str]:
    """Pattern.matches agrees with Python's re on the rendered regex."""
    pattern = ctx.pattern
    if pattern.body_length == 0:
        return None
    rendered = stdlib_re.compile(
        render_regex(pattern), stdlib_re.DOTALL
    )
    rng = random.Random(0xF0221)
    probes: List[bytes] = list(ctx.keys)
    probes.extend(sample_conforming_keys(pattern, 8, rng=rng))
    # Perturbed probes: flip one byte, extend, truncate.
    for key in list(probes[:8]):
        if key:
            mutated = bytearray(key)
            index = rng.randrange(len(mutated))
            mutated[index] ^= 1 << rng.randrange(8)
            probes.append(bytes(mutated))
        probes.append(key + b"\x00")
        probes.append(key[:-1])
    for probe in probes:
        ours = pattern.matches(probe)
        theirs = rendered.fullmatch(probe.decode("latin-1")) is not None
        if ours != theirs:
            return (
                f"pattern.matches={ours} but re.fullmatch={theirs} for "
                f"{probe!r} under {rendered.pattern!r}"
            )
    return None


@_oracle("cpp-emit", GROUP_DIFFERENTIAL)
def check_cpp_emit(ctx: CaseContext) -> Optional[str]:
    """The C++ backend emits deterministic, well-formed source."""
    if not ctx.synthesizable:
        return None
    for family in HashFamily:
        synthesized = ctx.synthesized(family)
        for target in ("x86", "aarch64"):
            if (
                target == "aarch64"
                and synthesized.plan.family is HashFamily.PEXT
            ):
                continue  # No aarch64 pext; x86-only by design (§4.4).
            source = synthesized.cpp_source(target)
            if not source or "uint64_t" not in source:
                return f"{family.value}/{target}: implausible C++ output"
            if synthesized.cpp_source(target) != source:
                return f"{family.value}/{target}: emission not deterministic"
    return None


_NATIVE_SKIP_REASON: Optional[str] = None
"""Why cpp-native-vs-interp is skipping, recorded once per process."""


@_oracle("cpp-native-vs-interp", GROUP_DIFFERENTIAL)
def check_cpp_native_vs_interp(ctx: CaseContext) -> Optional[str]:
    """JIT-compiled native entry points agree with the IR interpreter."""
    global _NATIVE_SKIP_REASON
    if not ctx.synthesizable:
        return None
    from repro.codegen.native import detect_toolchain
    from repro.errors import NativeUnavailableError

    try:
        detect_toolchain()
    except NativeUnavailableError as exc:
        # No usable compiler on this host: skip, but leave a visible
        # trail (counter + module-level reason) so a run of all-skips
        # is distinguishable from a run of all-passes.
        if _NATIVE_SKIP_REASON is None:
            _NATIVE_SKIP_REASON = str(exc)
        from repro.obs.metrics import get_registry

        get_registry().counter("fuzz.native_skips").inc()
        return None
    keys = list(ctx.keys)
    for family in HashFamily:
        synthesized = ctx.synthesized(family)
        module = synthesized.native_module
        if module is None:
            # Toolchain exists but this plan would not compile (e.g. a
            # feature probe failed); the degradation path is exercised
            # elsewhere — a differential skip is not evidence.
            continue
        func = ctx.ir(family)
        expected = [interpret(func, key) for key in keys]
        probes = list(zip(keys, expected))
        length = synthesized.plan.key_length
        if length is not None:
            # A fixed-length kernel reads ``length`` bytes: an empty and
            # a truncated key must zero-fill, not read past their end.
            for key in [b"", *(key[: length - 1] for key in keys[:1])]:
                probes.append((key, interpret(func, key)))
        for key, want in probes:
            got = module(key)
            if got != want:
                return (
                    f"{family.value}: native scalar {got:#x} != "
                    f"interpreted {want:#x} for key {key!r}"
                )
        batches = [(keys, expected)]
        if length is not None:
            ragged = _ragged_batch(keys, length)
            batches.append((ragged, [interpret(func, key) for key in ragged]))
        for batch, wanted in batches:
            batched = module.hash_many(batch)
            if batched != wanted:
                index = next(
                    i
                    for i, (a, b) in enumerate(zip(batched, wanted))
                    if a != b
                )
                return (
                    f"{family.value}: native hash_many[{index}] = "
                    f"{batched[index]:#x} != interpreted "
                    f"{wanted[index]:#x} for key {batch[index]!r}"
                )
    return None


# -- metamorphic oracles -----------------------------------------------------


@_oracle("join-permutation", GROUP_METAMORPHIC)
def check_join_permutation(ctx: CaseContext) -> Optional[str]:
    """The quad join is order-independent (commutativity)."""
    if not ctx.keys:
        return None
    keys = list(ctx.keys)
    baseline = infer_pattern(keys)
    if infer_pattern(list(reversed(keys))) != baseline:
        return "join(reversed(keys)) differs from join(keys)"
    shuffled = list(keys)
    random.Random(0x5EED5).shuffle(shuffled)
    if infer_pattern(shuffled) != baseline:
        return "join(shuffled(keys)) differs from join(keys)"
    return None


@_oracle("join-merge", GROUP_METAMORPHIC)
def check_join_merge(ctx: CaseContext) -> Optional[str]:
    """Chunked accumulator merges equal the monolithic join (associativity)."""
    if not ctx.keys:
        return None
    keys = list(ctx.keys)
    baseline = infer_pattern(keys)
    third = max(1, len(keys) // 3)
    chunks = [keys[:third], keys[third : 2 * third], keys[2 * third :]]
    chunks = [chunk for chunk in chunks if chunk]
    accumulators = []
    for chunk in chunks:
        accumulator = PatternAccumulator()
        accumulator.update(chunk)
        accumulators.append(accumulator)
    forward = PatternAccumulator()
    for accumulator in accumulators:
        forward.merge(accumulator)
    if forward.finish() != baseline:
        return "left-to-right accumulator merge differs from whole join"
    backward = PatternAccumulator()
    for accumulator in reversed(accumulators):
        backward.merge(accumulator)
    if backward.finish() != baseline:
        return "right-to-left accumulator merge differs from whole join"
    return None


@_oracle("join-idempotent", GROUP_METAMORPHIC)
def check_join_idempotent(ctx: CaseContext) -> Optional[str]:
    """Joining the same evidence twice changes nothing (idempotence)."""
    if not ctx.keys:
        return None
    keys = list(ctx.keys)
    baseline = infer_pattern(keys)
    if infer_pattern(keys + keys) != baseline:
        return "join(keys + keys) differs from join(keys)"
    if infer_pattern(keys + [keys[0]]) != baseline:
        return "re-joining an already-seen key changed the pattern"
    return None


@_oracle("join-monotone", GROUP_METAMORPHIC)
def check_join_monotone(ctx: CaseContext) -> Optional[str]:
    """Extra evidence only widens a pattern, never narrows it."""
    if not ctx.keys:
        return None
    keys = list(ctx.keys)
    baseline = infer_pattern(keys)
    if baseline.body_length == 0:
        return None  # Nothing to sample from an all-tail pattern.
    rng = random.Random(0xA11CE)
    extras = sample_conforming_keys(baseline, 4, rng=rng)
    widened = infer_pattern(keys + extras)
    for index, (old, new) in enumerate(
        zip(baseline.quads, widened.quads)
    ):
        if not leq(old, new):
            return (
                f"quad {index} narrowed from {old!r} to {new!r} after "
                f"joining conforming evidence"
            )
    if widened.min_length > baseline.min_length:
        return "min_length grew after joining conforming evidence"
    return None


@_oracle("pext-invariants", GROUP_METAMORPHIC)
def check_pext_invariants(ctx: CaseContext) -> Optional[str]:
    """Pext masks cover each varying bit exactly once; bijections hold."""
    if not ctx.synthesizable:
        return None
    pattern = ctx.pattern
    synthesized = ctx.synthesized(HashFamily.PEXT)
    plan = synthesized.plan
    if plan.family is not HashFamily.PEXT:
        return None  # Fully-constant formats fall back to OffXor by design.
    if not pattern.is_fixed_length:
        return None  # Tail bytes are folded outside the masks.
    total_mask_bits = sum(
        popcount(load.mask) for load in plan.loads if load.mask is not None
    )
    variable_bits = pattern.variable_bit_count()
    if total_mask_bits != variable_bits:
        return (
            f"masks extract {total_mask_bits} bits but the format has "
            f"{variable_bits} varying bits"
        )
    for load in plan.loads:
        if load.mask is None:
            return f"pext load at {load.offset} has no mask"
        const_mask, _ = pattern.word_const_mask(load.offset, load.width)
        if load.mask & const_mask:
            return (
                f"mask at offset {load.offset} selects constant bits: "
                f"{load.mask & const_mask:#x}"
            )
    if plan.bijective:
        if variable_bits > 64:
            return f"bijective plan with {variable_bits} > 64 varying bits"
        values = {}
        for key in ctx.keys:
            value = synthesized(key)
            if value in values and values[value] != key:
                return (
                    f"bijection collided: {values[value]!r} and {key!r} "
                    f"both hash to {value:#x}"
                )
            values[value] = key
    return None


@_oracle("dispatcher", GROUP_METAMORPHIC)
def check_dispatcher(ctx: CaseContext) -> Optional[str]:
    """Dispatcher routing is deterministic and equals direct hashing."""
    if not ctx.synthesizable:
        return None
    if not ctx.keys:
        return None
    synthesized = ctx.synthesized(HashFamily.PEXT)
    dispatcher = FormatDispatcher()
    dispatcher.register(synthesized)
    first_key = ctx.keys[0]
    if dispatcher.route(first_key) is not dispatcher.route(first_key):
        return "routing the same key twice chose different callables"
    for key in ctx.keys:
        if dispatcher(key) != synthesized(key):
            return f"dispatched hash differs from direct hash for {key!r}"
    keys = list(ctx.keys)
    if dispatcher.hash_many(keys) != [synthesized(key) for key in keys]:
        return "dispatcher.hash_many misaligned with per-key routing"
    if ctx.pattern.is_fixed_length:
        stranger = b"\x00" * (ctx.pattern.body_length + 1)
        if dispatcher(stranger) != stl_hash_bytes(stranger):
            return "unrecognized key did not take the fallback hash"
    return None


@_oracle("container", GROUP_METAMORPHIC)
def check_container(ctx: CaseContext) -> Optional[str]:
    """UnorderedMap stays coherent under the synthesized hash."""
    if not ctx.synthesizable:
        return None
    if not ctx.keys:
        return None
    synthesized = ctx.synthesized(HashFamily.PEXT)
    table = UnorderedMap(synthesized.function)
    expected: Dict[bytes, int] = {}
    for index, key in enumerate(ctx.keys):
        table.assign(key, index)
        expected[key] = index
    if len(table) != len(expected):
        return (
            f"table holds {len(table)} entries, expected {len(expected)} "
            f"distinct keys"
        )
    for key, value in expected.items():
        found = table.find(key)
        if found != value:
            return f"find({key!r}) = {found!r}, expected {value}"
    bulk = UnorderedMap(synthesized.function)
    bulk.update(expected.items())
    for key, value in expected.items():
        if bulk.find(key) != value:
            return f"bulk-built table disagrees on {key!r}"
    victim = ctx.keys[0]
    if table.erase(victim) != 1 or victim in table:
        return f"erase({victim!r}) did not remove the key"
    return None


@_oracle("verify-bijective", GROUP_DIFFERENTIAL)
def check_verify_bijective(ctx: CaseContext) -> Optional[str]:
    """The static bijectivity prover agrees with concrete execution.

    Two directions: a plan *claiming* bijectivity that the prover
    refutes is a pipeline bug (either the planner over-claims or the
    prover is broken — both are findings); and on every plan the prover
    *certifies*, sampled conforming keys must actually hash without
    collision, checking the prover's soundness against the real
    compiled function.
    """
    if not ctx.synthesizable:
        return None
    for family in HashFamily:
        plan = build_plan(ctx.pattern, family)
        result = prove_bijectivity(plan, ctx.pattern)
        if result.refutes_claim:
            return (
                f"{family.value} plan claims bijectivity but the prover "
                f"refutes it: {'; '.join(result.reasons)}"
            )
        if not result.certified:
            continue
        keys = list(dict.fromkeys(ctx.keys))
        keys.extend(sample_conforming_keys(ctx.pattern, 64, seed=7))
        synthesized = ctx.synthesized(family)
        seen: Dict[int, bytes] = {}
        for key in dict.fromkeys(keys):
            value = synthesized(key)
            other = seen.get(value)
            if other is not None and other != key:
                return (
                    f"prover certified the {family.value} plan bijective "
                    f"but {other!r} and {key!r} both hash to {value:#x}"
                )
            seen[value] = key
    return None


@_oracle("perfect-no-collision", GROUP_DIFFERENTIAL)
def check_perfect_no_collision(ctx: CaseContext) -> Optional[str]:
    """A certified-perfect plan never collides on its closed key set.

    Runs the perfect-hash synthesizer on the case's key set.  An honest
    *refusal* (``PerfectSearchError``) is not a finding — the tier is
    allowed to give up — but any plan it *does* return must carry a
    certified :class:`~repro.perfect.PerfectCertificate`, hash the keys
    without a single collision, recognise the same set in any order, and
    reject mutated or extended key sets (the certificate must not cover
    an open set).
    """
    from repro.errors import PerfectSearchError
    from repro.perfect import synthesize_perfect

    if not ctx.synthesizable:
        return None
    keys = list(dict.fromkeys(ctx.keys))
    if len(keys) < 2:
        return None
    try:
        perfect = synthesize_perfect(keys, format=ctx.pattern)
    except PerfectSearchError:
        return None  # Honest refusal; the tier never over-claims.
    certificate = perfect.certificate
    if certificate is None or not certificate.certified:
        return (
            "synthesize_perfect returned a plan without a certified "
            "PerfectCertificate instead of refusing"
        )
    seen: Dict[int, bytes] = {}
    for key in keys:
        value = perfect(key)
        other = seen.get(value)
        if other is not None:
            return (
                f"certified-perfect hash collides: {other!r} and {key!r} "
                f"both map to {value:#x}"
            )
        seen[value] = key
    shuffled = list(keys)
    random.Random(0xC0FFEE).shuffle(shuffled)
    if not certificate.covers(shuffled):
        return "certificate is order-sensitive: permuted key set not covered"
    mutated = list(keys)
    mutated[0] = bytes([mutated[0][0] ^ 0xFF]) + mutated[0][1:]
    if len(set(mutated)) == len(keys) and certificate.covers(mutated):
        return "certificate covers a mutated key set (open-set over-claim)"
    if certificate.covers(keys + [keys[0] + b"\x00"]):
        return "certificate covers an extended key set (open-set over-claim)"
    return None


@_oracle("dataflow-sound", GROUP_METAMORPHIC)
def check_dataflow_sound(ctx: CaseContext) -> Optional[str]:
    """Concrete execution never escapes the dataflow analyzer's facts.

    For every family: abstractly interpret the un-optimized IR under
    the case's format, then run the concrete interpreter on conforming
    keys and require every register's concrete value to be *admitted*
    by the reduced product — inside the derived interval, no
    claimed-zero bit set, no claimed-one bit clear.  A violation means
    a transfer function or the product refinement is unsound, which
    would silently poison every analysis-driven rewrite.  Separately,
    ``optimize()`` (whose range rewrites the analyzer justifies) must
    agree with the original IR on conforming *and* mutated
    non-conforming keys, because the rewrites claim structural facts
    that hold for arbitrary bytes.
    """
    from repro.codegen.interp import interpret_registers
    from repro.verify.dataflow import analyze_dataflow

    if not ctx.synthesizable:
        return None
    for family in HashFamily:
        synthesized = ctx.synthesized(family)
        func = build_ir(synthesized.plan, name=synthesized.name)
        analysis = analyze_dataflow(func, ctx.pattern)
        conforming = [key for key in ctx.keys if ctx.pattern.matches(key)]
        for key in conforming:
            _, registers = interpret_registers(func, key)
            for register, concrete in registers.items():
                product = analysis.values.get(register)
                if product is None:
                    continue
                if not product.admits(concrete):
                    return (
                        f"{family.value}: register {register} = "
                        f"{concrete:#x} escapes the derived product "
                        f"(range [{product.range.lo:#x}, "
                        f"{product.range.hi:#x}], zeros "
                        f"{product.bits.zeros:#x}, ones "
                        f"{product.bits.ones:#x}) for key {key!r}"
                    )
        optimized = optimize(func)
        mutated = [
            bytes([key[0] ^ 0xFF]) + key[1:] for key in conforming[:8]
        ]
        for key in conforming + mutated:
            expected = interpret(func, key)
            actual = interpret(optimized, key)
            if actual != expected:
                return (
                    f"{family.value}: optimize() changed the hash for "
                    f"key {key!r}: {actual:#x} != {expected:#x}"
                )
    return None
