"""A small linear IR for synthesized hash functions.

Plans are declarative ("load at 3, extract mask M, shift 52"); the IR is
operational: an ordered list of register-assigning instructions ending in
a return.  Keeping this layer explicit buys two things: both backends
lower the *same* program (so the Python function benchmarked and the C++
function emitted compute identical hashes), and peephole rules
(:func:`optimize`) live in one place.

Instructions (``dest`` is always a fresh virtual register name):

====================  =======================================================
opcode / args          meaning
====================  =======================================================
``const value``        dest = value (64-bit literal)
``load64 offset w``    dest = little-endian load of ``w`` bytes at key[offset]
``pext src mask``      dest = parallel bit extract of register ``src``
``shl src amount``     dest = (src << amount) truncated to 64 bits
``shr src amount``     dest = src >> amount (logical)
``mul64 src value``    dest = (src * value) mod 2^64
``rotl src amount``    dest = src rotated left by ``amount``
``xor a b``            dest = a ^ b
``or a b``             dest = a | b
``aes_absorb s lo hi`` dest = aesenc(s ^ (lo | hi << 64), round_key)
``aes_fold s``         dest = (s & 2^64-1) ^ (s >> 64)
``tail_xor acc start`` dest = acc xor-folded with key bytes from ``start``
``ret src``            function result is register ``src``
====================  =======================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.core.plan import CombineOp, HashFamily, SynthesisPlan
from repro.errors import SynthesisError

AES_ROUND_KEY = 0x243F6A8885A308D313198A2E03707344
"""Round key for the Aes family: the first 32 hex digits of pi, the
standard nothing-up-my-sleeve constant."""

AES_INITIAL_STATE = 0xA4093822299F31D0082EFA98EC4E6C89
"""Initial AES state (pi digits, continued)."""

FINAL_MIX_MUL = ((0xC6A4A793 << 32) + 0x5BD1E995) & ((1 << 64) - 1)
"""Multiplier of the optional finalizer — the murmur constant of the
paper's Figure 1, so the mixer matches the STL's avalanche quality."""


@dataclass(frozen=True)
class Instr:
    """One IR instruction: ``dest = opcode(args)``."""

    opcode: str
    dest: str
    args: Tuple = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        rendered = ", ".join(str(a) for a in self.args)
        return f"{self.dest} = {self.opcode}({rendered})"


@dataclass
class IRFunction:
    """A synthesized hash function in IR form."""

    name: str
    plan: SynthesisPlan
    instrs: List[Instr] = field(default_factory=list)

    _counter: int = field(default=0, repr=False)

    def fresh(self, prefix: str = "t") -> str:
        """Allocate a fresh virtual register name."""
        name = f"{prefix}{self._counter}"
        self._counter += 1
        return name

    def emit(self, opcode: str, args: Tuple = (), prefix: str = "t") -> str:
        """Append an instruction and return its destination register."""
        dest = self.fresh(prefix)
        self.instrs.append(Instr(opcode, dest, args))
        return dest

    def emit_ret(self, src: str) -> None:
        self.instrs.append(Instr("ret", "", (src,)))

    @property
    def result(self) -> Optional[str]:
        for instr in reversed(self.instrs):
            if instr.opcode == "ret":
                return instr.args[0]
        return None

    def __iter__(self) -> Iterator[Instr]:
        return iter(self.instrs)


def _combine(func: IRFunction, op: CombineOp, acc: Optional[str], value: str) -> str:
    if acc is None:
        return value
    opcode = {"xor": "xor", "or": "or"}[op.value]
    return func.emit(opcode, (acc, value), prefix="h")


def _build_word_registers(func: IRFunction) -> List[str]:
    """Emit loads plus per-word transforms; return transformed registers."""
    words: List[str] = []
    for load in func.plan.loads:
        if load.mask == 0:
            continue  # Nothing varies in this word; never load it.
        register = func.emit("load64", (load.offset, load.width), prefix="w")
        if load.mask is not None:
            full_mask = (1 << 64) - 1
            if load.mask != full_mask:
                register = func.emit("pext", (register, load.mask), prefix="e")
        if load.shift:
            register = func.emit("shl", (register, load.shift), prefix="s")
        elif load.rotate:
            register = func.emit("rotl", (register, load.rotate), prefix="r")
        words.append(register)
    return words


def build_ir(plan: SynthesisPlan, name: str = "sepe_hash") -> IRFunction:
    """Lower a synthesis plan to IR.

    Raises:
        SynthesisError: when the plan has no loads at all (nothing to hash).
    """
    func = IRFunction(name=name, plan=plan)
    if plan.combine is CombineOp.AESENC:
        _build_aes_body(func)
        return func
    words = _build_word_registers(func)
    if not words and plan.skip_table is None:
        raise SynthesisError("plan produced no hashable words")
    acc: Optional[str] = None
    for word in words:
        acc = _combine(func, plan.combine, acc, word)
    if acc is None:
        acc = func.emit("const", (0,), prefix="c")
    if not plan.is_fixed_length:
        acc = func.emit("tail_xor", (acc, plan.tail_start), prefix="h")
    if plan.final_mix:
        acc = _emit_final_mix(func, acc)
    func.emit_ret(acc)
    return func


def _emit_final_mix(func: IRFunction, acc: str) -> str:
    """Two murmur-style avalanche rounds: ``h = shift_mix(h * mul)`` twice.

    Each round is a bijection on 64 bits (odd multiplier, invertible
    xor-shift), so a bijective plan stays bijective with mixing on.
    """
    for _ in range(2):
        acc = func.emit("mul64", (acc, FINAL_MIX_MUL), prefix="m")
        shifted = func.emit("shr", (acc, 47), prefix="m")
        acc = func.emit("xor", (acc, shifted), prefix="m")
    return acc


def _build_aes_body(func: IRFunction) -> None:
    """Lower an Aes-family plan: absorb word pairs into a 128-bit state."""
    plan = func.plan
    loaded = [
        func.emit("load64", (load.offset, load.width), prefix="w")
        for load in plan.loads
    ]
    if not loaded:
        raise SynthesisError("Aes plan produced no loads")
    if len(loaded) % 2 == 1:
        # Odd word count: the last word pairs with itself, mirroring the
        # paper's key replication for short keys (Section 4.3 discussion).
        loaded.append(loaded[-1])
    state = func.emit("const", (AES_INITIAL_STATE,), prefix="st")
    for index in range(0, len(loaded), 2):
        state = func.emit(
            "aes_absorb", (state, loaded[index], loaded[index + 1]), prefix="st"
        )
    folded = func.emit("aes_fold", (state,), prefix="h")
    if not plan.is_fixed_length:
        folded = func.emit("tail_xor", (folded, plan.tail_start), prefix="h")
    if plan.final_mix:
        folded = _emit_final_mix(func, folded)
    func.emit_ret(folded)


def dead_code_eliminate(func: IRFunction) -> IRFunction:
    """Drop dead instructions (destinations no return chain uses).

    The builder already avoids most waste (zero-mask loads are skipped at
    build time); this pass removes anything left unreachable from the
    return value, keeping generated source minimal like the paper's
    hand-polished figures.
    """
    live = set()
    for instr in func.instrs:
        # Every ret's operand is live, not just the last one's: a
        # multi-ret function returns at the *first* ret it reaches, so
        # dropping an earlier return's chain would change its value.
        if instr.opcode == "ret" and isinstance(instr.args[0], str):
            live.add(instr.args[0])
    kept: List[Instr] = []
    for instr in reversed(func.instrs):
        if instr.opcode == "ret":
            kept.append(instr)
            continue
        if instr.dest not in live:
            continue
        kept.append(instr)
        for arg in instr.args:
            if isinstance(arg, str):
                live.add(arg)
    optimized = IRFunction(name=func.name, plan=func.plan)
    optimized.instrs = list(reversed(kept))
    optimized._counter = func._counter
    return optimized


_REWRITE_INSTR_LIMIT = 512
"""Largest function the range-rewrite pass will analyze; see below."""


def _apply_range_rewrites(func: IRFunction) -> Tuple[IRFunction, dict]:
    """Analysis-driven rewrites justified by *structural* range facts.

    The dataflow analysis runs with ``pattern=None``, so every fact
    holds for arbitrary input bytes — required because the native C++
    tier lowers from the plan (not this IR) and the serving tier
    cross-checks backends on drifted, non-conforming keys.  Two
    rewrites, both from the multi-domain analyzer's range/known-bits
    product:

    - **shift-range strength reduction**: ``rotl src, r`` where the
      product proves ``src < 2**(64-r)`` rotates nothing around the
      top, so it becomes the cheaper ``shl src, r`` (on the NumPy tier
      this turns two shifts and an OR into one shift);
    - **range-proven mask elision**: ``pext src, mask`` where the mask
      covers every bit the product allows to be set compresses nothing
      — the extract is the identity, the instruction disappears, and
      uses are rewritten to ``src``.

    Returns the rewritten function plus a stats dict
    (``rotl_to_shl`` / ``pext_elided`` counts).

    Functions above :data:`_REWRITE_INSTR_LIMIT` instructions skip the
    pass entirely (zero stats, ``codegen.optimize.rewrites_skipped``
    counter): the provenance sets the analysis drags along grow with
    key width, so on paper-scale RQ6 plans (a 2^14-byte key is ~7k
    instructions) the analysis costs tens of seconds to shave
    nanoseconds — every realistic format plan is well under the limit.
    """
    if len(func.instrs) > _REWRITE_INSTR_LIMIT:
        from repro.obs.metrics import get_registry

        get_registry().counter("codegen.optimize.rewrites_skipped").inc()
        return func, {"rotl_to_shl": 0, "pext_elided": 0}

    from repro.verify.dataflow import analyze_dataflow

    analysis = analyze_dataflow(func, pattern=None)
    mask64 = (1 << 64) - 1
    stats = {"rotl_to_shl": 0, "pext_elided": 0}
    replaced: dict = {}
    rewritten: List[Instr] = []
    for instr in func.instrs:
        args = tuple(
            replaced.get(arg, arg) if isinstance(arg, str) else arg
            for arg in instr.args
        )
        product = (
            analysis.values.get(args[0])
            if args and isinstance(args[0], str)
            else None
        )
        if instr.opcode == "rotl" and product is not None:
            amount = args[1] % 64
            if amount and product.effective_width() + amount <= 64:
                rewritten.append(Instr("shl", instr.dest, (args[0], amount)))
                stats["rotl_to_shl"] += 1
                continue
        if instr.opcode == "pext" and product is not None:
            mask = args[1] & mask64
            possible = (1 << product.effective_width()) - 1
            if possible & ~mask == 0:
                # Every possibly-set source bit is extracted and keeps
                # its position (no selected bit below it is missing),
                # so the extract is the identity on all inputs.
                replaced[instr.dest] = args[0]
                stats["pext_elided"] += 1
                continue
        rewritten.append(Instr(instr.opcode, instr.dest, args))
    result = IRFunction(name=func.name, plan=func.plan)
    result.instrs = rewritten
    result._counter = func._counter
    return result, stats


def optimize_with_stats(func: IRFunction) -> Tuple[IRFunction, dict]:
    """Like :func:`optimize`, also reporting which rewrites survived.

    The stats dict carries ``rotl_to_shl`` / ``pext_elided`` counts for
    rewrites that shipped and ``tv_rejected`` (bool) when translation
    validation refuted the batch and the DCE-only version shipped
    instead.
    """
    cleaned = dead_code_eliminate(func)
    rewritten, stats = _apply_range_rewrites(cleaned)
    stats["tv_rejected"] = False
    if not any(v for k, v in stats.items() if k != "tv_rejected"):
        return cleaned, stats

    from repro.obs.metrics import get_registry
    from repro.verify.tv import translation_validate

    registry = get_registry()
    mismatch = translation_validate(func, rewritten, pattern=None)
    if mismatch is not None:
        registry.counter("codegen.optimize.tv_rejected").inc()
        return cleaned, {
            "rotl_to_shl": 0,
            "pext_elided": 0,
            "tv_rejected": True,
        }
    registry.counter("codegen.optimize.rotl_to_shl").inc(
        stats["rotl_to_shl"]
    )
    registry.counter("codegen.optimize.pext_elided").inc(
        stats["pext_elided"]
    )
    return rewritten, stats


def optimize(func: IRFunction) -> IRFunction:
    """Dead-code elimination plus translation-validated range rewrites.

    Pipeline: :func:`dead_code_eliminate`, then the structural range
    rewrites of :func:`_apply_range_rewrites`, then translation
    validation (:mod:`repro.verify.tv`) of the *whole* transformation
    against the original function.  If validation refutes the rewrites
    — which would mean a bug in the analyzer or the rewrite logic — the
    DCE-only version ships instead and a counter records the rejection,
    so an unsound rewrite can never reach a backend.
    """
    result, _ = optimize_with_stats(func)
    return result
