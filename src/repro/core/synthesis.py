"""Top-level synthesis: format in, specialized hash functions out.

This is the ``synthesize`` entry of the paper's Figure 7, wrapping the
whole pipeline::

    regex or example keys
        → KeyPattern            (inference / regex expansion)
        → SynthesisPlan         (loads, masks, shifts, skip table)
        → IR → Python callable  (the executable artifact)
              → C++ source      (the artifact the paper's tool emits)

Each call produces one of the four families (**Naive**, **OffXor**,
**Aes**, **Pext**); :func:`synthesize_all_families` produces the full set
like the paper's ``keysynth`` command line.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.codegen.batch import BatchHashCallable, scalar_source
from repro.codegen.cache import get_compile_cache
from repro.codegen.cpp_backend import emit_cpp
from repro.codegen.ir import IRFunction
from repro.codegen.python_backend import HashCallable
from repro.core.analysis import (
    analyze_fixed_loads,
    analyze_variable_loads,
    naive_load_offsets,
)
from repro.core.inference import KeyLike, infer_pattern
from repro.core.masks import (
    extraction_masks,
    fold_rotations,
    mask_bit_counts,
    pack_shifts,
)
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
from repro.errors import (
    NativeUnavailableError,
    SynthesisError,
    VerificationError,
)
from repro.obs.trace import span

try:  # Row views are NumPy arrays; without NumPy there are none.
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.codegen.native import NativeModule
    from repro.verify.verifier import VerificationReport

FormatSource = Union[str, KeyPattern]

VERIFY_MODES = (None, "warn", "strict")
"""Accepted values of ``synthesize(..., verify=)``: ``None`` skips
static verification, ``"warn"`` runs it and warns on error findings,
``"strict"`` raises :class:`VerificationError` instead."""


@dataclass
class SynthesizedHash:
    """A synthesized hash function plus all its artifacts.

    Instances are callable (``bytes -> int``) and usable directly as the
    hash of the containers in :mod:`repro.containers`.

    Attributes:
        family: the synthetic family realized.
        pattern: the key format synthesized for.
        plan: the declarative plan (loads, masks, shifts).
        python_source: generated Python source of the scalar function
            (the compiled module also holds its batch entry).
        synthesis_seconds: wall-clock time spent synthesizing (pattern
            analysis through Python compilation), measured for RQ6.
        ir: the optimized IR the Python module was lowered from, or None
            when the compile cache's on-disk tier supplied the source.
    """

    family: HashFamily
    pattern: KeyPattern = field(repr=False)
    plan: SynthesisPlan = field(repr=False)
    python_source: str = field(repr=False)
    synthesis_seconds: float
    _callable: HashCallable = field(repr=False)
    name: str = "sepe_hash"
    verification: Optional["VerificationReport"] = field(
        default=None, repr=False, compare=False
    )
    _native_module: Optional["NativeModule"] = field(
        default=None, repr=False, compare=False
    )
    _native_state: str = field(default="", repr=False, compare=False)
    ir: Optional[IRFunction] = field(default=None, repr=False, compare=False)

    def __repr__(self) -> str:
        length = (
            self.pattern.body_length
            if self.pattern.is_fixed_length
            else f"{self.pattern.min_length}+"
        )
        flags = []
        if self.plan.bijective:
            flags.append("bijective")
        if self.plan.final_mix:
            flags.append("final_mix")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"SynthesizedHash({self.family.value}, "
            f"format={self.plan.pattern_regex!r}, len={length}, "
            f"loads={len(self.plan.loads)}{suffix})"
        )

    def __call__(self, key: bytes) -> int:
        return self._callable(key)

    @property
    def function(self) -> HashCallable:
        """The bare compiled callable (no dataclass indirection)."""
        return self._callable

    @property
    def batch_function(self) -> BatchHashCallable:
        """A ``hash_many(keys) -> list[int]`` over the same plan.

        The list entry of the module the scalar function was compiled
        in (``function.many``): one lowering and one ``exec`` serve both.
        """
        return self._callable.many

    @property
    def lane_function(self) -> Optional[Callable]:
        """The vector lane body ``uint8[k, L] rows -> uint64[k]``, or None.

        None when the plan has no vector form (variable length, an
        opcode the lane lowering refuses, or no NumPy).
        """
        return getattr(self.batch_function, "lanes", None)

    def hash_many(self, keys):
        """Hash a batch with one generated call.

        ``keys`` is either a sequence of ``bytes`` keys, hashed into a
        list of ints, or a ``uint8[k, L]`` row view (one key per row),
        hashed into a ``uint64[k]`` array.  Rows go straight to the
        lane body when the plan has one and ``L`` is its key length;
        otherwise they are hashed as ``bytes`` keys, exactly as a list.

        Raises:
            ValueError: for an array that is not a ``uint8`` matrix.
        """
        if _np is None or not isinstance(keys, _np.ndarray):
            return self.batch_function(keys)
        if keys.ndim != 2 or keys.dtype != _np.uint8:
            raise ValueError(
                f"row views are uint8[k, L]; got {keys.dtype}{keys.shape}"
            )
        lanes = self.lane_function
        if lanes is not None and keys.shape[1] == self.plan.key_length:
            return lanes(keys)
        width = keys.shape[1]
        block = keys.tobytes()
        return _np.array(
            self.batch_function(
                [block[i : i + width] for i in range(0, len(block), width)]
            ),
            dtype=_np.uint64,
        )

    @property
    def native_module(self) -> Optional["NativeModule"]:
        """The JIT-compiled native module for this plan, or None.

        First access compiles the emitted C++ through the process
        compile cache (later accesses — even across ``SynthesizedHash``
        instances for the same plan — reuse the cached ``.so``).  Every
        degradation cause (no compiler, compile error, unsupported
        target) returns None after counting a
        ``codegen.native.fallbacks`` event and warning once; it never
        raises.
        """
        if self._native_state == "unavailable":
            return None
        from repro.codegen.native import native_enabled

        if not native_enabled():
            # The kill switch overrides even an already-cached module:
            # SEPE_NATIVE=0 means no native execution, full stop.
            from repro.codegen.native import warn_native_fallback

            if self._native_state != "disabled":
                self._native_state = "disabled"
                warn_native_fallback("native tier disabled via SEPE_NATIVE=0")
            return None
        if self._native_state == "disabled":
            self._native_state = ""
        if self._native_module is None:
            load_native([self])
        return self._native_module

    @property
    def native_function(self) -> Optional[HashCallable]:
        """Native scalar ``hash(key) -> int``, or None when degraded."""
        return self.native_module

    @property
    def native_batch_function(self) -> Optional[BatchHashCallable]:
        """Native batched ``hash_many``, or None when degraded."""
        module = self.native_module
        return module.hash_many if module is not None else None

    def hash_many_native(self, keys: Sequence[bytes]) -> List[int]:
        """Hash a batch through the native tier, falling back silently.

        Uses the JIT-compiled batched entry point when available,
        otherwise the NumPy/generated batch path — so callers get the
        fastest tier the host supports without caring which one ran.
        """
        module = self.native_module
        if module is not None:
            return module.hash_many(keys)
        return self.batch_function(keys)

    @property
    def is_bijective(self) -> bool:
        """Whether distinct conforming keys are guaranteed distinct hashes."""
        return self.plan.bijective

    def cpp_source(self, target: str = "x86") -> str:
        """Emit the C++ the paper's tool would ship for this plan."""
        return emit_cpp(self.plan, target=target)


def load_native(hashes: Sequence[SynthesizedHash]) -> None:
    """Load the native modules of ``hashes``, every plan not compiled
    yet built into one unit.

    One :meth:`~repro.codegen.cache.CompileCache.native_batch` lookup
    in the process compile cache for the hashes whose module is not
    loaded and not refused; each hash's :attr:`~SynthesizedHash
    .native_module` then returns its view of the unit, or None.  A
    refused plan is counted and warned about as
    :attr:`~SynthesizedHash.native_module` does; under ``SEPE_NATIVE=0``
    nothing is compiled, and each hash counts its fallback on its first
    :attr:`~SynthesizedHash.native_module` access.
    """
    from repro.codegen.native import native_enabled, warn_native_fallback

    pending = [
        synthesized
        for synthesized in hashes
        if synthesized._native_module is None
        and synthesized._native_state == ""
    ]
    if not pending or not native_enabled():
        return
    results = get_compile_cache().native_batch(
        [synthesized.plan for synthesized in pending]
    )
    for synthesized, result in zip(pending, results):
        if isinstance(result, NativeUnavailableError):
            synthesized._native_state = "unavailable"
            warn_native_fallback(str(result))
        else:
            synthesized._native_module = result.function
            synthesized._native_state = "loaded"


def compile_python(
    plan: SynthesisPlan, name: str
) -> Tuple[str, HashCallable, Optional[IRFunction]]:
    """``(python_source, function, ir)`` for ``plan`` from the process
    compile cache: the scalar function's source, the function itself
    carrying the batch entry as ``.many``, and the optimized IR it was
    lowered from (None when the on-disk tier supplied the source)."""
    artifact = get_compile_cache().python(plan, name=name)
    return scalar_source(artifact.source), artifact.function, artifact.ir


def _resolve_pattern(source: FormatSource) -> KeyPattern:
    if isinstance(source, KeyPattern):
        return source
    if isinstance(source, str):
        with span("synthesis.resolve_pattern", regex=source):
            return pattern_from_regex(source)
    raise TypeError(
        f"expected a regex string or KeyPattern, got {type(source).__name__}"
    )


def _naive_plan(pattern: KeyPattern, regex: str) -> SynthesisPlan:
    if pattern.is_fixed_length:
        offsets = naive_load_offsets(pattern.body_length)
        return SynthesisPlan(
            family=HashFamily.NAIVE,
            key_length=pattern.body_length,
            loads=tuple(LoadOp(offset) for offset in offsets),
            skip_table=None,
            combine=CombineOp.XOR,
            total_variable_bits=pattern.variable_bit_count(),
            bijective=False,
            pattern_regex=regex,
        )
    offsets = naive_load_offsets(pattern.body_length)
    table = SkipTable(
        initial_offset=offsets[0],
        skips=tuple(
            [b - a for a, b in zip(offsets, offsets[1:])] + [8]
        ),
    )
    return SynthesisPlan(
        family=HashFamily.NAIVE,
        key_length=None,
        loads=tuple(LoadOp(offset) for offset in offsets),
        skip_table=table,
        combine=CombineOp.XOR,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=False,
        pattern_regex=regex,
    )


def _structured_offsets(
    pattern: KeyPattern,
) -> Tuple[List[int], Optional[SkipTable]]:
    """Load offsets (and skip table for variable formats) per family docs."""
    if pattern.is_fixed_length:
        return analyze_fixed_loads(pattern), None
    table, offsets = analyze_variable_loads(pattern)
    return offsets, table


def _offxor_plan(pattern: KeyPattern, regex: str) -> SynthesisPlan:
    offsets, table = _structured_offsets(pattern)
    return SynthesisPlan(
        family=HashFamily.OFFXOR,
        key_length=pattern.body_length if pattern.is_fixed_length else None,
        loads=tuple(LoadOp(offset) for offset in offsets),
        skip_table=table,
        combine=CombineOp.XOR,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=False,
        pattern_regex=regex,
    )


def _aes_plan(pattern: KeyPattern, regex: str) -> SynthesisPlan:
    offsets, table = _structured_offsets(pattern)
    return SynthesisPlan(
        family=HashFamily.AES,
        key_length=pattern.body_length if pattern.is_fixed_length else None,
        loads=tuple(LoadOp(offset) for offset in offsets),
        skip_table=table,
        combine=CombineOp.AESENC,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=False,
        pattern_regex=regex,
    )


def _pext_plan(pattern: KeyPattern, regex: str) -> SynthesisPlan:
    offsets, table = _structured_offsets(pattern)
    masks = extraction_masks(pattern, offsets)
    bits = mask_bit_counts(masks)
    shifts, bijective = pack_shifts(bits)
    loads: List[LoadOp] = []
    if bijective:
        for offset, mask, shift in zip(offsets, masks, shifts):
            if mask == 0:
                continue
            # Re-pack shifts after dropping empty words below.
            loads.append(LoadOp(offset, mask=mask, shift=shift))
        # Shifts were computed including zero-bit words (which contribute
        # nothing); recompute over the surviving words for tight packing.
        surviving_bits = [bit for bit in bits if bit]
        shifts, bijective = pack_shifts(surviving_bits)
        loads = [
            LoadOp(load.offset, mask=load.mask, shift=shift)
            for load, shift in zip(loads, shifts)
        ]
        combine = CombineOp.OR
    else:
        rotations = fold_rotations(bits)
        loads = [
            LoadOp(offset, mask=mask, rotate=rotation)
            for offset, mask, rotation in zip(offsets, masks, rotations)
            if mask != 0
        ]
        combine = CombineOp.XOR
    if not loads:
        # Fully constant format: nothing varies, hash the raw words so
        # non-conforming keys still disperse.
        return _offxor_plan(pattern, regex)
    # Variable-length formats keep the tail xor regardless of family.
    return SynthesisPlan(
        family=HashFamily.PEXT,
        key_length=pattern.body_length if pattern.is_fixed_length else None,
        loads=tuple(loads),
        skip_table=table,
        combine=combine,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=bijective and pattern.is_fixed_length,
        pattern_regex=regex,
    )


_PLAN_BUILDERS = {
    HashFamily.NAIVE: _naive_plan,
    HashFamily.OFFXOR: _offxor_plan,
    HashFamily.AES: _aes_plan,
    HashFamily.PEXT: _pext_plan,
}


def build_plan(pattern: KeyPattern, family: HashFamily) -> SynthesisPlan:
    """Build the synthesis plan for ``pattern`` under ``family``.

    Raises:
        SynthesisError: for bodies shorter than 8 bytes (paper footnote 5:
            SEPE defaults to the standard hash below one machine word) —
            use :func:`synthesize_short_key` to force a sub-word plan for
            worst-case experiments.
    """
    if pattern.body_length < 8:
        raise SynthesisError(
            f"key body of {pattern.body_length} bytes is below one machine "
            "word; SEPE does not specialize such formats by default"
        )
    with span("synthesis.plan", family=family.value) as plan_span:
        regex = render_regex(pattern)
        plan = _PLAN_BUILDERS[family](pattern, regex)
        plan_span.annotate("loads", len(plan.loads))
        return plan


def _verify_synthesis(
    plan: SynthesisPlan, pattern: KeyPattern, mode: str
) -> "VerificationReport":
    """Run the static verifier on a freshly-built plan.

    Imported lazily: :mod:`repro.verify` consumes plans and IR, so the
    dependency must point from the verifier into the pipeline, not back.
    """
    from repro.verify.verifier import verify_plan

    report = verify_plan(plan, pattern)
    if not report.ok:
        details = "; ".join(
            f"{finding.rule}: {finding.message}"
            for finding in report.lints.errors
        )
        if mode == "strict":
            raise VerificationError(
                f"static verification refutes the {plan.family.value} "
                f"plan for {plan.pattern_regex!r}: {details}"
            )
        warnings.warn(
            f"synthesized {plan.family.value} plan failed verification: "
            f"{details}",
            stacklevel=3,
        )
    return report


def synthesize(
    source: Optional[FormatSource] = None,
    family: HashFamily = HashFamily.PEXT,
    name: Optional[str] = None,
    final_mix: bool = False,
    verify: Optional[str] = None,
    perfect_for: Optional[Iterable[KeyLike]] = None,
) -> SynthesizedHash:
    """Synthesize one specialized hash function.

    Args:
        source: a format regex (the ``keysynth`` path, Figure 5b) or an
            already-built :class:`KeyPattern`.  May be omitted only
            together with ``perfect_for`` (the format is then inferred
            from the closed key set).
        family: which synthetic family to generate.
        name: name of the generated function (defaults to
            ``sepe_<family>_hash``).
        final_mix: append the murmur-style finalizer — an extension
            beyond the paper that restores uniformity (Table 2) at a
            fixed per-call cost; bijective plans stay bijective.
        verify: ``None`` (default) skips static verification; ``"warn"``
            runs :func:`repro.verify.verify_plan` and attaches the
            report (warning on error findings); ``"strict"``
            additionally raises :class:`VerificationError` when any
            error-severity finding survives.
        perfect_for: a *closed* key set — routes to
            :func:`repro.perfect.synthesize_perfect`, returning a
            :class:`~repro.perfect.PerfectHash` certified collision-free
            on exactly these keys (``family`` is ignored; the perfect
            tier always emits Pext-vocabulary plans).

    >>> h = synthesize(r"\\d{3}-\\d{2}-\\d{4}", HashFamily.PEXT)
    >>> h(b"123-45-6789") != h(b"123-45-6780")
    True
    >>> h.is_bijective
    True
    """
    if verify not in VERIFY_MODES:
        raise ValueError(
            f"verify must be one of {VERIFY_MODES}, got {verify!r}"
        )
    if perfect_for is not None:
        # Lazy import: repro.perfect sits on top of this module.
        from repro.perfect import synthesize_perfect

        return synthesize_perfect(
            perfect_for,
            format=source,
            name=name,
            final_mix=final_mix,
            verify=verify,
        )
    if source is None:
        raise TypeError(
            "synthesize() needs a format source (regex or KeyPattern) "
            "unless perfect_for= provides a closed key set"
        )
    started = time.perf_counter()
    with span("synthesize", family=family.value):
        pattern = _resolve_pattern(source)
        plan = build_plan(pattern, family)
        if final_mix:
            plan = replace(plan, final_mix=True)
        report = (
            _verify_synthesis(plan, pattern, verify) if verify else None
        )
        function_name = name or f"sepe_{family.value}_hash"
        # The compile cache skips build_ir → optimize → emit → exec
        # entirely when this plan was already lowered under this name.
        python_source, compiled, ir = compile_python(plan, function_name)
    elapsed = time.perf_counter() - started
    return SynthesizedHash(
        family=family,
        pattern=pattern,
        plan=plan,
        python_source=python_source,
        synthesis_seconds=elapsed,
        _callable=compiled,
        name=function_name,
        verification=report,
        ir=ir,
    )


def synthesize_from_keys(
    keys: Iterable[KeyLike],
    family: HashFamily = HashFamily.PEXT,
    name: Optional[str] = None,
    verify: Optional[str] = None,
) -> SynthesizedHash:
    """Synthesize from example keys (the ``keybuilder`` path, Figure 5a)."""
    with span("synthesize_from_keys", family=family.value):
        return synthesize(
            infer_pattern(keys), family=family, name=name, verify=verify
        )


def synthesize_all_families(
    source: FormatSource,
) -> Dict[HashFamily, SynthesizedHash]:
    """Synthesize all four families for one format, like ``keysynth``."""
    pattern = _resolve_pattern(source)
    return {
        family: synthesize(pattern, family=family) for family in HashFamily
    }


def synthesize_short_key(
    source: FormatSource, family: HashFamily = HashFamily.PEXT
) -> SynthesizedHash:
    """Force synthesis for a sub-8-byte format (RQ7's worst case).

    The paper stresses SEPE never does this by default; the four-digit
    experiment of Section 4.7 needs it, so it is exposed explicitly.  The
    plan is a single partial-width load (plus extraction for Pext).
    """
    started = time.perf_counter()
    pattern = _resolve_pattern(source)
    if pattern.body_length >= 8:
        return synthesize(pattern, family=family)
    if not pattern.is_fixed_length:
        raise SynthesisError("short-key synthesis requires a fixed length")
    length = pattern.body_length
    if length == 0:
        raise SynthesisError("cannot synthesize for an empty key")
    mask, _value = pattern.word_const_mask(0, length)
    variable_mask = ~mask & ((1 << (8 * length)) - 1)
    if family is HashFamily.PEXT and variable_mask not in (0,):
        loads = (LoadOp(0, mask=variable_mask, width=length),)
        combine = CombineOp.OR
        bijective = True
    else:
        loads = (LoadOp(0, width=length),)
        combine = CombineOp.XOR
        bijective = family is not HashFamily.AES
    plan = SynthesisPlan(
        family=family,
        key_length=length,
        loads=loads,
        skip_table=None,
        combine=combine if family is not HashFamily.AES else CombineOp.AESENC,
        total_variable_bits=pattern.variable_bit_count(),
        bijective=bijective and family is not HashFamily.NAIVE,
        pattern_regex=render_regex(pattern),
        short_key=True,
    )
    function_name = f"sepe_{family.value}_short_hash"
    with span("synthesize.short_key", family=family.value):
        python_source, compiled, ir = compile_python(plan, function_name)
    elapsed = time.perf_counter() - started
    return SynthesizedHash(
        family=family,
        pattern=pattern,
        plan=plan,
        python_source=python_source,
        synthesis_seconds=elapsed,
        _callable=compiled,
        name=function_name,
        ir=ir,
    )
