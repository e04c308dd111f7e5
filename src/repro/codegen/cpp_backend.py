"""C++ backend: emit the code SEPE actually ships to C++ users.

The emitted unit mirrors the paper's figures: a functor struct compatible
with ``std::unordered_map<std::string, V, Functor>`` (Figure 5d), with
fully unrolled loads for fixed-length formats (Figure 10), ``_pext_u64``
masks and compacting shifts for the Pext family (Figure 12), and the
skip-table word loop for variable-length formats (Figure 8).

The hashing body lives in a standalone core function::

    static inline uint64_t sepe_hash_core(const char* ptr, size_t len);

emitted by one emitter for two units that differ in their prelude and
in what wraps the core:

- :func:`emit_cpp` is the shipped unit (what ``sepe keysynth`` prints
  and the paper figures show).  Its prelude includes ``<string>`` and
  ``<immintrin.h>`` (``<arm_neon.h>`` on aarch64), the core calls the
  ``_pext_u64`` / ``_mm_aesenc_si128`` intrinsics, and a functor's
  ``operator()`` delegates to the core.
- :func:`emit_cpp_native` is the JIT unit the native tier
  (:mod:`repro.codegen.native`) compiles to a shared object and loads
  back through ctypes.  One unit holds one or several plans: the
  prelude once, then each plan's core in its own ``namespace`` with its
  own ``extern "C"`` scalar and list entry points, named from the plan's
  fingerprint (:func:`native_symbol`), and no functor.  A service
  compiles every route registered before it goes live as one such unit,
  because most of a compile is compiler start-up, not the plan (g++ 12:
  34–37 ms for one plan alone, 61–64 ms for three in one unit).  On x86
  its prelude includes no header:
  it spells the few types, macros and ``memcpy`` of ``<cstddef>``,
  ``<cstdint>`` and ``<cstring>`` as compiler builtins and adds, for the
  features the plans use (:func:`plan_isa_features`), a ``sepe_pext``
  helper over ``__builtin_ia32_pext_di`` and a 16-byte vector typedef
  with an ``sepe_aesenc`` helper over ``__builtin_ia32_aesenc128``
  (:func:`x86_jit_prelude`).  Parsing ``<immintrin.h>`` and ``<string>``
  is most of what a g++ 12 ``-O2 -march=native`` compile of a kernel
  costs; the builtins are the calls those intrinsics expand to, so the
  machine code is the same.  On aarch64 the JIT unit keeps
  ``<arm_neon.h>`` and the C++ headers and drops only ``<string>``.

:func:`emit_scan_unit` emits a third, plan-free unit for the native
tier: the key scan of :func:`repro.core.routes.hash_columnar`, which
shares the JIT unit's builtin types and weak Python C API declarations.

Two targets are supported, matching RQ4:

- ``x86``: BMI2 ``pext`` and AES-NI ``aesenc``.
- ``aarch64``: NEON ``vaeseq_u8`` + ``vaesmcq_u8`` for the Aes family.
  The evaluation hardware lacks ``bext``, so requesting the Pext family
  for aarch64 raises :class:`SynthesisError`, exactly as the paper drops
  that family from Figure 15.

This backend produces source text only; compiling and executing it is
the JIT tier's job, which degrades gracefully when no toolchain is
present.  Tests validate structure here and bit-for-bit parity against
the interpreter there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.codegen.cache import plan_fingerprint
from repro.codegen.ir import (
    AES_INITIAL_STATE,
    AES_ROUND_KEY,
    FINAL_MIX_MUL,
)
from repro.core.plan import CombineOp, HashFamily, SynthesisPlan
from repro.errors import SynthesisError
from repro.obs.trace import span

_SHIPPED_HEADER = """\
// Generated by SEPE (reproduction). Specialized {family} hash.
// Key format: {regex}
// Target: {target}
{prelude}
"""

_JIT_HEADER = """\
// Generated by SEPE (reproduction). Specialized hashes: one namespace
// and one pair of exports per plan.
// Target: {target}
{prelude}
"""

_LOAD_U64 = """\
static inline uint64_t sepe_load_u64_le(const char* ptr) {
    uint64_t value;
    std::memcpy(&value, ptr, sizeof(value));
    return value;
}
"""

_BASE_INCLUDES = "#include <cstddef>\n#include <cstdint>\n#include <cstring>\n"
_SHIPPED_X86 = _BASE_INCLUDES + "#include <string>\n#include <immintrin.h>\n"
_SHIPPED_ARM = _BASE_INCLUDES + "#include <string>\n#include <arm_neon.h>\n"
_JIT_ARM = _BASE_INCLUDES + "#include <arm_neon.h>\n"

# The x86 JIT unit's stand-in for <cstddef>, <cstdint> and <cstring>:
# the core and its entry points need three types, two macros and
# ``memcpy``, which the compiler provides as builtins.  Parsing the
# three headers was about 11 ms of each g++ 12 compile.
_JIT_TYPES = """\
typedef __UINT64_TYPE__ uint64_t;
typedef __INTPTR_TYPE__ intptr_t;
typedef __SIZE_TYPE__ size_t;
#define UINT64_C(value) value##ULL
#define SIZE_MAX __SIZE_MAX__
namespace std {
inline void* memcpy(void* to, const void* from, size_t size) {
    return __builtin_memcpy(to, from, size);
}
}
"""

_JIT_PEXT = """\
static inline uint64_t sepe_pext(uint64_t value, uint64_t mask) {
    return __builtin_ia32_pext_di(value, mask);
}
"""

_JIT_AES = """\
typedef long long sepe_v2di __attribute__((__vector_size__(16)));
static inline sepe_v2di sepe_set_epi64x(long long hi, long long lo) {
    sepe_v2di block = {lo, hi};
    return block;
}
static inline sepe_v2di sepe_aesenc(sepe_v2di state, sepe_v2di key) {
    return __builtin_ia32_aesenc128(state, key);
}
"""

CORE_FUNCTION = "sepe_hash_core"
"""Name of the emitted ``(const char*, size_t) -> uint64_t`` core."""

_PYTHON_API = """\
// The Python C API calls of the list entry, declared by hand instead of
// through <Python.h> and weak, so the unit links without libpython and
// dlopen binds them to the interpreter that loads it.
extern "C" {
__attribute__((weak)) void* PyList_GetItem(void* list, intptr_t index);
__attribute__((weak)) int PyBytes_AsStringAndSize(
    void* bytes, char** data, intptr_t* size);
__attribute__((weak)) void PyErr_Clear(void);
__attribute__((weak)) void* PyEval_SaveThread(void);
__attribute__((weak)) void PyEval_RestoreThread(void* state);
}
"""


_PYTHON_API_NAMES = (
    "PyList_GetItem",
    "PyBytes_AsStringAndSize",
    "PyErr_Clear",
    "PyEval_SaveThread",
    "PyEval_RestoreThread",
)

SCAN_SYMBOL = "sepe_scan"
"""Stem of the key scan unit's exports (:func:`emit_scan_unit`):
``<stem>_lengths`` and ``<stem>_gather``."""

_SCAN_UNIT = """\
// Generated by SEPE (reproduction). Key scan of the columnar batch loop.
{types}typedef __UINT8_TYPE__ uint8_t;
{api}
// Reads the Python list ``keys`` of ``count`` keys and writes each
// key's length to ``lens``, the lengths' sum to ``shape[0]`` and 1 to
// ``shape[1]`` when every key has the first key's length (else 0).
// Returns ``count``, or the index of the first key that is not
// ``bytes`` or is 256 bytes or longer, or SIZE_MAX when the Python C
// API did not resolve.
extern "C" size_t {symbol}_lengths(void* keys, size_t count,
                                   uint8_t* lens, size_t* shape) {{
{guard}
    size_t total = 0;
    size_t same = 1;
    for (size_t index = 0; index < count; ++index) {{
        char* data;
        intptr_t size;
        void* key = PyList_GetItem(keys, (intptr_t)index);
        if (key == nullptr
            || PyBytes_AsStringAndSize(key, &data, &size) < 0
            || size > 255) {{
            PyErr_Clear();
            return index;
        }}
        lens[index] = (uint8_t)size;
        total += (size_t)size;
        same &= (size_t)(lens[index] == lens[0]);
    }}
    shape[0] = total;
    shape[1] = same;
    return count;
}}

// Copies the keys of ``keys`` into ``block`` back to back: key
// ``order[i]`` i-th, or key ``i`` when ``order`` is null.  Each key's
// size must still be the ``lens`` entry the scan wrote, and the block
// never grows past ``capacity`` bytes: the list may have changed since
// the scan.  Returns ``count``, or the index in ``order`` of the first
// key that fails either check or whose position is not below
// ``count``.
extern "C" size_t {symbol}_gather(void* keys, const intptr_t* order,
                                  size_t count, const uint8_t* lens,
                                  char* block, size_t capacity) {{
{guard}
    size_t offset = 0;
    for (size_t index = 0; index < count; ++index) {{
        size_t position = order ? (size_t)order[index] : index;
        char* data;
        intptr_t size;
        void* key = position < count
            ? PyList_GetItem(keys, (intptr_t)position) : nullptr;
        if (key == nullptr
            || PyBytes_AsStringAndSize(key, &data, &size) < 0
            || (size_t)size != lens[position]
            || (size_t)size > capacity - offset) {{
            PyErr_Clear();
            return index;
        }}
        std::memcpy(block + offset, data, (size_t)size);
        offset += (size_t)size;
    }}
    return count;
}}
"""


def emit_scan_unit() -> str:
    """Emit the key scan unit of :func:`repro.core.routes.hash_columnar`.

    It belongs to no plan and needs no ISA feature: its prelude is the
    x86 JIT unit's builtin types, which every GCC and Clang target
    spells the same way, plus the weak Python C API declarations the
    list entry uses.  Two ``extern "C"`` exports, both called with the
    GIL held:

    - ``sepe_scan_lengths(void* keys, size_t count, uint8_t* lens,
      size_t* shape) -> size_t`` records every key's length;
    - ``sepe_scan_gather(void* keys, const intptr_t* order, size_t
      count, const uint8_t* lens, char* block, size_t capacity) ->
      size_t`` copies the keys into one block, in ``order``.

    Both return ``count`` on success; see the comments in the unit for
    the early returns.
    """
    return _SCAN_UNIT.format(
        types=_JIT_TYPES,
        api=_PYTHON_API,
        symbol=SCAN_SYMBOL,
        # It calls the list, bytes and error functions, not the GIL pair.
        guard="\n".join(_api_guard(_PYTHON_API_NAMES[:3])),
    )


@dataclass(frozen=True)
class _X86Spelling:
    """How a prelude spells the x86 primitives the core calls.

    ``pext`` names the bit-extract function.  The other fields spell
    the 128-bit AES state: its type, the ``(hi, lo)`` constructor, the
    xor that absorbs a block into ``state``, the round, and the fold of
    ``state`` to 64 bits.
    """

    pext: str
    block: str
    set: str
    xor: str
    aesenc: str
    fold: str


_INTRINSICS = _X86Spelling(
    pext="_pext_u64",
    block="__m128i",
    set="_mm_set_epi64x",
    xor="_mm_xor_si128(state, {block})",
    aesenc="_mm_aesenc_si128",
    fold="(uint64_t)_mm_cvtsi128_si64(state) ^ "
    "(uint64_t)_mm_extract_epi64(state, 1)",
)

_BUILTINS = _X86Spelling(
    pext="sepe_pext",
    block="sepe_v2di",
    set="sepe_set_epi64x",
    xor="state ^ {block}",
    aesenc="sepe_aesenc",
    fold="(uint64_t)state[0] ^ (uint64_t)state[1]",
)


def _struct_name(plan: SynthesisPlan) -> str:
    return f"synthesized{plan.family.value.capitalize()}Hash"


def plan_isa_features(plan: SynthesisPlan) -> frozenset:
    """ISA features the core of ``plan`` calls (``"pext"``, ``"aes"``)."""
    needed = set()
    if plan.combine is CombineOp.AESENC:
        needed.add("aes")
    full = (1 << 64) - 1
    for load in plan.loads:
        if load.mask is not None and load.mask not in (0, full):
            needed.add("pext")
    return frozenset(needed)


def native_min_length(plan: SynthesisPlan) -> int:
    """Bytes the core reads whatever the key's length.

    A fixed-length plan's key length; for a variable-length plan, the
    end of its furthest body load (its tail loop stops at the key's
    end).  The native tier zero-fills a shorter key to this length, as
    the interpreter reads past a short key's end.
    """
    if plan.key_length is not None:
        return plan.key_length
    return max((load.offset + load.width for load in plan.loads), default=0)


def x86_jit_prelude(
    features: Iterable[str], guards: Optional[Mapping[str, str]] = None
) -> str:
    """Builtin types and helpers of the x86 JIT unit (it includes no
    header).

    Only the helpers for ``features`` are emitted: a compiler may reject
    a target builtin its flags do not enable even in an unused function.
    ``guards`` maps a feature to the preprocessor macro its helper is
    compiled under (``#ifdef``), so one program can carry every helper
    whatever its flags enable.  The native tier's toolchain probe
    compiles this same text, so a probe that passes has executed the
    exact primitives the kernels call.
    """
    features = set(features)
    guards = guards or {}
    parts = [_JIT_TYPES]
    for feature, helper in (("pext", _JIT_PEXT), ("aes", _JIT_AES)):
        if feature not in features:
            continue
        guard = guards.get(feature)
        if guard is not None:
            helper = f"#ifdef {guard}\n{helper}#endif\n"
        parts.append(helper)
    return "".join(parts)


def _check_target(plan: SynthesisPlan, target: str) -> None:
    if target not in ("x86", "aarch64"):
        raise ValueError(f"unknown target: {target!r}")
    if target == "aarch64" and plan.family is HashFamily.PEXT:
        raise SynthesisError(
            "the aarch64 evaluation target has no bit-extract instruction; "
            "the Pext family is x86-only (paper, Section 4.4)"
        )


def _emit_core(
    plan: SynthesisPlan, spelling: Optional[_X86Spelling]
) -> List[str]:
    """The core function's lines for ``plan`` in ``spelling``."""
    if plan.combine is CombineOp.AESENC:
        return _emit_aes_core(plan, spelling)
    return _emit_word_core(plan, spelling)


def emit_cpp(plan: SynthesisPlan, target: str = "x86") -> str:
    """Emit the shipped C++ translation unit for ``plan``.

    Args:
        plan: the synthesis plan to lower.
        target: ``"x86"`` or ``"aarch64"``.

    Raises:
        SynthesisError: for the Pext family on aarch64 (no ``bext`` on the
            paper's evaluation hardware).
        ValueError: for an unknown target string.
    """
    _check_target(plan, target)
    if target == "x86":
        prelude, spelling = _SHIPPED_X86, _INTRINSICS
    else:
        prelude, spelling = _SHIPPED_ARM, None
    with span("codegen.cpp.emit", family=plan.family.value, target=target):
        header = _SHIPPED_HEADER.format(
            family=plan.family.value,
            regex=plan.pattern_regex or "(unspecified)",
            target=target,
            prelude=prelude,
        )
        lines = _emit_core(plan, spelling) + _emit_functor(plan)
        return header + _LOAD_U64 + "\n" + "\n".join(lines) + "\n"


def native_symbol(plan: SynthesisPlan) -> str:
    """Stem of ``plan``'s exports in any JIT unit that holds it.

    ``sepe_`` plus the first 24 hex digits of the plan's fingerprint
    (:func:`repro.codegen.cache.plan_fingerprint`): plans that lower to
    the same core share it, so any unit holding a plan can serve that
    plan, and distinct plans in one unit never clash.
    """
    return f"sepe_{plan_fingerprint(plan)[:24]}"


def emit_cpp_native(
    plans: Sequence[SynthesisPlan], target: str = "x86"
) -> str:
    """Emit one JIT unit holding the cores of ``plans`` and their
    ``extern "C"`` entry points.

    The prelude is emitted once: the header-light one described in the
    module docstring, with the helpers for the union of the plans'
    features, the weak Python C API declarations and the load helper.
    Each plan's core then goes in its own ``namespace`` named by
    :func:`native_symbol`, and there is no functor.  A plan that occurs
    twice is emitted once, and one plan is the one-element case.  Two
    symbols are exported per plan, with ``symbol`` its
    :func:`native_symbol`:

    - ``<symbol>_hash(const char* key, size_t len) -> uint64_t`` — one
      key per call, the scalar ABI.
    - ``<symbol>_hash_list(void* keys, uint64_t* out, size_t count,
      size_t min_len) -> size_t`` — the list ABI: one foreign call per
      batch.  ``keys`` is a Python ``list`` of ``count`` keys, read in
      place through the C API while the caller holds the GIL, and each
      key's hash lands in ``out``.  The return is ``count``, or the
      index of the first key that is not ``bytes`` or is shorter than
      ``min_len`` (the caller normalises the keys and calls again), or
      ``SIZE_MAX`` when the Python C API did not resolve.  After the
      loop the entry releases the GIL and takes it straight back (see
      the comment in the unit).

    Raises:
        SynthesisError / ValueError: as :func:`emit_cpp`, for any plan.
        ValueError: for an empty ``plans``.
    """
    unique = {native_symbol(plan): plan for plan in plans}
    if not unique:
        raise ValueError("a JIT unit needs at least one plan")
    for plan in unique.values():
        _check_target(plan, target)
    if target == "x86":
        features = set()
        for plan in unique.values():
            features |= plan_isa_features(plan)
        prelude = x86_jit_prelude(features)
        spelling: Optional[_X86Spelling] = _BUILTINS
    else:
        prelude, spelling = _JIT_ARM, None
    with span("codegen.cpp.emit", plans=len(unique), target=target):
        parts = [
            _JIT_HEADER.format(target=target, prelude=prelude + _PYTHON_API),
            _LOAD_U64,
        ]
        for symbol, plan in unique.items():
            lines = [
                "",
                f"// {plan.family.value.capitalize()} hash. Key format: "
                f"{plan.pattern_regex or '(unspecified)'}",
                "",
                f"namespace {symbol} {{",
                *_emit_core(plan, spelling),
                f"}}  // namespace {symbol}",
                "",
                *_emit_entries(symbol),
            ]
            parts.append("\n".join(lines) + "\n")
        return "".join(parts)


def _api_guard(names: Iterable[str]) -> List[str]:
    """An entry's first lines: ``SIZE_MAX`` when a weak C API reference
    it calls bound to nothing."""
    return [f"    if (!{name}) return SIZE_MAX;" for name in names]


def _emit_entries(symbol: str) -> List[str]:
    """The ``extern "C"`` scalar and list entry points over the core in
    namespace ``symbol``."""
    core = f"{symbol}::{CORE_FUNCTION}"
    return [
        f'extern "C" uint64_t {symbol}_hash(const char* key, size_t len) {{',
        f"    return {core}(key, len);",
        "}",
        "",
        f'extern "C" size_t {symbol}_hash_list('
        "void* keys, uint64_t* out, size_t count,",
        "                                  size_t min_len) {",
        *_api_guard(_PYTHON_API_NAMES),
        "    for (size_t index = 0; index < count; ++index) {",
        "        char* data;",
        "        intptr_t size;",
        "        void* key = PyList_GetItem(keys, (intptr_t)index);",
        "        if (key == nullptr",
        "            || PyBytes_AsStringAndSize(key, &data, &size) < 0",
        "            || (size_t)size < min_len) {",
        "            PyErr_Clear();",
        "            return index;",
        "        }",
        f"        out[index] = {core}(data, (size_t)size);",
        "    }",
        "    // Release the GIL and take it straight back.  A thread waiting",
        "    // for it rarely gets it here, so this is no hand-off per batch;",
        "    // on a two-producer stream the call keeps the producers' p99",
        "    // call latency down.",
        "    PyEval_RestoreThread(PyEval_SaveThread());",
        "    return count;",
        "}",
    ]


def _emit_functor(plan: SynthesisPlan) -> List[str]:
    """The ``std::unordered_map``-compatible functor over the core."""
    name = _struct_name(plan)
    return [
        f"struct {name} {{",
        "    size_t operator()(const std::string& key) const {",
        f"        return {CORE_FUNCTION}(key.c_str(), key.size());",
        "    }",
        "};",
    ]


def _core_header() -> List[str]:
    return [
        f"static inline uint64_t {CORE_FUNCTION}"
        "(const char* ptr, size_t len) {",
        "    (void)len;",
    ]


def _emit_word_core(
    plan: SynthesisPlan, spelling: Optional[_X86Spelling]
) -> List[str]:
    lines: List[str] = _core_header()
    terms: List[str] = []
    for index, load in enumerate(plan.loads):
        if load.mask == 0:
            continue
        var = f"h{index}"
        if load.width == 8:
            lines.append(
                f"    uint64_t {var} = "
                f"sepe_load_u64_le(ptr + {load.offset});"
            )
        else:
            lines.append(f"    uint64_t {var} = 0;")
            lines.append(
                f"    std::memcpy(&{var}, ptr + {load.offset}, "
                f"{load.width});"
            )
        if load.mask is not None and load.mask != (1 << 64) - 1:
            # Only x86 has a spelling; _check_target refuses Pext elsewhere.
            assert spelling is not None
            lines.append(
                f"    {var} = {spelling.pext}({var}, "
                f"UINT64_C({hex(load.mask)}));"
            )
        if load.shift:
            lines.append(f"    {var} <<= {load.shift};")
        elif load.rotate:
            lines.append(
                f"    {var} = ({var} << {load.rotate}) | "
                f"({var} >> {64 - load.rotate});"
            )
        terms.append(var)
    operator = "|" if plan.combine is CombineOp.OR else "^"
    if terms:
        lines.append(
            f"    uint64_t hash = {f' {operator} '.join(terms)};"
        )
    else:
        lines.append("    uint64_t hash = 0;")
    if not plan.is_fixed_length:
        lines.extend(_emit_tail_loop(plan))
    if plan.final_mix:
        lines.extend(_emit_final_mix_cpp())
    lines.append("    return hash;")
    lines.append("}")
    lines.append("")
    return lines


def _emit_final_mix_cpp() -> List[str]:
    """The optional finalizer: two murmur avalanche rounds."""
    lines: List[str] = []
    for _ in range(2):
        lines.append(
            f"    hash *= UINT64_C({hex(FINAL_MIX_MUL)});"
        )
        lines.append("    hash ^= hash >> 47;")
    return lines


def _emit_tail_loop(plan: SynthesisPlan) -> List[str]:
    """The per-byte trailing loop of Figure 8, lines 10-13."""
    start = (
        plan.skip_table.resume_offset
        if plan.skip_table is not None
        else plan.key_length or 0
    )
    return [
        f"    const char* p = ptr + {start};",
        "    const char* end = ptr + len;",
        "    while (p + 8 <= end) {",
        "        hash ^= sepe_load_u64_le(p);",
        "        p += 8;",
        "    }",
        "    if (p < end) {",
        "        uint64_t tail = 0;",
        "        std::memcpy(&tail, p, end - p);",
        "        hash ^= tail;",
        "    }",
    ]


def _emit_aes_core(
    plan: SynthesisPlan, spelling: Optional[_X86Spelling]
) -> List[str]:
    """The Aes core; x86 when ``spelling`` is given, else NEON."""
    lines: List[str] = _core_header()
    offsets = [load.offset for load in plan.loads]
    if len(offsets) % 2 == 1:
        offsets.append(offsets[-1])
    state_lo = AES_INITIAL_STATE & ((1 << 64) - 1)
    state_hi = AES_INITIAL_STATE >> 64
    key_lo = AES_ROUND_KEY & ((1 << 64) - 1)
    key_hi = AES_ROUND_KEY >> 64
    if spelling is not None:
        lines.append(
            f"    {spelling.block} state = {spelling.set}("
            f"UINT64_C({hex(state_hi)}), UINT64_C({hex(state_lo)}));"
        )
        lines.append(
            f"    const {spelling.block} round_key = {spelling.set}("
            f"UINT64_C({hex(key_hi)}), UINT64_C({hex(key_lo)}));"
        )
        for index in range(0, len(offsets), 2):
            block = (
                f"{spelling.set}("
                f"(long long)sepe_load_u64_le(ptr + {offsets[index + 1]}), "
                f"(long long)sepe_load_u64_le(ptr + {offsets[index]}))"
            )
            lines.append(f"    state = {spelling.xor.format(block=block)};")
            lines.append(
                f"    state = {spelling.aesenc}(state, round_key);"
            )
        lines.append(f"    uint64_t hash = {spelling.fold};")
    else:
        lines.append("    uint8_t state_bytes[16] = {0};")
        lines.append(
            f"    uint64_t st_lo = UINT64_C({hex(state_lo)}), "
            f"st_hi = UINT64_C({hex(state_hi)});"
        )
        lines.append("    std::memcpy(state_bytes, &st_lo, 8);")
        lines.append("    std::memcpy(state_bytes + 8, &st_hi, 8);")
        lines.append("    uint8x16_t state = vld1q_u8(state_bytes);")
        lines.append("    uint8_t key_bytes[16];")
        lines.append(
            f"    uint64_t rk_lo = UINT64_C({hex(key_lo)}), "
            f"rk_hi = UINT64_C({hex(key_hi)});"
        )
        lines.append("    std::memcpy(key_bytes, &rk_lo, 8);")
        lines.append("    std::memcpy(key_bytes + 8, &rk_hi, 8);")
        lines.append("    uint8x16_t round_key = vld1q_u8(key_bytes);")
        for index in range(0, len(offsets), 2):
            lines.append(
                f"    {{ uint64_t pair[2] = {{"
                f"sepe_load_u64_le(ptr + {offsets[index]}), "
                f"sepe_load_u64_le(ptr + {offsets[index + 1]})}};"
            )
            lines.append(
                "      state = veorq_u8(state, "
                "vld1q_u8((const uint8_t*)pair)); }"
            )
            # AESE applies AddRoundKey before SubBytes/ShiftRows, so a zero
            # key plus AESMC and an explicit xor reproduces aesenc.
            lines.append(
                "    state = vaesmcq_u8(vaeseq_u8(state, "
                "vdupq_n_u8(0)));"
            )
            lines.append("    state = veorq_u8(state, round_key);")
        lines.append("    uint64_t lanes[2];")
        lines.append("    vst1q_u8((uint8_t*)lanes, state);")
        lines.append("    uint64_t hash = lanes[0] ^ lanes[1];")
    if not plan.is_fixed_length:
        lines.extend(_emit_tail_loop(plan))
    if plan.final_mix:
        lines.extend(_emit_final_mix_cpp())
    lines.append("    return hash;")
    lines.append("}")
    lines.append("")
    return lines


def emit_skip_table_cpp(plan: SynthesisPlan) -> str:
    """Emit the general skip-table form of Figure 8 (h1) for a plan.

    Unlike :func:`emit_cpp`, which unrolls the body loads, this renders the
    loop-with-table shape the paper shows for variable-length keys, useful
    for documentation and for very long formats where unrolling bloats
    code size (the RQ6 discussion notes Pext synthesis time is dominated
    by printing unrolled instructions).
    """
    if plan.skip_table is None:
        raise SynthesisError("plan has no skip table")
    table = plan.skip_table
    entries = ", ".join(
        str(value) for value in (table.initial_offset,) + table.skips
    )
    count = len(table.skips)
    return "\n".join(
        [
            f"static const size_t sepe_skip[] = {{{entries}}};",
            "",
            "size_t sepe_skip_hash(const char* ptr, size_t len) {",
            "    uint64_t hash = 0;",
            "    const char* end = ptr + len;",
            "    ptr += sepe_skip[0];",
            f"    for (size_t c = 1; c <= {count}; ++c) {{",
            "        hash ^= sepe_load_u64_le(ptr);",
            "        ptr += sepe_skip[c];",
            "    }",
            "    while (ptr < end) {",
            "        hash = (hash << 8) ^ (uint8_t)*ptr;",
            "        ptr++;",
            "    }",
            "    return hash;",
            "}",
        ]
    ) + "\n"
