"""Native execution tier: JIT-compile the emitted C++ and dlopen it.

Everything the reproduction measured before this module existed ran in
Python — the generated scalar functions, the NumPy lane kernels, the
interpreter.  The paper's numbers come from *compiled* specialized hash
functions, so this tier closes that gap: it takes the JIT translation
unit from :func:`repro.codegen.cpp_backend.emit_cpp_native` (the hash
core plus ``extern "C"`` scalar and batched entry points, behind a
header-light prelude that calls the ``pext``/``aesenc`` compiler
builtins instead of including ``<immintrin.h>``), shells out to the
system C++ compiler (``c++ -O2 -shared -fPIC``), and loads the shared
object back through :mod:`ctypes`.

Toolchain discovery (:func:`detect_toolchain`) is deliberately paranoid:

- candidates are probed in order ``$CXX``, ``c++``, ``clang++``,
  ``g++`` — first one that can compile *and run* a trivial program
  wins, with ``-march=native`` tried first and no arch flag only when
  that fails;
- ISA feature probes (BMI2 ``pext``, AES-NI / NEON crypto) are
  compiled as tiny executables and **executed in a subprocess**, so a
  compiler that accepts ``-mbmi2`` on a CPU without BMI2 produces a
  dead child process, not a SIGILL in the Python interpreter.  On x86
  they compile the JIT unit's own prelude, so they exercise the exact
  primitives the kernels call, and every probe must print the result
  :mod:`repro.isa` predicts;
- ``-march=native`` is preferred when the probe survives it, otherwise
  explicit per-feature flags are tried, otherwise the feature is
  recorded as unavailable and plans needing it degrade.

The probe is not cached on disk: the CPU can change under the same
compiler, and the probe is what stands between a ``-march=native``
object and a SIGILL.

Every degradation path — no compiler, compile error, unsupported
target/feature — raises :class:`repro.errors.NativeUnavailableError`.
Callers (the compile cache, synthesis, the dispatcher) catch it and
fall back to the NumPy batch kernels or the interpreter; the event is
counted under ``codegen.native.fallbacks`` and warned about exactly
once per process.  Nothing here is allowed to take the pipeline down.

Observability: ``codegen.native.probe`` and ``codegen.native.compile``
spans, ``codegen.native.compiles`` / ``compile_failures`` /
``unavailable`` / ``fallbacks`` counters, and a
``codegen.native.compile_ms`` latency histogram (per-plan compile cost,
63–82 ms with g++ 12 at ``-O2 -march=native`` on a 2-vCPU x86 VM).
"""

from __future__ import annotations

import ctypes
import functools
import os
import platform
import shutil
import subprocess
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.codegen.cpp_backend import (
    NATIVE_SYMBOL,
    NATIVE_UNIT_VERSION,
    emit_cpp_native,
    plan_isa_features,
    x86_jit_prelude,
)
from repro.codegen.ir import AES_INITIAL_STATE, AES_ROUND_KEY
from repro.core.plan import SynthesisPlan
from repro.errors import NativeUnavailableError, SynthesisError
from repro.obs.metrics import exponential_buckets, get_registry
from repro.obs.trace import span

try:  # Marshaling tier: vectorized pointer arrays need NumPy.
    import numpy as _numpy

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via flag in tests
    _numpy = None
    _HAVE_NUMPY = False

__all__ = [
    "NativeModule",
    "Toolchain",
    "compile_plan_native",
    "compile_shared_object",
    "detect_toolchain",
    "host_cpu_identity",
    "load_native_module",
    "native_available",
    "native_enabled",
    "native_target",
    "reset_native_state",
]

_COMPILE_TIMEOUT_S = 120.0
_PROBE_TIMEOUT_S = 30.0

COMPILE_MS_BUCKETS: Tuple[float, ...] = exponential_buckets(4, 2, 12)
"""Latency buckets for ``codegen.native.compile_ms`` (4 ms .. 8.2 s)."""

_BASE_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-std=c++17")

_MASK64 = (1 << 64) - 1

_PROBE_MAIN = """\
#include <cstdio>
int main() {
    std::printf("%d\\n", 40 + 2);
    return 0;
}
"""

# The x86 feature probes compile the JIT unit's own prelude
# (:func:`~repro.codegen.cpp_backend.x86_jit_prelude`) plus a ``main``,
# so a passing probe has executed the primitives the kernels call.  The
# inputs are volatile so the compiler cannot fold the call away, and
# each probe prints its whole result for comparison with the expected
# output, which ``tests/codegen/test_native_probes.py`` derives from
# :mod:`repro.isa`.

_PEXT_PROBE_ARGS = (0x0123456789ABCDEF, 0xFF00F0F00FF00F0F)
_PEXT_PROBE_EXPECT = "21404383"

_PROBE_PEXT = x86_jit_prelude({"pext"}) + """\
#include <cstdio>
int main() {
    volatile uint64_t value = UINT64_C(%#x);
    volatile uint64_t mask = UINT64_C(%#x);
    std::printf("%%llu\\n", (unsigned long long)sepe_pext(value, mask));
    return 0;
}
""" % _PEXT_PROBE_ARGS

# ``(state, round key)`` of the probe round: the Aes kernels' own
# initial state and round key, as 128-bit little-endian integers.
_AES_PROBE_ARGS = (AES_INITIAL_STATE, AES_ROUND_KEY)
_AES_X86_PROBE_EXPECT = "11012308514663870964 13432742152343533349"

_PROBE_AES_X86 = x86_jit_prelude({"aes"}) + """\
#include <cstdio>
int main() {
    volatile uint64_t words[4] = {
        UINT64_C(%#x), UINT64_C(%#x),
        UINT64_C(%#x), UINT64_C(%#x)};
    sepe_v2di state = sepe_set_epi64x(words[1], words[0]);
    sepe_v2di key = sepe_set_epi64x(words[3], words[2]);
    state = sepe_aesenc(state, key);
    std::printf("%%llu %%llu\\n", (unsigned long long)state[0],
                (unsigned long long)state[1]);
    return 0;
}
""" % (
    _AES_PROBE_ARGS[0] & _MASK64,
    _AES_PROBE_ARGS[0] >> 64,
    _AES_PROBE_ARGS[1] & _MASK64,
    _AES_PROBE_ARGS[1] >> 64,
)

# One aesenc round with a zero key on a state of sixteen 0x5a bytes:
# AESE with a zero key then AESMC is exactly that round on aarch64.
_AES_ARM_PROBE_EXPECT = "190"

_PROBE_AES_ARM = """\
#include <arm_neon.h>
#include <cstdio>
int main() {
    uint8x16_t state = vdupq_n_u8(0x5a);
    state = vaesmcq_u8(vaeseq_u8(state, vdupq_n_u8(0)));
    uint8_t bytes[16];
    vst1q_u8(bytes, state);
    std::printf("%u\\n", (unsigned)bytes[0]);
    return 0;
}
"""


@dataclass(frozen=True)
class Toolchain:
    """A probed, known-working host C++ toolchain.

    Attributes:
        command: resolved compiler executable path.
        identity: first line of ``--version`` output — recorded in bench
            fingerprints so cross-compiler comparisons are skipped.
        flags: codegen flags every compile uses (base + arch + feature
            flags that survived their run-probes).
        features: ISA features proven *executable* on this host
            (subset of ``{"pext", "aes"}``).
        target: the :mod:`cpp_backend` target string for this host
            (``"x86"`` or ``"aarch64"``).
    """

    command: str
    identity: str
    flags: Tuple[str, ...]
    features: frozenset = field(default_factory=frozenset)
    target: str = "x86"

    def supports(self, needed: Iterable[str]) -> bool:
        return set(needed) <= self.features

    def artifact_key(self) -> str:
        """Everything a shared object built by this toolchain depends on.

        The compiler identity, its flags, the probed features, the JIT
        unit version and, when ``-march=native`` is in the flags, the
        host CPU (two hosts with the same compiler but different CPUs
        produce objects that need not run on each other).  The compile
        cache tags persisted ``.so`` files with a digest of this key.
        """
        parts = [
            self.identity,
            " ".join(self.flags),
            ",".join(sorted(self.features)),
            f"unit-v{NATIVE_UNIT_VERSION}",
        ]
        if "-march=native" in self.flags:
            parts.append(host_cpu_identity())
        return "\n".join(parts)


class NativeModule:
    """A loaded specialized-hash shared object.

    Calling the module hashes one key through the ``extern "C"`` scalar
    entry point; :meth:`hash_many` marshals a whole batch through the
    ``<symbol>_hash_many`` entry point, paying the foreign-function
    overhead once per batch instead of once per key.

    Attributes:
        path: the ``.so`` on disk (may live in a temp dir owned by this
            object; the mapping stays valid for the object's lifetime).
        compiler: identity string of the toolchain that produced it
            (empty when loaded from a cached artifact without metadata).
        compile_ms: wall-clock compile latency in milliseconds, 0.0 for
            a disk-cache load that skipped the compiler.
    """

    def __init__(
        self,
        so_path: Path,
        symbol: str = NATIVE_SYMBOL,
        compiler: str = "",
        compile_ms: float = 0.0,
        key_length: Optional[int] = None,
        _tempdir: Optional[tempfile.TemporaryDirectory] = None,
    ):
        self.path = Path(so_path)
        self.symbol = symbol
        self.compiler = compiler
        self.compile_ms = compile_ms
        self.key_length = key_length
        self._tempdir = _tempdir  # keeps a temp build dir alive with us
        try:
            self._lib = ctypes.CDLL(str(self.path))
            scalar = getattr(self._lib, f"{symbol}_hash")
            batch = getattr(self._lib, f"{symbol}_hash_many")
            # A second binding of the same symbol (CDLL.__getitem__
            # creates a fresh function object) taking raw addresses, so
            # the packed path passes NumPy data pointers directly.
            batch_raw = self._lib[f"{symbol}_hash_many"]
        except (OSError, AttributeError, KeyError) as exc:
            raise NativeUnavailableError(
                f"cannot load native module {self.path}: {exc}"
            ) from exc
        scalar.argtypes = [ctypes.c_char_p, ctypes.c_size_t]
        scalar.restype = ctypes.c_uint64
        batch.argtypes = [
            ctypes.POINTER(ctypes.c_char_p),
            ctypes.POINTER(ctypes.c_size_t),
            ctypes.POINTER(ctypes.c_uint64),
            ctypes.c_size_t,
        ]
        batch.restype = None
        batch_raw.argtypes = [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_size_t,
        ]
        batch_raw.restype = None
        self._scalar = scalar
        self._batch = batch
        self._batch_raw = batch_raw
        # Per-batch-shape marshaling cache (last ``(count, length)``
        # only; callers overwhelmingly re-batch at one shape): the
        # offsets and lens vectors for the fixed-length path.  Only
        # arrays that are never written after construction live here —
        # one NativeModule
        # is shared by every shard/dispatcher hashing the same plan
        # (the compile cache hands out one instance per plan), so a
        # cached *output* buffer would be a cross-thread data race.
        self._offsets_cache: Optional[tuple] = None

    def __call__(self, key) -> int:
        if not isinstance(key, bytes):
            # ctypes takes only bytes for a char pointer: encode a str,
            # copy any other buffer (bytearray, memoryview).
            key = key.encode("utf-8") if isinstance(key, str) else bytes(key)
        length = self.key_length
        if length is not None and len(key) < length:
            # A fixed-length kernel reads bytes [0, key_length) whatever
            # the key's length: zero-fill a short key, as the scalar
            # function and the batch entries do.
            key = bytes(key).ljust(length, b"\0")
        return self._scalar(key, len(key))

    def hash_many(self, keys: Sequence) -> List[int]:
        """Hash a batch through the native ``hash_many`` entry point.

        The keys are packed into one contiguous buffer (the same
        ``b"".join`` strategy as the NumPy lane kernels) and the
        pointer/length arrays the C ABI wants are computed as NumPy
        vector ops — so the per-key Python cost is the join, one
        length scan and the final ``tolist``, not a ctypes conversion
        per key.  Without NumPy a plain ctypes-array marshal keeps the
        tier functional.
        """
        count = len(keys)
        if count == 0:
            return []
        if not _HAVE_NUMPY:
            try:
                return self._hash_many_ctypes(keys, count)
            except TypeError:
                keys = [
                    key.encode("utf-8") if isinstance(key, str) else key
                    for key in keys
                ]
                return self._hash_many_ctypes(keys, count)
        return self._marshal_batch(keys, count).tolist()

    def hash_many_array(self, keys):
        """Like :meth:`hash_many` but returning a NumPy uint64 array.

        Skips the ``tolist`` materialization (the single largest cost
        of the batched path — building one large ``int`` object per
        key), so numeric consumers that mod/partition/compare hashes as
        arrays get the raw native throughput.

        ``keys`` is either a sequence of keys or a ``uint8[k, w]`` row
        view, one ``w``-byte key per row — the convention of
        :meth:`repro.core.synthesis.SynthesizedHash.hash_many`.  Rows
        already sit in one block, so they are hashed in place: no join
        and no per-key length scan.

        Raises:
            NativeUnavailableError: when NumPy is not importable.
            ValueError: for an array that is not a ``uint8`` matrix, or
                rows narrower than a fixed-length plan's keys.
        """
        if not _HAVE_NUMPY:
            raise NativeUnavailableError(
                "hash_many_array requires NumPy for the output array"
            )
        if isinstance(keys, _numpy.ndarray):
            if (
                keys.ndim != 2
                or keys.dtype != _numpy.uint8
                or keys.shape[1] < (self.key_length or 0)
            ):
                raise ValueError(
                    f"rows must be uint8[k, >={self.key_length or 0}]; "
                    f"got {keys.dtype}{keys.shape}"
                )
            rows = _numpy.ascontiguousarray(keys)
            return self._hash_fixed(rows.ctypes.data, *rows.shape)
        count = len(keys)
        if count == 0:
            return _numpy.empty(0, dtype=_numpy.uint64)
        return self._marshal_batch(keys, count)

    def _marshal_batch(self, keys: Sequence, count: int):
        """Pack, point, call: the NumPy-vectorized batched invocation."""
        try:
            buf = b"".join(keys)
        except TypeError:
            keys = [
                key.encode("utf-8") if isinstance(key, str) else key
                for key in keys
            ]
            buf = b"".join(keys)
        length = self.key_length
        if length is not None and list(map(len, keys)).count(length) != count:
            # A fixed-length kernel reads bytes [0, key_length) of every
            # key whatever its length.  Cut or zero-pad each key of a
            # ragged batch to exactly the bytes the scalar function
            # reads; lengths that merely sum to ``count * length`` do
            # not make a batch fixed-length.
            buf = b"".join(
                [bytes(key[:length]).ljust(length, b"\0") for key in keys]
            )
        # ``buf`` must stay alive through the call; the local
        # guarantees it.
        base = ctypes.cast(
            ctypes.c_char_p(buf), ctypes.c_void_p
        ).value
        if length is not None:
            return self._hash_fixed(base, count, length)
        lens = _numpy.fromiter(
            map(len, keys), dtype=_numpy.uintp, count=count
        )
        pointers = _numpy.empty(count, dtype=_numpy.uintp)
        pointers[0] = base
        _numpy.cumsum(lens[:-1], out=pointers[1:])
        pointers[1:] += base
        out = _numpy.empty(count, dtype=_numpy.uint64)
        self._batch_raw(
            pointers.ctypes.data, lens.ctypes.data, out.ctypes.data, count
        )
        return out

    def _hash_fixed(self, base: int, count: int, length: int):
        """Call the batch entry on ``count`` keys of ``length`` bytes
        packed from ``base``.

        Pointer arithmetic replaces per-key length computation
        entirely, and the offsets / lens vectors are reused across
        equal-shaped batches (the steady-state shape of dispatcher
        traffic).  The pointers vector is allocated fresh per call:
        concurrent batches from different threads share this module,
        and a shared output buffer would let one batch hash another's
        keys.  The caller keeps the block at ``base`` alive.
        """
        cached = self._offsets_cache
        if cached is None or cached[0] != (count, length):
            offsets = length * _numpy.arange(count, dtype=_numpy.uintp)
            lens = _numpy.full(count, length, dtype=_numpy.uintp)
            self._offsets_cache = ((count, length), offsets, lens)
        else:
            _, offsets, lens = cached
        pointers = offsets + _numpy.uintp(base)
        out = _numpy.empty(count, dtype=_numpy.uint64)
        self._batch_raw(
            pointers.ctypes.data, lens.ctypes.data, out.ctypes.data, count
        )
        return out

    def _hash_many_ctypes(self, keys: Sequence, count: int) -> List[int]:
        key_array = (ctypes.c_char_p * count)(*keys)
        len_array = (ctypes.c_size_t * count)(
            *[len(key) for key in keys]
        )
        out = (ctypes.c_uint64 * count)()
        self._batch(key_array, len_array, out, count)
        return list(out)

    def __repr__(self) -> str:
        return (
            f"NativeModule(path={str(self.path)!r}, "
            f"compiler={self.compiler!r})"
        )


# -- toolchain detection ----------------------------------------------------

_toolchain_lock = threading.Lock()
_toolchain_probed = False
_toolchain: Optional[Toolchain] = None
_toolchain_reason: Optional[str] = None
_fallback_warned = False


def native_target() -> Optional[str]:
    """The cpp_backend target for this host, or None if unsupported."""
    machine = platform.machine().lower()
    if machine in ("x86_64", "amd64", "x86", "i686"):
        return "x86"
    if machine in ("aarch64", "arm64"):
        return "aarch64"
    return None


def native_enabled() -> bool:
    """Whether the native tier is allowed at all (``SEPE_NATIVE`` env).

    ``SEPE_NATIVE=0`` force-disables the tier (probing included);
    anything else — including unset — leaves it on.  The dispatcher's
    ``prefer_native`` default reads the same variable.
    """
    return os.environ.get("SEPE_NATIVE", "1") != "0"


def _run(cmd: Sequence[str], timeout: float, cwd: Optional[Path] = None):
    return subprocess.run(
        list(cmd),
        cwd=str(cwd) if cwd is not None else None,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=timeout,
    )


def _probe_runs(
    command: str,
    flags: Sequence[str],
    source: str,
    work: Path,
    stem: str,
    expect: str,
) -> bool:
    """Compile ``source`` with ``flags``, run it, and check its output.

    Running (not just compiling) is the point: an unsupported
    instruction kills the probe subprocess, never this interpreter, and
    a wrong result (stdout other than ``expect``) fails the probe too.
    """
    src = work / f"{stem}.cpp"
    exe = work / f"{stem}.bin"
    src.write_text(source, encoding="utf-8")
    try:
        compiled = _run(
            [command, "-O2", *flags, str(src), "-o", str(exe)],
            _PROBE_TIMEOUT_S,
        )
        if compiled.returncode != 0:
            return False
        ran = _run([str(exe)], _PROBE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return False
    if ran.returncode != 0:
        return False
    return ran.stdout.decode("utf-8", "replace").strip() == expect


_CPUINFO_KEYS = frozenset(
    {
        # x86
        "vendor_id", "cpu family", "model", "model name", "flags",
        # aarch64
        "CPU implementer", "CPU architecture", "CPU variant", "CPU part",
        "Features",
    }
)


@functools.lru_cache(maxsize=None)
def host_cpu_identity() -> str:
    """The host CPU's model and ISA flags, as ``-march=native`` sees them.

    Read from the first processor block of ``/proc/cpuinfo``; where that
    file does not exist, ``platform`` supplies a coarser identity.
    """
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            block = handle.read().split("\n\n", 1)[0]
    except OSError:
        block = ""
    fields = []
    for line in block.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in _CPUINFO_KEYS:
            fields.append(f"{key.strip()}={value.strip()}")
    if not fields:
        fields = [platform.machine(), platform.processor()]
    return "; ".join(fields)


def _compiler_identity(command: str) -> str:
    try:
        result = _run([command, "--version"], _PROBE_TIMEOUT_S)
        first = result.stdout.decode("utf-8", "replace").splitlines()
        if first:
            return first[0].strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return Path(command).name


def _candidate_compilers() -> List[str]:
    candidates: List[str] = []
    env_cxx = os.environ.get("CXX", "").strip()
    if env_cxx:
        candidates.append(env_cxx)
    candidates.extend(["c++", "clang++", "g++"])
    resolved: List[str] = []
    for candidate in candidates:
        path = shutil.which(candidate)
        if path and path not in resolved:
            resolved.append(path)
    return resolved


def _probe_toolchain() -> Tuple[Optional[Toolchain], Optional[str]]:
    target = native_target()
    if target is None:
        return None, f"unsupported machine {platform.machine()!r}"
    candidates = _candidate_compilers()
    if not candidates:
        return None, "no C++ compiler found ($CXX, c++, clang++, g++)"
    with tempfile.TemporaryDirectory(prefix="sepe-probe-") as tmp:
        work = Path(tmp)
        for command in candidates:
            # -march=native first: on a working host that one compile
            # proves the compiler, and the flagless probe only runs when
            # the arch flag is what failed.
            if _probe_runs(
                command,
                ["-march=native"],
                _PROBE_MAIN,
                work,
                "march",
                expect="42",
            ):
                arch_flags = ["-march=native"]
            elif _probe_runs(
                command, [], _PROBE_MAIN, work, "base", expect="42"
            ):
                arch_flags = []
            else:
                continue
            features = set()
            feature_flags: List[str] = []
            if target == "x86":
                feature_probes = [
                    ("pext", _PROBE_PEXT, ["-mbmi2"], _PEXT_PROBE_EXPECT),
                    ("aes", _PROBE_AES_X86, ["-maes"], _AES_X86_PROBE_EXPECT),
                ]
            else:
                feature_probes = [
                    (
                        "aes",
                        _PROBE_AES_ARM,
                        ["-march=armv8-a+crypto"],
                        _AES_ARM_PROBE_EXPECT,
                    ),
                ]
            for name, source, explicit, expect in feature_probes:
                if arch_flags and _probe_runs(
                    command, arch_flags, source, work, f"{name}_arch", expect
                ):
                    features.add(name)
                elif _probe_runs(
                    command, explicit, source, work, f"{name}_flag", expect
                ):
                    features.add(name)
                    feature_flags.extend(
                        flag
                        for flag in explicit
                        if flag not in feature_flags
                    )
            flags = (*_BASE_FLAGS, *arch_flags, *feature_flags)
            return (
                Toolchain(
                    command=command,
                    identity=_compiler_identity(command),
                    flags=flags,
                    features=frozenset(features),
                    target=target,
                ),
                None,
            )
    return None, (
        "no candidate compiler passed the compile-and-run probe: "
        + ", ".join(candidates)
    )


def detect_toolchain(refresh: bool = False) -> Toolchain:
    """Probe (once) and return the host toolchain.

    Raises:
        NativeUnavailableError: when the tier is disabled via
            ``SEPE_NATIVE=0``, the machine is unsupported, or no
            candidate compiler survives the compile-and-run probe.  The
            negative result is cached too — callers retrying every plan
            do not re-shell-out (pass ``refresh=True`` to re-probe).
    """
    global _toolchain_probed, _toolchain, _toolchain_reason
    if not native_enabled():
        raise NativeUnavailableError(
            "native tier disabled via SEPE_NATIVE=0"
        )
    with _toolchain_lock:
        if refresh:
            _toolchain_probed = False
        if not _toolchain_probed:
            with span("codegen.native.probe"):
                _toolchain, _toolchain_reason = _probe_toolchain()
            _toolchain_probed = True
            if _toolchain is None:
                get_registry().counter(
                    "codegen.native.unavailable"
                ).inc()
        if _toolchain is None:
            raise NativeUnavailableError(
                _toolchain_reason or "native toolchain unavailable"
            )
        return _toolchain


def native_available() -> bool:
    """True when a working toolchain exists (probing on first call)."""
    try:
        detect_toolchain()
        return True
    except NativeUnavailableError:
        return False


def reset_native_state() -> None:
    """Forget the probed toolchain and the warn-once latch (tests)."""
    global _toolchain_probed, _toolchain, _toolchain_reason
    global _fallback_warned
    with _toolchain_lock:
        _toolchain_probed = False
        _toolchain = None
        _toolchain_reason = None
        _fallback_warned = False


def warn_native_fallback(reason: str) -> None:
    """Count a native→Python fallback; warn the first time only."""
    global _fallback_warned
    get_registry().counter("codegen.native.fallbacks").inc()
    if not _fallback_warned:
        _fallback_warned = True
        warnings.warn(
            f"native hash tier unavailable ({reason}); "
            "falling back to NumPy/interpreter execution",
            RuntimeWarning,
            stacklevel=3,
        )


# -- compilation ------------------------------------------------------------

def compile_shared_object(
    source: str,
    out_path: Path,
    toolchain: Optional[Toolchain] = None,
) -> float:
    """Compile ``source`` into the shared object ``out_path``.

    Returns the wall-clock compile latency in milliseconds (also
    observed into the ``codegen.native.compile_ms`` histogram).

    Raises:
        NativeUnavailableError: on any compiler failure, with the tail
            of stderr in the message.
    """
    toolchain = toolchain if toolchain is not None else detect_toolchain()
    registry = get_registry()
    out_path = Path(out_path)
    src_path = out_path.with_suffix(".cpp")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    src_path.write_text(source, encoding="utf-8")
    cmd = [
        toolchain.command,
        *toolchain.flags,
        "-shared",
        str(src_path),
        "-o",
        str(out_path),
    ]
    started = time.perf_counter()
    try:
        result = _run(cmd, _COMPILE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as exc:
        registry.counter("codegen.native.compile_failures").inc()
        raise NativeUnavailableError(
            f"native compile failed to launch: {exc}"
        ) from exc
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if result.returncode != 0:
        registry.counter("codegen.native.compile_failures").inc()
        stderr = result.stderr.decode("utf-8", "replace").strip()
        tail = "\n".join(stderr.splitlines()[-8:])
        raise NativeUnavailableError(
            f"native compile failed (exit {result.returncode}):\n{tail}"
        )
    registry.counter("codegen.native.compiles").inc()
    registry.histogram(
        "codegen.native.compile_ms", COMPILE_MS_BUCKETS
    ).observe(elapsed_ms)
    return elapsed_ms


def load_native_module(
    so_path: Path,
    symbol: str = NATIVE_SYMBOL,
    compiler: str = "",
    compile_ms: float = 0.0,
    key_length: Optional[int] = None,
) -> NativeModule:
    """dlopen an existing shared object and bind its entry points.

    ``key_length`` enables the fixed-length batched marshaling fast
    path; pass the plan's ``key_length`` when reloading a cached ``.so``
    so warm artifacts batch as fast as freshly compiled ones.
    """
    return NativeModule(
        Path(so_path),
        symbol=symbol,
        compiler=compiler,
        compile_ms=compile_ms,
        key_length=key_length,
    )


def compile_plan_native(
    plan: SynthesisPlan,
    toolchain: Optional[Toolchain] = None,
    out_path: Optional[Path] = None,
    symbol: str = NATIVE_SYMBOL,
) -> Tuple[NativeModule, str]:
    """Emit, compile and load the native module for ``plan``.

    Returns ``(module, source)`` so callers (the compile cache) can
    persist the translation unit alongside the artifact.  When
    ``out_path`` is None the shared object lives in a private temp
    directory whose lifetime is tied to the returned module.

    Raises:
        NativeUnavailableError: no toolchain, missing ISA feature
            (e.g. an Aes plan on a host without AES instructions, or
            the Pext family on aarch64), or a compile/load failure.
    """
    toolchain = toolchain if toolchain is not None else detect_toolchain()
    needed = plan_isa_features(plan)
    if not toolchain.supports(needed):
        missing = ", ".join(sorted(needed - toolchain.features))
        raise NativeUnavailableError(
            f"host toolchain lacks required ISA features: {missing}"
        )
    try:
        source = emit_cpp_native(
            plan, target=toolchain.target, symbol=symbol
        )
    except SynthesisError as exc:
        raise NativeUnavailableError(
            f"plan cannot target {toolchain.target}: {exc}"
        ) from exc
    with span(
        "codegen.native.compile",
        family=plan.family.value,
        target=toolchain.target,
    ):
        tempdir: Optional[tempfile.TemporaryDirectory] = None
        if out_path is None:
            tempdir = tempfile.TemporaryDirectory(prefix="sepe-native-")
            out_path = Path(tempdir.name) / "plan.so"
        elapsed_ms = compile_shared_object(source, out_path, toolchain)
        module = NativeModule(
            Path(out_path),
            symbol=symbol,
            compiler=toolchain.identity,
            compile_ms=elapsed_ms,
            key_length=plan.key_length,
            _tempdir=tempdir,
        )
    return module, source
