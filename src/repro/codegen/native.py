"""Native execution tier: JIT-compile the emitted C++ and dlopen it.

Everything the reproduction measured before this module existed ran in
Python — the generated scalar functions, the NumPy lane kernels, the
interpreter.  The paper's numbers come from *compiled* specialized hash
functions, so this tier closes that gap: it takes the JIT translation
unit from :func:`repro.codegen.cpp_backend.emit_cpp_native` (the hash
cores of one or several plans, each with its own ``extern "C"`` scalar
and list entry points, behind one header-light prelude that calls the
``pext``/``aesenc`` compiler builtins instead of including
``<immintrin.h>``), shells out to the
system C++ compiler (``c++ -O2 -fPIC -shared -nodefaultlibs -Wl,-z,defs``
on Linux), and loads the shared object back through
:class:`ctypes.PyDLL`.  The unit needs no C++ runtime, libm or libgcc,
so the link reads no library but libc, and libc only for a
variable-length plan, whose tail ``memcpy`` may be a call; ``-z defs``
makes an unresolved symbol a compile failure instead of a late
``dlopen`` error.  The five Python C API functions the list entry
calls are declared weak, without ``<Python.h>``: they stay unresolved
at the link and ``dlopen`` binds them to the running interpreter
(darwin links with ``-undefined dynamic_lookup`` for the same effect;
no test runs on darwin).

A batch costs one foreign call: the list entry reads each key's bytes
in place from the Python list, with the GIL held, and writes the hashes
into one ``array("Q")`` that :meth:`NativeModule.hash_many` turns into
ints and :meth:`NativeModule.hash_many_array` views as a NumPy array.
It then releases the GIL and takes it straight back.  That does not
hand the GIL to a waiting thread once per batch: on serve-stream under
tracing, the reconciler waited so long for it that one reconcile drain
took 8,479 ms, and a swap's 23 ms compile 4,848 ms wall.  The call
stays because without it untraced serve-stream ``call_p99_ms`` rose
from 0.27–0.29 to 0.69–0.75 ms.  A key it cannot read in place (not
``bytes``, or shorter than the kernel reads) sends the batch through
:func:`_kernel_key` and once more through the entry.

:func:`compile_plans_native` compiles the plans it is given as one
unit: one :func:`compile_shared_object` call with the union of their ISA
features, then one :class:`NativeModule` view per plan on the one path
(the loader maps the object once).  Most of a compile is fixed cost —
an empty unit costs 21 ms with g++ 12 and the first function in it
about 10 ms more — so three plans cost 61–64 ms in one unit against
34–37 ms each alone.  A :class:`~repro.serve.HashService` compiles every
route registered before it goes live this way, and
:func:`compile_plan_native` is the one-plan case.

One more unit belongs to no plan: the key scan of the columnar batch
loop (:func:`~repro.codegen.cpp_backend.emit_scan_unit`).
:func:`scan_unit` compiles it with the same toolchain and link on the
first call, loads it through :class:`ctypes.PyDLL` as :class:`ScanUnit`,
and keeps it for the process (:func:`reset_native_state` forgets it).
Its two exports record every key's length and copy the keys into one
block, reading the list through the same weak C API declarations.

Toolchain discovery (:func:`detect_toolchain`) is deliberately paranoid:

- candidates are probed in order ``$CXX``, ``c++``, ``clang++``,
  ``g++`` — first one that can compile *and run* a trivial program
  wins;
- the probe is one program, compiled with ``-march=native`` and
  **executed in a subprocess**, so a compiler that enables an
  instruction the CPU lacks produces a dead child process, not a
  SIGILL in the Python interpreter.  The program is the JIT unit's own
  prelude for every feature of the target plus a ``main`` that prints
  ``42`` and then, for each ISA feature (BMI2 ``pext``, AES-NI / NEON
  crypto) and only under that feature's macro guard (``__BMI2__``,
  ``__AES__``, ``__ARM_FEATURE_AES``), one tagged result line, flushing
  after every line.  Its stdout is read even when the run dies, so the
  sections before a crash still count.  ``42`` keeps ``-march=native``;
  a feature is proven only when its line is the result :mod:`repro.isa`
  predicts, so the probe exercises the exact primitives the kernels
  call;
- on a working host that is the whole probe: one compile-and-run.  A
  feature the run did not prove is re-probed alone with its explicit
  flag (``-mbmi2``, ``-maes``, ``-march=armv8-a+crypto``), and is
  recorded as unavailable (plans needing it degrade) when that fails
  too.  If the run died after ``42``, the sections after the crash
  never ran, so each feature it did not prove is first run alone under
  ``-march=native``.  Without the ``42`` line, a flagless run proves
  the compiler before the explicit-flag probes.

The probe is not cached on disk: the CPU can change under the same
compiler, and the probe is what stands between a ``-march=native``
object and a SIGILL.  So the probe gates the load, not the compile.
The first compile of a cold process (:func:`compile_shared_object`,
without a toolchain) starts the probe on a thread and compiles at once
with the flags a working host's probe returns: the first candidate
compiler, ``-O2 -fPIC -std=c++17 -march=native``.  It keeps the object
only if the probe returns that command and those flags and proves the
unit's ISA features, and recompiles with the probed toolchain (or
degrades) otherwise; nothing is loaded before the probe has returned.

Every degradation path — no compiler, compile error, unsupported
target/feature — raises :class:`repro.errors.NativeUnavailableError`.
Callers (the compile cache, synthesis, the dispatcher) catch it and
fall back to the NumPy batch kernels or the interpreter; the event is
counted under ``codegen.native.fallbacks`` and warned about exactly
once per process.  Nothing here is allowed to take the pipeline down.

Every compile and probe compile also passes ``-pipe`` (the assembly
goes to the assembler through a pipe, not a temporary file), a
front-end flag kept out of ``Toolchain.flags``, which holds only the
flags that decide the machine code.

Observability: ``codegen.native.probe`` (on the probe's own thread
when it runs beside a compile) and ``codegen.native.compile`` spans,
``codegen.native.probe_runs`` (compile-and-runs the probe made),
``codegen.native.compiles`` / ``compile_failures`` / ``discards``
(objects compiled beside the probe and not kept) / ``unavailable`` /
``fallbacks`` counters, and a ``codegen.native.compile_ms`` latency
histogram.  Measured with g++ 12 at ``-O2 -march=native`` on a 2-vCPU
x86 VM (medians of 15): a plan compile takes 31–34 ms and the probe
42 ms, and up to 58 and 72 ms in slower host phases.
"""

from __future__ import annotations

import ctypes
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.codegen.cpp_backend import (
    SCAN_SYMBOL,
    emit_cpp_native,
    emit_scan_unit,
    _JIT_ARM,
    native_min_length,
    native_symbol,
    plan_isa_features,
    x86_jit_prelude,
)
from repro.codegen.ir import AES_INITIAL_STATE, AES_ROUND_KEY
from repro.core.plan import SynthesisPlan
from repro.errors import NativeUnavailableError, SynthesisError
from repro.obs.metrics import exponential_buckets, get_registry
from repro.obs.trace import span

try:  # ``hash_many_array`` returns a NumPy array.
    import numpy as _numpy

    _HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via flag in tests
    _numpy = None
    _HAVE_NUMPY = False

__all__ = [
    "NativeModule",
    "ScanUnit",
    "Toolchain",
    "compile_plan_native",
    "compile_plans_native",
    "compile_shared_object",
    "detect_toolchain",
    "native_available",
    "native_enabled",
    "native_target",
    "probed_toolchain",
    "reset_native_state",
    "scan_unit",
]

_COMPILE_TIMEOUT_S = 120.0
_PROBE_TIMEOUT_S = 30.0

COMPILE_MS_BUCKETS: Tuple[float, ...] = exponential_buckets(4, 2, 12)
"""Latency buckets for ``codegen.native.compile_ms`` (4 ms .. 8.2 s)."""

_BASE_FLAGS: Tuple[str, ...] = ("-O2", "-fPIC", "-std=c++17")

# Link flags, kept out of ``Toolchain.flags`` (the probe links an
# executable under the same codegen flags).  On ELF hosts the link skips the
# default libraries: a JIT unit calls nothing in libstdc++, libm or
# libgcc, and reading their symbol tables was about a third of each
# compile.  ``-z defs`` turns an unresolved symbol into a link error (a
# counted compile failure) instead of a ``dlopen`` failure; the weak
# references of the C runtime start files stay allowed.  ``_LIBC`` goes
# after the source, and only where a call into libc can occur: the
# probe's ``printf``, and the tail ``memcpy`` of a variable-length unit
# (``__memcpy_chk`` and ``__stack_chk_fail`` on hardened compilers).
_LEAN_LINK = sys.platform.startswith("linux")
# The unit's Python C API references are weak and bound at ``dlopen``;
# the darwin linker needs ``dynamic_lookup`` to leave them unresolved.
_SHARED_LINK_FLAGS: Tuple[str, ...] = (
    ("-shared", "-nodefaultlibs", "-Wl,-z,defs") if _LEAN_LINK
    else ("-shared", "-undefined", "dynamic_lookup")
    if sys.platform == "darwin"
    else ("-shared",)
)
_PROBE_LINK_FLAGS: Tuple[str, ...] = (
    ("-nodefaultlibs",) if _LEAN_LINK else ()
)
_LIBC: Tuple[str, ...] = ("-lc",) if _LEAN_LINK else ()

# Compiler front-end flags every compile and probe compile passes, also
# kept out of ``Toolchain.flags``, which holds only the flags that decide
# the machine code (a compile beside the probe is kept only when its
# flags equal the probed ones): ``-pipe`` hands the assembly to the
# assembler through a pipe instead of a temporary file, and changes no
# machine code.
_FRONT_END_FLAGS: Tuple[str, ...] = ("-pipe",)

_MASK64 = (1 << 64) - 1

_ZERO_HASH = array("Q", [0])
"""One zero ``uint64``; ``_ZERO_HASH * count`` is an output buffer."""

_ZERO_BYTE = array("B", [0])
"""One zero byte; ``_ZERO_BYTE * count`` is a length or key buffer."""


@dataclass(frozen=True)
class _FeatureProbe:
    """One ISA feature's section of the toolchain probe program.

    ``guard`` is the macro a compiler defines when its flags enable the
    feature; ``body`` declares the section's volatile inputs (so the
    compiler cannot fold the call away) and prints the tagged result
    line; ``expect`` is that result as :mod:`repro.isa` predicts it
    (``tests/codegen/test_native_probes.py`` derives it); ``flags`` are
    the explicit flags tried when ``-march=native`` does not prove the
    feature.
    """

    name: str
    guard: str
    body: str
    expect: str
    flags: Tuple[str, ...]

    @property
    def line(self) -> str:
        """The result line a passing section prints."""
        return f"{self.name} {self.expect}"


_PEXT_PROBE_ARGS = (0x0123456789ABCDEF, 0xFF00F0F00FF00F0F)

_PEXT_PROBE = _FeatureProbe(
    name="pext",
    guard="__BMI2__",
    body="""\
        volatile uint64_t value = UINT64_C(%#x);
        volatile uint64_t mask = UINT64_C(%#x);
        std::printf("pext %%llu\\n",
                    (unsigned long long)sepe_pext(value, mask));
""" % _PEXT_PROBE_ARGS,
    expect="21404383",
    flags=("-mbmi2",),
)

# ``(state, round key)`` of the probe round: the Aes kernels' own
# initial state and round key, as 128-bit little-endian integers.
_AES_PROBE_ARGS = (AES_INITIAL_STATE, AES_ROUND_KEY)

_AES_X86_PROBE = _FeatureProbe(
    name="aes",
    guard="__AES__",
    body="""\
        volatile uint64_t words[4] = {
            UINT64_C(%#x), UINT64_C(%#x),
            UINT64_C(%#x), UINT64_C(%#x)};
        sepe_v2di state = sepe_set_epi64x(words[1], words[0]);
        sepe_v2di key = sepe_set_epi64x(words[3], words[2]);
        state = sepe_aesenc(state, key);
        std::printf("aes %%llu %%llu\\n", (unsigned long long)state[0],
                    (unsigned long long)state[1]);
""" % (
        _AES_PROBE_ARGS[0] & _MASK64,
        _AES_PROBE_ARGS[0] >> 64,
        _AES_PROBE_ARGS[1] & _MASK64,
        _AES_PROBE_ARGS[1] >> 64,
    ),
    expect="11012308514663870964 13432742152343533349",
    flags=("-maes",),
)

# One aesenc round with a zero key on a state of sixteen 0x5a bytes:
# AESE with a zero key then AESMC is exactly that round on aarch64.
_AES_ARM_PROBE = _FeatureProbe(
    name="aes",
    guard="__ARM_FEATURE_AES",
    body="""\
        uint8x16_t state = vdupq_n_u8(0x5a);
        state = vaesmcq_u8(vaeseq_u8(state, vdupq_n_u8(0)));
        uint8_t bytes[16];
        vst1q_u8(bytes, state);
        std::printf("aes %u\\n", (unsigned)bytes[0]);
""",
    expect="190",
    flags=("-march=armv8-a+crypto",),
)

_FEATURE_PROBES = {
    "x86": (_PEXT_PROBE, _AES_X86_PROBE),
    "aarch64": (_AES_ARM_PROBE,),
}


def _probe_program(target: str, probes: Sequence[_FeatureProbe]) -> str:
    """The toolchain probe: the JIT prelude for ``probes`` plus a ``main``.

    ``main`` prints ``42``, then each feature's tagged result line, each
    section only under its feature's guard, so the program compiles
    whichever features the flags enable.  Every line is flushed as it
    is printed: if a section dies on an unsupported instruction, the
    lines before it still reach the parent.
    """
    if target == "x86":
        prelude = x86_jit_prelude(
            [probe.name for probe in probes],
            guards={probe.name: probe.guard for probe in probes},
        )
    else:
        # <arm_neon.h>'s crypto intrinsics need no helper to guard.
        prelude = _JIT_ARM
    sections = "".join(
        f"#ifdef {probe.guard}\n    {{\n{probe.body}"
        "        std::fflush(stdout);\n    }\n#endif\n"
        for probe in probes
    )
    return (
        prelude
        + "#include <cstdio>\nint main() {\n"
        + '    std::printf("%d\\n", 40 + 2);\n'
        + "    std::fflush(stdout);\n"
        + sections
        + "    return 0;\n}\n"
    )


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


def _kernel_key(key, minimum: int) -> bytes:
    """``key`` as the ``bytes`` a kernel is handed.

    A ``str`` is UTF-8 encoded and any other buffer (``bytearray``,
    ``memoryview``) copied; anything else raises ``TypeError``.  A key
    shorter than ``minimum``, the bytes the kernel reads whatever the
    key's length (:func:`~repro.codegen.cpp_backend.native_min_length`),
    is zero-filled to it, as the interpreter reads past a short key's
    end.  Every entry of :class:`NativeModule` normalises its keys here.
    """
    if isinstance(key, str):
        key = key.encode("utf-8")
    return memoryview(key).tobytes().ljust(minimum, b"\0")


class NativeModule:
    """A view of one plan's exports in a loaded JIT shared object.

    Calling the module hashes one key through the ``extern "C"`` scalar
    entry point.  :meth:`hash_many` and :meth:`hash_many_array` hash a
    batch through the ``<symbol>_hash_list`` entry point, which reads
    the key list through the Python C API itself: one foreign call per
    batch, with no join and no pointer arrays.  Both exports are bound
    through one :class:`ctypes.PyDLL` load, so a call holds the GIL: the
    list entry reads the keys in place, then releases the GIL and takes
    it straight back (a waiting thread rarely gets it there; see the
    module docstring).  The views of the plans of one unit share its
    path: the loader maps the object once.

    Attributes:
        path: the ``.so`` on disk, in the temp dir the views of its unit
            share (the mapping stays valid for their lifetime).
        symbol: the stem of the plan's exports
            (:func:`~repro.codegen.cpp_backend.native_symbol`).
        compiler: identity string of the toolchain that produced it.
        compile_ms: wall-clock latency of the compile that built the
            unit, in milliseconds (every view of one unit reads the
            same).
        key_length: the plan's fixed key length, or None.
        min_length: the bytes the kernel reads whatever the key's
            length; a shorter key is zero-filled to it first.
    """

    def __init__(
        self,
        so_path: Path,
        symbol: str,
        compiler: str,
        compile_ms: float,
        key_length: Optional[int],
        min_length: int,
        _tempdir: tempfile.TemporaryDirectory,
    ):
        self.path = Path(so_path)
        self.symbol = symbol
        self.compiler = compiler
        self.compile_ms = compile_ms
        self.key_length = key_length
        self.min_length = min_length
        self._tempdir = _tempdir  # keeps the temp build dir alive with us
        try:
            lib = ctypes.PyDLL(str(self.path))
            scalar = lib[f"{symbol}_hash"]
            hash_list = lib[f"{symbol}_hash_list"]
        except (OSError, AttributeError) as exc:
            raise NativeUnavailableError(
                f"cannot load native module {self.path}: {exc}"
            ) from exc
        scalar.argtypes = [ctypes.c_char_p, ctypes.c_size_t]
        scalar.restype = ctypes.c_uint64
        hash_list.argtypes = [
            ctypes.py_object,
            ctypes.c_void_p,
            ctypes.c_size_t,
            ctypes.c_size_t,
        ]
        hash_list.restype = ctypes.c_size_t
        if hash_list([], None, 0, 0) != 0:
            # SIZE_MAX: the weak C API references bound to nothing.
            raise NativeUnavailableError(
                f"native module {self.path} cannot reach the Python C API"
            )
        self._lib = lib
        self._scalar = scalar
        self._hash_list = hash_list

    def __call__(self, key) -> int:
        if not isinstance(key, bytes) or len(key) < self.min_length:
            key = _kernel_key(key, self.min_length)
        return self._scalar(key, len(key))

    def hash_many(self, keys: Sequence) -> List[int]:
        """Hash a batch through the list entry, as a list of ints."""
        return self._hash_into(keys).tolist()

    def hash_many_array(self, keys: Sequence):
        """Like :meth:`hash_many` but returning a NumPy ``uint64`` array,
        which skips building one ``int`` object per key.

        Raises:
            NativeUnavailableError: when NumPy is not importable.
        """
        if not _HAVE_NUMPY:
            raise NativeUnavailableError(
                "hash_many_array requires NumPy for the output array"
            )
        return _numpy.frombuffer(self._hash_into(keys), dtype=_numpy.uint64)

    def _hash_into(self, keys: Sequence) -> array:
        """One list-entry call over ``keys``, as an ``array("Q")``.

        A list is read in place; any other sequence is copied into one.
        At a key the entry cannot read in place (not ``bytes``, or
        shorter than :attr:`min_length`) the whole batch is normalised
        by :func:`_kernel_key` and hashed again.
        """
        if not isinstance(keys, list):
            keys = list(keys)
        count = len(keys)
        out = _ZERO_HASH * count
        address = out.buffer_info()[0]
        minimum = self.min_length
        if self._hash_list(keys, address, count, minimum) != count:
            keys = [_kernel_key(key, minimum) for key in keys]
            self._hash_list(keys, address, count, minimum)
        return out

    def __repr__(self) -> str:
        return (
            f"NativeModule(path={str(self.path)!r}, "
            f"symbol={self.symbol!r}, compiler={self.compiler!r})"
        )


class ScanUnit:
    """The loaded key scan unit of the columnar batch loop.

    :func:`repro.core.routes.hash_columnar` reads a batch's key lengths
    with :meth:`lengths` and, when a NumPy lane body or the fallback's
    row kernel will read rows, copies the keys into one block with
    :meth:`gather`.  Both are one foreign call that reads the key list
    in place, with the GIL held (:func:`~repro.codegen.cpp_backend
    .emit_scan_unit`).  Either returns None where the Python scan must
    take the batch instead.

    Attributes:
        path: the ``.so`` on disk, in a temp dir this object owns.
        compile_ms: wall-clock compile latency in milliseconds.
    """

    def __init__(
        self,
        so_path: Path,
        compile_ms: float = 0.0,
        _tempdir: Optional[tempfile.TemporaryDirectory] = None,
    ):
        self.path = Path(so_path)
        self.compile_ms = compile_ms
        self._tempdir = _tempdir
        try:
            lib = ctypes.PyDLL(str(self.path))
            lengths = lib[f"{SCAN_SYMBOL}_lengths"]
            gather = lib[f"{SCAN_SYMBOL}_gather"]
        except (OSError, AttributeError) as exc:
            raise NativeUnavailableError(
                f"cannot load scan unit {self.path}: {exc}"
            ) from exc
        lengths.argtypes = [
            ctypes.py_object,
            ctypes.c_size_t,
            ctypes.c_void_p,
            ctypes.c_void_p,
        ]
        lengths.restype = ctypes.c_size_t
        gather.argtypes = [
            ctypes.py_object,
            ctypes.c_void_p,
            ctypes.c_size_t,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_size_t,
        ]
        gather.restype = ctypes.c_size_t
        shape = _ZERO_HASH * 2
        if lengths([], 0, None, shape.buffer_info()[0]) != 0:
            raise NativeUnavailableError(
                f"scan unit {self.path} cannot reach the Python C API"
            )
        self._lib = lib
        self._lengths = lengths
        self._gather = gather

    def lengths(self, keys: list):
        """Every key's length: ``(lens, total, same)``, or None.

        ``lens`` is an ``array("B")`` of one length per key, ``total``
        their sum and ``same`` whether all keys have one length.  None
        when a key is not ``bytes`` or is 256 bytes or longer.
        """
        count = len(keys)
        lens = _ZERO_BYTE * count
        shape = _ZERO_HASH * 2
        if self._lengths(
            keys, count, lens.buffer_info()[0], shape.buffer_info()[0]
        ) != count:
            return None
        return lens, shape[0], bool(shape[1])

    def gather(self, keys: list, order, lens: array, total: int):
        """The keys joined into one ``array("B")`` of ``total`` bytes, in
        ``order`` (a NumPy ``intp`` index array, or None for the list's
        own order), or None.

        None when a key's size is no longer the ``lens`` entry
        :meth:`lengths` recorded: the list changed between the calls.

        Raises:
            ValueError: for an ``order`` that is not a contiguous
                ``intp`` array of one index per ``lens`` entry.
        """
        count = len(lens)
        if order is not None and (
            order.dtype != _numpy.intp
            or order.shape != (count,)
            or not order.flags.c_contiguous
        ):
            raise ValueError("order must be a contiguous intp[count] array")
        block = _ZERO_BYTE * total
        if self._gather(
            keys,
            None if order is None else order.ctypes.data,
            count,
            lens.buffer_info()[0],
            block.buffer_info()[0],
            total,
        ) != count:
            return None
        return block


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


def _probe_run(
    command: str,
    flags: Sequence[str],
    source: str,
    work: Path,
    stem: str,
) -> Tuple[List[str], bool]:
    """Compile ``source`` with ``flags`` and run it.

    Returns the run's stdout lines and whether it exited with status 0.
    Running (not just compiling) is the point: an unsupported
    instruction kills the probe subprocess, never this interpreter.
    The lines are returned even when the run dies or times out, so the
    sections that completed before it stopped still count; a failed
    compile or launch returns no lines.  Each call counts one
    ``codegen.native.probe_runs``.
    """
    get_registry().counter("codegen.native.probe_runs").inc()
    src = work / f"{stem}.cpp"
    exe = work / f"{stem}.bin"
    src.write_text(source, encoding="utf-8")
    try:
        compiled = _run(
            [
                command, "-O2", *flags, *_FRONT_END_FLAGS, *_PROBE_LINK_FLAGS,
                str(src), "-o", str(exe), *_LIBC,
            ],
            _PROBE_TIMEOUT_S,
        )
        if compiled.returncode != 0:
            return [], False
        try:
            ran = _run([str(exe)], _PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as error:
            return _stdout_lines(error.stdout), False
    except (OSError, subprocess.SubprocessError):
        return [], False
    return _stdout_lines(ran.stdout), ran.returncode == 0


def _stdout_lines(stdout: Optional[bytes]) -> List[str]:
    return [
        line.strip()
        for line in (stdout or b"").decode("utf-8", "replace").splitlines()
    ]


def _proves(
    command: str,
    flags: Sequence[str],
    target: str,
    probe: _FeatureProbe,
    work: Path,
    stem: str,
) -> bool:
    """Whether ``probe``'s section, compiled alone with ``flags`` and
    run, prints the expected line."""
    lines, _ = _probe_run(
        command, flags, _probe_program(target, (probe,)), work, stem
    )
    return probe.line in lines


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
    probes = _FEATURE_PROBES[target]
    with tempfile.TemporaryDirectory(prefix="sepe-probe-") as tmp:
        work = Path(tmp)
        for command in candidates:
            # One compile-and-run under -march=native proves the
            # compiler (the ``42`` line) and every feature whose tagged
            # line matches.  The flagless run happens only when the arch
            # flag is what failed.
            lines, exited = _probe_run(
                command,
                ["-march=native"],
                _probe_program(target, probes),
                work,
                "native",
            )
            if lines[:1] == ["42"]:
                arch_flags = ["-march=native"]
                features = {
                    probe.name for probe in probes if probe.line in lines
                }
            elif _probe_run(
                command, [], _probe_program(target, ()), work, "base"
            )[0][:1] == ["42"]:
                arch_flags = []
                features = set()
            else:
                continue
            feature_flags: List[str] = []
            for probe in probes:
                if probe.name in features:
                    continue
                # A run that died stopped before the sections after the
                # one that crashed: each feature it did not prove is run
                # alone under -march=native before its explicit flags.
                if arch_flags and not exited and _proves(
                    command, arch_flags, target, probe, work,
                    f"{probe.name}_arch",
                ):
                    features.add(probe.name)
                elif _proves(
                    command, probe.flags, target, probe, work,
                    f"{probe.name}_flag",
                ):
                    features.add(probe.name)
                    feature_flags.extend(
                        flag
                        for flag in probe.flags
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


def probed_toolchain() -> Optional[Toolchain]:
    """The toolchain a finished probe returned, without probing: None
    before the first probe, after a failed one and under
    ``SEPE_NATIVE=0``."""
    return _toolchain if native_enabled() else None


_probe_lock = threading.Lock()
_probe_thread: Optional[threading.Thread] = None


def _start_probe() -> Optional[threading.Thread]:
    """The thread running a cold process's toolchain probe, started on
    the first call; None once a probe has run, or under ``SEPE_NATIVE=0``.

    The thread runs :func:`native_available`, so the probe itself is
    :func:`detect_toolchain`'s, under its lock: callers that start
    compiling while it runs share this one thread and one probe, and a
    :func:`reset_native_state` waits for it to finish before forgetting
    its result.
    """
    global _probe_thread
    if not native_enabled():
        return None
    with _probe_lock:
        if _toolchain_probed:
            return None
        if _probe_thread is None or not _probe_thread.is_alive():
            _probe_thread = threading.Thread(
                target=native_available,
                name="sepe-native-probe",
                daemon=True,
            )
            _probe_thread.start()
        return _probe_thread


def _expected_toolchain() -> Optional[Tuple[str, Tuple[str, ...]]]:
    """``(command, flags)`` the probe returns on a working host: the
    first candidate compiler under ``-march=native``; None when the
    probe is bound to fail (no target, no candidate)."""
    candidates = _candidate_compilers()
    if native_target() is None or not candidates:
        return None
    return candidates[0], (*_BASE_FLAGS, "-march=native")


def reset_native_state() -> None:
    """Forget the probed toolchain, the loaded scan unit and the
    warn-once latch (tests, and the benchmark's cold start).

    A probe in flight finishes first (it holds the toolchain lock), so
    its late result cannot undo the reset."""
    global _toolchain_probed, _toolchain, _toolchain_reason
    global _fallback_warned, _scan
    with _toolchain_lock:
        _toolchain_probed = False
        _toolchain = None
        _toolchain_reason = None
        _fallback_warned = False
    with _scan_lock:
        _scan = None


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
    libc: bool = True,
    features: Iterable[str] = (),
) -> Tuple[float, Toolchain]:
    """Compile ``source`` into the shared object ``out_path``.

    ``libc=False`` links no library at all, for a unit that calls
    nothing outside itself (a fixed-length plan's, whose loads all have
    constant sizes); any call it does make fails the link.
    ``features`` are the ISA features the unit's code needs.

    Without a ``toolchain`` the probed one compiles.  In a cold process
    (no probe has run yet) the probe runs on its own thread
    (:func:`_start_probe`) while this compiles with the command and
    flags the probe returns on a working host
    (:func:`_expected_toolchain`).  The object is kept only if the probe
    returns that same command and those flags and proves ``features``;
    otherwise it is recompiled with the probed toolchain, or refused.
    The probe gates the load, not the compile: this returns, and so a
    caller can load the object, only after the probe has.

    Returns ``(ms, toolchain)``: the wall-clock latency of the compile
    that built the object (also observed into the
    ``codegen.native.compile_ms`` histogram) and the probed toolchain
    that built it.  A compile beside the probe whose object is not kept
    counts ``codegen.native.discards`` instead.

    Raises:
        NativeUnavailableError: no toolchain (:func:`detect_toolchain`),
            a feature in ``features`` it lacks, or any compiler or link
            failure, an unresolved symbol included, with the tail of
            stderr in the message.
    """
    registry = get_registry()
    out_path = Path(out_path)
    probe = _start_probe() if toolchain is None else None
    guess = _expected_toolchain() if probe is not None else None
    early = _compile(*guess, source, out_path, libc) if guess else None
    if probe is not None:
        probe.join()
    try:
        if toolchain is None:
            toolchain = detect_toolchain()
        if not toolchain.supports(features):
            missing = ", ".join(sorted(set(features) - toolchain.features))
            raise NativeUnavailableError(
                f"host toolchain lacks required ISA features: {missing}"
            )
    except NativeUnavailableError:
        if early:
            registry.counter("codegen.native.discards").inc()
            out_path.unlink(missing_ok=True)
        raise
    if early and guess == (toolchain.command, toolchain.flags):
        elapsed_ms, error = early
    else:
        if early:
            registry.counter("codegen.native.discards").inc()
        elapsed_ms, error = _compile(
            toolchain.command, toolchain.flags, source, out_path, libc
        )
    if error is not None:
        registry.counter("codegen.native.compile_failures").inc()
        raise NativeUnavailableError(error)
    registry.counter("codegen.native.compiles").inc()
    registry.histogram(
        "codegen.native.compile_ms", COMPILE_MS_BUCKETS
    ).observe(elapsed_ms)
    return elapsed_ms, toolchain


def _compile(
    command: str,
    flags: Sequence[str],
    source: str,
    out_path: Path,
    libc: bool,
) -> Tuple[float, Optional[str]]:
    """Write ``source`` beside ``out_path`` and compile it there once:
    the compile's wall-clock ms, and None or why it failed."""
    src_path = out_path.with_suffix(".cpp")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    src_path.write_text(source, encoding="utf-8")
    cmd = [
        command,
        *flags,
        *_FRONT_END_FLAGS,
        *_SHARED_LINK_FLAGS,
        str(src_path),
        "-o",
        str(out_path),
        *(_LIBC if libc else ()),
    ]
    started = time.perf_counter()
    try:
        result = _run(cmd, _COMPILE_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as exc:
        return 0.0, f"native compile failed to launch: {exc}"
    elapsed_ms = (time.perf_counter() - started) * 1e3
    if result.returncode != 0:
        stderr = result.stderr.decode("utf-8", "replace").strip()
        tail = "\n".join(stderr.splitlines()[-8:])
        return elapsed_ms, (
            f"native compile failed (exit {result.returncode}):\n{tail}"
        )
    return elapsed_ms, None


_scan_lock = threading.Lock()
_scan = None
"""The loaded :class:`ScanUnit`; False once this host cannot have one."""


def scan_unit() -> Optional[ScanUnit]:
    """The key scan unit, compiled and loaded on the first call.

    None under ``SEPE_NATIVE=0``, on a host without a working toolchain,
    and after a failed compile or load.  A failure is counted and warned
    about once (:func:`warn_native_fallback`) and never retried until
    :func:`reset_native_state`.
    """
    global _scan
    if not native_enabled():
        return None
    unit = _scan
    if unit is None:
        with _scan_lock:
            if _scan is None:
                _scan = _load_scan_unit()
            unit = _scan
    return unit or None


def _load_scan_unit():
    """Compile and load the scan unit: the unit, or False."""
    tempdir = tempfile.TemporaryDirectory(prefix="sepe-scan-")
    out_path = Path(tempdir.name) / "scan.so"
    try:
        with span("codegen.native.compile", unit="scan"):
            elapsed_ms, _ = compile_shared_object(emit_scan_unit(), out_path)
            return ScanUnit(out_path, elapsed_ms, _tempdir=tempdir)
    except NativeUnavailableError as exc:
        tempdir.cleanup()
        if native_available():
            warn_native_fallback(f"key scan unit: {exc}")
        # else: no toolchain, counted by the probe as ``unavailable``
        return False


def compile_plans_native(
    plans: Sequence[SynthesisPlan],
    toolchain: Optional[Toolchain] = None,
) -> Tuple[List[NativeModule], str]:
    """Emit, compile and load one native unit for all of ``plans``.

    One :func:`~repro.codegen.cpp_backend.emit_cpp_native` unit, one
    :func:`compile_shared_object` call with the union of the plans' ISA
    features (linked against libc only when a plan is variable-length),
    then one :class:`NativeModule` view per plan on the one path, in
    ``plans`` order.  Each view reads its plan's ``key_length`` and
    :func:`~repro.codegen.cpp_backend.native_min_length`: they say how
    far the kernel reads, so short keys are zero-filled before the call.
    Returns ``(modules, source)``: the compile cache keeps the
    translation unit beside the artifact.  The shared object lives in a
    private temp directory that the views share and keep alive.
    Without a ``toolchain``, the first compile of a cold process runs
    beside the toolchain probe (:func:`compile_shared_object`).

    Raises:
        NativeUnavailableError: no toolchain, a plan needing an ISA
            feature the host lacks (e.g. an Aes plan on a host without
            AES instructions, or the Pext family on aarch64), or a
            compile/load failure: the whole unit fails together.
        ValueError: for an empty ``plans``.
    """
    plans = list(plans)
    target = toolchain.target if toolchain is not None else native_target()
    if target is None:
        detect_toolchain()  # raises: the machine is unsupported
    try:
        source = emit_cpp_native(plans, target=target)
    except SynthesisError as exc:
        raise NativeUnavailableError(
            f"plan cannot target {target}: {exc}"
        ) from exc
    features = frozenset().union(*map(plan_isa_features, plans))
    with span(
        "codegen.native.compile",
        plans=len(plans),
        families=",".join(sorted({plan.family.value for plan in plans})),
        target=target,
    ):
        tempdir = tempfile.TemporaryDirectory(prefix="sepe-native-")
        out_path = Path(tempdir.name) / "plan.so"
        try:
            elapsed_ms, toolchain = compile_shared_object(
                source,
                out_path,
                toolchain,
                libc=not all(plan.is_fixed_length for plan in plans),
                features=features,
            )
            modules = [
                NativeModule(
                    out_path,
                    symbol=native_symbol(plan),
                    compiler=toolchain.identity,
                    compile_ms=elapsed_ms,
                    key_length=plan.key_length,
                    min_length=native_min_length(plan),
                    _tempdir=tempdir,
                )
                for plan in plans
            ]
        except NativeUnavailableError:
            tempdir.cleanup()
            raise
    return modules, source


def compile_plan_native(
    plan: SynthesisPlan,
    toolchain: Optional[Toolchain] = None,
) -> Tuple[NativeModule, str]:
    """Emit, compile and load the native module for ``plan`` alone: the
    one-plan case of :func:`compile_plans_native`.

    Raises:
        NativeUnavailableError: as :func:`compile_plans_native`.
    """
    (module,), source = compile_plans_native([plan], toolchain)
    return module, source
