"""Code generation backends for synthesized hash functions.

A :class:`repro.core.plan.SynthesisPlan` is lowered to a small linear IR
(:mod:`repro.codegen.ir`) and then emitted by one of two backends:

- :mod:`repro.codegen.python_backend` — generates Python source and
  compiles it with ``exec`` into a callable ``bytes -> int``.  This is the
  executable artifact benchmarks and containers use.
- :mod:`repro.codegen.cpp_backend` — generates the C++ a downstream C++
  user would drop next to ``std::unordered_map`` (the paper's actual
  output, Figure 5c/10/12), for both x86 (BMI2 ``pext`` + ``aesenc``) and
  aarch64 (no bit-extract; the Pext family is unavailable there, matching
  Section 4.4).
- :mod:`repro.codegen.native` — JIT-compiles that C++ with the system
  toolchain and loads it via ctypes, closing the Python → NumPy →
  native speed ladder (imported lazily: pure-Python callers never pay
  for the subprocess/ctypes machinery).

Two amortization layers sit alongside the backends:

- :mod:`repro.codegen.batch` — emits the plan's one Python module: the
  scalar function followed by a batched ``hash_many(keys)``, either a
  NumPy lane body that removes per-key call overhead or the scalar
  function mapped over the keys.
- :mod:`repro.codegen.cache` — a content-addressed compile cache so
  repeated synthesis of the same plan in one process skips IR,
  emission, and ``exec`` (and, for the native kind, the compiler).
"""

from repro.codegen.batch import emit_python_module
from repro.codegen.cache import (
    CompileCache,
    get_compile_cache,
    plan_fingerprint,
)
from repro.codegen.cpp_backend import emit_cpp, emit_cpp_native
from repro.codegen.ir import IRFunction, Instr, build_ir
from repro.codegen.python_backend import compile_plan, emit_python

__all__ = [
    "CompileCache",
    "IRFunction",
    "Instr",
    "build_ir",
    "compile_plan",
    "emit_cpp",
    "emit_cpp_native",
    "emit_python",
    "emit_python_module",
    "get_compile_cache",
    "plan_fingerprint",
]
