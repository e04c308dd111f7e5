"""Python backend: lower IR to executable source and compile it.

The paper's tool emits C++; the executable artifact of *this* reproduction
is Python, generated with the same structure (fully unrolled loads,
constant masks baked in, compacting shifts) and compiled with ``exec``.
Specialization matters in Python for the same reason it does in C++: the
generated function does a handful of slice-and-int operations with no
per-byte loop, while general-purpose baselines (the STL murmur port)
iterate word by word with multiplies and shifts.

Two deliberate lowerings replace per-call helpers with inline code:

- ``pext`` with a compile-time mask becomes its contiguous-run
  decomposition (:func:`repro.isa.bits.mask_to_runs`), an unrolled OR of
  shift/and terms — the standard software fallback for BMI2, loop-free.
- ``aes_absorb`` becomes inline T-table lookups (16 byte extractions,
  16 table reads, four column folds) against module-level tables bound
  into the function's namespace, skipping the Python call and state
  re-marshalling of :func:`repro.isa.aes.aesenc_fast` on every word pair.

Differential tests (:mod:`tests.codegen.test_interp`) pin both against
the reference interpreter, which uses the plain :func:`repro.isa.aes
.aesenc` and :func:`repro.isa.bits.pext`.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.codegen.ir import AES_ROUND_KEY, IRFunction, build_ir, optimize
from repro.core.plan import SynthesisPlan
from repro.isa.aes import (
    _TTABLES,
    aes_fold_planes,
    aes_planes,
    aesenc_fast,
    aesenc_planes,
)
from repro.isa.bits import mask_to_runs
from repro.obs.metrics import get_registry
from repro.obs.trace import span

MASK64 = (1 << 64) - 1

HashCallable = Callable[[bytes], int]

# After ShiftRows, output column c row r reads input byte 4*((c+r)%4)+r.
_AES_GATHER = [
    [4 * ((col + row) % 4) + row for row in range(4)] for col in range(4)
]


def _pext_expression(src: str, mask: int) -> str:
    """Render an unrolled run-decomposed parallel bit extraction."""
    runs = mask_to_runs(mask)
    terms: List[str] = []
    for shift, run_mask, out_pos in runs:
        if shift == 0:
            term = f"({src} & {hex(run_mask)})"
        else:
            term = f"(({src} >> {shift}) & {hex(run_mask)})"
        if out_pos:
            term = f"({term} << {out_pos})"
        terms.append(term)
    if not terms:
        return "0"
    return " | ".join(terms)


def _emit_aes_absorb(
    dest: str, state: str, lo: str, hi: str, indent: str = "    "
) -> List[str]:
    """Inline one AES round: extract bytes, gather through the T-tables.

    The emitted code mirrors :func:`repro.isa.aes.aesenc_fast` with the
    byte list and the helper call flattened away; ``_T0.._T3`` are bound
    at compile time.
    """
    lines = [f"{indent}_x = {state} ^ ({lo} | ({hi} << 64))"]
    column_terms: List[str] = []
    for col in range(4):
        terms = []
        for row in range(4):
            byte_index = _AES_GATHER[col][row]
            shift = 8 * byte_index
            extract = "_x & 0xff" if shift == 0 else f"(_x >> {shift}) & 0xff"
            terms.append(f"_T{row}[{extract}]")
        column = " ^ ".join(terms)
        if col == 0:
            column_terms.append(f"({column})")
        else:
            column_terms.append(f"(({column}) << {32 * col})")
    lines.append(
        f"{indent}{dest} = ({' | '.join(column_terms)}) ^ "
        f"{hex(AES_ROUND_KEY)}"
    )
    return lines


def emit_python(func: IRFunction) -> str:
    """Render an IR function as Python source.

    The emitted function takes a ``bytes`` key and returns a 64-bit int.
    Helper bindings (``int.from_bytes``, the AES round) are passed as
    keyword defaults so lookups are local, the standard CPython trick for
    hot functions.
    """
    with span(
        "codegen.python.emit", function=func.name, instrs=len(func.instrs)
    ):
        return _emit_python_lines(func)


def emit_body_lines(
    func: IRFunction,
    indent: str = "    ",
    ret_template: str = "return {0}",
) -> List[str]:
    """Render the instruction sequence of ``func`` as statement lines.

    Shared by the scalar emitter and the batch emitter
    (:mod:`repro.codegen.batch`): the batch backend emits the same body
    at loop depth, with ``ret`` lowered to an ``append`` instead of a
    ``return`` (``ret_template`` receives the result register).

    Raises:
        ValueError: on an unknown opcode or a body without ``ret``.
    """
    lines: List[str] = []
    body_emitted = False
    for instr in func.instrs:
        op, dest, args = instr.opcode, instr.dest, instr.args
        if op == "const":
            lines.append(f"{indent}{dest} = {hex(args[0])}")
        elif op == "load64":
            offset, width = args
            lines.append(
                f"{indent}{dest} = "
                f"_ifb(key[{offset}:{offset + width}], 'little')"
            )
        elif op == "pext":
            lines.append(
                f"{indent}{dest} = {_pext_expression(args[0], args[1])}"
            )
        elif op == "shl":
            lines.append(
                f"{indent}{dest} = ({args[0]} << {args[1]}) & {hex(MASK64)}"
            )
        elif op == "shr":
            lines.append(f"{indent}{dest} = {args[0]} >> {args[1]}")
        elif op == "mul64":
            lines.append(
                f"{indent}{dest} = ({args[0]} * {hex(args[1])}) & "
                f"{hex(MASK64)}"
            )
        elif op == "rotl":
            amount = args[1]
            lines.append(
                f"{indent}{dest} = (({args[0]} << {amount}) | "
                f"({args[0]} >> {64 - amount})) & {hex(MASK64)}"
            )
        elif op == "xor":
            lines.append(f"{indent}{dest} = {args[0]} ^ {args[1]}")
        elif op == "or":
            lines.append(f"{indent}{dest} = {args[0]} | {args[1]}")
        elif op == "add":
            lines.append(
                f"{indent}{dest} = ({args[0]} + {args[1]}) & {hex(MASK64)}"
            )
        elif op == "aes_absorb":
            state, lo, hi = args
            lines.extend(_emit_aes_absorb(dest, state, lo, hi, indent))
        elif op == "aes_fold":
            lines.append(
                f"{indent}{dest} = ({args[0]} ^ ({args[0]} >> 64)) & "
                f"{hex(MASK64)}"
            )
        elif op == "tail_xor":
            acc, start = args
            lines.extend(
                [
                    f"{indent}{dest} = {acc}",
                    f"{indent}_n = len(key)",
                    f"{indent}_p = {start}",
                    f"{indent}while _p + 8 <= _n:",
                    f"{indent}    {dest} ^= _ifb(key[_p:_p + 8], 'little')",
                    f"{indent}    _p += 8",
                    f"{indent}if _p < _n:",
                    f"{indent}    {dest} ^= _ifb(key[_p:_n], 'little')",
                ]
            )
        elif op == "ret":
            lines.append(f"{indent}{ret_template.format(args[0])}")
            body_emitted = True
        else:
            raise ValueError(f"unknown IR opcode: {op}")
    if not body_emitted:
        raise ValueError("IR function has no return")
    return lines


def _emit_python_lines(func: IRFunction) -> str:
    lines: List[str] = []
    lines.append(f"def {func.name}(key, _ifb=int.from_bytes, _aes=_aesenc):")
    doc = f"Synthesized {func.plan.family.value} hash"
    if func.plan.pattern_regex:
        doc += f" for format {func.plan.pattern_regex!r}"
    lines.append(f'    """{doc}."""')
    lines.extend(emit_body_lines(func))
    return "\n".join(lines) + "\n"


def compile_source(source: str, name: str) -> HashCallable:
    """``exec`` generated source and return the named function.

    Every call bumps the ``codegen.python.exec_calls`` counter in the
    process-wide metrics registry — the compile cache's tests (and
    ``sepe obs``) use it to prove a warm cache performs zero ``exec``.
    """
    get_registry().counter("codegen.python.exec_calls").inc()
    namespace: Dict[str, object] = {
        "_aesenc": aesenc_fast,
        "_T0": _TTABLES[0],
        "_T1": _TTABLES[1],
        "_T2": _TTABLES[2],
        "_T3": _TTABLES[3],
        # The NumPy lane form of the AES round (repro.codegen.batch).
        "_aes_planes": aes_planes,
        "_aesenc_planes": aesenc_planes,
        "_aes_fold_planes": aes_fold_planes,
    }
    exec(compile(source, f"<sepe:{name}>", "exec"), namespace)
    return namespace[name]  # type: ignore[return-value]


def compile_plan(plan: SynthesisPlan, name: str = "sepe_hash") -> HashCallable:
    """Lower a plan all the way to a callable Python hash function."""
    func = optimize(build_ir(plan, name=name))
    return compile_source(emit_python(func), name)
