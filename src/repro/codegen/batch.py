"""Batch tail of the compiled module: hash many keys with one call.

The scalar backend (:mod:`repro.codegen.python_backend`) already removes
per-byte loops, but every *call* still pays CPython's function-call
overhead: frame setup, argument binding, dispatcher routing.  At the
paper's key sizes (8–32 formatted bytes) that fixed cost dominates
H-Time, the same per-invocation regime Thorup's "High Speed Hashing"
describes and the reason HighwayHash amortizes across SIMD lanes.

Each plan lowers to one Python module (:func:`emit_python_module`),
compiled with one ``exec``: the scalar function ``<name>`` exactly as
:func:`repro.codegen.python_backend.emit_python` renders it, then a
batch tail whose list entry ``<name>_many`` maps ``<name>`` itself, so
the one scalar lowering — byte tables or fused gathers — serves both
entries.  The scalar function carries the list entry as ``.many``.
The tail is one of:

- **Vectorized** (fixed-length plans, NumPy importable): a *lane body*
  ``_<name>_lanes(rows)`` takes a ``uint8[k, key_length]`` row view
  and applies every IR instruction to a whole *column of keys* as a
  ``uint64`` lane array — a load is one strided word gather, pext runs
  / shifts / xors become single array ops — returning ``uint64[k]``.
  The AES state lives as byte planes (``uint32[4, k]`` column planes,
  one strided byte plane per state byte), and each round is one call
  of the shared :func:`repro.isa.aes.aesenc_planes` helper: ShiftRows
  is plane slicing and the T-table lookups are four gathers on whole
  planes.  This is lane parallelism in the HighwayHash sense: per-key
  interpreter cost drops to (a share of) a handful of array
  operations.  The list entry joins the keys into one buffer, views it
  as rows, runs the lane body and boxes the result with ``tolist``; it
  is exposed as the entry's ``lanes`` attribute for callers that
  already hold a row view.  A generated guard maps the scalar function
  instead for tiny batches and for any key whose length is not exactly
  the plan's (each key is checked: lengths that merely sum to
  ``n * key_length`` are no row view), so semantics never change.
- **Mapped** (everything else: variable-length plans, opcodes the lane
  lowering refuses, NumPy-less hosts): the list entry is
  ``list(map(<name>, keys))``.

Differential tests (:mod:`tests.codegen.test_batch`) pin
``hash_many(keys) == [interpret(func, k) for k in keys]`` for all four
families, on both paths.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

from repro.codegen.ir import AES_ROUND_KEY, IRFunction
from repro.codegen.python_backend import _emit_python_lines, _pext_expression
from repro.obs.trace import span

try:  # Vectorization tier; the mapped scalar function covers absence.
    import numpy as _numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - tests patch HAVE_NUMPY instead
    HAVE_NUMPY = False

BatchHashCallable = Callable[[Sequence[bytes]], List[int]]

VECTOR_MIN_KEYS = 16
"""Below this batch size the generated guard maps the scalar function:
array setup costs more than it amortizes."""


def _emit_vector_aes_absorb(
    dest: str, state: str, lo: str, hi: str, wide: set
) -> List[str]:
    """Byte-plane AES round: one shared helper call per round.

    The 128-bit lane state is ``uint32[4, k]`` column planes — viewed as
    bytes, every AES state byte of every key is one strided plane — and
    :func:`repro.isa.aes.aesenc_planes` (bound as ``_aesenc_planes``,
    next to ``_T0``..``_T3``) runs the round on whole planes: xor in the
    ``[lo, hi]`` block, ShiftRows as plane slicing, four ``uint32``
    T-table gathers xored together, then the round key (the prologue's
    ``_AES_KEY``).  A per-plan scalar state becomes broadcast planes.
    """
    source = state if state in wide else f"_aes_planes({state})"
    return [f"    {dest} = _aesenc_planes({source}, {lo}, {hi}, _AES_KEY)"]


def _emit_vector_arith(
    lines: List[str], op: str, dest: str, args: tuple
) -> None:
    """Emit one vectorizable arithmetic op over uint64 lane arrays.

    No ``& MASK64`` is emitted: uint64 arrays wrap modulo 2**64 by
    construction, which is exactly the scalar semantics the masks
    implement for Python ints.
    """
    if op == "pext":
        lines.append(f"    {dest} = {_pext_expression(args[0], args[1])}")
    elif op == "shl":
        lines.append(f"    {dest} = {args[0]} << {args[1]}")
    elif op == "shr":
        lines.append(f"    {dest} = {args[0]} >> {args[1]}")
    elif op == "mul64":
        lines.append(f"    {dest} = {args[0]} * _u64({hex(args[1])})")
    elif op == "rotl":
        amount = args[1]
        lines.append(
            f"    {dest} = ({args[0]} << {amount}) | "
            f"({args[0]} >> {64 - amount})"
        )
    elif op == "xor":
        lines.append(f"    {dest} = {args[0]} ^ {args[1]}")
    elif op == "or":
        lines.append(f"    {dest} = {args[0]} | {args[1]}")


# The lane function opens with LANE_PROLOGUE before its stages; the
# list entry maps the batch when LENGTH_GUARD holds, else hashes ROW_VIEW.
LANE_PROLOGUE = ["    _a = _np.ascontiguousarray(_a)", "    n = _a.shape[0]"]
LENGTH_GUARD = (
    f"n < {VECTOR_MIN_KEYS} or list(map(len, keys)).count({{length}}) != n"
)
ROW_VIEW = (
    "_np.frombuffer(b''.join(keys), dtype=_np.uint8).reshape(n, {length})"
)


def lane_stages(
    func: IRFunction,
) -> Optional[Tuple[List[str], List[Tuple[str, List[str]]]]]:
    """The plan's lane body as data, or None when it has none.

    Returns ``(setup, stages)``: ``setup`` is the module-level prologue
    (the NumPy import, ``_u64``, the AES round-key planes) and
    ``stages`` holds one ``(opcode, lines)`` pair per IR instruction,
    the ``ret`` last.  The lane function is its ``def``,
    :data:`LANE_PROLOGUE` and the stages' lines, in order.
    :func:`emit_python_module` joins them, and
    :func:`repro.obs.profile.profile_plan` renders the same stages with
    a timing checkpoint between each pair.

    Only fixed-length plans on hosts with NumPy qualify (variable length
    needs the per-key tail loop); any opcode outside the vectorizable
    set, or a return of a compile-time scalar, leaves the plan to the
    mapped scalar function.
    """
    plan = func.plan
    if not HAVE_NUMPY or not plan.is_fixed_length:
        return None
    stages: List[Tuple[str, List[str]]] = []
    wide: set = set()  # registers holding 128-bit column planes
    scalars: set = set()  # registers holding per-plan (not per-key) ints
    uses_aes = any(instr.opcode == "aes_absorb" for instr in func.instrs)
    returned: Optional[str] = None
    for instr in func.instrs:
        op, dest, args = instr.opcode, instr.dest, instr.args
        lines: List[str] = []
        if op == "const":
            scalars.add(dest)
            lines.append(f"    {dest} = {hex(args[0])}")
        elif op == "load64":
            offset, width = args
            if width == 8:
                # One strided uint64 gather: viewing the row slice as a
                # word first avoids copying a [k, 8] byte block.
                lines.append(
                    f"    {dest} = _a[:, {offset}:{offset + 8}]"
                    ".view('<u8')[:, 0].copy()"
                )
            else:
                lines.extend(
                    [
                        "    _wb = _np.zeros((n, 8), dtype=_np.uint8)",
                        f"    _wb[:, :{width}] = "
                        f"_a[:, {offset}:{offset + width}]",
                        f"    {dest} = _wb.view('<u8').ravel()",
                    ]
                )
        elif op in ("pext", "shl", "shr", "mul64", "rotl", "xor", "or"):
            # uint64 lane arrays wrap implicitly, so the emitted ops
            # carry no `& MASK64`.  A per-plan Python-int operand would
            # break that invariant (ints don't wrap), and 128-bit column
            # planes can't flow through plain arithmetic — leave both
            # to the mapped scalar function.
            register_args = [arg for arg in args if isinstance(arg, str)]
            if any(arg in scalars or arg in wide for arg in register_args):
                return None
            _emit_vector_arith(lines, op, dest, args)
        elif op == "aes_absorb":
            state, lo, hi = args
            if state not in wide and state not in scalars:
                return None  # a narrow lane array is no 128-bit state
            if any(arg in scalars or arg in wide for arg in (lo, hi)):
                return None
            lines.extend(
                _emit_vector_aes_absorb(dest, state, lo, hi, wide)
            )
            wide.add(dest)
        elif op == "aes_fold":
            source = args[0]
            if source not in wide:
                return None
            lines.append(f"    {dest} = _aes_fold_planes({source})")
        elif op == "ret":
            returned = args[0]
            if returned in scalars or returned in wide:
                return None
            lines.append(f"    return {returned}")
        else:
            return None
        stages.append((op, lines))
    if returned is None:
        return None
    setup = [
        "import numpy as _np",
        "_u64 = _np.uint64",
    ]
    if uses_aes:
        setup.append(f"_AES_KEY = _aes_planes({hex(AES_ROUND_KEY)})")
    return setup, stages


def _emit_vector_lines(
    func: IRFunction, name: str, doc: str
) -> Optional[List[str]]:
    """Vectorized lane body plus its list entry, or None when inapplicable.

    The lane body ``_<name>_lanes`` maps a ``uint8[k, key_length]`` row
    view to ``uint64[k]``; the list entry ``<name>_many`` wraps it (join
    → ``frombuffer`` → lanes → ``tolist``) and carries it as ``.lanes``.
    """
    lowered = lane_stages(func)
    if lowered is None:
        return None
    setup, stages = lowered
    guard = LENGTH_GUARD.format(length=func.plan.key_length)
    rows = ROW_VIEW.format(length=func.plan.key_length)
    return [
        *setup,
        f"def _{name}_lanes(_a):",
        *LANE_PROLOGUE,
        *(line for _op, lines in stages for line in lines),
        "",
        f"def {name}_many(keys):",
        f'    """{doc} (vectorized)."""',
        "    n = len(keys)",
        f"    if {guard}:",
        f"        return list(map({name}, keys))",
        f"    return _{name}_lanes({rows}).tolist()",
        "",
        f"{name}_many.lanes = _{name}_lanes",
    ]


def emit_python_module(func: IRFunction) -> str:
    """Render an IR function as the plan's one compiled Python module.

    The module defines the scalar function ``func.name`` (``bytes ->
    int``), byte for byte as
    :func:`~repro.codegen.python_backend.emit_python` renders it, then
    the list entry ``<name>_many`` (``keys -> list[int]``), bound to the
    scalar function as ``.many``.  The scalar function holds no blank
    line, so the module's first one ends it (:func:`scalar_source`).
    """
    with span(
        "codegen.python.emit", function=func.name, instrs=len(func.instrs)
    ):
        name = func.name
        doc = f"Batched {func.plan.family.value} hash"
        if func.plan.pattern_regex:
            doc += f" for format {func.plan.pattern_regex!r}"
        tail = _emit_vector_lines(func, name, doc)
        if tail is None:
            tail = [
                f"def {name}_many(keys):",
                f'    """{doc}."""',
                f"    return list(map({name}, keys))",
            ]
        return "\n".join(
            [
                _emit_python_lines(func),
                *tail,
                "",
                f"{name}.many = {name}_many",
                "",
            ]
        )


def scalar_source(module: str) -> str:
    """The scalar function's source: ``module`` up to its first blank
    line, exactly what :func:`~repro.codegen.python_backend.emit_python`
    renders for the same IR."""
    return module[: module.index("\n\n") + 1]
