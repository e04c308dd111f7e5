"""A reference interpreter for the hash IR.

The Python backend compiles IR to source; this module *executes* the IR
directly.  It exists for differential testing: for any plan and key, the
interpreter and the compiled function must agree bit for bit, which
pins the backend's lowering (pext run-decomposition, shift masking,
tail loops) against an independent, dead-simple evaluator.

It is deliberately slow and obvious — one dict of registers, one
if-chain (:func:`_interpret`) giving each opcode's concrete meaning —
because its value is as an oracle, not an engine.  It is no profiling
target: ``sepe profile`` (:mod:`repro.obs.profile`) times the emitted
code that ``hash_many`` runs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.codegen.ir import AES_ROUND_KEY, IRFunction
from repro.isa.aes import aesenc
from repro.isa.bits import MASK64, pext, rotl64
from repro.obs.trace import span


def interpret(func: IRFunction, key: bytes) -> int:
    """Evaluate an IR function on a key.

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """
    with span("codegen.interp", function=func.name):
        return _interpret(func, key)


def interpret_registers(func: IRFunction, key: bytes):
    """Evaluate like :func:`interpret`, also exposing the registers.

    Returns ``(value, registers)`` where ``registers`` maps every
    register assigned before the return to its concrete 64-bit value.
    The dataflow soundness oracle compares this environment against the
    analyzer's abstract values register by register — the return value
    alone would let an unsound intermediate fact hide behind a sound
    final one.
    """
    registers: Dict[str, int] = {}
    return _interpret(func, key, registers), registers


def _interpret(
    func: IRFunction,
    key: bytes,
    registers: Optional[Dict[str, int]] = None,
) -> int:
    """The one definition of every opcode's concrete meaning.

    Each assigned value is stored in ``registers``.

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """
    if registers is None:
        registers = {}

    def get(name) -> int:
        if isinstance(name, int):
            return name
        return registers[name]

    for instr in func.instrs:
        op, args = instr.opcode, instr.args
        if op == "const":
            value = args[0]
        elif op == "load64":
            offset, width = args
            value = int.from_bytes(key[offset : offset + width], "little")
        elif op == "pext":
            value = pext(get(args[0]), args[1])
        elif op == "shl":
            value = (get(args[0]) << args[1]) & MASK64
        elif op == "shr":
            value = get(args[0]) >> args[1]
        elif op == "mul64":
            value = (get(args[0]) * args[1]) & MASK64
        elif op == "rotl":
            value = rotl64(get(args[0]), args[1])
        elif op == "xor":
            value = get(args[0]) ^ get(args[1])
        elif op == "or":
            value = get(args[0]) | get(args[1])
        elif op == "aes_absorb":
            state, lo, hi = (get(a) for a in args)
            value = aesenc(state ^ (lo | (hi << 64)), AES_ROUND_KEY)
        elif op == "aes_fold":
            state = get(args[0])
            value = (state ^ (state >> 64)) & MASK64
        elif op == "tail_xor":
            value = get(args[0])
            position = args[1]
            length = len(key)
            while position + 8 <= length:
                value ^= int.from_bytes(
                    key[position : position + 8], "little"
                )
                position += 8
            if position < length:
                value ^= int.from_bytes(key[position:length], "little")
        elif op == "ret":
            return get(args[0])
        else:
            raise ValueError(f"unknown IR opcode: {op}")
        registers[instr.dest] = value
    raise ValueError("IR function fell off the end without ret")
