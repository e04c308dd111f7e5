"""A reference interpreter for the hash IR.

The Python backend compiles IR to source; this module *executes* the IR
directly.  It exists for differential testing: for any plan and key, the
interpreter and the compiled function must agree bit for bit, which
pins the backend's lowering (pext run-decomposition, shift masking,
tail loops) against an independent, dead-simple evaluator.

It is deliberately slow and obvious — one dict of registers, one
if-chain (:func:`_steps`) giving each opcode's concrete meaning —
because its value is as an oracle, not an engine.

Both evaluators step through :func:`_steps`: :func:`interpret` (and
:func:`interpret_registers`) run it plainly, and
:func:`interpret_profiled_many` runs it under per-instruction timing
for the performance observatory (:mod:`repro.obs.profile`): every
instruction's wall/CPU cost is attributed to its opcode via chained
timestamps, so opcode self-times sum to the loop's elapsed time by
construction.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.codegen.ir import AES_ROUND_KEY, IRFunction
from repro.isa.aes import aesenc
from repro.isa.bits import MASK64, pext, rotl64
from repro.obs.trace import span


def _steps(func: IRFunction, key: bytes, registers: Dict[str, int]):
    """Run ``func`` on ``key``, yielding ``(opcode, value)`` per instruction.

    This is the one definition of every opcode's concrete meaning.  Each
    assigned value is stored in ``registers`` before it is yielded; the
    last pair is the ``ret`` and its result.

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """

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
        elif op == "add":
            value = (get(args[0]) + get(args[1])) & MASK64
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
            yield op, get(args[0])
            return
        else:
            raise ValueError(f"unknown IR opcode: {op}")
        registers[instr.dest] = value
        yield op, value
    raise ValueError("IR function fell off the end without ret")


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
    if registers is None:
        registers = {}
    for _op, value in _steps(func, key, registers):
        pass
    return value


def interpret_profiled_many(
    func: IRFunction, keys, stats: Dict[str, list]
) -> tuple:
    """Evaluate an IR function on many keys under per-opcode timing.

    Semantics are identical to mapping :func:`interpret` over ``keys``;
    on top of that, every instruction's wall and per-thread CPU cost is
    accumulated into ``stats`` — a mapping ``opcode -> [count,
    wall_seconds, cpu_seconds]`` mutated in place so one dict can
    aggregate across several calls.

    Timestamps are *chained*: one ``perf_counter``/``thread_time`` pair
    is read per instruction boundary and each delta is attributed to the
    instruction that just executed.  The chain runs across keys, so
    per-key setup (register dict, loop advance) and the profiler's own
    accounting land inside the next instruction's window rather than
    escaping measurement: attributed self-times sum to the returned
    totals exactly, and only entry/exit bookkeeping (a few hundred
    nanoseconds per *corpus*, not per key) is outside them.

    Returns:
        ``(values, wall_seconds, cpu_seconds)`` — the hash values plus
        the evaluation's total elapsed wall/CPU time (entry to exit).

    Raises:
        ValueError: on an unknown opcode or a function without ``ret``.
    """
    values = []
    append = values.append
    cpu_entry = cpu_prev = time.thread_time()
    wall_entry = wall_prev = time.perf_counter()
    for key in keys:
        for op, value in _steps(func, key, {}):
            cpu_now = time.thread_time()
            wall_now = time.perf_counter()
            entry = stats.get(op)
            if entry is None:
                entry = stats[op] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += wall_now - wall_prev
            entry[2] += cpu_now - cpu_prev
            wall_prev = wall_now
            cpu_prev = cpu_now
        append(value)
    return values, wall_prev - wall_entry, cpu_prev - cpu_entry
