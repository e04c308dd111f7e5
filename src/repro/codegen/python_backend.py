"""Python backend: lower IR to executable source and compile it.

The paper's tool emits C++; the executable artifact of *this* reproduction
is Python, generated with the same structure (fully unrolled loads,
constant masks baked in, compacting shifts) and compiled with ``exec``.
Specialization matters in Python for the same reason it does in C++: the
generated function does a handful of slice-and-int operations with no
per-byte loop, while general-purpose baselines (the STL murmur port)
iterate word by word with multiplies and shifts.
The compiled module of a plan (:func:`repro.codegen.batch
.emit_python_module`) is this same function followed by its batch tail,
which maps it over every batch the NumPy lane body does not take.

Three deliberate lowerings replace per-call helpers with inline code:

- The GF(2)-linear part of a body — loads, ``pext`` with a compile-time
  mask, shifts, rotations, xor and bit-disjoint or — is *fused*, not
  lowered one opcode at a time.  Loads share one ``int.from_bytes`` per
  key window of up to :data:`LOAD_WINDOW_BYTES` bytes, and a register
  built from them is emitted as one ``(_w >> d) & m`` gather per
  distinct shift distance ``d``: each pext mask run moves its bits by
  ``shift - out_pos`` (:func:`repro.isa.bits.mask_to_gathers`), the
  following shifts move them further, and runs that end up at the same
  distance share one mask.  CPython pays per int operation, whatever
  its width, so this is where the plan's specialization is kept; the
  standard per-run shift/and/shift/or software pext would spend three
  operations a run and one call per loaded word.  The NumPy tier
  (:mod:`repro.codegen.batch`) lowers ``pext`` to the same gathers, two
  array ops per run.
- When the scalar function returns such a register directly — a Pext
  chain with nothing after it — it may be *tabulated* instead.  The
  value is GF(2)-linear in the key bytes, so it is the xor of one
  256-entry table per live key byte, each table derived exactly from
  the gathers (simple tabulation in the sense of Thorup's "High Speed
  Hashing for Integers and Strings", with plan-derived rather than
  random tables).  The fast path is ``_t0[key[0]] | _t1[key[1]] | ...``:
  no ``int.from_bytes``, no slicing, no big-int shift.  The tables are
  keyword defaults built by the emitted source, so it stays
  self-contained.  Which form is cheaper is counted, not tuned: see
  :data:`_MAX_GATHERS`.
- ``aes_absorb`` becomes inline T-table lookups (16 byte extractions,
  16 table reads, four column folds) against module-level tables bound
  into the function's namespace, skipping the Python call and state
  re-marshalling of :func:`repro.isa.aes.aesenc_fast` on every word pair.

Differential tests (:mod:`tests.codegen.test_interp`,
:mod:`tests.codegen.test_random_plans`) pin all three against the reference
interpreter, which uses the plain :func:`repro.isa.aes.aesenc` and
:func:`repro.isa.bits.pext`, on keys of every length.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.codegen.ir import AES_ROUND_KEY, IRFunction, build_ir, optimize
from repro.core.plan import SynthesisPlan
from repro.isa.aes import (
    _TTABLES,
    aes_fold_planes,
    aes_planes,
    aesenc_fast,
    aesenc_planes,
)
from repro.isa.bits import mask_to_gathers
from repro.obs.metrics import get_registry
from repro.obs.trace import span

MASK64 = (1 << 64) - 1

HashCallable = Callable[[bytes], int]

LOAD_WINDOW_BYTES = 16
"""Widest key slice one fused load reads: loads whose byte ranges fit
in a span this wide share one ``int.from_bytes`` call."""

LOWERING_VERSION = 6
"""Version of the emitted source for an unchanged plan: a change to the
emitted module bytes bumps it (``tests/codegen/test_batch.py`` pins
the module digest of every built-in plan by version)."""

_MAX_GATHERS = 32
"""Most gathers a symbolic register may hold.  A linear op whose result
would exceed it runs as written on materialized operands instead: this
bounds both the emitted expression (thousands of terms, as RQ6's
2**14-byte keys would give, exceed the compiler's nesting limit) and
the quadratic cost of merging a long combine chain.

The scalar function returns a symbolic register as byte-table lookups
when ``live_bytes < 2 * (gathers + windows)``.  Measured per operation
joined into a 64-bit result (CPython 3.11, 2-vCPU Xeon VM, spread of
three runs): a table lookup ``_t[key[p]]`` 50-66 ns, a gather
``(_w >> d) & m`` 86-132 ns, a window load ``_ifb(key[a:b],
'little')`` 144-238 ns.  So a lookup costs about half a gather, and a
window is priced as one more gather.  SSN, IPV4 and MAC Pext and the
certified-perfect MAC plan take tables; OffXor plans (2-3 gathers over
11-17 live bytes) and the URL Pext plans (4 gathers over 20 live
bytes) keep gathers."""

_LINEAR_OPS = ("pext", "shl", "shr", "rotl", "xor", "or")
"""Opcodes that are GF(2)-linear in their register operands (``or``
only when the operands share no bits); with ``load64`` they stay
symbolic in the fused lowering."""

# After ShiftRows, output column c row r reads input byte 4*((c+r)%4)+r.
_AES_GATHER = [
    [4 * ((col + row) % 4) + row for row in range(4)] for col in range(4)
]


def _pext_expression(src: str, mask: int) -> str:
    """Render a constant-mask parallel bit extraction of ``src``: one
    ``(src >> distance) & out_mask`` gather per mask run
    (:func:`repro.isa.bits.mask_to_gathers`), OR-ed together."""
    terms = [
        _gather_expression(src, distance, out_mask, MASK64 >> distance)
        for distance, out_mask in mask_to_gathers(mask)
    ]
    return " | ".join(terms) or "0"


def _emit_aes_absorb(dest: str, state: str, lo: str, hi: str) -> List[str]:
    """Inline one AES round: extract bytes, gather through the T-tables.

    The emitted code mirrors :func:`repro.isa.aes.aesenc_fast` with the
    byte list and the helper call flattened away; ``_T0.._T3`` are bound
    at compile time.
    """
    lines = [f"    _x = {state} ^ ({lo} | ({hi} << 64))"]
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
        f"    {dest} = ({' | '.join(column_terms)}) ^ "
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


def _shift(value: int, distance: int) -> int:
    """``value >> distance``, or ``value << -distance`` when negative."""
    return value >> distance if distance >= 0 else value << -distance


def _gather_expression(
    name: str, distance: int, mask: int, possible: int
) -> str:
    """Render ``shift(name, distance) & mask`` (``>>`` for a positive
    distance, ``<<`` for a negative one); the ``&`` is dropped when
    ``mask`` keeps every bit the shifted value can have."""
    if distance > 0:
        shifted = f"({name} >> {distance})"
    elif distance < 0:
        shifted = f"({name} << {-distance})"
    else:
        shifted = name
    if mask == possible:
        return shifted
    return f"({shifted} & {hex(mask)})"


Terms = Dict[Tuple[int, int], int]
"""A symbolic register: ``(window, distance) -> mask``, standing for the
xor over its entries of ``shift(_w<window>, distance) & mask``."""


class _FusedBody:
    """The scalar lowering: GF(2)-linear chains fused into bit gathers.

    Every ``load64`` reads from a *window* — one little-endian load
    ``_w<k> = _ifb(key[a:b], 'little')`` of at most
    :data:`LOAD_WINDOW_BYTES` bytes covering one or more loads.  A
    register computed only by ``load64``, ``pext``, ``shl``, ``shr``,
    ``rotl``, ``xor`` and bit-disjoint ``or`` stays symbolic, as
    :data:`Terms`: ``pext`` maps each mask run by its distance
    ``shift - out_pos``, shifts and rotations move distances and masks,
    and terms at the same distance merge by xor-ing their masks.  A
    symbolic register is *materialized* — one ``shift & mask`` term per
    distinct distance — only where something else reads it: ``ret``,
    ``mul64``, the AES opcodes, ``tail_xor``, an ``or`` whose operands
    may share bits, a linear op with a concrete operand, or a linear op
    whose result would hold more than :data:`_MAX_GATHERS` terms.

    This is exact on every key, conforming or not: slicing past the end
    of a key zero-fills ``key[o:o+w]`` and ``key[a:b]`` alike, so
    ``(_w >> 8*(o-a)) & (2**(8*w) - 1) == ifb(key[o:o+w])`` for any
    key length, the empty key included.

    A ``ret`` of a symbolic register that is the whole body may instead
    be lowered to one table lookup per live key byte (:meth:`_tabulated`);
    the tables are left in :attr:`tables` as keyword-default parameters
    for the ``def`` line.
    """

    def __init__(self, func: IRFunction):
        self.func = func
        self.tables: List[str] = []  # "_t<k>=<expression>" parameters
        self.lines: List[str] = []
        self.windows: List[List[int]] = []  # [start, end) byte ranges
        self.load_window: Dict[Tuple[int, int], int] = {}
        spans = sorted(
            {
                (instr.args[0], instr.args[0] + instr.args[1])
                for instr in func.instrs
                if instr.opcode == "load64"
            }
        )
        for start, end in spans:
            if self.windows and end - self.windows[-1][0] <= LOAD_WINDOW_BYTES:
                self.windows[-1][1] = max(self.windows[-1][1], end)
            else:
                self.windows.append([start, end])
            self.load_window[(start, end)] = len(self.windows) - 1
        self.loaded: set = set()
        self.symbolic: Dict[str, Terms] = {}
        self.names: Dict[str, str] = {}  # materialized aliases

    # -- terms -------------------------------------------------------------

    def _possible(self, window: int, distance: int) -> int:
        """Bits ``shift(_w<window>, distance)`` can have."""
        start, end = self.windows[window]
        return _shift((1 << (8 * (end - start))) - 1, distance)

    def _merge(self, *parts: Iterable[Tuple[Tuple[int, int], int]]) -> Terms:
        """Xor ``parts`` together into canonical terms of a 64-bit value:
        masks trimmed to what each gather can set, zeros dropped."""
        terms: Terms = {}
        for part in parts:
            for slot, mask in part:
                terms[slot] = terms.get(slot, 0) ^ mask
        out: Terms = {}
        for slot, mask in terms.items():
            mask &= self._possible(*slot) & MASK64
            if mask:
                out[slot] = mask
        return out

    @staticmethod
    def _shifted(terms: Terms, by: int, keep: int = -1) -> List:
        """Terms of ``(value >> by) & keep`` (``<<`` when ``by`` is
        negative): each gather moves ``by`` bits further."""
        return [
            ((window, distance + by), _shift(mask, by) & keep)
            for (window, distance), mask in terms.items()
        ]

    def _linear(self, op: str, args: tuple) -> Optional[Terms]:
        """The terms of a linear opcode, or None when it must run as is."""
        if op == "load64":
            offset, width = args
            window = self.load_window[(offset, offset + width)]
            distance = 8 * (offset - self.windows[window][0])
            return self._merge(
                [((window, distance), (1 << (8 * width)) - 1)]
            )
        sources = [arg for arg in args if isinstance(arg, str)]
        if op not in _LINEAR_OPS or any(
            src not in self.symbolic for src in sources
        ):
            return None
        terms = self.symbolic[args[0]]
        if op == "pext":
            return self._merge(
                *(
                    self._shifted(terms, distance, out_mask)
                    for distance, out_mask in mask_to_gathers(args[1])
                )
            )
        if op == "shl":
            return self._merge(self._shifted(terms, -args[1]))
        if op == "shr":
            return self._merge(self._shifted(terms, args[1]))
        if op == "rotl":
            amount = args[1] % 64
            return self._merge(
                self._shifted(terms, -amount),
                self._shifted(terms, 64 - amount),
            )
        other = self.symbolic[args[1]]
        if op == "or" and self._bits(terms) & self._bits(other):
            return None  # overlapping bits: `|` is not `^`
        return self._merge(terms.items(), other.items())

    @staticmethod
    def _bits(terms: Terms) -> int:
        bits = 0
        for mask in terms.values():
            bits |= mask
        return bits

    # -- emission ----------------------------------------------------------

    def _gathers(self, terms: Terms) -> List[str]:
        """One gather per distinct (window, distance), emitting each
        window's load the first time it is read."""
        rendered = []
        for window, distance in sorted(terms):
            if window not in self.loaded:
                self.loaded.add(window)
                start, end = self.windows[window]
                self.lines.append(
                    f"    _w{window} = _ifb(key[{start}:{end}], 'little')"
                )
            rendered.append(
                _gather_expression(
                    f"_w{window}",
                    distance,
                    terms[(window, distance)],
                    self._possible(window, distance),
                )
            )
        return rendered

    def _name(self, register, bind: bool = True) -> str:
        """A readable name for ``register``, materializing it if needed
        (``bind=False`` returns a symbolic register's expression instead
        of assigning it, for a single use such as ``ret``)."""
        if isinstance(register, int):
            return hex(register)
        if register in self.names:
            return self.names[register]
        terms = self.symbolic.get(register)
        if terms is None:
            return register
        joiner = " ^ " if self._overlaps(terms) else " | "
        expression = joiner.join(self._gathers(terms)) or "0"
        if not bind:
            return expression
        del self.symbolic[register]
        if expression.isidentifier():
            self.names[register] = expression
            return expression
        self.lines.append(f"    {register} = {expression}")
        self.names[register] = register
        return register

    def _byte_shares(self, terms: Terms) -> Dict[int, Dict[int, int]]:
        """Each live key byte's share of ``terms``: ``{position: {by:
        mask}}``, the byte's value ``b`` contributing the xor over its
        entries of ``shift(b, by) & mask``.  Byte ``position`` of window
        ``[start, end)`` sits ``8 * (position - start)`` bits up ``_w``,
        so a gather at distance ``d`` moves it by ``d - 8 * (position -
        start)``; windows may overlap, and shares of one byte merge."""
        shares: Dict[int, Dict[int, int]] = {}
        for (window, distance), mask in terms.items():
            start, end = self.windows[window]
            for position in range(start, end):
                share = shares.setdefault(position, {})
                by = distance - 8 * (position - start)
                share[by] = share.get(by, 0) ^ mask
        live: Dict[int, Dict[int, int]] = {}
        for position, share in sorted(shares.items()):
            trimmed = {
                by: mask & _shift(0xFF, by)
                for by, mask in sorted(share.items())
                if mask & _shift(0xFF, by)
            }
            if trimmed:
                live[position] = trimmed
        return live

    def _tabulated(self, terms: Terms) -> bool:
        """Emit ``ret`` of a symbolic register as byte-table lookups, if
        that is the cheaper form (see :data:`_MAX_GATHERS`).

        One 256-entry table per live key byte holds that byte's share of
        the value for every byte value, built from the emitted source
        itself (``_t<k>`` keyword defaults), so the fast path is one
        subscript pair per live byte and no big-int arithmetic.  A key
        too short for the last live byte raises ``IndexError`` and is
        re-run zero-filled — the same zero-fill ``key[a:b]`` slicing
        gives the gather form.
        """
        shares = self._byte_shares(terms)
        windows = {window for window, _ in terms}
        if not shares or len(shares) >= 2 * (len(terms) + len(windows)):
            return False
        lookups = []
        names: Dict[str, str] = {}  # equal tables are built once
        for position, share in shares.items():
            entry = " ^ ".join(
                _gather_expression("b", by, mask, _shift(0xFF, by))
                for by, mask in share.items()
            )
            name = names.get(entry)
            if name is None:
                name = names[entry] = f"_t{len(self.tables)}"
                self.tables.append(
                    f"{name}=tuple([{entry} for b in range(256)])"
                )
            lookups.append(f"{name}[key[{position}]]")
        bits = {at: self._bits(share) for at, share in shares.items()}
        joiner = " ^ " if self._overlaps(bits) else " | "
        ret = f"return {joiner.join(lookups)}"
        self.lines.extend(
            [
                "    try:",
                f"        {ret}",
                "    except IndexError:",
                f"        key = bytes(key).ljust({max(shares) + 1}, b'\\x00')",
                f"    {ret}",
            ]
        )
        return True

    @staticmethod
    def _overlaps(terms: Dict) -> bool:
        """True when two of ``terms``' masks share a bit."""
        seen = 0
        for mask in terms.values():
            if seen & mask:
                return True
            seen |= mask
        return False

    def lower(self) -> List[str]:
        """The body's statement lines, at function depth.

        Raises:
            ValueError: on an unknown opcode or a body without ``ret``.
        """
        indent = "    "
        lines = self.lines
        body_emitted = False
        for instr in self.func.instrs:
            op, dest, args = instr.opcode, instr.dest, instr.args
            terms = self._linear(op, args)
            if terms is not None and len(terms) <= _MAX_GATHERS:
                self.symbolic[dest] = terms
                continue
            if op == "ret":
                body_emitted = True
                if (
                    not lines
                    and args[0] in self.symbolic
                    and self._tabulated(self.symbolic[args[0]])
                ):
                    continue
                result = self._name(args[0], bind=False)
                lines.append(f"{indent}return {result}")
                continue
            names = [
                self._name(arg) if isinstance(arg, str) else arg
                for arg in args
            ]
            if op == "const":
                lines.append(f"{indent}{dest} = {hex(args[0])}")
            elif op == "pext":
                lines.append(
                    f"{indent}{dest} = {_pext_expression(names[0], args[1])}"
                )
            elif op == "shl":
                lines.append(
                    f"{indent}{dest} = ({names[0]} << {args[1]}) & "
                    f"{hex(MASK64)}"
                )
            elif op == "shr":
                lines.append(f"{indent}{dest} = {names[0]} >> {args[1]}")
            elif op == "mul64":
                lines.append(
                    f"{indent}{dest} = ({names[0]} * {hex(args[1])}) & "
                    f"{hex(MASK64)}"
                )
            elif op == "rotl":
                amount = args[1]
                lines.append(
                    f"{indent}{dest} = (({names[0]} << {amount}) | "
                    f"({names[0]} >> {64 - amount})) & {hex(MASK64)}"
                )
            elif op == "xor":
                lines.append(f"{indent}{dest} = {names[0]} ^ {names[1]}")
            elif op == "or":
                lines.append(f"{indent}{dest} = {names[0]} | {names[1]}")
            elif op == "aes_absorb":
                lines.extend(_emit_aes_absorb(dest, *names))
            elif op == "aes_fold":
                lines.append(
                    f"{indent}{dest} = ({names[0]} ^ ({names[0]} >> 64)) & "
                    f"{hex(MASK64)}"
                )
            elif op == "tail_xor":
                acc, start = names
                lines.extend(
                    [
                        f"{indent}{dest} = {acc}",
                        f"{indent}_n = len(key)",
                        f"{indent}_p = {start}",
                        f"{indent}while _p + 8 <= _n:",
                        f"{indent}    {dest} ^= "
                        "_ifb(key[_p:_p + 8], 'little')",
                        f"{indent}    _p += 8",
                        f"{indent}if _p < _n:",
                        f"{indent}    {dest} ^= _ifb(key[_p:_n], 'little')",
                    ]
                )
            else:
                raise ValueError(f"unknown IR opcode: {op}")
        if not body_emitted:
            raise ValueError("IR function has no return")
        return lines


def _emit_python_lines(func: IRFunction) -> str:
    """The scalar function's source; the compiled module opens with it."""
    name = func.name
    body = _FusedBody(func)
    body_lines = body.lower()
    parameters = ["key", "_ifb=int.from_bytes", "_aes=_aesenc", *body.tables]
    if body.tables:
        lines = [f"def {name}("]
        lines.extend(f"    {parameter}," for parameter in parameters)
        lines.append("):")
    else:
        lines = [f"def {name}({', '.join(parameters)}):"]
    doc = f"Synthesized {func.plan.family.value} hash"
    if func.plan.pattern_regex:
        doc += f" for format {func.plan.pattern_regex!r}"
    lines.append(f'    """{doc}."""')
    lines.extend(body_lines)
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
