"""Per-opcode and per-stage profiling: the observatory's diagnostic eye.

The spans of :mod:`repro.obs.trace` say how long a pipeline *stage*
took; this module answers the next question — *where inside the hash
itself* the time goes — by attributing wall/CPU time and execution
counts to individual IR opcodes:

- **Interpreter profiling** (:func:`profile_interp`) drives
  :func:`repro.codegen.interp.interpret_profiled_many`, whose chained
  timestamps attribute every instruction's cost to its opcode.  The
  attribution is exhaustive by construction: self-times sum to the
  evaluation's elapsed time, and only corpus-level entry/exit
  bookkeeping escapes, so coverage against an externally measured wall
  clock sits above 99%.
- **Batch-kernel profiling** (:func:`profile_batch`) re-executes the IR
  over NumPy ``uint64`` lane arrays one opcode at a time — the same
  lowering rules as :mod:`repro.codegen.batch`'s vector tier, with a
  timestamp per array op — and falls back to interpreter attribution
  when the plan has no lane body.  Results are parity-checked against
  the interpreter, so a profile is also a correctness witness.
- **Stage self-times** (:func:`self_time_tree`) turn captured span
  records into a tree where each node carries *self* wall/CPU time
  (total minus children), the shape ``sepe profile`` prints for the
  synthesis pipeline.

``sepe profile <regex>`` wires all three together into the per-plan
"hot opcode" report the native-tier roadmap item will lean on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import SpanRecord

__all__ = [
    "OpcodeStat",
    "ProfileReport",
    "profile_interp",
    "profile_batch",
    "profile_format",
    "self_time_tree",
    "stage_self_times",
    "render_profile",
    "render_self_time_tree",
]


@dataclass
class OpcodeStat:
    """Aggregated cost of one IR opcode across a profiled corpus."""

    opcode: str
    count: int
    wall_seconds: float
    cpu_seconds: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "opcode": self.opcode,
            "count": self.count,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
        }


@dataclass
class ProfileReport:
    """Per-opcode attribution for one plan over one key corpus.

    Attributes:
        label: plan identification (regex + family).
        family: hash family profiled.
        mode: ``"interp"`` (scalar interpreter) or ``"vector"`` (NumPy
            lane-array re-execution of the batch kernel's lowering).
        keys: number of keys evaluated.
        total_wall: the evaluator's own elapsed seconds (entry→exit).
        total_cpu: the evaluator's elapsed thread-CPU seconds.
        harness_wall: externally measured wall seconds around the whole
            profiled run — the denominator of :attr:`coverage`.
        opcodes: per-opcode stats, keyed by opcode name.
    """

    label: str
    family: str
    mode: str
    keys: int
    total_wall: float
    total_cpu: float
    harness_wall: float
    opcodes: Dict[str, OpcodeStat] = field(default_factory=dict)

    @property
    def attributed_wall(self) -> float:
        """Wall seconds attributed to named opcodes (sums self-times)."""
        return sum(stat.wall_seconds for stat in self.opcodes.values())

    @property
    def attributed_cpu(self) -> float:
        return sum(stat.cpu_seconds for stat in self.opcodes.values())

    @property
    def coverage(self) -> float:
        """Attributed share of the externally measured wall time.

        Chained timestamps make this ≥ 0.95 in practice (typically
        > 0.99); it can never meaningfully exceed 1.0 — only timer
        granularity noise sits between the two measurements.
        """
        if self.harness_wall <= 0:
            return 0.0
        return self.attributed_wall / self.harness_wall

    def hot(self) -> List[OpcodeStat]:
        """Opcodes by descending wall time — the "hot opcode" ranking."""
        return sorted(
            self.opcodes.values(),
            key=lambda stat: stat.wall_seconds,
            reverse=True,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "family": self.family,
            "mode": self.mode,
            "keys": self.keys,
            "total_wall_seconds": self.total_wall,
            "total_cpu_seconds": self.total_cpu,
            "harness_wall_seconds": self.harness_wall,
            "attributed_wall_seconds": self.attributed_wall,
            "coverage": self.coverage,
            "opcodes": [stat.to_dict() for stat in self.hot()],
        }


def _stats_to_report(
    label: str,
    family: str,
    mode: str,
    keys: int,
    stats: Dict[str, list],
    total_wall: float,
    total_cpu: float,
    harness_wall: float,
) -> ProfileReport:
    return ProfileReport(
        label=label,
        family=family,
        mode=mode,
        keys=keys,
        total_wall=total_wall,
        total_cpu=total_cpu,
        harness_wall=harness_wall,
        opcodes={
            opcode: OpcodeStat(opcode, entry[0], entry[1], entry[2])
            for opcode, entry in stats.items()
        },
    )


def _ir_function(synthesized):
    from repro.codegen.ir import build_ir, optimize

    return optimize(build_ir(synthesized.plan))


def profile_interp(synthesized, keys: Sequence[bytes]) -> ProfileReport:
    """Profile the IR interpreter over ``keys``, opcode by opcode.

    ``synthesized`` is a :class:`repro.core.synthesis.SynthesizedHash`.
    The profiled values are checked against the compiled scalar function
    on a sample, so the attribution demonstrably measures the same
    program it claims to.
    """
    func = _ir_function(synthesized)
    from repro.codegen.interp import interpret_profiled_many

    stats: Dict[str, list] = {}
    started = time.perf_counter()
    values, total_wall, total_cpu = interpret_profiled_many(
        func, keys, stats
    )
    harness_wall = time.perf_counter() - started
    compiled = synthesized.function
    for index in range(0, len(keys), max(1, len(keys) // 16)):
        if values[index] != compiled(keys[index]):  # pragma: no cover
            raise AssertionError(
                "profiled interpreter diverged from compiled function "
                f"on key {keys[index]!r}"
            )
    return _stats_to_report(
        label=synthesized.plan.pattern_regex or synthesized.name,
        family=synthesized.family.value,
        mode="interp",
        keys=len(keys),
        stats=stats,
        total_wall=total_wall,
        total_cpu=total_cpu,
        harness_wall=harness_wall,
    )


class _NotVectorizable(Exception):
    """Raised when a plan would not take the batch backend's vector tier."""


def _profile_vector(func, keys: Sequence[bytes], stats: Dict[str, list]):
    """Re-execute the IR over uint64 lane arrays, timing each opcode.

    Mirrors the lowering rules of
    :func:`repro.codegen.batch._emit_vector_lines` — the same bail-out
    conditions (variable length, per-plan scalar operands, 128-bit
    column planes in plain arithmetic) raise :class:`_NotVectorizable`,
    so this profiler only reports vector timings for plans whose real
    batch kernel runs the vector tier.  ``aes_absorb`` and ``aes_fold``
    call the same :mod:`repro.isa.aes` plane helpers the generated
    kernel calls, so an AES profile times the code that runs.
    """
    import numpy as np

    from repro.codegen.ir import AES_ROUND_KEY
    from repro.isa.aes import aes_fold_planes, aes_planes, aesenc_planes
    from repro.isa.bits import mask_to_gathers

    plan = func.plan
    if not plan.is_fixed_length:
        raise _NotVectorizable("variable-length plan")
    length = plan.key_length
    n = len(keys)

    cpu_prev = time.thread_time()
    wall_prev = time.perf_counter()
    wall_entry, cpu_entry = wall_prev, cpu_prev

    # The prologue the real vector kernel also pays — joining the batch
    # into one buffer and viewing it as a byte matrix — is attributed to
    # an explicit pseudo-stage so the vector profile stays exhaustive.
    buf = b"".join(keys)
    if len(buf) != n * length:
        raise _NotVectorizable("non-conforming key lengths in batch")
    arr = np.frombuffer(buf, dtype=np.uint8).reshape(n, length)
    round_key = aes_planes(AES_ROUND_KEY)

    cpu_now = time.thread_time()
    wall_now = time.perf_counter()
    stats["(batch setup)"] = [
        1,
        wall_now - wall_prev,
        cpu_now - cpu_prev,
    ]
    wall_prev, cpu_prev = wall_now, cpu_now

    registers: Dict[str, Any] = {}
    wide: set = set()
    scalars: set = set()
    values: Optional[list] = None
    for instr in func.instrs:
        op, dest, args = instr.opcode, instr.dest, instr.args
        if op == "const":
            scalars.add(dest)
            registers[dest] = args[0]
        elif op == "load64":
            offset, width = args
            if width == 8:
                registers[dest] = (
                    arr[:, offset : offset + 8].view("<u8")[:, 0].copy()
                )
            else:
                widened = np.zeros((n, 8), dtype=np.uint8)
                widened[:, :width] = arr[:, offset : offset + width]
                registers[dest] = widened.view("<u8").ravel()
        elif op in ("pext", "shl", "shr", "mul64", "rotl", "xor", "or", "add"):
            register_args = [arg for arg in args if isinstance(arg, str)]
            if any(arg in scalars or arg in wide for arg in register_args):
                raise _NotVectorizable(f"scalar/wide operand in {op}")
            if op == "pext":
                source = registers[args[0]]
                out = np.zeros(n, dtype=np.uint64)
                for distance, out_mask in mask_to_gathers(args[1]):
                    out |= (source >> np.uint64(distance)) & np.uint64(
                        out_mask
                    )
                registers[dest] = out
            elif op == "shl":
                registers[dest] = registers[args[0]] << np.uint64(args[1])
            elif op == "shr":
                registers[dest] = registers[args[0]] >> np.uint64(args[1])
            elif op == "mul64":
                registers[dest] = registers[args[0]] * np.uint64(args[1])
            elif op == "rotl":
                source = registers[args[0]]
                amount = args[1]
                registers[dest] = (source << np.uint64(amount)) | (
                    source >> np.uint64(64 - amount)
                )
            elif op == "xor":
                registers[dest] = registers[args[0]] ^ registers[args[1]]
            elif op == "or":
                registers[dest] = registers[args[0]] | registers[args[1]]
            else:  # add
                registers[dest] = registers[args[0]] + registers[args[1]]
        elif op == "aes_absorb":
            state, lo, hi = args
            if state not in wide and state not in scalars:
                raise _NotVectorizable("narrow lane array as aes state")
            if any(arg in scalars or arg in wide for arg in (lo, hi)):
                raise _NotVectorizable("scalar lane in aes_absorb")
            source = registers[state]
            if state not in wide:
                source = aes_planes(source)
            registers[dest] = aesenc_planes(
                source, registers[lo], registers[hi], round_key
            )
            wide.add(dest)
        elif op == "aes_fold":
            source = args[0]
            if source not in wide:
                raise _NotVectorizable("aes_fold of a narrow register")
            registers[dest] = aes_fold_planes(registers[source])
        elif op == "ret":
            returned = args[0]
            if returned in scalars or returned in wide:
                raise _NotVectorizable("ret of a non-lane register")
            values = registers[returned].tolist()
        else:
            raise _NotVectorizable(f"opcode {op} has no vector lowering")
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
        if values is not None:
            break
    if values is None:
        raise _NotVectorizable("IR function fell off the end without ret")
    return values, wall_prev - wall_entry, cpu_prev - cpu_entry


def profile_batch(synthesized, keys: Sequence[bytes]) -> ProfileReport:
    """Profile the batch kernel's work, opcode by opcode.

    Vectorizable plans are re-executed over NumPy lane arrays with one
    timestamp per array op (mode ``"vector"``), and the profiled values
    are parity-checked against the real ``hash_many`` kernel.  Plans
    without a lane body — for which the batch entry maps the scalar
    function over the keys — and environments without NumPy fall back
    to interpreter attribution (mode ``"interp"``), per key like the
    mapped scalar function.
    """
    func = _ir_function(synthesized)
    from repro.codegen.batch import HAVE_NUMPY

    if HAVE_NUMPY:
        stats: Dict[str, list] = {}
        started = time.perf_counter()
        try:
            values, total_wall, total_cpu = _profile_vector(
                func, keys, stats
            )
        except _NotVectorizable:
            values = None
        if values is not None:
            harness_wall = time.perf_counter() - started
            expected = synthesized.batch_function(list(keys))
            if values != expected:  # pragma: no cover - parity guard
                raise AssertionError(
                    "vector profiler diverged from the batch kernel"
                )
            return _stats_to_report(
                label=synthesized.plan.pattern_regex or synthesized.name,
                family=synthesized.family.value,
                mode="vector",
                keys=len(keys),
                stats=stats,
                total_wall=total_wall,
                total_cpu=total_cpu,
                harness_wall=harness_wall,
            )
    report = profile_interp(synthesized, keys)
    return report


def profile_format(
    regex: str,
    family=None,
    count: int = 2000,
    seed: int = 0,
    batch: bool = False,
) -> ProfileReport:
    """Synthesize ``regex`` and profile it on conforming keys.

    The convenience form behind ``sepe profile``: draws ``count``
    conforming keys (seeded, so profiles are comparable run to run) and
    attributes interpreter — or, with ``batch``, vector-kernel — time to
    opcodes.
    """
    from repro.core.plan import HashFamily
    from repro.core.synthesis import synthesize
    from repro.core.validate import sample_conforming_keys

    if family is None:
        family = HashFamily.PEXT
    synthesized = synthesize(regex, family)
    keys = sample_conforming_keys(synthesized.pattern, count, seed=seed)
    if batch:
        return profile_batch(synthesized, keys)
    return profile_interp(synthesized, keys)


# -- stage self-times over span records ---------------------------------


def self_time_tree(records: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Build a self-time tree from captured span records.

    Each node is a dict with ``name``, ``wall``/``cpu`` (inclusive),
    ``self_wall``/``self_cpu`` (inclusive minus direct children), and
    ``children``.  Spans whose parent is missing from ``records`` are
    treated as roots, matching ``render_span_tree``.
    """
    known = {record.span_id for record in records}
    children: Dict[Any, List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    for record in records:
        if record.parent_id is None or record.parent_id not in known:
            roots.append(record)
        else:
            children.setdefault(record.parent_id, []).append(record)
    roots.sort(key=lambda r: r.started)

    def build(record: SpanRecord) -> Dict[str, Any]:
        kids = sorted(
            children.get(record.span_id, ()), key=lambda r: r.started
        )
        child_nodes = [build(child) for child in kids]
        child_wall = sum(child["wall"] for child in child_nodes)
        child_cpu = sum(child["cpu"] for child in child_nodes)
        return {
            "name": record.name,
            "wall": record.wall_seconds,
            "cpu": record.cpu_seconds,
            "self_wall": max(record.wall_seconds - child_wall, 0.0),
            "self_cpu": max(record.cpu_seconds - child_cpu, 0.0),
            "children": child_nodes,
        }

    return [build(root) for root in roots]


def stage_self_times(
    records: Sequence[SpanRecord],
) -> Dict[str, Dict[str, float]]:
    """Aggregate the self-time tree by span name.

    The flat counterpart of :func:`self_time_tree` — per stage name,
    call count plus inclusive and self wall/CPU totals.  This is the
    JSON shape ``sepe profile --json`` exports for pipeline stages.
    """
    totals: Dict[str, Dict[str, float]] = {}

    def visit(node: Dict[str, Any]) -> None:
        entry = totals.setdefault(
            node["name"],
            {
                "calls": 0,
                "wall_seconds": 0.0,
                "self_wall_seconds": 0.0,
                "cpu_seconds": 0.0,
                "self_cpu_seconds": 0.0,
            },
        )
        entry["calls"] += 1
        entry["wall_seconds"] += node["wall"]
        entry["self_wall_seconds"] += node["self_wall"]
        entry["cpu_seconds"] += node["cpu"]
        entry["self_cpu_seconds"] += node["self_cpu"]
        for child in node["children"]:
            visit(child)

    for root in self_time_tree(records):
        visit(root)
    return totals


# -- rendering -----------------------------------------------------------


def render_profile(report: ProfileReport) -> str:
    """The per-opcode table ``sepe profile`` prints."""
    lines = [
        f"opcode profile: {report.label} [{report.family}] "
        f"mode={report.mode} keys={report.keys}",
        f"{'opcode':<12s} {'count':>10s} {'wall ms':>10s} {'%':>7s} "
        f"{'cpu ms':>10s} {'ns/key':>9s}",
    ]
    total = report.attributed_wall or 1.0
    for stat in report.hot():
        lines.append(
            f"{stat.opcode:<12s} {stat.count:>10,d} "
            f"{stat.wall_seconds * 1e3:>10.3f} "
            f"{100 * stat.wall_seconds / total:>6.1f}% "
            f"{stat.cpu_seconds * 1e3:>10.3f} "
            f"{stat.wall_seconds * 1e9 / max(report.keys, 1):>9.1f}"
        )
    hot = report.hot()
    hottest = hot[0].opcode if hot else "(none)"
    lines.append(
        f"attributed {report.attributed_wall * 1e3:.3f} ms of "
        f"{report.harness_wall * 1e3:.3f} ms wall "
        f"(coverage {100 * report.coverage:.2f}%), hot opcode: {hottest}"
    )
    return "\n".join(lines)


def render_self_time_tree(records: Sequence[SpanRecord]) -> str:
    """Indented stage tree with inclusive and self wall/CPU columns."""
    if not records:
        return "(no spans recorded)"
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        lines.append(
            f"{'  ' * depth}{node['name']:<{max(1, 40 - 2 * depth)}s} "
            f"wall {node['wall'] * 1e3:9.3f} ms   "
            f"self {node['self_wall'] * 1e3:9.3f} ms   "
            f"cpu {node['cpu'] * 1e3:9.3f} ms"
        )
        for child in node["children"]:
            walk(child, depth + 1)

    for root in self_time_tree(records):
        walk(root, 0)
    return "\n".join(lines)
