"""Per-stage and per-span profiling: the observatory's diagnostic eye.

The spans of :mod:`repro.obs.trace` say how long a pipeline *stage*
took; this module answers the next question — *where inside the hash
itself* the time goes — by timing the code ``hash_many`` runs:

- **Plan profiling** (:func:`profile_plan`) renders the lane body of
  :mod:`repro.codegen.batch` — the same ``(opcode, lines)`` stages
  :func:`~repro.codegen.batch.emit_python_module` joins — with a chained
  ``perf_counter``/``thread_time`` checkpoint between each pair, and
  times the list entry's own steps (length guard, row view,
  ``tolist``) as named pseudo-stages, so the parts sum to the whole.  A
  batch the list entry would map (no lane body, too few keys,
  off-length keys, no NumPy) is timed as the one ``(scalar map)`` stage
  it runs.  Every value is checked against ``hash_many``, so a profile
  is also a parity witness.
- **Stage self-times** (:func:`self_time_tree`) turn captured span
  records into a tree where each node carries *self* wall/CPU time
  (total minus children), the shape ``sepe profile`` prints for the
  synthesis pipeline.

``sepe profile <regex>`` wires both together into the per-plan
"hot opcode" report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.trace import SpanRecord

__all__ = [
    "OpcodeStat",
    "ProfileReport",
    "profile_plan",
    "profile_format",
    "self_time_tree",
    "stage_self_times",
    "render_profile",
    "render_self_time_tree",
]


@dataclass
class OpcodeStat:
    """Aggregated cost of one stage (an IR opcode or a pseudo-stage)."""

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
    """Per-stage attribution for one plan over one key batch.

    Attributes:
        label: plan identification (regex + family).
        family: hash family profiled.
        mode: ``"vector"`` (the lane body, stage by stage) or
            ``"mapped"`` (the scalar function mapped over the keys).
        keys: number of keys evaluated.
        total_wall: elapsed seconds from the first checkpoint to the last.
        total_cpu: the same span in thread-CPU seconds.
        harness_wall: externally measured wall seconds around the whole
            profiled run — the denominator of :attr:`coverage`.
        opcodes: per-stage stats, keyed by opcode or pseudo-stage name.
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
        """Wall seconds attributed to named stages (sums self-times)."""
        return sum(stat.wall_seconds for stat in self.opcodes.values())

    @property
    def attributed_cpu(self) -> float:
        return sum(stat.cpu_seconds for stat in self.opcodes.values())

    @property
    def coverage(self) -> float:
        """Attributed share of the externally measured wall time.

        Chained checkpoints make this ≥ 0.95 in practice; it can never
        meaningfully exceed 1.0 — only the call into the profiled entry
        and timer granularity sit between the two measurements.
        """
        if self.harness_wall <= 0:
            return 0.0
        return self.attributed_wall / self.harness_wall

    def hot(self) -> List[OpcodeStat]:
        """Stages by descending wall time — the "hot opcode" ranking."""
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


_CHECKPOINT = ["    _w(_pc())", "    _c(_tt())"]


def _render_profiled(setup, stages, length):
    """The list entry and lane body with a checkpoint between stages.

    Returns ``(source, labels)``: ``labels[i]`` names the span between
    checkpoints ``i`` and ``i + 1``.  The ``ret`` stage returns from the
    lane body, so the entry's checkpoint after the call closes it.  The
    last checkpoint reads the CPU clock before the wall clock, so that
    ``thread_time`` call (a system call) is attributed, not left in the
    harness's unattributed gap.  The entry returns None for a batch the
    real entry would map.
    """
    from repro.codegen.batch import LANE_PROLOGUE, LENGTH_GUARD, ROW_VIEW

    lines = [
        *setup,
        "from time import perf_counter as _pc, thread_time as _tt",
        "def _lanes(_a, _w, _c):",
        *LANE_PROLOGUE,
    ]
    for _opcode, body in stages:
        lines += _CHECKPOINT + body
    lines += [
        "",
        "def _entry(keys, _w, _c):",
        *_CHECKPOINT,
        "    n = len(keys)",
        f"    if {LENGTH_GUARD.format(length=length)}:",
        "        return None",
        *_CHECKPOINT,
        f"    _r = _lanes({ROW_VIEW.format(length=length)}, _w, _c)",
        *_CHECKPOINT,
        "    _r = _r.tolist()",
        *reversed(_CHECKPOINT),
        "    return _r",
        "",
    ]
    labels = ["(length guard)", "(row view)"]
    labels += [opcode for opcode, _lines in stages]
    labels.append("(tolist)")
    return "\n".join(lines), labels


def profile_plan(
    synthesized, keys: Sequence[bytes], label: Optional[str] = None
) -> ProfileReport:
    """Profile what ``hash_many(keys)`` runs, stage by stage.

    ``synthesized`` is a :class:`repro.core.synthesis.SynthesizedHash`;
    ``label`` names the report (default: the plan's widened
    ``pattern_regex``, for a plan with no format string to hand).
    A batch the list entry vectorizes is reported as mode ``"vector"``:
    one stat per IR opcode (count = instructions of that opcode) plus
    the entry's pseudo-stages.  Any other batch is mode ``"mapped"``
    with the one ``(scalar map)`` stage.  The profiled values must
    equal ``synthesized.batch_function(keys)``.
    """
    from repro.codegen.batch import lane_stages
    from repro.codegen.ir import build_ir, optimize
    from repro.codegen.python_backend import compile_source

    keys = list(keys)
    walls: List[float] = []
    cpus: List[float] = []
    values = None
    # The IR synthesis already optimized; rebuilding it would run the
    # dataflow verifier again, outside the synthesis span.
    ir = synthesized.ir
    if ir is None:
        ir = optimize(build_ir(synthesized.plan))
    lowered = lane_stages(ir)
    if lowered is not None:
        source, labels = _render_profiled(
            *lowered, synthesized.plan.key_length
        )
        entry = compile_source(source, "_entry")
        # Bound before the clock starts: allocating them can run the GC.
        mark_wall, mark_cpu = walls.append, cpus.append
        started = time.perf_counter()
        values = entry(keys, mark_wall, mark_cpu)
        harness_wall = time.perf_counter() - started
        mode = "vector"
    if values is None:
        mode, labels = "mapped", ["(scalar map)"]
        function = synthesized.function
        walls.clear()
        cpus.clear()
        started = time.perf_counter()
        walls.append(time.perf_counter())
        cpus.append(time.thread_time())
        values = list(map(function, keys))
        cpus.append(time.thread_time())
        walls.append(time.perf_counter())
        harness_wall = time.perf_counter() - started
    if values != synthesized.batch_function(keys):
        raise AssertionError("profiled stages diverged from hash_many")
    opcodes: Dict[str, OpcodeStat] = {}
    for index, stage in enumerate(labels):
        stat = opcodes.setdefault(stage, OpcodeStat(stage, 0, 0.0, 0.0))
        stat.count += 1
        stat.wall_seconds += walls[index + 1] - walls[index]
        stat.cpu_seconds += cpus[index + 1] - cpus[index]
    return ProfileReport(
        label=label or synthesized.plan.pattern_regex or synthesized.name,
        family=synthesized.family.value,
        mode=mode,
        keys=len(keys),
        total_wall=walls[-1] - walls[0],
        total_cpu=cpus[-1] - cpus[0],
        harness_wall=harness_wall,
        opcodes=opcodes,
    )


def profile_format(
    regex: str,
    family=None,
    count: int = 2000,
    seed: int = 0,
) -> ProfileReport:
    """Synthesize ``regex`` and profile it on conforming keys.

    The convenience form behind ``sepe profile``: draws ``count``
    conforming keys (seeded, so profiles are comparable run to run) and
    profiles the plan's ``hash_many`` over them (:func:`profile_plan`).
    The report is labelled with ``regex`` as given.
    """
    from repro.core.plan import HashFamily
    from repro.core.synthesis import synthesize
    from repro.core.validate import sample_conforming_keys

    if family is None:
        family = HashFamily.PEXT
    synthesized = synthesize(regex, family)
    keys = sample_conforming_keys(synthesized.pattern, count, seed=seed)
    return profile_plan(synthesized, keys, label=regex)


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
    """The per-stage table ``sepe profile`` prints."""
    lines = [
        f"stage profile: {report.label} [{report.family}] "
        f"mode={report.mode} keys={report.keys}",
        f"{'stage':<14s} {'count':>10s} {'wall ms':>10s} {'%':>7s} "
        f"{'cpu ms':>10s} {'ns/key':>9s}",
    ]
    total = report.attributed_wall or 1.0
    for stat in report.hot():
        lines.append(
            f"{stat.opcode:<14s} {stat.count:>10,d} "
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
