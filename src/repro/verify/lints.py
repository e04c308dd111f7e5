"""Plan and IR lints: machine-checkable rules over synthesis output.

Every rule inspects one :class:`~repro.core.plan.SynthesisPlan` (plus
its lowered IR and abstract interpretation, computed lazily and shared
across rules) and emits :class:`Finding` objects at one of three
severities.  ``error`` findings mean the plan is wrong — it cannot
lower, it loses key bits, or it claims a bijection the prover refutes;
``warning`` means wasteful-but-correct output; ``info`` is advisory.

Rules self-register through the :func:`lint_rule` decorator, so adding
a rule is writing one function; the registry, the CLI (``sepe lint``)
and the CI gate pick it up automatically.  A rule that *crashes* is
reported as an error finding rather than aborting the run — a linter
that dies on odd input is itself a bug, and the gate should say so.

Findings serialize to JSON (``LintReport.to_dict``) for the CI gate and
any downstream tooling.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.codegen.ir import (
    IRFunction,
    build_ir,
    dead_code_eliminate,
    optimize_with_stats,
)
from repro.core.pattern import KeyPattern
from repro.core.plan import CombineOp, HashFamily, SynthesisPlan
from repro.errors import SepeError
from repro.obs.trace import span
from repro.verify.bijectivity import (
    BijectivityResult,
    prove_bijectivity,
    resolve_pattern,
)
from repro.verify.dataflow import (
    DataflowResult,
    EntropyReport,
    analyze_dataflow,
    entropy_report,
)
from repro.verify.tv import translation_validate

__all__ = [
    "LINT_SCHEMA_VERSION",
    "Severity",
    "Finding",
    "LintReport",
    "LintContext",
    "lint_rule",
    "registered_rules",
    "run_lints",
]

#: Version of the JSON document ``LintReport.to_dict`` produces.  Bump
#: on any breaking change to field names or semantics so CI gates and
#: downstream consumers can detect drift instead of misparsing.
LINT_SCHEMA_VERSION = 1

#: Rule name the runner uses for findings that represent *linter* bugs
#: (a rule crashed) rather than plan defects; the CLI maps reports
#: containing these to its internal-error exit code.
CRASH_RULE = "lint-crash"


class Severity(enum.Enum):
    """How bad a finding is; ``error`` fails the CI gate."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One lint hit: which rule fired, how severe, and why.

    Attributes:
        rule: registered name of the rule that produced this finding.
        severity: :class:`Severity` of the defect.
        message: human-readable explanation.
        data: optional machine-readable detail (JSON-serializable).
    """

    rule: str
    severity: Severity
    message: str
    data: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "data": self.data,
        }


@dataclass
class LintReport:
    """All findings from one run over one plan."""

    plan_regex: str
    family: str
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was produced."""
        return not self.errors

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def internal_errors(self) -> List[Finding]:
        """Findings that mean the *linter* broke, not the plan."""
        return [f for f in self.findings if f.rule == CRASH_RULE]

    def counts(self) -> Dict[str, int]:
        totals = {severity.value: 0 for severity in Severity}
        for finding in self.findings:
            totals[finding.severity.value] += 1
        return totals

    def to_dict(self) -> Dict:
        return {
            "schema_version": LINT_SCHEMA_VERSION,
            "pattern": self.plan_regex,
            "family": self.family,
            "ok": self.ok,
            "counts": self.counts(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)


class LintContext:
    """Shared, lazily-computed analysis state handed to every rule.

    Expensive artifacts (IR, optimized IR and its rewrite stats, the
    reduced-product analysis, the bijectivity proof, the entropy report)
    are computed at most once per plan no matter how many rules consult
    them.  Accessors raise :class:`SepeError` subclasses on malformed
    plans; rules let those propagate — the runner folds them into the
    dedicated lowering finding.
    """

    def __init__(
        self, plan: SynthesisPlan, pattern: Optional[KeyPattern] = None
    ):
        self.plan = plan
        self.pattern = resolve_pattern(plan, pattern)
        self._ir: Optional[IRFunction] = None
        self._optimized: Optional[IRFunction] = None
        self._rewrites: Optional[dict] = None
        self._bijectivity: Optional[BijectivityResult] = None
        self._dataflow: Optional[DataflowResult] = None
        self._entropy: Optional[EntropyReport] = None

    @property
    def ir(self) -> IRFunction:
        if self._ir is None:
            self._ir = build_ir(self.plan, name="lint")
        return self._ir

    @property
    def optimized(self) -> IRFunction:
        if self._optimized is None:
            self._optimized, self._rewrites = optimize_with_stats(self.ir)
        return self._optimized

    @property
    def rewrites(self) -> dict:
        """The stats of the rewrites that built :attr:`optimized`
        (see :func:`~repro.codegen.ir.optimize_with_stats`)."""
        self.optimized
        return self._rewrites

    @property
    def bijectivity(self) -> BijectivityResult:
        if self._bijectivity is None:
            self._bijectivity = prove_bijectivity(
                self.plan, self.pattern, func=self._ir
            )
        return self._bijectivity

    @property
    def dataflow(self) -> DataflowResult:
        if self._dataflow is None:
            self._dataflow = analyze_dataflow(self.ir, self.pattern)
        return self._dataflow

    @property
    def entropy(self) -> EntropyReport:
        if self._entropy is None:
            self._entropy = entropy_report(
                self.ir, self.pattern, result=self.dataflow
            )
        return self._entropy


LintFn = Callable[[LintContext], Iterator[Finding]]

_RULES: Dict[str, Tuple[Severity, str, LintFn]] = {}


def lint_rule(
    name: str, severity: Severity, description: str
) -> Callable[[LintFn], LintFn]:
    """Register a lint rule; the function yields its findings.

    ``severity`` is the rule's default — individual findings may choose
    another (e.g. the bijective-flag rule emits both errors and infos).
    """

    def register(fn: LintFn) -> LintFn:
        if name in _RULES:
            raise ValueError(f"duplicate lint rule: {name}")
        _RULES[name] = (severity, description, fn)
        return fn

    return register


def registered_rules() -> Dict[str, Tuple[Severity, str]]:
    """Name → (default severity, description) for every known rule."""
    return {
        name: (severity, description)
        for name, (severity, description, _) in _RULES.items()
    }


# -- the rules ---------------------------------------------------------------


@lint_rule(
    "plan-lowering",
    Severity.ERROR,
    "the plan must lower to IR without errors",
)
def _lint_lowering(ctx: LintContext) -> Iterator[Finding]:
    # Touch the IR so lowering failures surface here with the right rule
    # name instead of crashing every downstream rule separately.
    ctx.ir
    return
    yield  # pragma: no cover - makes this a generator


@lint_rule(
    "skip-table-offsets",
    Severity.ERROR,
    "unrolled loads must agree with the skip table's load positions",
)
def _lint_skip_table(ctx: LintContext) -> Iterator[Finding]:
    table = ctx.plan.skip_table
    if table is None:
        return
    driven = table.load_offsets()
    # Planners may drop zero-entropy loads, so the plan's loads must be
    # a subsequence of the table-driven positions — not equal to them.
    position = 0
    for load in ctx.plan.loads:
        while position < len(driven) and driven[position] != load.offset:
            position += 1
        if position == len(driven):
            yield Finding(
                "skip-table-offsets",
                Severity.ERROR,
                f"load at offset {load.offset} is not among the skip "
                f"table's positions {list(driven)}",
                {"offset": load.offset, "table": list(driven)},
            )
            return
        position += 1


@lint_rule(
    "load-bounds",
    Severity.ERROR,
    "loads and the plan's key length must fit the key format",
)
def _lint_load_bounds(ctx: LintContext) -> Iterator[Finding]:
    pattern = ctx.pattern
    if pattern is None:
        return
    plan = ctx.plan
    if (
        plan.is_fixed_length
        and pattern.is_fixed_length
        and plan.key_length != pattern.body_length
    ):
        yield Finding(
            "load-bounds",
            Severity.ERROR,
            f"plan key length {plan.key_length} does not match the "
            f"format's {pattern.body_length} bytes",
            {"plan": plan.key_length, "format": pattern.body_length},
        )
    for load in plan.loads:
        if load.offset + load.width > pattern.num_bytes:
            yield Finding(
                "load-bounds",
                Severity.ERROR,
                f"load of {load.width} bytes at offset {load.offset} "
                f"reads past the {pattern.num_bytes}-byte format",
                {"offset": load.offset, "width": load.width},
            )


@lint_rule(
    "mask-constant-bits",
    Severity.WARNING,
    "pext masks should not extract bits the format fixes",
)
def _lint_mask_constant_bits(ctx: LintContext) -> Iterator[Finding]:
    pattern = ctx.pattern
    if pattern is None:
        return
    for load in ctx.plan.loads:
        if load.mask is None:
            continue
        if load.offset + load.width > pattern.num_bytes:
            continue  # load-bounds reports this one.
        const_mask, _ = pattern.word_const_mask(load.offset, load.width)
        wasted = load.mask & const_mask
        if wasted:
            yield Finding(
                "mask-constant-bits",
                Severity.WARNING,
                f"mask {load.mask:#x} at offset {load.offset} extracts "
                f"{bin(wasted).count('1')} constant bit(s) "
                f"({wasted:#x}) that every conforming key shares",
                {"offset": load.offset, "wasted_mask": wasted},
            )


@lint_rule(
    "zero-entropy-load",
    Severity.WARNING,
    "a load contributing no variable bits is pure overhead",
)
def _lint_zero_entropy(ctx: LintContext) -> Iterator[Finding]:
    pattern = ctx.pattern
    plan = ctx.plan
    # Naive deliberately loads every word, constant or not — that *is*
    # the family (Section 3.2.2); only constraint-exploiting families
    # are expected to skip dead words.
    if pattern is None or plan.family is HashFamily.NAIVE:
        return
    for load in plan.loads:
        if load.offset + load.width > pattern.num_bytes:
            continue
        const_mask, _ = pattern.word_const_mask(load.offset, load.width)
        selected = (
            load.mask
            if load.mask is not None
            else (1 << (8 * load.width)) - 1
        )
        if selected and not (selected & ~const_mask):
            yield Finding(
                "zero-entropy-load",
                Severity.WARNING,
                f"load at offset {load.offset} selects only constant "
                f"bits; it contributes nothing to the hash",
                {"offset": load.offset},
            )


@lint_rule(
    "shift-budget",
    Severity.ERROR,
    "shifted lanes must stay inside the 64-bit accumulator",
)
def _lint_shift_budget(ctx: LintContext) -> Iterator[Finding]:
    for load in ctx.plan.loads:
        if not load.shift or load.mask is None:
            continue
        lane_bits = bin(load.mask).count("1")
        if load.shift + lane_bits > 64:
            yield Finding(
                "shift-budget",
                Severity.ERROR,
                f"load at offset {load.offset} extracts {lane_bits} "
                f"bit(s) shifted by {load.shift}: "
                f"{load.shift + lane_bits - 64} bit(s) fall off the top",
                {
                    "offset": load.offset,
                    "lane_bits": lane_bits,
                    "shift": load.shift,
                },
            )


@lint_rule(
    "dead-input-bits",
    Severity.ERROR,
    "every variable key bit must influence the hash",
)
def _lint_dead_bits(ctx: LintContext) -> Iterator[Finding]:
    if ctx.pattern is None:
        return
    dead = ctx.bijectivity.dead_bits
    if dead:
        preview = [f"byte {bit // 8} bit {bit % 8}" for bit in dead[:8]]
        # Perfect plans drop non-distinguishing bits *on purpose*: the
        # key set is closed and the certificate proves zero collisions
        # over it, so a dead bit is a size win, not a distribution bug.
        severity = Severity.INFO if ctx.plan.perfect else Severity.ERROR
        suffix = (
            "; intentional for a closed-key-set perfect plan"
            if ctx.plan.perfect
            else ""
        )
        yield Finding(
            "dead-input-bits",
            severity,
            f"{len(dead)} variable key bit(s) provably never influence "
            f"the hash: {', '.join(preview)}"
            + ("..." if len(dead) > 8 else "")
            + suffix,
            {"dead_bits": list(dead)},
        )


@lint_rule(
    "redundant-ir",
    Severity.WARNING,
    "the builder should not emit dead instructions",
)
def _lint_redundant_ir(ctx: LintContext) -> Iterator[Finding]:
    # Compare against DCE only, not full optimize(): the range rewrites
    # also shrink the IR, and that is the analyzer doing its job, not
    # the builder emitting waste.
    before = len(ctx.ir.instrs)
    after = len(dead_code_eliminate(ctx.ir).instrs)
    if after < before:
        yield Finding(
            "redundant-ir",
            Severity.WARNING,
            f"dead-code elimination removed {before - after} "
            f"instruction(s) the builder emitted",
            {"before": before, "after": after},
        )


@lint_rule(
    "entropy-funnel",
    Severity.WARNING,
    "output bits should not collapse more input entropy than they hold",
)
def _lint_entropy_funnel(ctx: LintContext) -> Iterator[Finding]:
    if ctx.pattern is None:
        return
    report = ctx.entropy
    detail = report.to_dict()
    if ctx.plan.bijective and report.avoidable_bits > 0.5:
        # A bijection by definition loses nothing; measurable avoidable
        # loss contradicts the claim and predicts chi-square failure.
        yield Finding(
            "entropy-funnel",
            Severity.ERROR,
            f"plan claims bijectivity but the entropy domain finds "
            f"{report.avoidable_bits:.1f} avoidably lost bit(s) "
            f"(capacity {report.capacity:.1f} of "
            f"{report.live_input_bits:.1f} live input bits)",
            detail,
        )
    elif report.avoidable_bits > 4.0:
        yield Finding(
            "entropy-funnel",
            Severity.WARNING,
            f"{report.avoidable_bits:.1f} bit(s) of key entropy are "
            f"avoidably funneled away (worst output bit absorbs "
            f"{report.max_inflow:.1f} bits); expect measurably more "
            f"collisions than a mixing combine would give",
            detail,
        )
    elif report.lost_bits > 8.0:
        yield Finding(
            "entropy-funnel",
            Severity.INFO,
            f"format carries {report.live_input_bits:.1f} live entropy "
            f"bits into a 64-bit hash; {report.lost_bits:.1f} bit(s) of "
            f"compression are inherent, not a plan defect",
            detail,
        )


@lint_rule(
    "optimize-tv",
    Severity.ERROR,
    "optimize() must preserve the function's abstract semantics",
)
def _lint_optimize_tv(ctx: LintContext) -> Iterator[Finding]:
    mismatch = translation_validate(ctx.ir, ctx.optimized, ctx.pattern)
    if mismatch is not None:
        yield Finding(
            "optimize-tv",
            Severity.ERROR,
            f"translation validation refutes optimize(): {mismatch}",
            {"mismatch": mismatch},
        )


@lint_rule(
    "bijective-flag",
    Severity.ERROR,
    "the plan's bijective flag must match what the prover establishes",
)
def _lint_bijective_flag(ctx: LintContext) -> Iterator[Finding]:
    if ctx.pattern is None:
        return
    result = ctx.bijectivity
    if result.refutes_claim:
        yield Finding(
            "bijective-flag",
            Severity.ERROR,
            "plan claims bijectivity but the prover refutes it: "
            + "; ".join(result.reasons),
            result.to_dict(),
        )
    elif result.certified and not result.claimed:
        yield Finding(
            "bijective-flag",
            Severity.INFO,
            "plan is provably bijective but does not claim it",
            result.to_dict(),
        )


@lint_rule(
    "perfect-claim",
    Severity.ERROR,
    "plans claiming perfection must keep their selected lanes injective",
)
def _lint_perfect_claim(ctx: LintContext) -> Iterator[Finding]:
    plan = ctx.plan
    if not plan.perfect:
        return
    if plan.combine is CombineOp.OR and plan.is_fixed_length:
        # The strong shape: disjoint shift-packed pext lanes OR-folded.
        # Injectivity on the selected bits is structural — overlapping
        # lanes (or an unmasked word) would let distinct projections
        # merge, contradicting the perfection claim.
        lanes = []
        for load in plan.loads:
            if load.mask is None:
                yield Finding(
                    "perfect-claim",
                    Severity.ERROR,
                    f"perfect OR-combined load at offset {load.offset} "
                    f"has no extraction mask; its lane cannot be proven "
                    f"disjoint",
                    {"offset": load.offset},
                )
                return
            lanes.append(
                (load.offset, load.shift, bin(load.mask).count("1"))
            )
        lanes.sort(key=lambda lane: lane[1])
        for (off_a, lo_a, width_a), (off_b, lo_b, _width_b) in zip(
            lanes, lanes[1:]
        ):
            if lo_a + width_a > lo_b:
                yield Finding(
                    "perfect-claim",
                    Severity.ERROR,
                    f"perfect lanes overlap: load at offset {off_a} "
                    f"occupies hash bits [{lo_a}, {lo_a + width_a}) and "
                    f"load at offset {off_b} starts at bit {lo_b}",
                    {
                        "first_offset": off_a,
                        "second_offset": off_b,
                        "overlap": lo_a + width_a - lo_b,
                    },
                )
        return
    # Rotation-folded, tail-folding, or otherwise mixed plans cannot be
    # proven perfect from structure alone; the claim rests entirely on
    # the exhaustive PerfectCertificate over the closed key set.
    yield Finding(
        "perfect-claim",
        Severity.INFO,
        "perfection of this plan is not structural "
        f"({plan.combine.value}-combined, "
        f"{'fixed' if plan.is_fixed_length else 'variable'} length); "
        "the claim rests on the exhaustive certificate",
        {"combine": plan.combine.value},
    )


# -- the runner --------------------------------------------------------------


def run_lints(
    plan: SynthesisPlan,
    pattern: Optional[KeyPattern] = None,
    rules: Optional[List[str]] = None,
    ctx: Optional[LintContext] = None,
) -> LintReport:
    """Run every registered rule (or the named subset) over one plan.

    A rule raising :class:`SepeError` produces an error finding under
    its own name (malformed plans are exactly what lints exist to
    catch); any other exception becomes a ``lint-crash`` error finding
    naming the broken rule.  Pass ``ctx`` to share lazily-computed
    analyses (IR, bijectivity proof) with the caller.
    """
    with span("verify.lints", family=plan.family.value):
        if ctx is None:
            ctx = LintContext(plan, pattern)
        report = LintReport(
            plan_regex=plan.pattern_regex, family=plan.family.value
        )
        selected = rules if rules is not None else list(_RULES)
        for name in selected:
            if name not in _RULES:
                raise ValueError(f"unknown lint rule: {name}")
            _, _, fn = _RULES[name]
            try:
                report.findings.extend(fn(ctx))
            except SepeError as error:
                report.findings.append(
                    Finding(
                        name,
                        Severity.ERROR,
                        f"{type(error).__name__}: {error}",
                        {"exception": type(error).__name__},
                    )
                )
            except Exception as error:  # noqa: BLE001 - crash isolation
                report.findings.append(
                    Finding(
                        CRASH_RULE,
                        Severity.ERROR,
                        f"rule {name!r} crashed: "
                        f"{type(error).__name__}: {error}",
                        {"rule": name, "exception": type(error).__name__},
                    )
                )
        return report
