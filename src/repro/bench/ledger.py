"""Bench regression ledger: a committed trajectory of H-Time figures.

The repo's benchmarks write ad-hoc ``BENCH_*.json`` artifacts (batch
comparison, inference engines); each has its own shape, so nothing can
answer "did this PR make hashing slower?" without a human eyeballing
two JSON files.  This module gives the figures a unified schema and a
memory:

- **Entries** (:class:`LedgerEntry`) flatten any report into
  ``section/subject/variant/metric`` ids — e.g.
  ``batch/SSN/pext/scalar_ns_per_key`` or
  ``infer/fixed/bigint/ns_per_key`` — each carrying a headline value
  (ns/key, or ms per plan for the ``native_compile_ms`` rows; lower is
  better), the per-repeat samples when the producer
  kept them, and the machine/python fingerprint context.
- **The ledger** (``BENCH_LEDGER.json``) stores the current entry set
  plus a bounded history of prior snapshots, so the committed artifact
  is a perf *trajectory*, not a point.
- **Comparison** (:func:`compare_entries`) reuses the paper's own
  Mann–Whitney machinery (:func:`repro.bench.metrics.mann_whitney_u`):
  an entry regresses only when its ratio breaches the threshold *and*
  the samples are statistically distinguishable (when both sides have
  samples), which keeps single-shot timer noise from failing CI.
  Cross-machine comparisons are fingerprint-gated: skipped by default,
  or run with a loosened threshold under ``allow_cross_host`` — a
  laptop ledger cannot hold a CI runner to 1.5x.

``sepe bench --compare BENCH_LEDGER.json`` measures a fresh smoke
sample and verdicts it against the committed baseline; the CI
``bench-regression-gate`` job fails on any ``regression`` verdict.
Rebuild the committed ledger with ``python -m repro.bench.ledger``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.metrics import mann_whitney_u

LEDGER_VERSION = 1

DEFAULT_THRESHOLD = 1.5
"""Ratio (current/baseline) above which a same-host entry regresses."""

DEFAULT_ALPHA = 0.05
"""Mann–Whitney significance level, matching the paper's claims."""

CROSS_HOST_FACTOR = 2.0
"""Extra slack multiplied into the threshold across fingerprints."""

_STATUS_ORDER = ("regression", "missing", "new", "improvement", "ok",
                 "skipped")


def _utc_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# -- fingerprints ------------------------------------------------------


def _native_compiler_identity() -> Optional[str]:
    """The probed native toolchain identity, or None when degraded."""
    from repro.codegen.native import detect_toolchain
    from repro.errors import NativeUnavailableError

    try:
        return detect_toolchain().identity
    except NativeUnavailableError:
        return None


def fingerprint() -> Dict[str, Any]:
    """Identity of the measuring machine and interpreter.

    Timing figures only transfer between runs that share this context;
    everything else is apples to oranges and must be compared loosely
    or not at all.  ``native_compiler`` names the C++ toolchain the
    native tier would use (None without one): `.so` timings produced by
    different compilers are no more comparable than those from
    different machines.
    """
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.system(),
        "python_implementation": platform.python_implementation(),
        "python_version": platform.python_version(),
        "native_compiler": _native_compiler_identity(),
    }


def fingerprints_comparable(
    baseline: Dict[str, Any], current: Dict[str, Any]
) -> bool:
    """Whether two fingerprints describe the same measurement context.

    Architecture, OS, interpreter implementation, and the major.minor
    Python version must match; the patch release may differ (timing
    characteristics are stable across patch releases).  When *both*
    sides recorded a native compiler identity, those must match too —
    a gcc-built ledger cannot gate clang-built timings — but a side
    without the key (an older ledger, or a host with no toolchain)
    does not block comparison of the Python-tier entries.
    """

    def minor(version: str) -> str:
        return ".".join(str(version).split(".")[:2])

    for key in ("machine", "system", "python_implementation"):
        if baseline.get(key) != current.get(key):
            return False
    baseline_cc = baseline.get("native_compiler")
    current_cc = current.get("native_compiler")
    if baseline_cc and current_cc and baseline_cc != current_cc:
        return False
    return minor(baseline.get("python_version", "")) == minor(
        current.get("python_version", "")
    )


# -- entries -----------------------------------------------------------


@dataclass
class LedgerEntry:
    """One benchmarked figure, normalized out of whatever report shape.

    ``value`` is the headline number in ``unit`` (always a
    lower-is-better ns/key figure today); ``samples`` holds per-repeat
    measurements when the producer kept them, which is what makes
    noise-aware verdicts possible downstream.
    """

    id: str
    value: float
    unit: str = "ns_per_key"
    samples: List[float] = field(default_factory=list)
    repeats: int = 0
    source: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "unit": self.unit,
            "samples": list(self.samples),
            "repeats": self.repeats,
            "source": self.source,
        }

    @staticmethod
    def from_dict(entry_id: str, document: Dict[str, Any]) -> "LedgerEntry":
        return LedgerEntry(
            id=entry_id,
            value=float(document["value"]),
            unit=str(document.get("unit", "ns_per_key")),
            samples=[float(s) for s in document.get("samples", [])],
            repeats=int(document.get("repeats", 0)),
            source=str(document.get("source", "")),
        )


def normalize_batch_report(report: Dict[str, Any]) -> List[LedgerEntry]:
    """Flatten a ``BENCH_batch.json`` document into ledger entries.

    ``native_ns_per_key`` rows are included whenever the report carries
    them (hosts without a toolchain write None, which is skipped), so
    ``sepe bench --compare`` gates native regressions exactly like the
    Python tiers.
    """
    entries: List[LedgerEntry] = []
    for row in report.get("rows", []):
        stem = f"batch/{row['key_type']}/{row['family']}"
        for metric in (
            "scalar_ns_per_key",
            "batch_ns_per_key",
            "native_ns_per_key",
        ):
            value = row.get(metric)
            if value is None:
                continue
            entries.append(
                LedgerEntry(
                    id=f"{stem}/{metric}",
                    value=float(value),
                    repeats=int(row.get("repeats", 0)),
                    source="batch_report",
                )
            )
    return entries


def normalize_infer_report(report: Dict[str, Any]) -> List[LedgerEntry]:
    """Flatten a ``BENCH_infer.json`` document into ledger entries."""
    entries: List[LedgerEntry] = []
    repeats = int(report.get("params", {}).get("repeats", 0))
    for corpus in report.get("corpora", []):
        for row in corpus.get("rows", []):
            entries.append(
                LedgerEntry(
                    id=(
                        f"infer/{corpus['name']}/{row['engine']}"
                        "/ns_per_key"
                    ),
                    value=float(row["ns_per_key"]),
                    repeats=repeats,
                    source="infer_report",
                )
            )
    return entries


def normalize_serve_report(report: Dict[str, Any]) -> List[LedgerEntry]:
    """Flatten a ``BENCH_serve.json`` document into ledger entries.

    Scaling rows become ``serve/scaling/shards{N}/ns_per_key`` (with
    per-repeat samples, so the smoke compare can verdict them
    noise-aware).  The drift replay contributes
    ``serve/drift/replay/ns_per_key`` — streaming throughput *through*
    a hot swap — and ``serve/drift/swap/swap_ms``, the measured
    convergence latency of the verified swap.  The swap entry is
    recorded for the trajectory but the smoke compare does not
    re-measure it (a JIT-dominated one-shot figure would flap CI); a
    ``missing`` verdict is informational, never a failure.
    """
    entries: List[LedgerEntry] = []
    scaling = report.get("scaling", {})
    for row in scaling.get("rows", []):
        samples = [float(s) for s in row.get("samples_ns_per_key", [])]
        entries.append(
            LedgerEntry(
                id=f"serve/scaling/shards{row['shards']}/ns_per_key",
                value=float(row["ns_per_key"]),
                samples=samples,
                repeats=len(samples),
                source="serve_report",
            )
        )
    drift = report.get("drift", {})
    if drift.get("ns_per_key"):
        entries.append(
            LedgerEntry(
                id="serve/drift/replay/ns_per_key",
                value=float(drift["ns_per_key"]),
                source="serve_report",
            )
        )
    for event in drift.get("swap_events", []):
        entries.append(
            LedgerEntry(
                id="serve/drift/swap/swap_ms",
                value=float(event["swap_ms"]),
                unit="ms",
                source="serve_report",
            )
        )
        break  # one representative swap per report
    return entries


def normalize_perfect_report(report: Dict[str, Any]) -> List[LedgerEntry]:
    """Flatten a ``BENCH_perfect.json`` document into ledger entries.

    Each (key set, variant) cell contributes
    ``perfect/<set>/<variant>/h_ns_per_key`` and
    ``perfect/<set>/<variant>/lookup_ns_per_key`` with per-repeat
    samples, so the certified fast path is regression-gated against the
    gperf/FNV/paper-family baselines measured on the same closed set.
    """
    entries: List[LedgerEntry] = []
    for key_set in report.get("key_sets", []):
        for row in key_set.get("rows", []):
            stem = f"perfect/{key_set['key_set']}/{row['variant']}"
            for metric, sample_key in (
                ("h_ns_per_key", "samples_h"),
                ("lookup_ns_per_key", "samples_lookup"),
            ):
                samples = [float(s) for s in row.get(sample_key, [])]
                entries.append(
                    LedgerEntry(
                        id=f"{stem}/{metric}",
                        value=float(row[metric]),
                        samples=samples,
                        repeats=int(row.get("repeats", len(samples))),
                        source="perfect_report",
                    )
                )
    return entries


def normalize_report(report: Dict[str, Any]) -> List[LedgerEntry]:
    """Dispatch on a report's self-declared kind.

    Raises:
        ValueError: for documents that are none of a batch comparison
            (``experiment: batch_vs_scalar_h_time``), an inference
            comparison (``benchmark: infer_compare``), a serve replay
            (``benchmark: serve_replay``), or a perfect-tier report
            (``benchmark: perfect``).
    """
    if report.get("experiment") == "batch_vs_scalar_h_time":
        return normalize_batch_report(report)
    if report.get("benchmark") == "infer_compare":
        return normalize_infer_report(report)
    if report.get("benchmark") == "serve_replay":
        return normalize_serve_report(report)
    if report.get("benchmark") == "perfect":
        return normalize_perfect_report(report)
    raise ValueError(
        "unrecognized bench report: expected a batch, infer, serve, or "
        "perfect comparison"
    )


def collect_smoke_entries(
    key_types: Sequence[str] = ("SSN", "MAC"),
    families: Optional[Sequence[Any]] = None,
    keys_per_type: int = 4000,
    repeats: int = 5,
    seed: int = 0,
) -> List[LedgerEntry]:
    """Measure a fresh smoke sample in ledger-entry form.

    The same cells as :func:`repro.bench.batch_compare.compare_scalar_batch`
    — scalar and batched H-Time per (key type, family) — but each repeat
    is timed *individually* so entries carry per-repeat sample arrays.
    Where the native tier is available, each cell also carries its
    native H-Time and compile ms, and one ``native/probe_ms`` row times
    the toolchain probe.
    ``repeats`` defaults to 5 because Mann–Whitney needs at least four
    observations per side before p can drop under 0.05; with fewer, the
    comparison silently degrades to ratio-only verdicts.
    """
    from repro.bench.batch_compare import DEFAULT_FAMILIES
    from repro.bench.runner import measure_h_time, measure_h_time_batch
    from repro.codegen.native import compile_plan_native
    from repro.core.synthesis import synthesize
    from repro.keygen.distributions import Distribution
    from repro.keygen.generator import generate_keys
    from repro.keygen.keyspec import key_spec

    families = DEFAULT_FAMILIES if families is None else families
    repeats = max(repeats, 1)
    entries: List[LedgerEntry] = []
    for key_type in key_types:
        spec = key_spec(key_type)
        keys = generate_keys(
            spec.name, keys_per_type, Distribution.UNIFORM, seed=seed
        )
        scale = 1e9 / len(keys)
        for family in families:
            synthesized = synthesize(spec.regex, family)
            scalar = [
                measure_h_time(synthesized.function, keys, repeats=1) * scale
                for _ in range(repeats)
            ]
            batch = [
                measure_h_time_batch(
                    synthesized.batch_function, keys, repeats=1
                )
                * scale
                for _ in range(repeats)
            ]
            stem = f"batch/{spec.name}/{family.value}"
            entries.append(
                LedgerEntry(
                    id=f"{stem}/scalar_ns_per_key",
                    value=min(scalar),
                    samples=scalar,
                    repeats=repeats,
                    source="smoke",
                )
            )
            entries.append(
                LedgerEntry(
                    id=f"{stem}/batch_ns_per_key",
                    value=min(batch),
                    samples=batch,
                    repeats=repeats,
                    source="smoke",
                )
            )
            native_batch = synthesized.native_batch_function
            if native_batch is not None:
                native = [
                    measure_h_time_batch(native_batch, keys, repeats=1)
                    * scale
                    for _ in range(repeats)
                ]
                # Each repeat compiles afresh, bypassing the compile
                # cache: the row gates what a new or swapped route pays.
                compile_ms = [
                    compile_plan_native(synthesized.plan)[0].compile_ms
                    for _ in range(repeats)
                ]
                for metric, samples, unit in (
                    ("native_ns_per_key", native, "ns_per_key"),
                    ("native_compile_ms", compile_ms, "ms"),
                ):
                    entries.append(
                        LedgerEntry(
                            id=f"{stem}/{metric}",
                            value=min(samples),
                            samples=samples,
                            repeats=repeats,
                            unit=unit,
                            source="smoke",
                        )
                    )
    probe_ms = _probe_ms(repeats)
    if probe_ms:
        entries.append(
            LedgerEntry(
                id="native/probe_ms",
                value=min(probe_ms),
                samples=probe_ms,
                repeats=repeats,
                unit="ms",
                source="smoke",
            )
        )
    return entries


def _probe_ms(repeats: int) -> List[float]:
    """Wall-clock ms of ``repeats`` fresh toolchain probes.

    Each repeat re-probes (``refresh=True``), as the
    ``native_compile_ms`` rows bypass the compile cache: the row gates
    what every cold start pays.  Empty when no toolchain is available.
    """
    from repro.codegen.native import detect_toolchain
    from repro.errors import NativeUnavailableError

    samples: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        try:
            detect_toolchain(refresh=True)
        except NativeUnavailableError:
            return []
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


def collect_serve_smoke_entries(
    shard_counts: Sequence[int] = (1, 2, 4),
    threads: int = 4,
    keys_per_thread: int = 20_000,
    repeats: int = 3,
    seed: int = 0,
) -> List[LedgerEntry]:
    """Measure a small serve-replay scaling sample in ledger form.

    The same ``serve/scaling/shards{N}/ns_per_key`` ids the committed
    ``BENCH_serve.json`` normalizes to, so ``sepe bench --compare``
    gates the serving hot path alongside the kernel tiers.  Only the
    scaling rows are smoke-measured; the drift/swap figures stay
    committed-artifact-only (see :func:`normalize_serve_report`).
    """
    from repro.core.plan import HashFamily
    from repro.serve.replay import ReplayConfig, measure_scaling

    config = ReplayConfig(
        threads=threads,
        keys_per_thread=keys_per_thread,
        family=HashFamily.PEXT,
        seed=seed,
    )
    entries: List[LedgerEntry] = []
    for row in measure_scaling(
        config, shard_counts=shard_counts, repeats=repeats
    ):
        samples = [float(s) for s in row["samples_ns_per_key"]]
        entries.append(
            LedgerEntry(
                id=f"serve/scaling/shards{row['shards']}/ns_per_key",
                value=float(row["ns_per_key"]),
                samples=samples,
                repeats=len(samples),
                source="smoke",
            )
        )
    return entries


def collect_perfect_smoke_entries(
    repeats: int = 3,
) -> List[LedgerEntry]:
    """Measure the perfect tier's built-in fixtures in ledger form.

    Only the three shipped key sets are smoke-measured — they are small
    and byte-identical on every host, so the ids line up exactly with
    the committed ``BENCH_perfect.json``.  The RQ closed-sample sets
    stay in ``BENCH_perfect.json`` only (re-sampling 1,000-key pools per
    CI run would dominate the smoke budget) and have no ledger rows: a
    row the smoke run never measures would read ``missing`` on every
    compare and gate nothing.
    """
    from repro.bench.perfect_compare import measure

    report = measure(rq_count=0, repeats=repeats, rq_sets=())
    entries = normalize_perfect_report(report)
    for entry in entries:
        entry.source = "smoke"
    return entries


# -- the ledger document ----------------------------------------------


def new_ledger(machine: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """An empty ledger document stamped with the current context."""
    return {
        "version": LEDGER_VERSION,
        "updated_at": _utc_stamp(),
        "fingerprint": fingerprint() if machine is None else machine,
        "note": "",
        "entries": {},
        "history": [],
    }


def update_ledger(
    ledger: Dict[str, Any],
    entries: Sequence[LedgerEntry],
    note: str = "",
    max_history: int = 24,
) -> Dict[str, Any]:
    """Merge ``entries`` into the current set by row id.

    A recorded row replaces the current row of the same id; every other
    current row is kept, so recording one family (say the ``batch/*``
    smoke rows) never drops another's (the ``perfect/*`` rows).  The
    prior snapshot is demoted into the history first, keeping only
    headline values (not samples) so the committed trajectory stays
    small; history is bounded at ``max_history`` snapshots, oldest
    dropped first.
    """
    if ledger.get("entries"):
        ledger.setdefault("history", []).append(
            {
                "recorded_at": ledger.get("updated_at", ""),
                "fingerprint": ledger.get("fingerprint", {}),
                "note": ledger.get("note", ""),
                "entries": {
                    entry_id: document["value"]
                    for entry_id, document in ledger["entries"].items()
                },
            }
        )
        ledger["history"] = ledger["history"][-max_history:]
    ledger["version"] = LEDGER_VERSION
    ledger["updated_at"] = _utc_stamp()
    ledger["fingerprint"] = fingerprint()
    ledger["note"] = note
    ledger["entries"] = {
        **ledger.get("entries", {}),
        **{entry.id: entry.to_dict() for entry in entries},
    }
    return ledger


def ledger_entries(ledger: Dict[str, Any]) -> List[LedgerEntry]:
    """The current entry set of a ledger document, as objects."""
    return [
        LedgerEntry.from_dict(entry_id, document)
        for entry_id, document in sorted(ledger.get("entries", {}).items())
    ]


def trajectory(
    ledger: Dict[str, Any], entry_id: str
) -> List[Any]:
    """``(recorded_at, value)`` pairs for one entry, oldest first.

    Includes the current snapshot last; history snapshots missing the
    entry are skipped (the benchmark set may have grown over time).
    """
    points = [
        (snapshot.get("recorded_at", ""), snapshot["entries"][entry_id])
        for snapshot in ledger.get("history", [])
        if entry_id in snapshot.get("entries", {})
    ]
    current = ledger.get("entries", {}).get(entry_id)
    if current is not None:
        points.append((ledger.get("updated_at", ""), current["value"]))
    return points


def load_ledger(path: str) -> Optional[Dict[str, Any]]:
    """Read a ledger; None when absent or unparseable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict) or "entries" not in document:
        return None
    return document


def write_ledger(ledger: Dict[str, Any], path: str) -> None:
    """Persist a ledger as indented, key-stable JSON (the committed file)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2, sort_keys=True)
        handle.write("\n")


# -- comparison --------------------------------------------------------


@dataclass
class Verdict:
    """The comparison outcome for one entry id."""

    entry_id: str
    status: str  # regression | improvement | ok | new | missing | skipped
    baseline: Optional[float] = None
    current: Optional[float] = None
    ratio: Optional[float] = None
    p_value: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "entry_id": self.entry_id,
            "status": self.status,
            "baseline": self.baseline,
            "current": self.current,
            "ratio": self.ratio,
            "p_value": self.p_value,
            "detail": self.detail,
        }


def _p_value(
    baseline: LedgerEntry, current: LedgerEntry
) -> Optional[float]:
    """Mann–Whitney p between sample arrays; None when unavailable."""
    if len(baseline.samples) < 2 or len(current.samples) < 2:
        return None
    try:
        p = mann_whitney_u(baseline.samples, current.samples)
    except ValueError:
        return None
    # All-tied samples give the normal approximation zero variance
    # (p = nan); identical timings are the definition of "no change".
    return 1.0 if p != p else p


def compare_entries(
    baseline: Sequence[LedgerEntry],
    current: Sequence[LedgerEntry],
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
) -> List[Verdict]:
    """Verdict every entry id present on either side.

    For a lower-is-better metric the ratio is ``current / baseline``.
    A breach of ``threshold`` (or ``1/threshold`` for improvements) is
    only *confirmed* when the two sample arrays are distinguishable at
    level ``alpha`` — when either side lacks samples the ratio alone
    decides, which is the pre-ledger behaviour.  Ids present on one
    side only are reported as ``new`` / ``missing``, never as failures.
    """
    if threshold <= 1:
        raise ValueError("threshold must be > 1")
    base = {entry.id: entry for entry in baseline}
    cur = {entry.id: entry for entry in current}
    verdicts: List[Verdict] = []
    for entry_id in sorted(set(base) | set(cur)):
        before, after = base.get(entry_id), cur.get(entry_id)
        if before is None:
            verdicts.append(
                Verdict(entry_id, "new", current=after.value,
                        detail="no baseline entry")
            )
            continue
        if after is None:
            verdicts.append(
                Verdict(entry_id, "missing", baseline=before.value,
                        detail="entry absent from current run")
            )
            continue
        ratio = (
            after.value / before.value
            if before.value > 0
            else float("inf")
        )
        p = _p_value(before, after)
        # A breach past 2x the threshold stands on the ratio alone: a
        # noisy sample array must not be able to launder an extreme
        # slowdown through an inconclusive p-value.
        significant = p is None or p < alpha or ratio > 2 * threshold
        if ratio > threshold and significant:
            status = "regression"
        elif ratio < 1 / threshold and significant:
            status = "improvement"
        else:
            status = "ok"
        verdicts.append(
            Verdict(
                entry_id,
                status,
                baseline=before.value,
                current=after.value,
                ratio=ratio,
                p_value=p,
            )
        )
    return verdicts


def compare_ledger(
    ledger: Dict[str, Any],
    current: Sequence[LedgerEntry],
    threshold: float = DEFAULT_THRESHOLD,
    alpha: float = DEFAULT_ALPHA,
    allow_cross_host: bool = False,
    cross_host_factor: float = CROSS_HOST_FACTOR,
    machine: Optional[Dict[str, Any]] = None,
) -> List[Verdict]:
    """Compare fresh entries against a ledger, fingerprint-gated.

    When the ledger was recorded on a different machine/interpreter the
    comparison is *skipped* entirely unless ``allow_cross_host``, in
    which case the regression threshold is multiplied by
    ``cross_host_factor`` — absolute timings do not transfer between
    hosts, but an order-of-magnitude blowup still should not pass.
    """
    current_fp = fingerprint() if machine is None else machine
    baseline_fp = ledger.get("fingerprint", {})
    comparable = fingerprints_comparable(baseline_fp, current_fp)
    if not comparable and not allow_cross_host:
        return [
            Verdict(
                entry.id,
                "skipped",
                baseline=entry.value,
                detail=(
                    "fingerprint mismatch (baseline "
                    f"{baseline_fp.get('machine')}/"
                    f"py{baseline_fp.get('python_version')}); "
                    "pass allow_cross_host to compare loosely"
                ),
            )
            for entry in ledger_entries(ledger)
        ]
    if not comparable:
        threshold *= cross_host_factor
    return compare_entries(
        ledger_entries(ledger), current, threshold=threshold, alpha=alpha
    )


def regression_count(verdicts: Sequence[Verdict]) -> int:
    """Number of confirmed regressions (the CI gate's exit signal)."""
    return sum(1 for verdict in verdicts if verdict.status == "regression")


def render_verdicts(verdicts: Sequence[Verdict]) -> str:
    """Aligned text table of comparison verdicts, worst first."""
    if not verdicts:
        return "(no entries to compare)"
    order = {status: i for i, status in enumerate(_STATUS_ORDER)}
    rows = sorted(
        verdicts, key=lambda v: (order.get(v.status, 99), v.entry_id)
    )
    lines = [
        f"{'status':12s} {'entry':44s} {'baseline':>10s} "
        f"{'current':>10s} {'ratio':>7s} {'p':>7s}"
    ]
    for verdict in rows:
        lines.append(
            f"{verdict.status:12s} {verdict.entry_id:44s} "
            f"{_fmt(verdict.baseline):>10s} {_fmt(verdict.current):>10s} "
            f"{_fmt_ratio(verdict.ratio):>7s} "
            f"{_fmt_p(verdict.p_value):>7s}"
            + (f"  {verdict.detail}" if verdict.detail else "")
        )
    counts: Dict[str, int] = {}
    for verdict in verdicts:
        counts[verdict.status] = counts.get(verdict.status, 0) + 1
    summary = ", ".join(
        f"{counts[status]} {status}"
        for status in _STATUS_ORDER
        if status in counts
    )
    lines.append(f"verdicts: {summary}")
    return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    return f"{value:,.1f}" if value is not None else "-"


def _fmt_ratio(value: Optional[float]) -> str:
    return f"{value:.2f}x" if value is not None else "-"


def _fmt_p(value: Optional[float]) -> str:
    return f"{value:.3f}" if value is not None else "-"


# -- ledger maintenance CLI -------------------------------------------


def _main(argv: Optional[Sequence[str]] = None) -> int:
    """Build or refresh a ledger: ``python -m repro.bench.ledger``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ledger",
        description="normalize bench reports into the regression ledger",
    )
    parser.add_argument(
        "--out", default="BENCH_LEDGER.json", help="ledger file to update"
    )
    parser.add_argument(
        "--reports",
        nargs="*",
        default=[],
        metavar="FILE",
        help="BENCH_*.json reports to normalize into the snapshot",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="also measure the smoke sample (with per-repeat samples)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="also measure the serve-replay scaling smoke sample",
    )
    parser.add_argument(
        "--perfect",
        action="store_true",
        help="also measure the perfect-tier built-in fixtures",
    )
    parser.add_argument("--keys", type=int, default=4000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--key-types", nargs="*", default=["SSN", "MAC"]
    )
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    entries: List[LedgerEntry] = []
    for path in args.reports:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            entries.extend(normalize_report(report))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
    if args.smoke:
        entries.extend(
            collect_smoke_entries(
                key_types=args.key_types,
                keys_per_type=args.keys,
                repeats=args.repeats,
                seed=args.seed,
            )
        )
    if args.serve:
        entries.extend(
            collect_serve_smoke_entries(
                repeats=args.repeats, seed=args.seed
            )
        )
    if args.perfect:
        entries.extend(
            collect_perfect_smoke_entries(repeats=args.repeats)
        )
    if not entries:
        print(
            "error: nothing to record (pass --reports and/or --smoke)",
            file=sys.stderr,
        )
        return 2
    ledger = load_ledger(args.out)
    if ledger is None:
        ledger = new_ledger()
    update_ledger(ledger, entries, note=args.note)
    write_ledger(ledger, args.out)
    print(
        f"recorded {len(entries)} entries to {args.out} "
        f"({len(ledger.get('history', []))} historical snapshots)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - module CLI
    raise SystemExit(_main())
