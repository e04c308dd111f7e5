"""Scalar-vs-batch H-Time comparison: the ``BENCH_batch.json`` source.

Quantifies the headline claim of the batch execution layer: calling a
specialized hash once per key pays CPython function-call and dispatch
overhead per key, while the batched entry of the plan's compiled
module (:func:`repro.codegen.batch.emit_python_module`) pays it once
per *batch*.  Each row times both forms of the same synthesized plan on the
same key sample and reports the amortization factor.

When the host has a working C++ toolchain the rows also carry the
*native* tier (:mod:`repro.codegen.native`): the JIT-compiled batched
entry point over the same keys, closing the Python → NumPy → native
speed ladder the paper measures.  Hosts without a compiler simply omit
the native columns (``native_ns_per_key`` is None) and record the
degradation reason at the report level.

Used by ``sepe bench --batch`` and by ``benchmarks/bench_batch.py``
(the CI smoke-bench that uploads ``BENCH_batch.json``).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.runner import measure_h_time, measure_h_time_batch
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import key_spec
from repro.obs.trace import span

DEFAULT_KEY_TYPES = ("SSN", "MAC")
DEFAULT_FAMILIES = (
    HashFamily.NAIVE,
    HashFamily.OFFXOR,
    HashFamily.AES,
    HashFamily.PEXT,
)


def compare_scalar_batch(
    key_types: Sequence[str] = DEFAULT_KEY_TYPES,
    families: Sequence[HashFamily] = DEFAULT_FAMILIES,
    keys_per_type: int = 20_000,
    repeats: int = 5,
    seed: int = 0,
) -> Dict[str, Any]:
    """Time scalar vs batch H-Time for every (key type, family) cell.

    Scalar H-Time uses the calibrated per-key loop of
    :func:`measure_h_time`; batch H-Time is one ``hash_many`` call
    (:func:`measure_h_time_batch`).  Returns a JSON-ready report whose
    rows carry both absolute ns/key figures and the batch speedup.
    """
    from repro.codegen.native import detect_toolchain
    from repro.errors import NativeUnavailableError

    native_compiler: Optional[str] = None
    native_reason: Optional[str] = None
    try:
        native_compiler = detect_toolchain().identity
    except NativeUnavailableError as exc:
        native_reason = str(exc)

    rows: List[Dict[str, Any]] = []
    with span("bench.batch_compare", cells=len(key_types) * len(families)):
        for key_type in key_types:
            spec = key_spec(key_type)
            keys = generate_keys(
                spec.name, keys_per_type, Distribution.UNIFORM, seed=seed
            )
            for family in families:
                synthesized = synthesize(spec.regex, family)
                scalar_seconds = measure_h_time(
                    synthesized.function, keys, repeats=repeats
                )
                batch_seconds = measure_h_time_batch(
                    synthesized.batch_function, keys, repeats=repeats
                )
                native_batch = (
                    synthesized.native_batch_function
                    if native_compiler is not None
                    else None
                )
                native_seconds: Optional[float] = None
                compile_ms: Optional[float] = None
                if native_batch is not None:
                    native_seconds = measure_h_time_batch(
                        native_batch, keys, repeats=repeats
                    )
                    module = synthesized.native_module
                    if module is not None:
                        compile_ms = module.compile_ms
                rows.append(
                    {
                        "key_type": spec.name,
                        "regex": spec.regex,
                        "key_length": spec.length,
                        "family": family.value,
                        "keys": len(keys),
                        "repeats": repeats,
                        "scalar_seconds": scalar_seconds,
                        "batch_seconds": batch_seconds,
                        "native_seconds": native_seconds,
                        "scalar_ns_per_key": _ns_per_key(
                            scalar_seconds, len(keys)
                        ),
                        "batch_ns_per_key": _ns_per_key(
                            batch_seconds, len(keys)
                        ),
                        "native_ns_per_key": (
                            _ns_per_key(native_seconds, len(keys))
                            if native_seconds is not None
                            else None
                        ),
                        "batch_speedup": (
                            scalar_seconds / batch_seconds
                            if batch_seconds > 0
                            else float("inf")
                        ),
                        "native_speedup": (
                            scalar_seconds / native_seconds
                            if native_seconds
                            else None
                        ),
                        "native_compile_ms": compile_ms,
                    }
                )
    from repro.bench.ledger import fingerprint

    return {
        "experiment": "batch_vs_scalar_h_time",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "fingerprint": fingerprint(),
        "native_compiler": native_compiler,
        "native_unavailable_reason": native_reason,
        "keys_per_type": keys_per_type,
        "repeats": repeats,
        "rows": rows,
    }


def _ns_per_key(seconds: float, count: int) -> float:
    return seconds * 1e9 / count if count else 0.0


def best_speedup(report: Dict[str, Any]) -> float:
    """The largest batch-over-scalar factor across all rows."""
    speedups = [row["batch_speedup"] for row in report["rows"]]
    return max(speedups) if speedups else 0.0


def best_native_speedup(report: Dict[str, Any]) -> Optional[float]:
    """The largest native-over-scalar factor, or None when degraded."""
    speedups = [
        row["native_speedup"]
        for row in report["rows"]
        if row.get("native_speedup")
    ]
    return max(speedups) if speedups else None


def render_comparison(report: Dict[str, Any]) -> str:
    """Fixed-width text table of a :func:`compare_scalar_batch` report."""
    lines = [
        f"{'format':8s} {'family':8s} {'scalar ns/key':>14s} "
        f"{'batch ns/key':>13s} {'native ns/key':>14s} {'speedup':>8s}"
    ]
    for row in report["rows"]:
        native_ns = row.get("native_ns_per_key")
        native_cell = f"{native_ns:14.1f}" if native_ns is not None else (
            f"{'-':>14s}"
        )
        lines.append(
            f"{row['key_type']:8s} {row['family']:8s} "
            f"{row['scalar_ns_per_key']:14.1f} "
            f"{row['batch_ns_per_key']:13.1f} "
            f"{native_cell} "
            f"{row['batch_speedup']:7.2f}x"
        )
    lines.append(f"best batch speedup: {best_speedup(report):.2f}x")
    native_best = best_native_speedup(report)
    if native_best is not None:
        lines.append(f"best native speedup: {native_best:.2f}x")
        lines.append(
            f"native compiler: {report.get('native_compiler')}"
        )
    elif report.get("native_unavailable_reason"):
        lines.append(
            "native tier unavailable: "
            f"{report['native_unavailable_reason']}"
        )
    from repro.bench.report import fingerprint_block

    lines.append(
        fingerprint_block(
            repeats=report.get("repeats"),
            keys=report.get("keys_per_type"),
        )
    )
    return "\n".join(lines)


def write_report(report: Dict[str, Any], path: str) -> None:
    """Write a comparison report as indented, key-stable JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> Optional[Dict[str, Any]]:
    """Read a previously written report; None when absent/unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
