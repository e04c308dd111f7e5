"""Run one workload of the end-to-end benchmark and print its result.

    python3 perfbench/run.py --workload serve-stream --seed 0 --seconds 20 --trace 0

Workloads: ``serve-stream``, ``batch-dispatch`` and ``container-ops``
(one module each in this directory).  All inputs are generated from
``--seed`` before any timing starts; every workload is a closed loop.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are :data:`END_TO_END`; with ``--trace 1``
untraced and traced rounds alternate and the metrics are
:data:`PER_LAYER`, and the captured spans are written to
``.bench_out/``.  The line before it records the environment: tool
versions, the compiler, each route's tier and the pinned settings.

Exit codes: 0 with a result; 2 when the program under test (``src/``)
is not in the checkout; 3 when the host cannot run the workload as
specified (``serve-stream`` needs a working C++ compiler, and says so
rather than report the NumPy tier under the native tier's name).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"

WORKLOADS = {
    "serve-stream": "serve_stream",
    "batch-dispatch": "batch_dispatch",
    "container-ops": "container_ops",
}

END_TO_END = {
    "setup_s": "s",
    "ns_per_op": "ns",
    "call_p50_ms": "ms",
    "call_p99_ms": "ms",
    "phase_b_ns_per_op": "ns",
    "peak_rss_mb": "MiB",
}
"""Every workload reports each of these.  ``ns_per_op`` is ns per key
submitted (serve-stream phase A), per key hashed (batch-dispatch) or
per affectation (container-ops); ``call_p*_ms`` time one caller's
window of 4096 operations (on batch-dispatch, one ``hash_many`` call)
or, on serve-stream, of 1024 submits; ``phase_b_ns_per_op`` is ns per
key while the drift and hot swap land (serve-stream), per key of the
mixed calls (batch-dispatch) or per perfect-map lookup
(container-ops).  Every timing is reported at the reference host speed
of ``common.HostSpeed``, which takes out the swings of a shared host;
the raw wall times are in each round's notes (``raw_ns``,
``raw_setup_s``) on the line before the result."""

PER_LAYER = {
    "serve.submit.self_ns_per_key": "ns",
    "serve.gil_wait_ns_per_key": "ns",
    "serve.flush.ns_per_key": "ns",
    "serve.flush.cpu_ns_per_key": "ns",
    "serve.flush.calls": "count",
    "serve.flush.keys_per_call": "count",
    "serve.sink.ns_per_key": "ns",
    "serve.sink.cpu_ns_per_key": "ns",
    "serve.fallback.ns_per_key": "ns",
    "serve.fallback.keys": "count",
    "serve.sampled.keys": "count",
    "serve.shard_promotions": "count",
    "serve.swap_s": "s",
    "serve.swap_ms": "ms",
    "serve.reconcile.ms": "ms",
    "serve.reconcile.passes": "count",
    "swap.verify.plan.ms": "ms",
    "swap.core.synthesize.ms": "ms",
    "swap.codegen.native.compile_ms": "ms",
    "setup.codegen.native.probe.ms": "ms",
    "setup.codegen.native.compile_ms": "ms",
    "setup.codegen.native.compiles": "count",
    "setup.codegen.batch.compile_ms": "ms",
    "setup.core.synthesize.ms": "ms",
    "setup.core.infer.ms": "ms",
    "setup.perfect.synthesize.ms": "ms",
    "setup.codegen.cache.hits": "count",
    "setup.codegen.cache.misses": "count",
    "dispatch.self_ns_per_key": "ns",
    "dispatch.homogeneous_calls": "count",
    "dispatch.grouped_calls": "count",
    "dispatch.fallback.keys": "count",
    "codegen.batch.pext.ns_per_key": "ns",
    "codegen.batch.aes.ns_per_key": "ns",
    "codegen.batch.offxor.ns_per_key": "ns",
    "codegen.batch.naive.ns_per_key": "ns",
    "containers.hash.ns_per_op": "ns",
    "containers.table.self_ns_per_op": "ns",
    "containers.resizes": "count",
    "containers.bucket_collisions_per_insert": "ratio",
    "containers.perfect_fast_path_hits_per_lookup": "ratio",
    "trace.overhead_pct": "%",
}
"""Reported by every traced run; a layer the workload never calls
reports 0."""


def _pin_environment() -> None:
    """Take every environment-dependent choice out of the host's hands.

    The native kill switch, the dispatcher's native toggle and the
    compiler override are removed (each workload passes
    ``prefer_native`` explicitly), and temporary files — the toolchain
    probe, compiled shared objects, the compiler's own — stay inside
    the checkout.
    """
    for name in ("SEPE_NATIVE", "SEPE_NATIVE_DISPATCH", "CXX"):
        os.environ.pop(name, None)
    SCRATCH.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(SCRATCH)
    tempfile.tempdir = str(SCRATCH)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: the program under test ({ROOT / 'src' / 'repro'}) is "
            "not in this checkout",
            file=sys.stderr,
        )
        return 2
    _pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from common import Outcome, Unsupported, fingerprint, write_json

    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = Outcome()
    try:
        module.run(args.seed, args.seconds, bool(args.trace), outcome)
    except Unsupported as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3

    spans = outcome.notes.pop("spans", [])
    if args.trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        for layer in outcome.layers:
            unknown = set(layer) - set(PER_LAYER)
            if unknown:
                raise KeyError(f"unlisted per-layer metrics: {sorted(unknown)}")
            values.update(layer)
        for name, unit in PER_LAYER.items():
            outcome.put(name, values[name], unit)
    elif {name: unit for name, (_v, unit) in outcome.metrics.items()} != END_TO_END:
        raise KeyError(f"end-to-end metrics do not match: {sorted(outcome.metrics)}")
    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": fingerprint(module.SETTINGS),
        "notes": outcome.notes,
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        with open(f"{stem}.spans.jsonl", "w", encoding="utf-8") as handle:
            for record in spans:
                handle.write(json.dumps(record, sort_keys=True, default=str))
                handle.write("\n")
        write_json(f"{stem}.environment.json", environment)
    print(json.dumps(environment, sort_keys=True, default=str))
    print(json.dumps(outcome.result(), sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
