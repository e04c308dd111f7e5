"""Inference headline: reference join vs the ``infer_pattern`` entry point.

The reference ``keybuilder`` join costs four Python-level lattice joins
per byte per key; the fold of :mod:`repro.core.fast_infer` combines
whole keys with big-int or NumPy XOR/OR and expands the constant-bit
mask back to quads.  This bench times both on the same corpora, checks
byte-for-byte parity, and produces ``BENCH_infer.json`` — the committed
perf-trajectory artifact and the CI smoke-bench upload.

Run under pytest (``pytest benchmarks/bench_infer.py``) like the other
benches, or standalone for CI/artifact generation::

    PYTHONPATH=src python benchmarks/bench_infer.py --out BENCH_infer.json
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.infer_compare import (
    best_speedup,
    compare_infer,
    render_comparison,
    write_report,
)


def test_infer_fast_vs_reference(benchmark):
    from conftest import emit_report

    report = benchmark.pedantic(
        lambda: compare_infer(num_keys=20_000, repeats=2),
        rounds=1,
        iterations=1,
    )
    emit_report("infer", render_comparison(report))
    # Every row must agree with the reference join byte for byte...
    assert report["all_parity"]
    # ...and the whole point of the fold: whole-key folding must win
    # decisively even at this reduced scale (the committed 100k-key
    # artifact shows >=20x).
    assert best_speedup(report) >= 5.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="reference vs fast inference; writes BENCH_infer.json"
    )
    parser.add_argument("--out", default="BENCH_infer.json")
    parser.add_argument("--keys", type=int, default=100_000)
    parser.add_argument("--key-len", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    report = compare_infer(
        num_keys=args.keys, key_len=args.key_len, repeats=args.repeats
    )
    print(render_comparison(report))
    write_report(report, args.out)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
