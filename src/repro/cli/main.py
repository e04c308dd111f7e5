"""``sepe``: umbrella command line for the reproduction.

Subcommands:

- ``sepe infer`` — keybuilder (examples → regex).
- ``sepe synth`` — keysynth (regex → code).
- ``sepe demo`` — synthesize for a paper key format and race the result
  against the STL baseline on a small workload.
- ``sepe bench`` — run one of the paper's tables at reduced scale.
- ``sepe obs`` — trace a synthesis run; print the span tree, dispatcher
  routing stats, and (optionally) a metrics snapshot / JSON-lines export.
- ``sepe fuzz`` — run a seeded differential/metamorphic fuzz campaign
  over the whole pipeline; minimized reproducers land in the corpus.
- ``sepe verify`` — statically verify one format's plans: lints plus
  the bijectivity prover's certificate or refutation.
- ``sepe lint`` — the CI gate: lint many formats (built-ins, explicit
  regexes, corpus reproducers) and fail on error findings.
- ``sepe analyze`` — multi-domain static analysis report per format:
  derived value ranges, entropy funnels, and the analysis-driven
  rewrites that fired.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.cli import keybuilder, keysynth


def _run_demo(args: argparse.Namespace) -> int:
    from repro.bench.metrics import total_collisions
    from repro.bench.runner import measure_h_time
    from repro.bench.suite import make_hash_suite
    from repro.keygen.distributions import Distribution
    from repro.keygen.generator import generate_keys
    from repro.keygen.keyspec import key_spec

    try:
        spec = key_spec(args.key_type)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    keys = generate_keys(spec.name, args.keys, Distribution.UNIFORM)
    suite = make_hash_suite(
        spec.name, include=["STL", "Naive", "OffXor", "Aes", "Pext"]
    )
    print(f"format {spec.name}: {spec.regex}")
    print(f"{args.keys} uniform keys, hashing time and 64-bit collisions:")
    stl_time = None
    for name in ("STL", "Naive", "OffXor", "Aes", "Pext"):
        seconds = measure_h_time(suite[name], keys, repeats=3)
        if name == "STL":
            stl_time = seconds
        collisions = total_collisions(suite[name], keys)
        speedup = stl_time / seconds if stl_time else float("nan")
        print(
            f"  {name:8s} {seconds * 1000:9.3f} ms   "
            f"{speedup:6.2f}x vs STL   {collisions} collisions"
        )
    return 0


def _run_list_formats() -> int:
    from repro.keygen.extended import EXTENDED_KEY_TYPES
    from repro.keygen.keyspec import KEY_TYPES

    print("paper formats (Section 4):")
    for name, spec in KEY_TYPES.items():
        print(f"  {name:8s} len {spec.length:3d}  {spec.regex}")
    print("extended formats:")
    for name, spec in EXTENDED_KEY_TYPES.items():
        print(f"  {name:8s} len {spec.length:3d}  {spec.regex}")
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from repro.core.explain import explain_format
    from repro.core.plan import HashFamily
    from repro.errors import SepeError

    try:
        family = HashFamily(args.family.lower())
        print(
            explain_format(
                args.regex, family, final_mix=args.final_mix
            )
        )
    except (SepeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


def _run_validate(args: argparse.Namespace) -> int:
    from repro.core.plan import HashFamily
    from repro.core.synthesis import synthesize
    from repro.core.validate import validate
    from repro.errors import SepeError

    try:
        family = HashFamily(args.family.lower())
        synthesized = synthesize(
            args.regex, family, final_mix=args.final_mix
        )
    except (SepeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    report = validate(synthesized, sample_size=args.sample)
    print(f"family:            {family.value}"
          + (" + final mix" if args.final_mix else ""))
    print(f"sample size:       {report.sample_size}")
    print(f"deterministic:     {report.deterministic}")
    print(f"64-bit range:      {report.in_range}")
    print(f"bijection claimed: {report.bijection_claimed}")
    print(f"collision rate:    {report.collision_rate:.6f}")
    print(f"avalanche score:   {report.avalanche:.3f} (0.5 = ideal)")
    if report.bijection_witness:
        a, b = report.bijection_witness
        print(f"collision witness: {a!r} vs {b!r}")
    for problem in report.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    return 0 if report.ok else 1


def _run_obs(args: argparse.Namespace) -> int:
    """Trace one synthesis run; print the span tree and metrics."""
    from repro.core.dispatch import FormatDispatcher
    from repro.core.plan import HashFamily
    from repro.core.synthesis import synthesize
    from repro.errors import SepeError
    from repro.obs import (
        JsonLinesSink,
        RingBufferSink,
        get_registry,
        get_tracer,
        render_metrics,
        render_span_tree,
    )

    try:
        family = HashFamily(args.family.lower())
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Trace a *cold* synthesis: with a warm compile cache the IR and
    # compile stages would be elided from the span tree, which is the
    # very pipeline this command exists to show.  Counter totals survive.
    # The native tier is traced too where it is enabled: its toolchain
    # probe (once per process) and the plan's compile.
    from repro.codegen.cache import get_compile_cache
    from repro.codegen.native import native_enabled

    get_compile_cache().clear()
    exporter = None
    if args.export:
        try:
            exporter = JsonLinesSink(args.export)
        except OSError as error:
            print(f"error: cannot open {args.export}: {error}", file=sys.stderr)
            return 1
    tracer = get_tracer()
    ring = RingBufferSink()
    tracer.add_sink(ring)
    if exporter is not None:
        tracer.add_sink(exporter)
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        dispatcher = FormatDispatcher(prefer_native=native_enabled())
        synthesized = dispatcher.register(args.regex, family=family)
        pattern = synthesized.pattern
        if pattern.is_fixed_length:
            choices = [
                bp.possible_bytes() for bp in pattern.byte_patterns()
            ]
            samples = [
                bytes(
                    possible[(i * (j + 1)) % len(possible)]
                    for j, possible in enumerate(choices)
                )
                for i in range(max(args.routes, 1))
            ]
            for sample in samples:
                dispatcher(sample)
            dispatcher(b"?" * (pattern.body_length + 1))  # fallback demo
            if args.metrics:
                from repro import obs
                from repro.containers.unordered_map import UnorderedMap

                obs.enable_container_telemetry()
                try:
                    table = UnorderedMap(synthesized.function)
                    for sample in samples:
                        table.insert(sample, None)
                finally:
                    obs.disable_container_telemetry()
    except SepeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        tracer.remove_sink(ring)
        if exporter is not None:
            tracer.remove_sink(exporter)
            exporter.close()
        if not was_enabled:
            tracer.disable()

    print(f"span tree for synthesize({args.regex!r}, {family.value}):")
    print(render_span_tree(ring.records()))
    print()
    print("dispatcher stats:")
    stats = dispatcher.stats()
    for entry in stats["formats"]:
        length = entry["length"] if entry["length"] is not None else "var"
        print(
            f"  {entry['regex']:<40s} len {length}  "
            f"routes {entry['routes']}"
        )
    print(
        f"  fallback routes: {stats['fallback_routes']}  "
        f"(total {stats['total_routes']})"
    )
    print()
    from repro.codegen.cache import get_compile_cache

    cache_stats = get_compile_cache().stats()
    exec_calls = get_registry().counter("codegen.python.exec_calls").value
    print(
        f"compile cache: {cache_stats['hits']} hits, "
        f"{cache_stats['misses']} misses, "
        f"{cache_stats['entries']} entries "
        f"({exec_calls} exec calls this process)"
    )
    for kind in sorted(cache_stats.get("kinds", {})):
        kind_stats = cache_stats["kinds"][kind]
        line = (
            f"  {kind:6s}: {kind_stats['hits']} hits, "
            f"{kind_stats['misses']} misses"
        )
        if kind == "native":
            line += (
                f", {kind_stats['failures']} compile failures, "
                f"{kind_stats['negative_hits']} negative-cache hits"
            )
        print(line)
    native_fallbacks = get_registry().counter(
        "codegen.native.fallbacks"
    ).value
    if native_fallbacks:
        print(f"native fallbacks this process: {native_fallbacks}")
    perfect_counters = {
        name: get_registry().counter(name).value
        for name in (
            "perfect.synthesized",
            "perfect.certified",
            "perfect.refused",
            "perfect.fallbacks",
            "containers.perfect_fast_path_hits",
        )
    }
    if any(perfect_counters.values()):
        print("perfect tier this process:")
        for name, value in perfect_counters.items():
            print(f"  {name}: {value}")
    if args.metrics:
        print()
        print("process metrics:")
        print(render_metrics(get_registry().snapshot()))
    if args.export:
        print()
        print(f"wrote {len(ring)} span events to {args.export}")
    if args.snapshot:
        from repro.obs import write_snapshot_jsonl

        try:
            lines = write_snapshot_jsonl(args.snapshot)
        except OSError as error:
            print(
                f"error: cannot write {args.snapshot}: {error}",
                file=sys.stderr,
            )
            return 1
        print(f"wrote metrics snapshot ({lines} lines) to {args.snapshot}")
    if args.serve:
        import time as _time

        from repro.obs import MetricsServer

        try:
            server = MetricsServer(port=args.port)
            server.start()
        except OSError as error:
            print(f"error: cannot bind port {args.port}: {error}",
                  file=sys.stderr)
            return 1
        print(
            f"serving http://127.0.0.1:{server.port}/metrics "
            "(Prometheus text) and /metrics.json"
            + (
                f" for {args.serve_for:g}s"
                if args.serve_for is not None
                else " until Ctrl-C"
            )
        )
        try:
            if args.serve_for is not None:
                _time.sleep(args.serve_for)
            else:  # pragma: no cover - interactive loop
                while True:
                    _time.sleep(3600)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            pass
        finally:
            server.stop()
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """Per-stage hot-spot report for one format (``sepe profile``)."""
    import json

    from repro.core.plan import HashFamily
    from repro.errors import SepeError
    from repro.obs import (
        capture_spans,
        profile_format,
        render_profile,
        render_self_time_tree,
    )

    try:
        family = HashFamily(args.family.lower())
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    # Profile a *cold* synthesis so the captured span tree shows the
    # whole pipeline (same rationale as ``sepe obs``).
    from repro.codegen.cache import get_compile_cache

    get_compile_cache().clear()
    try:
        with capture_spans() as sink:
            report = profile_format(
                args.regex,
                family=family,
                count=args.keys,
                seed=args.seed,
            )
    except SepeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_profile(report))
    records = sink.records()
    if records:
        print()
        print("pipeline stage self-times:")
        print(render_self_time_tree(records))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote profile report to {args.json_out}")
    return 0


def _run_fuzz(args: argparse.Namespace) -> int:
    """Seeded fuzz campaign: JSON report to stdout, summary to stderr."""
    import json
    from pathlib import Path

    from repro.fuzz import FuzzConfig, run_fuzz
    from repro.fuzz.oracles import ORACLES

    if args.list_oracles:
        for oracle in ORACLES.values():
            print(f"{oracle.name:20s} [{oracle.group}] {oracle.description}")
        return 0
    try:
        config = FuzzConfig(
            seed=args.seed,
            budget_seconds=args.budget,
            max_cases=args.max_cases,
            oracles=args.oracles or None,
            keys_per_case=args.keys_per_case,
            shrink_seconds=args.shrink_budget,
            corpus_dir=Path(args.corpus) if args.corpus else None,
        )
        report = run_fuzz(config)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    document = report.to_dict()
    print(
        f"fuzz: seed {report.seed}, {report.cases} cases, "
        f"{report.total_executions} oracle executions in "
        f"{report.elapsed_seconds:.1f}s "
        f"({document['executions_per_second']}/s)",
        file=sys.stderr,
    )
    for failure in report.failures:
        where = (
            f" -> {failure.reproducer_path}"
            if failure.reproducer_path
            else ""
        )
        print(
            f"FAIL [{failure.oracle}] {failure.message} "
            f"(shrunk to {len(failure.shrunk.keys)} keys, "
            f"regex {failure.shrunk.spec.regex()!r}){where}",
            file=sys.stderr,
        )
    if report.ok:
        print("all oracles held", file=sys.stderr)
    output = json.dumps(document, indent=2, sort_keys=True)
    if args.report:
        Path(args.report).write_text(output + "\n")
        print(f"wrote report to {args.report}", file=sys.stderr)
    print(output)
    return 0 if report.ok else 1


def _verify_families(value: str) -> List["HashFamily"]:
    from repro.core.plan import HashFamily

    if value == "all":
        return list(HashFamily)
    return [HashFamily(value.lower())]


def _run_verify(args: argparse.Namespace) -> int:
    """Statically verify one format across families (``sepe verify``)."""
    import dataclasses
    import json

    from repro.core.regex_expand import pattern_from_regex
    from repro.core.synthesis import build_plan
    from repro.errors import SepeError
    from repro.verify import verify_plan

    try:
        families = _verify_families(args.family)
        pattern = pattern_from_regex(args.regex)
    except (SepeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    reports = []
    all_ok = True
    for family in families:
        try:
            plan = build_plan(pattern, family)
        except SepeError as error:
            print(f"error: {family.value}: {error}", file=sys.stderr)
            return 2
        if args.final_mix:
            plan = dataclasses.replace(plan, final_mix=True)
        report = verify_plan(plan, pattern)
        reports.append(report)
        all_ok = all_ok and report.ok
    if args.json:
        print(
            json.dumps(
                [report.to_dict() for report in reports],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"format: {args.regex}")
        for report in reports:
            print(f"  {report.summary()}")
            bijectivity = report.bijectivity
            preconditions = list(bijectivity.failed_preconditions)
            for index, reason in enumerate(bijectivity.reasons):
                name = (
                    preconditions[index]["precondition"]
                    if index < len(preconditions)
                    else "?"
                )
                print(f"      refused [{name}]: {reason}")
            for finding in report.lints.findings:
                print(
                    f"      [{finding.severity.value}] "
                    f"{finding.rule}: {finding.message}"
                )
    return 0 if all_ok else 1


def _lint_targets(args: argparse.Namespace) -> List[Tuple[str, str]]:
    """Resolve ``sepe lint`` inputs to (label, regex) pairs."""
    from repro.fuzz.corpus import corpus_files, load_reproducer
    from repro.keygen.extended import EXTENDED_KEY_TYPES
    from repro.keygen.keyspec import KEY_TYPES

    targets: List[Tuple[str, str]] = []
    for regex in args.regexes:
        targets.append((regex, regex))
    if args.formats:
        for name, spec in {**KEY_TYPES, **EXTENDED_KEY_TYPES}.items():
            targets.append((name, spec.regex))
    if args.corpus:
        from pathlib import Path

        for path in corpus_files(Path(args.corpus)):
            case, _oracle, _message = load_reproducer(path)
            targets.append((path.name, case.spec.regex()))
    return targets


def _run_lint(args: argparse.Namespace) -> int:
    """Lint plans for many formats; the CI gate (``sepe lint``)."""
    import json

    from repro.core.plan import HashFamily
    from repro.core.regex_expand import pattern_from_regex
    from repro.core.synthesis import build_plan
    from repro.errors import SepeError
    from repro.verify import run_lints

    targets = _lint_targets(args)
    if not targets:
        print(
            "error: nothing to lint (pass regexes, --formats, or --corpus)",
            file=sys.stderr,
        )
        return 2
    documents = []
    errors = warnings_count = skipped = internal = 0
    for label, regex in targets:
        try:
            pattern = pattern_from_regex(regex)
        except SepeError as error:
            print(f"error: {label}: {error}", file=sys.stderr)
            return 2
        if pattern.body_length < 8:
            # SEPE never specializes sub-word bodies (paper footnote 5),
            # so there is no plan to lint; note it rather than failing.
            skipped += 1
            if not args.json:
                print(f"{label}: skipped (body below one machine word)")
            continue
        for family in HashFamily:
            try:
                plan = build_plan(pattern, family)
            except SepeError as error:
                print(f"error: {label}/{family.value}: {error}",
                      file=sys.stderr)
                return 2
            report = run_lints(plan, pattern)
            counts = report.counts()
            errors += counts["error"]
            warnings_count += counts["warning"]
            internal += len(report.internal_errors)
            documents.append({"target": label, **report.to_dict()})
            if not args.json and report.findings:
                for finding in report.findings:
                    print(
                        f"{label}/{family.value}: "
                        f"[{finding.severity.value}] {finding.rule}: "
                        f"{finding.message}"
                    )
    if args.json:
        print(json.dumps(documents, indent=2, sort_keys=True))
    summary = (
        f"linted {len(documents)} plan(s) across {len(targets)} target(s): "
        f"{errors} error(s), {warnings_count} warning(s), "
        f"{skipped} skipped"
    )
    print(summary, file=sys.stderr)
    if internal:
        # A crashed rule is a linter bug, not a plan defect; report it
        # on the input-error channel so CI distinguishes "the gate found
        # problems" (exit 1) from "the gate itself broke" (exit 2).
        print(
            f"internal error: {internal} lint rule crash(es); "
            "see lint-crash findings",
            file=sys.stderr,
        )
        return 2
    failed = errors > 0 or (args.fail_on == "warning" and warnings_count > 0)
    return 1 if failed else 0


def _run_analyze(args: argparse.Namespace) -> int:
    """Multi-domain static analysis report (``sepe analyze``).

    For each target format × family: the return value's derived range
    and known bits, the entropy-flow report (funnels), and which
    analysis-driven rewrites fired.  Exit codes follow ``sepe lint``:
    1 for an error-severity finding, 2 for bad input or a crashed rule.
    """
    import json

    from repro.core.plan import HashFamily
    from repro.core.regex_expand import pattern_from_regex
    from repro.core.synthesis import build_plan
    from repro.errors import SepeError
    from repro.verify.lints import LintContext, run_lints

    targets = _lint_targets(args)
    if not targets:
        print(
            "error: nothing to analyze (pass regexes, --formats, "
            "or --corpus)",
            file=sys.stderr,
        )
        return 2
    try:
        families = _verify_families(args.family)
    except (SepeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    documents = []
    errors = skipped = internal = 0
    for label, regex in targets:
        try:
            pattern = pattern_from_regex(regex)
        except SepeError as error:
            print(f"error: {label}: {error}", file=sys.stderr)
            return 2
        if pattern.body_length < 8:
            skipped += 1
            if not args.json:
                print(f"{label}: skipped (body below one machine word)")
            continue
        for family in families:
            try:
                plan = build_plan(pattern, family)
            except SepeError as error:
                print(f"error: {label}/{family.value}: {error}",
                      file=sys.stderr)
                return 2
            ctx = LintContext(plan, pattern)
            report = run_lints(
                plan, pattern, rules=["entropy-funnel"], ctx=ctx
            )
            if report.internal_errors:
                # The analysis the crashed rule read would raise again.
                for finding in report.internal_errors:
                    print(f"{label}/{family.value}: {finding.message}",
                          file=sys.stderr)
                internal += len(report.internal_errors)
                continue
            findings = report.findings
            errors += sum(
                1 for f in findings if f.severity.value == "error"
            )
            rewrites = ctx.rewrites
            entropy = ctx.entropy
            ret = ctx.dataflow.ret
            document = {
                "target": label,
                "pattern": regex,
                "family": family.value,
                "ret": None,
                "entropy": entropy.to_dict(),
                "rewrites": rewrites,
                "findings": [f.to_dict() for f in findings],
            }
            if ret is not None:
                document["ret"] = {
                    "range": [ret.range.lo, ret.range.hi],
                    "known_zeros": f"{ret.bits.zeros:#x}",
                    "known_ones": f"{ret.bits.ones:#x}",
                    "effective_width": ret.effective_width(),
                }
            documents.append(document)
            if args.json:
                continue
            print(f"{label}/{family.value}:")
            if ret is not None:
                print(
                    f"  ret range [{ret.range.lo:#x}, {ret.range.hi:#x}]"
                    f", effective width {ret.effective_width()} bit(s)"
                )
            print(
                f"  entropy: {entropy.live_input_bits:.1f} live bits -> "
                f"capacity {entropy.capacity:.1f}, "
                f"avoidable loss {entropy.avoidable_bits:.1f}, "
                f"{entropy.funneled_bits} funneled output bit(s)"
            )
            fired = {
                k: v
                for k, v in rewrites.items()
                if k != "tv_rejected" and v
            }
            if fired or rewrites.get("tv_rejected"):
                print(
                    "  rewrites: "
                    + (
                        "REJECTED by translation validation"
                        if rewrites.get("tv_rejected")
                        else ", ".join(
                            f"{name} x{count}"
                            for name, count in sorted(fired.items())
                        )
                    )
                )
            for finding in findings:
                print(
                    f"  [{finding.severity.value}] {finding.rule}: "
                    f"{finding.message}"
                )
    rendered = json.dumps(documents, indent=2, sort_keys=True)
    if args.json:
        print(rendered)
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    print(
        f"analyzed {len(documents)} plan(s) across {len(targets)} "
        f"target(s): {errors} error finding(s), {skipped} skipped",
        file=sys.stderr,
    )
    if internal:
        print(f"internal error: {internal} lint rule crash(es)",
              file=sys.stderr)
        return 2
    return 1 if errors else 0


def _run_serve(args: argparse.Namespace) -> int:
    """Replay traffic through the sharded serve layer (``sepe serve``).

    Two modes: a single replay (optionally with mid-stream drift
    injection and the background reconciler) or ``--scaling``, which
    measures the same stream over several shard counts.  Exit code 1
    signals an assertion failure — hash errors, or a swap count that
    does not match ``--assert-swaps`` — which is what the CI
    ``serve-smoke`` job keys off.
    """
    import json as json_module

    from repro.serve.replay import (
        ReplayConfig,
        measure_scaling,
        run_replay,
        scaling_ratio,
    )

    config = ReplayConfig(
        shards=args.shards,
        threads=args.threads,
        keys_per_thread=args.keys,
        seconds=args.seconds,
        drift=args.drift,
        drift_kind=args.drift_kind,
        reconcile_interval=args.reconcile_interval,
        seed=args.seed,
    )
    failures = []
    if args.scaling:
        rows = measure_scaling(
            config,
            shard_counts=tuple(args.shard_counts),
            repeats=args.repeats,
        )
        for row in rows:
            print(
                f"shards={row['shards']}: "
                f"{row['keys_per_sec'] / 1e6:6.2f} Mkeys/s "
                f"({row['ns_per_key']:6.1f} ns/key)"
            )
        ratio = scaling_ratio(rows)
        if ratio is not None:
            print(f"ratio {max(args.shard_counts)}v1: {ratio:.2f}x")
        document = {"scaling": {
            "config": config.describe(), "rows": rows,
            "ratio_widest_vs_one_shard": ratio,
        }}
    else:
        report = run_replay(config)
        print(
            f"{report['submitted']} keys in "
            f"{report['elapsed_seconds']:.2f}s: "
            f"{report['keys_per_sec'] / 1e6:.2f} Mkeys/s "
            f"({report['ns_per_key']:.1f} ns/key), "
            f"{report['hash_errors']} hash errors"
        )
        for event in report.get("swap_events", []):
            print(
                f"swap {event['route_id']} g{event['old_generation']}"
                f"->g{event['new_generation']} "
                f"({','.join(event['reasons'])}) "
                f"verified={event['verified']} in "
                f"{event['swap_ms']:.0f} ms"
            )
        if report["hash_errors"]:
            failures.append(f"{report['hash_errors']} hash errors")
        if report["delivered"] != report["submitted"]:
            failures.append(
                f"delivered {report['delivered']} != "
                f"submitted {report['submitted']}"
            )
        if args.assert_swaps is not None:
            swaps = len(report.get("swap_events", []))
            verified = sum(
                1
                for event in report.get("swap_events", [])
                if event["verified"]
            )
            if swaps != args.assert_swaps or verified != swaps:
                failures.append(
                    f"expected {args.assert_swaps} verified swaps, "
                    f"got {swaps} ({verified} verified)"
                )
        document = report
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json_module.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    if failures:
        print("FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _run_perfect(args: argparse.Namespace) -> int:
    """Synthesize + certify perfect hashes for closed key sets.

    Exit code 1 means at least one requested key set was *refused*
    certification while ``--assert-certified`` was set — the CI
    ``perfect-gate`` job's failure signal.  Exit code 2 is an input
    error (unknown set name, unreadable key file).
    """
    import json as json_module

    from repro.errors import PerfectSearchError, SepeError
    from repro.perfect import (
        BUILTIN_KEY_SET_NAMES,
        builtin_key_set,
        pad_keys,
        rq_closed_set,
        synthesize_perfect,
    )

    targets: List[Tuple[str, Tuple[bytes, ...]]] = []
    try:
        builtin_names = list(args.builtin or [])
        if "all" in builtin_names:
            builtin_names = list(BUILTIN_KEY_SET_NAMES)
        for name in builtin_names:
            targets.append((f"builtin:{name}", builtin_key_set(name)))
        for name in args.rq or []:
            targets.append(
                (
                    f"rq:{name.lower()}",
                    tuple(
                        rq_closed_set(
                            name, count=args.count, seed=args.seed
                        )
                    ),
                )
            )
        if args.keys_file:
            with open(args.keys_file, "rb") as handle:
                lines = [line.rstrip(b"\r\n") for line in handle]
            targets.append(
                (
                    args.keys_file,
                    pad_keys([line for line in lines if line]),
                )
            )
    except (SepeError, KeyError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not targets:
        print(
            "error: nothing to certify; pass --builtin NAME|all, "
            "--rq NAME, or --keys-file FILE",
            file=sys.stderr,
        )
        return 2
    documents = []
    refusals = 0
    for label, keys in targets:
        try:
            perfect = synthesize_perfect(keys)
        except (PerfectSearchError, SepeError) as error:
            refusals += 1
            print(f"{label}: REFUSED — {error}")
            documents.append(
                {"key_set": label, "certified": False, "error": str(error)}
            )
            continue
        certificate = perfect.certificate
        print(
            f"{label}: certified {certificate.key_count} keys -> "
            f"{certificate.hash_bits}-bit hash, range "
            f"{certificate.range_size}, load "
            f"{certificate.load_factor:.3f}"
            + (" (minimal)" if certificate.minimal else "")
            + f", strategy {certificate.strategy or 'structural'}"
            + (" + rotation fallback" if certificate.fallback_used else "")
            + f", {certificate.evaluations} evaluations"
        )
        documents.append({"key_set": label, **certificate.to_dict()})
    if args.json:
        print(json_module.dumps(documents, indent=2, sort_keys=True))
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json_module.dump(documents, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.report}")
    if refusals and args.assert_certified:
        print(
            f"FAILED: {refusals} key set(s) refused certification",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.bench import tables
    from repro.bench.report import render_table

    if args.compare:
        return _run_bench_compare(args)
    if args.table is None:
        print(
            "error: choose a table (1/2/3) or --compare",
            file=sys.stderr,
        )
        return 1
    if args.table == 1:
        rows = tables.table1(key_types=args.key_types, samples=args.samples)
    elif args.table == 2:
        rows = tables.table2(
            key_types=args.key_types,
            keys_per_type=args.keys if args.keys is not None else 20_000,
        )
    else:
        rows = tables.table3(key_types=args.key_types, samples=args.samples)
    print(render_table(rows, title=f"Table {args.table} (reduced scale)"))
    return 0


def _run_bench_compare(args: argparse.Namespace) -> int:
    """Noise-aware regression check against a committed ledger.

    Exit code 1 means at least one confirmed regression — the CI gate's
    failure signal; ``new``/``missing``/``skipped`` verdicts are
    informational only.
    """
    from repro.bench import ledger as bench_ledger

    baseline = bench_ledger.load_ledger(args.compare)
    if baseline is None:
        print(
            f"error: cannot read ledger {args.compare}", file=sys.stderr
        )
        return 2
    keys = (
        args.keys if args.keys is not None
        else bench_ledger.SMOKE_KEYS_PER_TYPE
    )
    print(
        f"measuring smoke sample ({keys} keys x "
        f"{max(args.samples, 5)} repeats per cell)...",
        file=sys.stderr,
    )
    entries = bench_ledger.collect_smoke_entries(
        key_types=args.key_types,
        keys_per_type=keys,
        repeats=max(args.samples, 5),
    )
    verdicts = bench_ledger.compare_ledger(
        baseline,
        entries,
        threshold=args.threshold,
        allow_cross_host=args.allow_cross_host,
    )
    print(render_fingerprint_delta(baseline))
    print(bench_ledger.render_verdicts(verdicts))
    return 1 if bench_ledger.regression_count(verdicts) else 0


def render_fingerprint_delta(ledger: "dict") -> str:
    """One line stating whether baseline and current hosts match."""
    from repro.bench.ledger import fingerprint, fingerprints_comparable

    baseline = ledger.get("fingerprint", {})
    current = fingerprint()
    label = (
        "same host class"
        if fingerprints_comparable(baseline, current)
        else "DIFFERENT host class"
    )
    return (
        f"baseline {baseline.get('machine', '?')}/"
        f"py{baseline.get('python_version', '?')} vs current "
        f"{current['machine']}/py{current['python_version']} ({label})"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepe",
        description="SEPE: synthesis of specialized hash functions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    infer = subparsers.add_parser("infer", help="infer a regex from keys")
    infer.add_argument("file", nargs="?")
    infer.add_argument("--show-pattern", action="store_true")

    synth = subparsers.add_parser("synth", help="synthesize from a regex")
    synth.add_argument("regex")
    synth.add_argument("--family", default="all")
    synth.add_argument("--emit", default="cpp", choices=["cpp", "python"])
    synth.add_argument("--target", default="x86", choices=["x86", "aarch64"])

    demo = subparsers.add_parser("demo", help="race synthetic vs STL hashes")
    demo.add_argument("key_type", nargs="?", default="SSN")
    demo.add_argument("--keys", type=int, default=10_000)

    subparsers.add_parser(
        "list-formats", help="list the built-in key formats"
    )

    explain = subparsers.add_parser(
        "explain", help="show how a format is analyzed and lowered"
    )
    explain.add_argument("regex")
    explain.add_argument("--family", default="pext")
    explain.add_argument("--final-mix", action="store_true")

    check = subparsers.add_parser(
        "validate", help="validate a synthesized hash against its format"
    )
    check.add_argument("regex")
    check.add_argument("--family", default="pext")
    check.add_argument("--final-mix", action="store_true")
    check.add_argument("--sample", type=int, default=2000)

    obs = subparsers.add_parser(
        "obs", help="trace a synthesis run; report spans and metrics"
    )
    obs.add_argument(
        "regex",
        nargs="?",
        default=r"\d{3}-\d{2}-\d{4}",
        help="format to synthesize under tracing (default: SSN)",
    )
    obs.add_argument("--family", default="pext")
    obs.add_argument(
        "--export",
        metavar="FILE",
        help="also write span events to FILE as JSON lines",
    )
    obs.add_argument(
        "--routes",
        type=int,
        default=5,
        help="conforming keys to route through the dispatcher demo",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="print the process-wide metrics registry snapshot",
    )
    obs.add_argument(
        "--snapshot",
        metavar="FILE",
        help="write the metrics registry to FILE as JSON lines",
    )
    obs.add_argument(
        "--serve",
        action="store_true",
        help="expose /metrics over HTTP after the traced run",
    )
    obs.add_argument(
        "--port",
        type=int,
        default=9464,
        help="port for --serve (0 = ephemeral; default: 9464)",
    )
    obs.add_argument(
        "--serve-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="with --serve, stop after SECONDS instead of Ctrl-C",
    )

    profile = subparsers.add_parser(
        "profile",
        help="time one format's hash_many stage by stage (the emitted "
        "lane body's opcodes, or the mapped scalar function)",
    )
    profile.add_argument(
        "regex",
        nargs="?",
        default=r"\d{3}-\d{2}-\d{4}",
        help="format to profile (default: SSN)",
    )
    profile.add_argument("--family", default="pext")
    profile.add_argument(
        "--keys",
        type=int,
        default=2000,
        help="conforming keys to profile over (default: 2000)",
    )
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the report as JSON to FILE",
    )

    fuzz = subparsers.add_parser(
        "fuzz", help="fuzz the pipeline with differential/metamorphic oracles"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--budget",
        type=float,
        default=30.0,
        help="wall-clock seconds for the case loop (default: 30)",
    )
    fuzz.add_argument(
        "--max-cases",
        type=int,
        default=None,
        help="stop after exactly N cases regardless of budget",
    )
    fuzz.add_argument(
        "--oracles",
        nargs="*",
        metavar="NAME",
        help="run only these oracles (default: all; see --list-oracles)",
    )
    fuzz.add_argument(
        "--list-oracles",
        action="store_true",
        help="list oracle names and exit",
    )
    fuzz.add_argument(
        "--keys-per-case",
        type=int,
        default=24,
        help="conforming keys drawn per sampled format",
    )
    fuzz.add_argument(
        "--shrink-budget",
        type=float,
        default=5.0,
        help="seconds spent minimizing each distinct failure",
    )
    fuzz.add_argument(
        "--corpus",
        metavar="DIR",
        help="persist minimized reproducers under DIR",
    )
    fuzz.add_argument(
        "--report",
        metavar="FILE",
        help="also write the JSON report to FILE",
    )

    verify = subparsers.add_parser(
        "verify", help="statically verify a format's synthesis plans"
    )
    verify.add_argument("regex")
    verify.add_argument(
        "--family",
        default="all",
        choices=["all", "naive", "offxor", "aes", "pext"],
    )
    verify.add_argument("--final-mix", action="store_true")
    verify.add_argument(
        "--json",
        action="store_true",
        help="emit the full verification reports as JSON",
    )

    lint = subparsers.add_parser(
        "lint", help="lint synthesis plans for many formats (CI gate)"
    )
    lint.add_argument(
        "regexes", nargs="*", metavar="REGEX", help="formats to lint"
    )
    lint.add_argument(
        "--formats",
        action="store_true",
        help="lint every built-in key format",
    )
    lint.add_argument(
        "--corpus",
        metavar="DIR",
        help="also lint the formats of fuzz reproducers under DIR",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        help="emit all findings as JSON",
    )
    lint.add_argument(
        "--fail-on",
        default="error",
        choices=["error", "warning"],
        help="lowest severity that fails the run (default: error)",
    )

    analyze = subparsers.add_parser(
        "analyze",
        help="multi-domain static analysis: ranges, entropy, rewrites",
    )
    analyze.add_argument(
        "regexes", nargs="*", metavar="REGEX", help="formats to analyze"
    )
    analyze.add_argument(
        "--formats",
        action="store_true",
        help="analyze every built-in key format",
    )
    analyze.add_argument(
        "--corpus",
        metavar="DIR",
        help="also analyze the formats of fuzz reproducers under DIR",
    )
    analyze.add_argument(
        "--family",
        default="all",
        choices=["all", "naive", "offxor", "aes", "pext"],
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the full analysis reports as JSON",
    )
    analyze.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the JSON reports to FILE",
    )

    serve = subparsers.add_parser(
        "serve",
        help="replay traffic through the sharded online hash service",
    )
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument("--threads", type=int, default=4)
    serve.add_argument(
        "--keys", type=int, default=50_000, help="keys per thread"
    )
    serve.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="loop each thread's stream until this deadline",
    )
    serve.add_argument(
        "--drift",
        action="store_true",
        help="inject a mid-stream format change and run the reconciler",
    )
    serve.add_argument(
        "--drift-kind",
        choices=["widened_byte_class", "new_length"],
        default="widened_byte_class",
    )
    serve.add_argument("--reconcile-interval", type=float, default=0.1)
    serve.add_argument(
        "--assert-swaps",
        type=int,
        default=None,
        metavar="N",
        help="fail unless exactly N verified hot swaps occurred",
    )
    serve.add_argument(
        "--scaling",
        action="store_true",
        help="measure throughput across --shard-counts instead",
    )
    serve.add_argument(
        "--shard-counts", type=int, nargs="*", default=[1, 2, 4]
    )
    serve.add_argument("--repeats", type=int, default=3)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--report", default=None, help="write the JSON report here"
    )

    perfect = subparsers.add_parser(
        "perfect",
        help="synthesize + certify perfect hashes for closed key sets",
    )
    perfect.add_argument(
        "--builtin",
        nargs="*",
        metavar="NAME",
        help="built-in closed key sets to certify "
        "(c-keywords, http-methods, enum-codec, or 'all')",
    )
    perfect.add_argument(
        "--rq",
        nargs="*",
        metavar="NAME",
        help="closed samples of paper RQ key formats (SSN, MAC, ...)",
    )
    perfect.add_argument(
        "--count",
        type=int,
        default=1000,
        help="keys per --rq closed sample (default: 1000)",
    )
    perfect.add_argument("--seed", type=int, default=0)
    perfect.add_argument(
        "--keys-file",
        metavar="FILE",
        help="certify the newline-separated keys in FILE "
        "(padded to a common width)",
    )
    perfect.add_argument(
        "--json",
        action="store_true",
        help="also print the certificates as JSON",
    )
    perfect.add_argument(
        "--report",
        metavar="FILE",
        help="write the certificates as JSON to FILE",
    )
    perfect.add_argument(
        "--assert-certified",
        action="store_true",
        help="exit 1 if any requested key set is refused (CI gate)",
    )

    bench = subparsers.add_parser("bench", help="run a paper table")
    bench.add_argument(
        "table", type=int, choices=[1, 2, 3], nargs="?", default=None
    )
    bench.add_argument("--key-types", nargs="*", default=["SSN", "MAC"])
    bench.add_argument("--samples", type=int, default=2)
    bench.add_argument(
        "--keys",
        type=int,
        default=None,
        help="keys per type (default: 20000 for a table; with --compare, "
        "the ledger's recording size, 4000)",
    )
    bench.add_argument(
        "--compare",
        metavar="LEDGER",
        help="measure a smoke sample and verdict it against LEDGER "
        "(exit 1 on confirmed regressions)",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="with --compare, slowdown ratio that counts as a "
        "regression (default: 1.5)",
    )
    bench.add_argument(
        "--allow-cross-host",
        action="store_true",
        help="with --compare, compare across machine fingerprints "
        "at a loosened threshold instead of skipping",
    )

    full = subparsers.add_parser(
        "bench-full", help="regenerate every table and figure"
    )
    full.add_argument(
        "--scale", choices=["smoke", "reduced", "paper"], default="smoke"
    )
    full.add_argument("--out", default="benchmarks/out")

    return parser


def run(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "infer":
        return keybuilder.run(
            ([args.file] if args.file else [])
            + (["--show-pattern"] if args.show_pattern else [])
        )
    if args.command == "synth":
        argv_out = [args.regex, "--emit", args.emit, "--target", args.target]
        if args.family:
            argv_out += ["--family", args.family]
        return keysynth.run(argv_out)
    if args.command == "demo":
        return _run_demo(args)
    if args.command == "list-formats":
        return _run_list_formats()
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "analyze":
        return _run_analyze(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "perfect":
        return _run_perfect(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "bench-full":
        from repro.bench.full_run import run_all

        reports = run_all(
            scale=args.scale,
            out_dir=args.out,
            progress=lambda name: print(f"[done] {name}"),
        )
        print(f"wrote {len(reports)} reports to {args.out}/")
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
