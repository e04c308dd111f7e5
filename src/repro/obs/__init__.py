"""``repro.obs``: tracing, metrics, and profiling hooks.

The measurement substrate for the reproduction: the paper's claims are
performance claims, so every future perf PR benchmarks against what
this package observes.

Five layers, all zero-dependency:

- **Tracing** (:mod:`repro.obs.trace`, :mod:`repro.obs.sinks`) —
  context-manager spans with wall/CPU timing and a thread-local span
  stack, emitted to pluggable sinks (ring buffer, JSON lines, log).
  Disabled by default; the disabled path is a shared no-op singleton.
- **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges, and
  fixed-bucket histograms cheap enough for hot paths, behind a
  get-or-create registry with a snapshot/export API.
- **Profiling** (:mod:`repro.obs.profile`) — per-stage wall/CPU
  attribution of the emitted batch code, plus span self-time trees;
  ``sepe profile`` prints the hot-opcode report.
- **Exporters** (:mod:`repro.obs.export`) — Prometheus text exposition
  (with a strict format checker), JSON-lines snapshots, and a
  stdlib-only ``/metrics`` HTTP endpoint (``sepe obs --serve``).
- **Instrumentation** — spans around every synthesis pipeline stage
  (inference, analysis, planning, both codegen backends, the IR
  interpreter), route/fallback counters in
  :class:`repro.core.dispatch.FormatDispatcher`, and opt-in container
  telemetry (chain lengths on insert, resize events) gated by
  :func:`enable_container_telemetry` so tier-1 performance is
  unaffected when off.

Quick capture::

    from repro import synthesize
    from repro.obs import capture_spans
    from repro.obs.report import render_span_tree

    with capture_spans() as sink:
        synthesize(r"\\d{3}-\\d{2}-\\d{4}")
    print(render_span_tree(sink.records()))

Or from the command line: ``sepe obs '\\d{3}-\\d{2}-\\d{4}'``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.export import (
    CONTENT_TYPE_PROMETHEUS,
    MetricsServer,
    PrometheusFormatError,
    parse_prometheus,
    render_prometheus,
    snapshot_jsonl,
    write_snapshot_jsonl,
)
from repro.obs.metrics import (
    NS_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
)
from repro.obs.profile import (
    OpcodeStat,
    ProfileReport,
    profile_format,
    profile_plan,
    render_profile,
    render_self_time_tree,
    self_time_tree,
    stage_self_times,
)
from repro.obs.report import render_metrics, render_span_tree, span_breakdown
from repro.obs.sinks import JsonLinesSink, LogSink, RingBufferSink, read_jsonl
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "CONTENT_TYPE_PROMETHEUS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesSink",
    "LogSink",
    "MetricsRegistry",
    "MetricsServer",
    "NS_LATENCY_BUCKETS",
    "OpcodeStat",
    "ProfileReport",
    "PrometheusFormatError",
    "RingBufferSink",
    "SpanRecord",
    "Tracer",
    "capture_spans",
    "container_telemetry_enabled",
    "disable_container_telemetry",
    "disable_tracing",
    "enable_container_telemetry",
    "enable_tracing",
    "exponential_buckets",
    "get_registry",
    "get_tracer",
    "parse_prometheus",
    "profile_format",
    "profile_plan",
    "read_jsonl",
    "render_metrics",
    "render_profile",
    "render_prometheus",
    "render_self_time_tree",
    "render_span_tree",
    "self_time_tree",
    "snapshot_jsonl",
    "span",
    "span_breakdown",
    "stage_self_times",
    "tracing_enabled",
    "write_snapshot_jsonl",
]


@contextmanager
def capture_spans(
    sink: Optional[RingBufferSink] = None,
) -> Iterator[RingBufferSink]:
    """Temporarily enable tracing into a ring buffer.

    Restores the tracer's previous enabled state and removes the sink
    on exit, so captures nest and leave no global residue::

        with capture_spans() as sink:
            synthesize(...)
        stages = {record.name for record in sink.records()}
    """
    buffer = sink if sink is not None else RingBufferSink()
    tracer = get_tracer()
    was_enabled = tracer.enabled
    tracer.add_sink(buffer)
    tracer.enable()
    try:
        yield buffer
    finally:
        tracer.remove_sink(buffer)
        if not was_enabled:
            tracer.disable()


_CONTAINER_TELEMETRY = False


def enable_container_telemetry() -> None:
    """Make newly-built containers record chain/resize telemetry.

    Only affects tables constructed *after* the call; existing tables
    keep whatever telemetry state they were built with.
    """
    global _CONTAINER_TELEMETRY
    _CONTAINER_TELEMETRY = True


def disable_container_telemetry() -> None:
    """Newly-built containers go back to the zero-overhead no-op path."""
    global _CONTAINER_TELEMETRY
    _CONTAINER_TELEMETRY = False


def container_telemetry_enabled() -> bool:
    """Whether new containers will be built with telemetry attached."""
    return _CONTAINER_TELEMETRY
