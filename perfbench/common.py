"""Shared pieces of the end-to-end benchmark.

Everything here lives outside the program under test: timing wrappers
placed around calls into a layer, the independent reference that hash
values are checked against, span and registry readers, and the run
result.  The benchmark adds no tracing to ``src/``.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.codegen import native
from repro.codegen.cache import get_compile_cache
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir
from repro.errors import NativeUnavailableError
from repro.hashes.murmur_stl import stl_hash_bytes
from repro.obs import get_registry
from repro.obs.trace import SpanRecord

WINDOW_OPS = 4096
"""Operations per timed window, and keys per dispatcher call."""

TRACED_PATTERN = (False, True, False, True)
"""Rounds of a traced run: untraced and traced alternate, so the
tracing overhead compares rounds taken under the same conditions."""

_perf = time.perf_counter_ns
_thread = time.thread_time_ns


class Unsupported(RuntimeError):
    """The host cannot run a workload as specified."""


# -- timing wrappers ---------------------------------------------------------


class LayerClock:
    """Wall and thread-CPU nanoseconds spent inside calls to one layer.

    Totals are kept per calling thread (each thread writes only its own
    slot), so a layer called from two producers reports each thread's
    share, and ``wall - cpu`` is the time that thread waited, mostly
    for the GIL.  Per-key callables are wrapped with ``cpu=False``: a
    thread-CPU clock read costs more than the call it would time.
    """

    def __init__(self, cpu: bool = True):
        self.cpu = cpu
        self.per_thread: Dict[int, List[int]] = {}

    def _slot(self) -> List[int]:
        ident = threading.get_ident()
        slot = self.per_thread.get(ident)
        if slot is None:
            slot = self.per_thread[ident] = [0, 0, 0, 0]
        return slot

    def wrap(self, function: Callable) -> Callable:
        """A drop-in for ``function`` that adds its calls to this clock.

        Work is counted as the length of the last argument (keys for a
        batch callable, values for a sink) and, with ``cpu=False``, as
        one item per call of a per-key callable.
        """
        slot_of = self._slot
        if not self.cpu:

            def timed_key(argument):
                wall0 = _perf()
                result = function(argument)
                wall = _perf() - wall0
                slot = slot_of()
                slot[0] += 1
                slot[1] += 1
                slot[2] += wall
                return result

            return timed_key

        def timed(*args):
            cpu0 = _thread()
            wall0 = _perf()
            result = function(*args)
            wall = _perf() - wall0
            cpu = _thread() - cpu0
            slot = slot_of()
            slot[0] += 1
            slot[1] += len(args[-1])
            slot[2] += wall
            slot[3] += cpu
            return result

        return timed

    def reset(self) -> None:
        self.per_thread = {}

    def thread_wall(self, ident: int) -> int:
        slot = self.per_thread.get(ident)
        return slot[2] if slot is not None else 0

    def _total(self, index: int) -> int:
        return sum(slot[index] for slot in list(self.per_thread.values()))

    @property
    def calls(self) -> int:
        return self._total(0)

    @property
    def items(self) -> int:
        return self._total(1)

    @property
    def wall_ns(self) -> int:
        return self._total(2)

    @property
    def cpu_ns(self) -> int:
        return self._total(3)


# -- host speed --------------------------------------------------------------

_CALIBRATION_KEYS = [index.to_bytes(8, "little") for index in range(2000)]
CALIBRATION_REPEATS = 4
REFERENCE_CALIBRATION_NS = 3_000_000
"""Thread-CPU nanoseconds the calibration takes at the reference host
speed, the speed every end-to-end timing is reported at."""


def _calibration_loop() -> int:
    """A fixed pure-Python loop of integer mixing, dict writes and reads.

    It calls nothing in the program under test, so no change to the
    program can move it.
    """
    table = {}
    mixed = 0
    for key in _CALIBRATION_KEYS:
        value = int.from_bytes(key, "little") * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
        table[key] = value
        mixed ^= value >> 7
    for key in _CALIBRATION_KEYS:
        mixed += table[key] & 0xFF
    return mixed


class HostSpeed:
    """Puts timings taken on a shared, unsteady host at one pinned speed.

    On a virtual machine whose processors other tenants share, the same
    work can take twice as long from one second to the next, each
    processor on its own, and the guest sees almost no steal time, only
    slower code.  A workload therefore times :func:`_calibration_loop`
    before and after every short block of measured work and multiplies
    the block's timings by :meth:`scale`.  The loop is timed in
    thread-CPU time, so a calibration that waits for the GIL does not
    read as a slow host.  A single caller calibrates on the processor
    it runs on; work spread over every processor (two producers)
    calibrates on each in turn (``every_cpu``).  A change to the program
    moves the measured work and not the loop, so it shows in full; the
    raw wall times are kept in the run notes.
    """

    def __init__(self, every_cpu: bool = False) -> None:
        self.calibrations: List[float] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if every_cpu else None

    def calibrate(self) -> None:
        """Time the loop on this thread's processor or, with
        ``every_cpu``, once pinned to each processor, and keep the mean."""
        if self.cpus is None:
            self.calibrations.append(self._time_loop())
            return
        try:
            times = []
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._time_loop())
        finally:
            os.sched_setaffinity(0, self.cpus)
        self.calibrations.append(sum(times) / len(times))

    @staticmethod
    def _time_loop() -> int:
        started = _thread()
        for _ in range(CALIBRATION_REPEATS):
            _calibration_loop()
        return _thread() - started

    def scale(self) -> float:
        """Factor from this host's speed to the reference speed, for the
        work done between the last two calibrations."""
        before, after = self.calibrations[-2:]
        return 2.0 * REFERENCE_CALIBRATION_NS / (before + after)


def per(numerator: float, denominator: float) -> float:
    """``numerator / denominator``; 0.0 for a layer that saw no work."""
    return numerator / denominator if denominator else 0.0


def cold_start() -> None:
    """Forget compiled artifacts and the toolchain probe, then collect.

    The compile cache is in-memory only (no disk tier), so clearing it
    makes the next set-up pay synthesis, the probe and every compile.
    """
    get_compile_cache().clear()
    native.reset_native_state()
    gc.collect()


def windows_of(items: Sequence, size: int = WINDOW_OPS) -> List[Sequence]:
    """``items`` in whole windows of ``size``; a partial tail is dropped
    so every timed window does the same amount of work."""
    starts = range(0, len(items) - size + 1, size)
    return [items[start : start + size] for start in starts]


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1]) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return float(ordered[max(math.ceil(share * len(ordered)), 1) - 1])


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the independent reference -----------------------------------------------


class Reference:
    """Hash values recomputed by the IR interpreter on the unoptimized IR.

    The interpreter shares no code with the generated Python, NumPy or
    native tiers beyond the plan, so it is the oracle for every value a
    workload checks.  A ``None`` plan stands for the STL murmur
    fallback, which serves keys no format owns.  Values are memoized
    per (plan, key): the interpreter is slow, and looped schedules
    repeat keys.
    """

    def __init__(self) -> None:
        self._functions: Dict[int, tuple] = {}
        self._values: Dict[tuple, int] = {}

    def value(self, plan, key: bytes) -> int:
        if plan is None:
            return stl_hash_bytes(key)
        memo = (id(plan), key)
        value = self._values.get(memo)
        if value is None:
            function = self._functions.get(id(plan))
            if function is None:
                # The plan stays referenced so its id cannot be reused.
                function = self._functions[id(plan)] = (plan, build_ir(plan))
            value = self._values[memo] = interpret(function[1], key)
        return value

    def mismatches(self, samples: Iterable[tuple]) -> int:
        """How many ``(plan, key, value)`` samples disagree with it."""
        return sum(
            1
            for plan, key, value in samples
            if int(value) != self.value(plan, key)
        )


# -- what the program already reports ----------------------------------------


class RegistryDelta:
    """Movement of the process metrics registry since construction."""

    def __init__(self) -> None:
        self._before = get_registry().snapshot()

    def counter(self, name: str) -> int:
        after = get_registry().snapshot()["counters"].get(name, 0)
        return after - self._before["counters"].get(name, 0)

    def histogram_sum(self, name: str) -> float:
        after = get_registry().snapshot()["histograms"].get(name)
        if after is None:
            return 0.0
        before = self._before["histograms"].get(name)
        return after["sum"] - (before["sum"] if before else 0.0)


def in_window(
    records: Iterable[SpanRecord], since: float, until: float
) -> List[SpanRecord]:
    """Spans that started inside ``[since, until)`` (perf_counter s)."""
    return [record for record in records if since <= record.started < until]


def span_ms(
    records: Iterable[SpanRecord], name: str, thread: Optional[str] = None
) -> float:
    """Total wall milliseconds of the spans called ``name``."""
    return 1e3 * sum(
        record.wall_seconds
        for record in records
        if record.name == name and (thread is None or record.thread == thread)
    )


def batch_compile_ms(records: Sequence[SpanRecord]) -> float:
    """Milliseconds spent lowering and compiling NumPy batch kernels.

    The compile cache lowers a kernel inside a ``codegen.ir`` span and
    compiles it in the ``codegen.python.compile`` span that follows on
    the same thread; batch kernels are the functions named ``*_many``.
    Records arrive in emission order, so the pairing is by thread.
    """
    total = 0.0
    last_ir: Dict[str, SpanRecord] = {}
    for record in records:
        if record.name == "codegen.ir":
            last_ir[record.thread] = record
        elif record.name == "codegen.python.compile":
            lowered = last_ir.pop(record.thread, record)
            if str(record.attributes.get("function", "")).endswith("_many"):
                total += record.started + record.wall_seconds - lowered.started
    return 1e3 * total


def setup_layers(
    records: Sequence[SpanRecord], delta: RegistryDelta
) -> Dict[str, float]:
    """Per-layer cost of one set-up, from its spans and registry delta."""
    return {
        "setup.codegen.native.probe.ms": span_ms(records, "codegen.native.probe"),
        "setup.codegen.native.compile_ms": delta.histogram_sum(
            "codegen.native.compile_ms"
        ),
        "setup.codegen.native.compiles": delta.counter("codegen.native.compiles"),
        "setup.codegen.batch.compile_ms": batch_compile_ms(records),
        "setup.core.synthesize.ms": span_ms(records, "synthesize"),
        "setup.core.infer.ms": span_ms(records, "inference.join"),
        "setup.perfect.synthesize.ms": span_ms(records, "perfect.synthesize"),
        "setup.codegen.cache.hits": delta.counter("codegen.cache.hits"),
        "setup.codegen.cache.misses": delta.counter("codegen.cache.misses"),
    }


# -- environment and result --------------------------------------------------


def fingerprint(settings: Dict[str, object]) -> Dict[str, object]:
    """Host, tool versions and the workload's pinned settings."""
    import numpy

    try:
        compiler = native.detect_toolchain().identity
    except NativeUnavailableError as exc:
        compiler = f"unavailable: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": compiler,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "settings": settings,
    }


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, tuple] = field(default_factory=dict)
    layers: List[Dict[str, float]] = field(default_factory=list)
    notes: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, count: int, reason: str) -> None:
        """Count ``count`` failed operations (wrong or missing results)."""
        if count:
            self.failed += count
            self.notes.setdefault("failures", []).append(f"{count}: {reason}")

    def result(self) -> Dict[str, object]:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def run_rounds(
    trace: bool,
    rounds: int,
    one_round: Callable[[int, bool], Dict[str, object]],
    outcome: Outcome,
) -> None:
    """Run a workload's rounds and put what they measured into ``outcome``.

    An untraced run makes ``rounds`` rounds and reports their medians; a
    traced run makes the rounds of :data:`TRACED_PATTERN`.

    ``one_round(index, traced)`` sets up from cold, measures and returns
    ``setup_s``, ``ns`` (its ``ns_per_op``), ``ns_b`` (its
    ``phase_b_ns_per_op``), ``windows`` (ns per timed window), ``layers``
    (per-layer values; read from traced rounds only) and ``spans``.  Any
    other key is kept in the run's notes.

    The inputs are built before this is called; they are frozen out of
    the collector's reach, so a full collection inside a timed window
    does not walk the whole schedule.
    """
    gc.collect()
    gc.freeze()
    pattern = TRACED_PATTERN if trace else (False,) * rounds
    results = [one_round(index, traced) for index, traced in enumerate(pattern)]
    bulky = ("windows", "layers", "spans")
    outcome.notes["rounds"] = [
        {key: value for key, value in r.items() if key not in bulky} for r in results
    ]
    if not trace:
        windows = [w for r in results for w in r["windows"]]
        outcome.notes["windows"] = len(windows)
        outcome.put("setup_s", median(r["setup_s"] for r in results), "s")
        outcome.put("ns_per_op", median(r["ns"] for r in results), "ns")
        outcome.put("call_p50_ms", percentile(windows, 0.50) / 1e6, "ms")
        outcome.put("call_p99_ms", percentile(windows, 0.99) / 1e6, "ms")
        outcome.put("phase_b_ns_per_op", median(r["ns_b"] for r in results), "ns")
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB")
        return
    traced = [r for r, is_traced in zip(results, pattern) if is_traced]
    plain = [r for r, is_traced in zip(results, pattern) if not is_traced]
    names = traced[0]["layers"].keys()
    outcome.layers.append({n: mean(r["layers"][n] for r in traced) for n in names})
    outcome.layers.append(
        {
            "trace.overhead_pct": 100.0
            * (median(r["ns"] for r in traced) / median(r["ns"] for r in plain) - 1.0)
        }
    )
    outcome.notes["spans"] = [s for r in traced for s in r["spans"]]


def write_json(path: str, payload: object) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
        handle.write("\n")
