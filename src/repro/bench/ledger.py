"""Bench regression ledger: the repo's one record of its speed claims.

The paper's own figures and tables are reproduced by ``benchmarks/``;
every other speed claim the repo makes is a ledger row.  This module
gives those figures one schema and a memory:

- **Entries** (:class:`LedgerEntry`) carry
  ``section/subject/variant/metric`` ids — e.g.
  ``batch/SSN/pext/scalar_ns_per_key``,
  ``serve/scaling/shards4/ns_per_key`` or
  ``perfect/ssn/gperf/lookup_ns_per_key`` — each with a headline value
  (ns/key, or ms for the ``*_ms`` rows; lower is better), the
  per-repeat samples, and the machine/python fingerprint context.
- **One collector** (:func:`collect_smoke_entries`) measures every row
  family — batch, native, serve, infer and perfect — in one call.
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
Record a smoke sample into the ledger (merged by row id) with
``python -m repro.bench.ledger --smoke``.
"""

from __future__ import annotations

import json
import platform
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.bench.metrics import mann_whitney_u
from repro.core.plan import HashFamily

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
    """One benchmarked figure.

    ``value`` is the headline number in ``unit`` (a lower-is-better
    ns/key or ms figure); ``samples`` holds per-repeat measurements,
    which is what makes noise-aware verdicts possible downstream.
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


SMOKE_KEYS_PER_TYPE = 4000
"""The ``keys_per_type`` the committed rows are recorded at.

The serve, infer and perfect rows have fixed sizes of their own (below);
a smoke run with fewer keys per type shrinks them in proportion, so a
tiny test run stays tiny, and a larger one never grows them.
"""

BATCH_FAMILIES = (
    HashFamily.NAIVE,
    HashFamily.OFFXOR,
    HashFamily.AES,
    HashFamily.PEXT,
)

SERVE_SHARD_COUNTS = (1, 2, 4)
SERVE_THREADS = 4
SERVE_KEYS_PER_THREAD = 20_000

SERVE_SETUP_FORMATS = ("SSN", "MAC", "URL1")
"""The routes of the ``serve/setup/cold_ms`` row: serve-stream's."""
SERVE_SETUP_SHARDS = 2

INFER_KEYS = 20_000
_HEX = b"0123456789abcdef"

RQ_PERFECT_SETS = ("SSN", "MAC")
"""Paper RQ formats sampled as closed sets, labelled lower-case."""

RQ_PERFECT_KEYS = 1000

DISPATCH_FORMATS = (
    ("SSN", HashFamily.PEXT),
    ("IPV6", HashFamily.AES),
    ("URL1", HashFamily.OFFXOR),
    ("INTS", HashFamily.NAIVE),
)
"""The ``dispatch/numpy/*`` formats: perfbench batch-dispatch's four."""

DISPATCH_BATCH_KEYS = 4096
DISPATCH_FALLBACK_SHARE = 0.01
DISPATCH_FALLBACK_LENGTH = 24
"""No dispatch format has this length, so these keys fall back."""


def collect_smoke_entries(
    key_types: Sequence[str] = ("SSN", "MAC"),
    families: Optional[Sequence[HashFamily]] = None,
    keys_per_type: int = SMOKE_KEYS_PER_TYPE,
    repeats: int = 5,
    seed: int = 0,
) -> List[LedgerEntry]:
    """Measure every ledger row family in one fresh smoke sample.

    Each row keeps its per-repeat samples, with the minimum as value:

    - ``batch/<type>/<family>/{scalar,batch}_ns_per_key``: scalar and
      batched H-Time per (key type, family); where the native tier is
      available also ``native_ns_per_key`` and ``native_compile_ms``,
      plus one ``native/probe_ms`` row for the toolchain probe.
    - ``serve/setup/cold_ms``: a cold ``HashService`` set-up with three
      Pext routes, native where a toolchain exists
      (:func:`_serve_setup_ms`).
    - ``serve/scaling/shards{1,2,4}/ns_per_key``: the serve replay
      (:func:`repro.serve.replay.measure_scaling`), 4 threads.
    - ``infer/{fixed,variable}/{reference,infer_pattern}/ns_per_key``:
      the reference quad join against
      :func:`repro.core.inference.infer_pattern` on a keybuilder-shaped
      corpus (:func:`_make_corpus`).
    - ``dispatch/numpy/{homogeneous,mixed}/ns_per_key`` and, where the
      native tier is available, ``dispatch/native/homogeneous/
      ns_per_key``: ``FormatDispatcher`` batches, the router's own cost
      included (see :func:`_dispatch_entries`).
    - ``perfect/<set>/<variant>/{h,lookup}_ns_per_key``: the certified
      perfect hash against mini-gperf, FNV-1a and the paper families on
      the built-in closed sets and the RQ ``ssn``/``mac`` samples, and
      ``perfect/<set>/synthesize_ms``, the perfect synthesis itself
      (see :func:`_perfect_entries`).

    ``repeats`` defaults to 5 because Mann–Whitney needs at least four
    observations per side before p can drop under 0.05; with fewer, the
    comparison silently degrades to ratio-only verdicts.

    Raises:
        PerfectSearchError: when a perfect key set is refused
            certification.
    """
    repeats = max(repeats, 1)
    shrink = min(1.0, keys_per_type / SMOKE_KEYS_PER_TYPE)

    def scaled(size: int) -> int:
        return max(1, int(size * shrink))

    entries = _batch_entries(
        key_types,
        BATCH_FAMILIES if families is None else families,
        keys_per_type,
        repeats,
        seed,
    )
    probe_ms = _probe_ms(repeats)
    if probe_ms:
        entries.append(_row("native/probe_ms", probe_ms, unit="ms"))
    entries.append(
        _row("serve/setup/cold_ms", _serve_setup_ms(repeats), unit="ms")
    )
    entries.extend(
        _serve_entries(scaled(SERVE_KEYS_PER_THREAD), repeats, seed)
    )
    entries.extend(_infer_entries(scaled(INFER_KEYS), repeats, seed))
    entries.extend(
        _dispatch_entries(scaled(DISPATCH_BATCH_KEYS), repeats, seed)
    )
    from repro.perfect import (
        BUILTIN_KEY_SET_NAMES,
        builtin_key_set,
        rq_closed_set,
    )

    for name in BUILTIN_KEY_SET_NAMES:
        entries.extend(
            _perfect_entries(name, builtin_key_set(name), repeats)
        )
    for name in RQ_PERFECT_SETS:
        keys = rq_closed_set(
            name, count=scaled(RQ_PERFECT_KEYS), seed=seed
        )
        entries.extend(_perfect_entries(name.lower(), keys, repeats))
    return entries


def _row(
    entry_id: str, samples: Sequence[float], unit: str = "ns_per_key"
) -> LedgerEntry:
    return LedgerEntry(
        id=entry_id,
        value=min(samples),
        unit=unit,
        samples=list(samples),
        repeats=len(samples),
        source="smoke",
    )


def _batch_entries(
    key_types: Sequence[str],
    families: Sequence[HashFamily],
    keys_per_type: int,
    repeats: int,
    seed: int,
) -> List[LedgerEntry]:
    """The ``batch/*`` rows: scalar, batched and native H-Time per cell."""
    from repro.bench.runner import measure_h_time, measure_h_time_batch
    from repro.codegen.native import compile_plan_native
    from repro.core.synthesis import synthesize
    from repro.keygen.distributions import Distribution
    from repro.keygen.generator import generate_keys
    from repro.keygen.keyspec import key_spec

    entries: List[LedgerEntry] = []
    for key_type in key_types:
        spec = key_spec(key_type)
        keys = generate_keys(
            spec.name, keys_per_type, Distribution.UNIFORM, seed=seed
        )
        scale = 1e9 / len(keys)
        for family in families:
            synthesized = synthesize(spec.regex, family)
            stem = f"batch/{spec.name}/{family.value}"
            entries.append(_row(f"{stem}/scalar_ns_per_key", [
                measure_h_time(synthesized.function, keys) * scale
                for _ in range(repeats)
            ]))
            entries.append(_row(f"{stem}/batch_ns_per_key", [
                measure_h_time_batch(synthesized.batch_function, keys)
                * scale
                for _ in range(repeats)
            ]))
            native_batch = synthesized.native_batch_function
            if native_batch is None:
                continue
            entries.append(_row(f"{stem}/native_ns_per_key", [
                measure_h_time_batch(native_batch, keys) * scale
                for _ in range(repeats)
            ]))
            # Each repeat compiles afresh, bypassing the compile cache:
            # the row gates what a new or swapped route pays.
            entries.append(_row(f"{stem}/native_compile_ms", [
                compile_plan_native(synthesized.plan)[0].compile_ms
                for _ in range(repeats)
            ], unit="ms"))
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


def _serve_setup_ms(repeats: int) -> List[float]:
    """Wall-clock ms of ``repeats`` cold native ``HashService`` set-ups.

    Each repeat clears the compile cache and forgets the probe
    (``reset_native_state()``), then builds a
    ``HashService(shards=2)``, registers the
    :data:`SERVE_SETUP_FORMATS` as Pext routes and goes live
    (``service.ready()``): synthesis, the probe and the one compile of
    every route's plan, as perfbench serve-stream's set-up pays them.
    On a host without a toolchain the routes degrade, and the row times
    that set-up instead (the fingerprint's ``native_compiler`` tells the
    two apart).
    """
    import gc

    from repro.codegen.cache import get_compile_cache
    from repro.codegen.native import reset_native_state
    from repro.keygen.keyspec import key_spec
    from repro.serve.service import HashService

    samples: List[float] = []
    for _ in range(repeats):
        get_compile_cache().clear()
        reset_native_state()
        gc.collect()
        started = time.perf_counter()
        service = HashService(
            shards=SERVE_SETUP_SHARDS,
            family=HashFamily.PEXT,
            prefer_native=True,
        )
        for name in SERVE_SETUP_FORMATS:
            service.register(key_spec(name).regex, label=name)
        service.ready()
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


def _serve_entries(
    keys_per_thread: int, repeats: int, seed: int
) -> List[LedgerEntry]:
    """The ``serve/scaling/shards{N}/ns_per_key`` rows (Pext routes)."""
    from repro.serve.replay import ReplayConfig, measure_scaling

    config = ReplayConfig(
        threads=SERVE_THREADS,
        keys_per_thread=keys_per_thread,
        family=HashFamily.PEXT,
        seed=seed,
    )
    return [
        _row(
            f"serve/scaling/shards{row['shards']}/ns_per_key",
            row["samples_ns_per_key"],
        )
        for row in measure_scaling(
            config, shard_counts=SERVE_SHARD_COUNTS, repeats=repeats
        )
    ]


def _dispatch_entries(
    batch_keys: int, repeats: int, seed: int
) -> List[LedgerEntry]:
    """The ``dispatch/*`` rows: ``FormatDispatcher`` on whole batches.

    ``numpy`` rows pin ``prefer_native=False`` over
    :data:`DISPATCH_FORMATS`: ``homogeneous`` hashes one batch per
    format through ``hash_many``, ``mixed`` one batch of all four plus
    :data:`DISPATCH_FALLBACK_SHARE` keys no format owns.  The ``native``
    row hashes one SSN batch through a Pext route's native tier with
    ``hash_many_array``.  A warm-up call per batch precedes each row, so
    the key scan unit's first-call compile is not measured.
    """
    from repro.bench.runner import measure_h_time_batch
    from repro.core.dispatch import FormatDispatcher
    from repro.keygen.distributions import Distribution
    from repro.keygen.generator import generate_keys
    from repro.keygen.keyspec import key_spec

    rng = random.Random(seed)

    def keys(name: str) -> List[bytes]:
        return generate_keys(
            name, batch_keys, Distribution.UNIFORM,
            seed=rng.randrange(1 << 30),
        )

    def ns_per_key(hash_batch, batches) -> List[float]:
        for batch in batches:
            hash_batch(batch)
        total = sum(len(batch) for batch in batches)
        return [
            sum(measure_h_time_batch(hash_batch, batch) for batch in batches)
            * 1e9 / total
            for _ in range(repeats)
        ]

    dispatcher = FormatDispatcher(prefer_native=False)
    for name, family in DISPATCH_FORMATS:
        dispatcher.register(key_spec(name).regex, family)
    homogeneous = [keys(name) for name, _family in DISPATCH_FORMATS]
    pools = [iter(batch) for batch in homogeneous]
    mixed: List[bytes] = []
    alphabet = b"0123456789abcdefghijklmnopqrstuvwxyz"
    while len(mixed) < batch_keys:
        if rng.random() < DISPATCH_FALLBACK_SHARE:
            mixed.append(bytes(rng.choices(
                alphabet, k=DISPATCH_FALLBACK_LENGTH
            )))
        else:
            mixed.append(next(rng.choice(pools)))
    entries = [
        _row("dispatch/numpy/homogeneous/ns_per_key",
             ns_per_key(dispatcher.hash_many, homogeneous)),
        _row("dispatch/numpy/mixed/ns_per_key",
             ns_per_key(dispatcher.hash_many, [mixed])),
    ]
    native = FormatDispatcher(prefer_native=True)
    synthesized = native.register(key_spec("SSN").regex, HashFamily.PEXT)
    if synthesized.native_module is not None:
        entries.append(_row(
            "dispatch/native/homogeneous/ns_per_key",
            ns_per_key(native.hash_many_array, [keys("SSN")]),
        ))
    return entries


def _make_corpus(
    num_keys: int, seed: int, variable: bool = False
) -> List[bytes]:
    """A deterministic keybuilder corpus with real constant structure.

    16-byte keys carry a constant ``id-`` prefix and a constant ``:``
    separator around 12 hex payload bytes, so the join produces a mix
    of concrete and ⊤ quads — the shape the fold must handle, not a
    degenerate all-⊤ corpus.  ``variable=True`` trims up to 4 trailing
    bytes per key to exercise the ⊤-padded variable-length path.
    """
    rng = random.Random(seed)
    keys = []
    for _ in range(num_keys):
        payload = bytes(rng.choice(_HEX) for _ in range(12))
        key = b"id-" + payload[:6] + b":" + payload[6:]
        if variable:
            key = key[: len(key) - rng.randint(0, 4)]
        keys.append(key)
    return keys


def _infer_entries(
    num_keys: int, repeats: int, seed: int
) -> List[LedgerEntry]:
    """The ``infer/*`` rows: reference join vs ``infer_pattern``.

    The fixed corpus exercises the column reduction, the variable one
    the ⊤-padded fold; that both engines agree is the ``infer-engines``
    fuzz oracle's job, not this timing's.
    """
    from repro.core.inference import infer_pattern
    from repro.core.quads import join_keys

    entries: List[LedgerEntry] = []
    for name, keys in (
        ("fixed", _make_corpus(num_keys, seed=seed)),
        (
            "variable",
            _make_corpus(num_keys, seed=seed + 1, variable=True),
        ),
    ):
        scale = 1e9 / len(keys)
        for engine, run in (
            ("reference", join_keys),
            ("infer_pattern", infer_pattern),
        ):
            samples = []
            for _ in range(repeats):
                started = time.perf_counter()
                run(keys)
                samples.append((time.perf_counter() - started) * scale)
            entries.append(
                _row(f"infer/{name}/{engine}/ns_per_key", samples)
            )
    return entries


def _perfect_entries(
    label: str, keys: Sequence[bytes], repeats: int
) -> List[LedgerEntry]:
    """The ``perfect/<label>/*`` rows for one closed key set.

    ``perfect/<label>/synthesize_ms`` times
    :func:`repro.perfect.synthesize_perfect` on the set (search, packing,
    certification; the compile cache is warm after the first repeat).
    Every variant is raced on the same keys, with H-Time (scalar hash
    loop) and lookup time (``UnorderedSet.find`` over every key of a
    pre-built table) per key:

    - ``perfect``: the certified plan of
      :func:`repro.perfect.synthesize_perfect`, looked up on the
      ``perfect=True`` fast path (one key comparison at the first hash
      match, no chain walk);
    - ``perfect-probe``: the same hash in an ordinary table, lookup
      only, so the pair prices what ``assume_perfect`` saves;
    - ``gperf``: the mini-gperf baseline trained on the same set;
    - ``fnv``: FNV-1a;
    - ``naive``/``offxor``/``aes``/``pext``: the paper families for the
      set's inferred format (a family that refuses it is left out).

    Raises:
        PerfectSearchError: when the set is refused certification.
    """
    from repro.bench.runner import measure_h_time
    from repro.containers import UnorderedSet
    from repro.core.inference import infer_pattern
    from repro.core.synthesis import synthesize
    from repro.errors import SepeError
    from repro.hashes.fnv import fnv1a_64
    from repro.hashes.gperf import generate as gperf_generate
    from repro.perfect import synthesize_perfect

    keys = list(keys)
    scale = 1e9 / len(keys)
    synthesize_ms = []
    for _ in range(repeats):
        started = time.perf_counter()
        synthesized = synthesize_perfect(keys)
        synthesize_ms.append((time.perf_counter() - started) * 1e3)
    perfect = synthesized.container_function
    variants = [
        ("perfect", perfect, True),
        ("perfect-probe", perfect, False),
        ("gperf", gperf_generate(keys), False),
        ("fnv", fnv1a_64, False),
    ]
    pattern = infer_pattern(keys)
    for family in HashFamily:
        try:
            synthesized = synthesize(pattern, family)
        except SepeError:
            continue  # family refuses this format (e.g. AES width rules)
        variants.append((family.value, synthesized.function, False))
    entries = [
        _row(f"perfect/{label}/synthesize_ms", synthesize_ms, unit="ms")
    ]
    for variant, function, fast_path in variants:
        stem = f"perfect/{label}/{variant}"
        if variant != "perfect-probe":  # same H-Time as "perfect"
            entries.append(_row(f"{stem}/h_ns_per_key", [
                measure_h_time(function, keys) * scale
                for _ in range(repeats)
            ]))
        table = UnorderedSet(function, perfect=fast_path)
        table.insert_many(keys)
        find = table.find
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            for key in keys:
                find(key)
            samples.append((time.perf_counter() - started) * scale)
        entries.append(_row(f"{stem}/lookup_ns_per_key", samples))
    return entries


def perfect_beats_gperf(entries: Sequence[LedgerEntry]) -> List[str]:
    """RQ sets whose certified lookup row beats the mini-gperf row.

    The perfect tier's headline claim holds when this is non-empty; the
    CI ``perfect-gate`` fails otherwise.
    """
    values = {entry.id: entry.value for entry in entries}
    winners = []
    for label in (name.lower() for name in RQ_PERFECT_SETS):
        ours = values.get(f"perfect/{label}/perfect/lookup_ns_per_key")
        theirs = values.get(f"perfect/{label}/gperf/lookup_ns_per_key")
        if ours is not None and theirs is not None and ours < theirs:
            winners.append(label)
    return winners


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
    """Record a smoke sample: ``python -m repro.bench.ledger --smoke``."""
    import argparse
    import sys

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.ledger",
        description="measure the smoke sample into the regression ledger",
    )
    parser.add_argument(
        "--out", default="BENCH_LEDGER.json", help="ledger file to update"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="measure the smoke sample (every row family, with "
        "per-repeat samples)",
    )
    parser.add_argument("--keys", type=int, default=SMOKE_KEYS_PER_TYPE)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--key-types", nargs="*", default=["SSN", "MAC"]
    )
    parser.add_argument("--note", default="")
    args = parser.parse_args(argv)

    if not args.smoke:
        print("error: nothing to record (pass --smoke)", file=sys.stderr)
        return 2
    entries = collect_smoke_entries(
        key_types=args.key_types,
        keys_per_type=args.keys,
        repeats=args.repeats,
        seed=args.seed,
    )
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
