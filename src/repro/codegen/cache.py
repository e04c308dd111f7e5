"""Content-addressed compile cache for synthesized hash functions.

Synthesis is deterministic in the plan: two plans with the same loads,
masks, skip table, combine op and flags lower to byte-identical source.
The dispatcher's common case — many services registering the same key
format — therefore re-runs ``build_ir → optimize → emit → exec`` for
work that has already been done.  This module memoizes that tail of the
pipeline behind a stable *plan fingerprint* (SHA-256 over a canonical
JSON rendering of every codegen-relevant plan field).

Two tiers:

- an in-memory LRU of :class:`CompiledArtifact` (source + callable),
  keyed by ``(fingerprint, function name, python|native)`` — a warm
  hit performs **zero** ``exec`` calls (pinned by
  ``tests.codegen.test_cache`` via the ``codegen.python.exec_calls``
  counter) and, for the native kind, zero compiler invocations.  The
  ``python`` kind is one module per plan: a cold miss lowers, emits
  and runs ``exec`` once, and the scalar function it returns carries the
  batch entry as ``.many`` (:func:`repro.codegen.batch
  .emit_python_module`);
- an optional on-disk tier (``source_dir``): generated Python source is
  persisted as one ``.py`` file per plan, named by fingerprint *and*
  lowering version (a process restart skips IR construction and
  emission, paying only the ``exec``; a newer emitter never loads an
  older one's source), and
  native shared objects as ``.so`` files tagged with the toolchain's
  artifact key — compiler, flags, features, JIT unit version and host
  CPU (a restart skips the C++ compiler entirely and goes straight to
  ``dlopen``).

The ``native`` kind delegates compilation to
:mod:`repro.codegen.native` and adds a *negative cache*: a plan whose
native compile failed once raises
:class:`~repro.errors.NativeUnavailableError` immediately on retry
instead of re-invoking the compiler for a known-bad unit.

Hit/miss/eviction counters live in :mod:`repro.obs.metrics` under
``codegen.cache.*`` and surface through ``sepe obs``; per-kind
breakdowns are tracked inside the cache and exposed via
:meth:`CompileCache.stats` under ``"kinds"``.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.codegen.batch import emit_python_module
from repro.codegen.ir import IRFunction, build_ir, optimize
from repro.codegen.python_backend import LOWERING_VERSION, compile_source
from repro.core.plan import SynthesisPlan
from repro.errors import NativeUnavailableError
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import span

__all__ = [
    "CompileCache",
    "CompiledArtifact",
    "get_compile_cache",
    "plan_fingerprint",
]


class _ToolchainUnavailable(NativeUnavailableError):
    """Host has no usable toolchain (as opposed to a plan that failed).

    Internal marker so :meth:`CompileCache._get` can tell transient,
    host-level unavailability (never negative-cached per plan) apart
    from deterministic plan-level failures (negative-cached)."""


def plan_fingerprint(plan: SynthesisPlan) -> str:
    """A stable content hash of everything codegen consumes from a plan.

    Plans with equal fingerprints lower to identical source; any
    perturbation of family, length, loads (offset/mask/shift/rotate/
    width), skip table, combine op, flags, or the format regex (which
    lands in the generated docstring) changes the fingerprint.
    """
    payload = {
        "family": plan.family.value,
        "key_length": plan.key_length,
        "loads": [
            [load.offset, load.mask, load.shift, load.rotate, load.width]
            for load in plan.loads
        ],
        "skip_table": (
            [plan.skip_table.initial_offset, list(plan.skip_table.skips)]
            if plan.skip_table is not None
            else None
        ),
        "combine": plan.combine.value,
        "regex": plan.pattern_regex,
        "short_key": plan.short_key,
        "final_mix": plan.final_mix,
    }
    if plan.perfect:
        # Included only when set so every pre-existing plan keeps its
        # fingerprint (and any on-disk cached artifact stays valid).
        payload["perfect"] = True
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CompiledArtifact:
    """One cached compilation: generated source plus the live callable.

    For the ``python`` kind, ``source`` is the plan's whole module and
    ``function`` its scalar function, with the batch entry as
    ``function.many``.  For the ``native`` kind, ``function`` is a
    :class:`repro.codegen.native.NativeModule` — callable for the
    scalar entry point, with ``.hash_many`` for the batched one — and
    ``source`` is the C++ translation unit (empty when the artifact was
    reloaded from a cached ``.so`` whose companion source is gone).
    ``ir`` is the optimized IR a ``python`` module was lowered from, or
    None when its source came from the on-disk tier.
    """

    fingerprint: str
    name: str
    kind: str  # "python" | "native"
    source: str
    function: Callable
    ir: Optional[IRFunction] = field(default=None, repr=False, compare=False)


class CompileCache:
    """LRU cache of compiled Python modules and native modules.

    Args:
        maxsize: in-memory entry cap; least-recently-used artifacts are
            evicted beyond it.
        registry: metrics registry for the hit/miss/eviction counters
            (the process-wide one by default, so ``sepe obs`` sees it).
        source_dir: when set, generated source is also persisted to
            ``<fingerprint>.python.v<version>.<name>.py`` files there
            (``version`` is
            :data:`~repro.codegen.python_backend.LOWERING_VERSION`) and
            reloaded on an in-memory miss, skipping IR construction and
            emission.
    """

    def __init__(
        self,
        maxsize: int = 256,
        registry: Optional[MetricsRegistry] = None,
        source_dir: Optional[Union[str, Path]] = None,
    ):
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self._maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[str, str, str], CompiledArtifact]"
        self._entries = OrderedDict()
        self._source_dir = Path(source_dir) if source_dir else None
        registry = registry if registry is not None else get_registry()
        self._hits = registry.counter("codegen.cache.hits")
        self._misses = registry.counter("codegen.cache.misses")
        self._disk_hits = registry.counter("codegen.cache.disk_hits")
        self._evictions = registry.counter("codegen.cache.evictions")
        self._native_failures = registry.counter(
            "codegen.cache.native_failures"
        )
        # Per-kind breakdown (python/native), kept as plain ints
        # under the cache lock; the registry counters above stay the
        # process-wide aggregates that tests and dashboards pin.
        self._kind_stats: Dict[str, Dict[str, int]] = {}
        # Negative cache: fingerprint -> failure reason.  A plan whose
        # native compile failed once should not re-invoke the compiler.
        self._native_bad: Dict[str, str] = {}

    # -- lookup ----------------------------------------------------------

    def python(
        self, plan: SynthesisPlan, name: str = "sepe_hash"
    ) -> CompiledArtifact:
        """The compiled Python module for ``plan``.

        The artifact's ``function`` is the scalar ``name(key) -> int``;
        ``function.many`` is the batch ``hash_many(keys) -> list[int]``,
        carrying the NumPy lane body as ``.lanes`` when the plan has
        one.  Both come from one lowering and one ``exec``.
        """
        return self._get(plan, name, "python")

    def native(
        self, plan: SynthesisPlan, name: str = "sepe_native"
    ) -> CompiledArtifact:
        """The JIT-compiled native module for ``plan``.

        The artifact's ``function`` is a
        :class:`repro.codegen.native.NativeModule`: call it for one key,
        use ``.hash_many`` for a batch.  With a ``source_dir``, the
        shared object is persisted and a later synthesis of the same
        plan (same compiler) dlopens it without invoking the compiler.

        Raises:
            NativeUnavailableError: no working toolchain, missing ISA
                feature, or a compile failure — including a failure
                remembered by the negative cache from an earlier call.
        """
        return self._get(plan, name, "native")

    def _kind_inc(self, kind: str, event: str) -> None:
        stats = self._kind_stats.setdefault(
            kind,
            {
                "hits": 0,
                "misses": 0,
                "disk_hits": 0,
                "failures": 0,
                "negative_hits": 0,
            },
        )
        stats[event] += 1

    def _get(
        self, plan: SynthesisPlan, name: str, kind: str
    ) -> CompiledArtifact:
        fingerprint = plan_fingerprint(plan)
        key = (fingerprint, name, kind)
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
                self._hits.inc()
                self._kind_inc(kind, "hits")
                return artifact
            if kind == "native":
                reason = self._native_bad.get(fingerprint)
                if reason is not None:
                    self._kind_inc(kind, "negative_hits")
                    raise NativeUnavailableError(reason)
            self._misses.inc()
            self._kind_inc(kind, "misses")
            if kind == "native":
                try:
                    artifact = self._native_miss(plan, name, fingerprint)
                except _ToolchainUnavailable:
                    # Host-level: no (enabled) toolchain at all.  The
                    # probe result is already memoized module-wide in
                    # repro.codegen.native, and the condition can clear
                    # within one process (SEPE_NATIVE flipped, probe
                    # refresh) — so do not poison this plan's negative
                    # cache over it.
                    self._kind_inc(kind, "failures")
                    raise
                except NativeUnavailableError as exc:
                    # Plan-level: missing ISA feature or a compile
                    # error.  Deterministic for this fingerprint on
                    # this host, so cache the refusal.
                    self._native_bad[fingerprint] = str(exc)
                    self._native_failures.inc()
                    self._kind_inc(kind, "failures")
                    raise
            else:
                artifact = self._compile_miss(plan, name, fingerprint)
            self._entries[key] = artifact
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions.inc()
            return artifact

    def _compile_miss(
        self, plan: SynthesisPlan, name: str, fingerprint: str
    ) -> CompiledArtifact:
        source = self._read_disk(fingerprint, name)
        func = None
        if source is not None:
            self._disk_hits.inc()
        else:
            with span("codegen.ir"):
                func = optimize(build_ir(plan, name=name))
            source = emit_python_module(func)
            self._write_disk(fingerprint, name, source)
        with span("codegen.python.compile", function=name):
            function = compile_source(source, name)
        return CompiledArtifact(
            fingerprint=fingerprint,
            name=name,
            kind="python",
            source=source,
            function=function,
            ir=func,
        )

    def _native_miss(
        self, plan: SynthesisPlan, name: str, fingerprint: str
    ) -> CompiledArtifact:
        # Imported lazily: the native tier pulls in ctypes/subprocess
        # machinery that pure-Python callers never need.
        from repro.codegen import native as native_mod

        toolchain = so_path = None
        if self._source_dir is not None:
            # The persisted object's name needs the probed toolchain;
            # without a disk tier the compile runs beside the probe.
            try:
                toolchain = native_mod.detect_toolchain()
            except NativeUnavailableError as exc:
                raise _ToolchainUnavailable(str(exc)) from exc
            so_path = self._native_disk_path(fingerprint, name, toolchain)
        if so_path is not None and so_path.exists():
            try:
                module = native_mod.load_native_module(
                    so_path,
                    symbol=name,
                    compiler=toolchain.identity,
                    key_length=plan.key_length,
                    min_length=native_mod.native_min_length(plan),
                )
            except NativeUnavailableError:
                pass  # Stale/corrupt artifact: recompile below.
            else:
                self._disk_hits.inc()
                self._kind_inc("native", "disk_hits")
                source = self._read_native_source(so_path)
                return CompiledArtifact(
                    fingerprint=fingerprint,
                    name=name,
                    kind="native",
                    source=source,
                    function=module,
                )
        try:
            module, source = native_mod.compile_plan_native(
                plan,
                toolchain=toolchain,
                out_path=so_path,
                symbol=name,
            )
        except OSError:
            # Unwritable source_dir: retry into a private temp dir so a
            # broken disk tier cannot take the native tier down with it.
            module, source = native_mod.compile_plan_native(
                plan, toolchain=toolchain, out_path=None, symbol=name
            )
        except NativeUnavailableError as exc:
            if toolchain is None and not native_mod.native_available():
                raise _ToolchainUnavailable(str(exc)) from exc
            raise
        return CompiledArtifact(
            fingerprint=fingerprint,
            name=name,
            kind="native",
            source=source,
            function=module,
        )

    def _native_disk_path(
        self, fingerprint: str, name: str, toolchain
    ) -> Path:
        """Toolchain-tagged ``.so`` path in the disk tier.

        The filename embeds a digest of
        :meth:`~repro.codegen.native.Toolchain.artifact_key`: compiler
        identity, flags, features, JIT unit version and, under
        ``-march=native``, the host CPU.  Shared objects from another
        toolchain, flag set or CPU never collide, so a cache dir shared
        between hosts recompiles instead of dlopening an object that
        may use instructions this CPU lacks.
        """
        tag = hashlib.sha256(
            toolchain.artifact_key().encode("utf-8")
        ).hexdigest()[:12]
        return self._source_dir / f"{fingerprint}.native.{name}.{tag}.so"

    @staticmethod
    def _read_native_source(so_path: Path) -> str:
        try:
            return so_path.with_suffix(".cpp").read_text(
                encoding="utf-8"
            )
        except OSError:
            return ""

    # -- on-disk source tier --------------------------------------------

    def _disk_path(self, fingerprint: str, name: str) -> Path:
        """``<fingerprint>.python.v<LOWERING_VERSION>.<name>.py``: the
        fingerprint names the plan, the version the emitter, so source
        persisted by an older lowering is re-emitted, never exec'd."""
        assert self._source_dir is not None
        return (
            self._source_dir
            / f"{fingerprint}.python.v{LOWERING_VERSION}.{name}.py"
        )

    def _read_disk(self, fingerprint: str, name: str) -> Optional[str]:
        if self._source_dir is None:
            return None
        path = self._disk_path(fingerprint, name)
        try:
            return path.read_text(encoding="utf-8")
        except OSError:
            return None

    def _write_disk(self, fingerprint: str, name: str, source: str) -> None:
        if self._source_dir is None:
            return
        try:
            self._source_dir.mkdir(parents=True, exist_ok=True)
            self._disk_path(fingerprint, name).write_text(
                source, encoding="utf-8"
            )
        except OSError:
            pass  # Disk tier is best-effort; memory tier already holds it.

    # -- maintenance -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every in-memory entry (counters keep their totals)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, object]:
        """Counter snapshot: process-wide aggregates plus per-kind.

        The flat keys (``hits``/``misses``/``disk_hits``/``evictions``)
        are the historical aggregates across every kind; ``kinds`` maps
        each kind ever requested (``python``/``native``) to
        its own ``hits``/``misses``/``disk_hits``/``failures``/
        ``negative_hits`` breakdown.  ``native_failures`` counts plans
        whose native compile failed and entered the negative cache.
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits.value,
                "misses": self._misses.value,
                "disk_hits": self._disk_hits.value,
                "evictions": self._evictions.value,
                "native_failures": self._native_failures.value,
                "kinds": {
                    kind: dict(stats)
                    for kind, stats in self._kind_stats.items()
                },
            }


_DEFAULT_CACHE = CompileCache()


def get_compile_cache() -> CompileCache:
    """The process-wide compile cache used by :func:`repro.core.synthesis
    .synthesize` and the dispatcher."""
    return _DEFAULT_CACHE
