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
  keyed by ``(fingerprint, function name, python|native)`` (the
  native kind has no name: its exports are named from the
  fingerprint) — a warm
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
  ``dlopen``).  A unit compiled for several plans is recorded under
  each member's entry.

The ``native`` kind delegates compilation to
:mod:`repro.codegen.native`.  :meth:`CompileCache.native_batch` compiles
every plan it misses as one unit (one compiler run, one load), and
:meth:`CompileCache.native` is its one-plan case.  It adds a *negative
cache*: a plan whose native compile failed once raises
:class:`~repro.errors.NativeUnavailableError` immediately on retry
instead of re-invoking the compiler for a known-bad unit; a unit that
fails is retried plan by plan, so the negative cache stays per plan.

Hit/miss/eviction counters live in :mod:`repro.obs.metrics` under
``codegen.cache.*`` and surface through ``sepe obs``; per-kind
breakdowns are tracked inside the cache and exposed via
:meth:`CompileCache.stats` under ``"kinds"``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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

    def native(self, plan: SynthesisPlan) -> CompiledArtifact:
        """The JIT-compiled native module for ``plan``: the one-plan case
        of :meth:`native_batch`.

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
        (result,) = self.native_batch([plan])
        if isinstance(result, NativeUnavailableError):
            raise result
        return result

    def native_batch(
        self, plans: Sequence[SynthesisPlan]
    ) -> List[Union[CompiledArtifact, NativeUnavailableError]]:
        """The native modules of ``plans``, every miss compiled as one
        unit.

        Returns one entry per plan, in order: its artifact, or the
        :class:`~repro.errors.NativeUnavailableError` that refused it.
        Memory hits, negative-cache hits and disk hits are served plan by
        plan as :meth:`native` serves them; the remaining plans are
        compiled into one unit (:func:`repro.codegen.native
        .compile_plans_native`), one compiler run and one load, and each
        plan's artifact is a view of that unit.  With a ``source_dir``
        the unit is recorded under every member's entry (a hard link, or
        a copy where linking fails), so a later lookup of any of them
        loads it without the compiler.  Failures stay per plan: a plan
        whose ISA features the probed toolchain lacks is negative-cached
        and the rest still compile together, and when the unit fails to
        compile each plan is retried alone, so only the plans that fail
        alone enter the negative cache.  A host without a toolchain
        refuses every plan and caches none of the refusals.
        """
        fingerprints = [plan_fingerprint(plan) for plan in plans]
        results: Dict[str, Union[CompiledArtifact, NativeUnavailableError]]
        results = {}
        misses: Dict[str, SynthesisPlan] = {}
        with self._lock:
            for fingerprint, plan in zip(fingerprints, plans):
                if fingerprint in results or fingerprint in misses:
                    continue
                key = (fingerprint, "", "native")
                artifact = self._entries.get(key)
                if artifact is not None:
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    self._kind_inc("native", "hits")
                    results[fingerprint] = artifact
                    continue
                reason = self._native_bad.get(fingerprint)
                if reason is not None:
                    self._kind_inc("native", "negative_hits")
                    results[fingerprint] = NativeUnavailableError(reason)
                    continue
                self._misses.inc()
                self._kind_inc("native", "misses")
                misses[fingerprint] = plan
            if misses:
                for fingerprint, result in self._native_misses(
                    misses
                ).items():
                    results[fingerprint] = result
                    if isinstance(result, CompiledArtifact):
                        self._store((fingerprint, "", "native"), result)
        return [results[fingerprint] for fingerprint in fingerprints]

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
            self._misses.inc()
            self._kind_inc(kind, "misses")
            artifact = self._compile_miss(plan, name, fingerprint)
            self._store(key, artifact)
            return artifact

    def _store(self, key: Tuple[str, str, str], artifact) -> None:
        """Enter ``artifact`` (lock held), evicting beyond the cap."""
        self._entries[key] = artifact
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)
            self._evictions.inc()

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

    def _native_misses(
        self, misses: Dict[str, SynthesisPlan]
    ) -> Dict[str, Union[CompiledArtifact, NativeUnavailableError]]:
        """Serve ``misses`` (fingerprint -> plan; lock held) from the
        disk tier where it holds them, and compile the rest as one
        unit."""
        # Imported lazily: the native tier pulls in ctypes/subprocess
        # machinery that pure-Python callers never need.
        from repro.codegen import native as native_mod

        results: Dict[str, Union[CompiledArtifact, NativeUnavailableError]]
        results = {}
        toolchain = None
        if self._source_dir is not None:
            # The persisted object's name needs the probed toolchain;
            # without a disk tier the compile runs beside the probe.
            try:
                toolchain = native_mod.detect_toolchain()
            except NativeUnavailableError as exc:
                return self._host_refused(misses, exc)
            misses = dict(misses)
            for fingerprint, plan in list(misses.items()):
                artifact = self._native_disk_hit(
                    fingerprint, plan, toolchain
                )
                if artifact is not None:
                    results[fingerprint] = artifact
                    del misses[fingerprint]
        if misses:
            results.update(self._native_compile(misses, toolchain))
        return results

    def _native_disk_hit(
        self, fingerprint: str, plan: SynthesisPlan, toolchain
    ) -> Optional[CompiledArtifact]:
        """The plan's view of a unit persisted under its entry, or None."""
        from repro.codegen import native as native_mod

        so_path = self._native_disk_path(fingerprint, toolchain)
        if not so_path.exists():
            return None
        try:
            module = native_mod.load_native_module(
                so_path, plan, compiler=toolchain.identity
            )
        except NativeUnavailableError:
            return None  # Stale/corrupt artifact: recompile.
        self._disk_hits.inc()
        self._kind_inc("native", "disk_hits")
        return CompiledArtifact(
            fingerprint=fingerprint,
            name=module.symbol,
            kind="native",
            source=self._read_native_source(so_path),
            function=module,
        )

    def _native_compile(
        self, misses: Dict[str, SynthesisPlan], toolchain
    ) -> Dict[str, Union[CompiledArtifact, NativeUnavailableError]]:
        """Compile ``misses`` as one unit.  Where the toolchain is
        probed already, the plans it cannot run are left out first; a
        refused unit goes to :meth:`_native_refused`."""
        from repro.codegen import native as native_mod

        known = toolchain or native_mod.probed_toolchain()
        if known is not None and len(misses) > 1 and any(
            not known.supports(native_mod.plan_isa_features(plan))
            for plan in misses.values()
        ):
            # Leave the plans the host cannot run out of the unit.
            return self._native_refused(misses, known, None)
        paths = (
            [
                self._native_disk_path(fingerprint, toolchain)
                for fingerprint in misses
            ]
            if self._source_dir is not None and toolchain is not None
            else [None]
        )
        plans = list(misses.values())
        try:
            try:
                modules, source = native_mod.compile_plans_native(
                    plans, toolchain=toolchain, out_path=paths[0]
                )
            except OSError:
                # Unwritable source_dir: retry into a private temp dir
                # so a broken disk tier cannot take the native tier down
                # with it.
                paths = [None]
                modules, source = native_mod.compile_plans_native(
                    plans, toolchain=toolchain, out_path=None
                )
        except NativeUnavailableError as exc:
            return self._native_refused(misses, toolchain, exc)
        for path in paths[1:]:
            _record_unit(paths[0], path)
        return {
            fingerprint: CompiledArtifact(
                fingerprint=fingerprint,
                name=module.symbol,
                kind="native",
                source=source,
                function=module,
            )
            for fingerprint, module in zip(misses, modules)
        }

    def _native_refused(
        self,
        misses: Dict[str, SynthesisPlan],
        toolchain,
        error: Optional[NativeUnavailableError],
    ) -> Dict[str, Union[CompiledArtifact, NativeUnavailableError]]:
        """Sort a refused unit's plans (``error`` None: not compiled yet,
        the plans ``toolchain`` cannot run are to be split off).

        No toolchain at all refuses every plan, uncached.  A plan whose
        ISA features the toolchain lacks, and a plan compiled alone that
        failed, enter the negative cache.  The other plans of a unit that
        failed are compiled again: together when only the plans the host
        cannot run were split off, else each alone.
        """
        from repro.codegen import native as native_mod

        if toolchain is None:
            try:
                # Probed by the failed compile: no second probe.
                toolchain = native_mod.detect_toolchain()
            except NativeUnavailableError as exc:
                return self._host_refused(misses, exc)
        if len(misses) == 1 and error is not None:
            ((fingerprint, _),) = misses.items()
            return {fingerprint: self._refuse(fingerprint, error)}
        results: Dict[
            str, Union[CompiledArtifact, NativeUnavailableError]
        ] = {}
        rest: Dict[str, SynthesisPlan] = {}
        for fingerprint, plan in misses.items():
            missing = native_mod.plan_isa_features(plan) - toolchain.features
            if missing:
                results[fingerprint] = self._refuse(
                    fingerprint,
                    NativeUnavailableError(
                        "host toolchain lacks required ISA features: "
                        + ", ".join(sorted(missing))
                    ),
                )
            else:
                rest[fingerprint] = plan
        if results and rest:
            results.update(self._native_compile(rest, toolchain))
        else:
            for fingerprint, plan in rest.items():
                results.update(
                    self._native_compile({fingerprint: plan}, toolchain)
                )
        return results

    def _refuse(
        self, fingerprint: str, error: NativeUnavailableError
    ) -> NativeUnavailableError:
        """Negative-cache a plan-level refusal: deterministic for this
        fingerprint on this host, so the compiler is not asked again."""
        self._native_bad[fingerprint] = str(error)
        self._native_failures.inc()
        self._kind_inc("native", "failures")
        return error

    def _host_refused(
        self, misses: Dict[str, SynthesisPlan], error: NativeUnavailableError
    ) -> Dict[str, NativeUnavailableError]:
        """Refuse every plan for a host-level cause: no (enabled)
        toolchain.  The probe result is already memoized module-wide in
        :mod:`repro.codegen.native`, and the condition can clear within
        one process (``SEPE_NATIVE`` flipped, probe refresh), so no
        plan's negative cache is poisoned over it."""
        refused = _ToolchainUnavailable(str(error))
        for _ in misses:
            self._kind_inc("native", "failures")
        return {fingerprint: refused for fingerprint in misses}

    def _native_disk_path(self, fingerprint: str, toolchain) -> Path:
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
        return self._source_dir / f"{fingerprint}.native.{tag}.so"

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


def _record_unit(unit: Path, entry: Path) -> None:
    """Record the shared object ``unit`` and its source under another
    member plan's disk entry ``entry``: a hard link, or a copy where
    linking fails.  Best-effort, like the rest of the disk tier."""
    for suffix in (".so", ".cpp"):
        source, target = unit.with_suffix(suffix), entry.with_suffix(suffix)
        try:
            target.unlink(missing_ok=True)
            try:
                os.link(source, target)
            except OSError:
                shutil.copyfile(source, target)
        except OSError:
            pass


_DEFAULT_CACHE = CompileCache()


def get_compile_cache() -> CompileCache:
    """The process-wide compile cache used by :func:`repro.core.synthesis
    .synthesize` and the dispatcher."""
    return _DEFAULT_CACHE
