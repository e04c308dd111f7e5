"""Tests for the content-addressed compile cache.

The headline property: a warm cache performs **zero** ``exec`` calls,
pinned through the ``codegen.python.exec_calls`` counter that
``compile_source`` bumps on every invocation.
"""

import dataclasses

import pytest

from repro.codegen import cache as cache_mod
from repro.codegen.batch import scalar_source
from repro.codegen.cache import (
    CompileCache,
    get_compile_cache,
    plan_fingerprint,
)
from repro.codegen.ir import build_ir, optimize
from repro.codegen.python_backend import (
    LOWERING_VERSION,
    compile_source,
    emit_python,
)
from repro.core.plan import HashFamily, LoadOp
from repro.core.synthesis import synthesize, synthesize_short_key
from repro.keygen.extended import EXTENDED_KEY_TYPES
from repro.keygen.keyspec import KEY_TYPES
from repro.obs import capture_spans
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.perfect import builtin_key_set, synthesize_perfect

SSN = KEY_TYPES["SSN"].regex
MAC = KEY_TYPES["MAC"].regex


def ssn_plan(family=HashFamily.PEXT):
    return synthesize(SSN, family).plan


SSN_PEXT_GATHER_FORM = (
    "def f(key, _ifb=int.from_bytes, _aes=_aesenc):\n"
    "    _w0 = _ifb(key[0:11], 'little')\n"
    "    return (_w0 & 0xf) | ((_w0 >> 4) & 0xf0) | ((_w0 >> 8) & 0xf00)"
    " | ((_w0 >> 12) & 0xf0000000000000) | ((_w0 >> 16) & 0xf00000000000000)"
    " | ((_w0 >> 20) & 0xf00000000000f000) | ((_w0 >> 24) & 0xf0000)"
    " | ((_w0 >> 36) & 0xf00000)\n"
)
"""The gather form of the SSN Pext plan, as lowering version 2 wrote it."""


class TestFingerprint:
    def test_same_plan_same_fingerprint(self):
        assert plan_fingerprint(ssn_plan()) == plan_fingerprint(ssn_plan())

    def test_equal_plans_built_independently_agree(self):
        first = synthesize(SSN, HashFamily.AES).plan
        second = synthesize(SSN, HashFamily.AES).plan
        assert plan_fingerprint(first) == plan_fingerprint(second)

    def test_family_perturbs_fingerprint(self):
        assert plan_fingerprint(ssn_plan(HashFamily.PEXT)) != plan_fingerprint(
            ssn_plan(HashFamily.NAIVE)
        )

    def test_mask_perturbs_fingerprint(self):
        plan = ssn_plan()
        load = plan.loads[0]
        flipped = dataclasses.replace(load, mask=load.mask ^ 0x100)
        perturbed = dataclasses.replace(
            plan, loads=(flipped,) + plan.loads[1:]
        )
        assert plan_fingerprint(plan) != plan_fingerprint(perturbed)

    def test_offset_perturbs_fingerprint(self):
        plan = ssn_plan()
        moved = dataclasses.replace(plan.loads[-1], offset=0)
        perturbed = dataclasses.replace(
            plan, loads=plan.loads[:-1] + (moved,)
        )
        assert plan_fingerprint(plan) != plan_fingerprint(perturbed)

    def test_regex_perturbs_fingerprint(self):
        plan = ssn_plan()
        perturbed = dataclasses.replace(plan, pattern_regex="changed")
        assert plan_fingerprint(plan) != plan_fingerprint(perturbed)

    def test_fingerprint_is_hex_sha256(self):
        fingerprint = plan_fingerprint(ssn_plan())
        assert len(fingerprint) == 64
        int(fingerprint, 16)


class TestCompileCache:
    def test_hit_returns_same_artifact(self):
        cache = CompileCache(registry=MetricsRegistry())
        plan = ssn_plan()
        first = cache.python(plan)
        second = cache.python(plan)
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_one_entry_serves_scalar_and_batch(self):
        cache = CompileCache(registry=MetricsRegistry())
        artifact = cache.python(ssn_plan())
        assert artifact.kind == "python"
        assert len(cache) == 1
        key = b"123-45-6789"
        assert artifact.function.many([key]) == [artifact.function(key)]

    def test_warm_hit_performs_zero_exec(self):
        registry = MetricsRegistry()
        cache = CompileCache(registry=registry)
        plan = ssn_plan()
        cache.python(plan)
        execs = get_registry().counter("codegen.python.exec_calls").value
        cache.python(plan)
        after = get_registry().counter("codegen.python.exec_calls").value
        assert after == execs

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2, registry=MetricsRegistry())
        plans = [
            synthesize(SSN, family).plan
            for family in (HashFamily.NAIVE, HashFamily.OFFXOR, HashFamily.AES)
        ]
        for plan in plans:
            cache.python(plan)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # The evicted (oldest) entry recompiles: a fresh miss.
        cache.python(plans[0])
        assert cache.stats()["misses"] == 4

    def test_clear_keeps_counter_totals(self):
        cache = CompileCache(registry=MetricsRegistry())
        cache.python(ssn_plan())
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 1

    def test_rejects_zero_maxsize(self):
        with pytest.raises(ValueError):
            CompileCache(maxsize=0)


class TestDiskTier:
    def test_source_persisted_and_reloaded(self, tmp_path):
        registry = MetricsRegistry()
        plan = ssn_plan()
        first = CompileCache(registry=registry, source_dir=tmp_path)
        artifact = first.python(plan)
        files = list(tmp_path.glob("*.py"))
        assert [path.name.split(".")[1] for path in files] == ["python"]
        assert files[0].read_text() == artifact.source
        # A fresh cache (new process, same dir) skips IR+emit.
        second = CompileCache(registry=registry, source_dir=tmp_path)
        reloaded = second.python(plan)
        assert reloaded.source == artifact.source
        assert second.stats()["disk_hits"] == 1
        key = b"123-45-6789"
        assert reloaded.function(key) == artifact.function(key)
        assert reloaded.function.many([key]) == [artifact.function(key)]

    def test_disk_file_named_by_fingerprint(self, tmp_path):
        plan = ssn_plan()
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        cache.python(plan, name="hm")
        expected = (
            tmp_path
            / f"{plan_fingerprint(plan)}.python.v{LOWERING_VERSION}.hm.py"
        )
        assert expected.exists()

    @pytest.mark.parametrize("kind", ["scalar", "batch", "python"])
    def test_source_of_another_lowering_version_is_re_emitted(
        self, tmp_path, kind
    ):
        """Source an older emitter persisted for the same plan is not
        exec'd: the file name carries the lowering version, so the cache
        misses the stale file and writes the current lowering beside it.
        Version 5 wrote separate ``scalar`` and ``batch`` files."""
        plan = ssn_plan()
        fingerprint = plan_fingerprint(plan)
        stale = tmp_path / f"{fingerprint}.{kind}.v{LOWERING_VERSION - 1}.f.py"
        stale.write_text("def f(key):\n    return 12345\n")
        legacy = tmp_path / f"{fingerprint}.{kind}.f.py"
        legacy.write_text("def f(key):\n    return 12345\n")
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        artifact = cache.python(plan, name="f")
        assert cache.stats()["disk_hits"] == 0
        assert "12345" not in artifact.source
        key = b"123-45-6789"
        expected = synthesize(SSN, HashFamily.PEXT)(key)
        assert artifact.function(key) == expected
        assert artifact.function.many([key]) == [expected]
        current = tmp_path / f"{fingerprint}.python.v{LOWERING_VERSION}.f.py"
        assert current.read_text() == artifact.source


    def test_gather_form_scalar_source_of_version_2_is_re_emitted(
        self, tmp_path
    ):
        """Version 2 persisted the gather form of a Pext plan.  It
        computes the same values as the byte-table form, so only the
        file name tells them apart: the cache re-emits, it does not
        exec the old source."""
        plan = ssn_plan()
        func = optimize(build_ir(plan, name="f"))
        fingerprint = plan_fingerprint(plan)
        (tmp_path / f"{fingerprint}.scalar.v2.f.py").write_text(
            SSN_PEXT_GATHER_FORM
        )
        stale = compile_source(SSN_PEXT_GATHER_FORM, "f")
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        artifact = cache.python(plan, name="f")
        assert cache.stats()["disk_hits"] == 0
        assert artifact.function(b"123-45-6789") == stale(b"123-45-6789")
        assert scalar_source(artifact.source) == emit_python(func)
        assert "except IndexError" in artifact.source
        current = (
            tmp_path / f"{fingerprint}.python.v{LOWERING_VERSION}.f.py"
        )
        assert current.read_text() == artifact.source


class TestNativeArtifactTag:
    """The persisted ``.so`` is named by everything its code depends on."""

    @staticmethod
    def _path(tmp_path, **overrides):
        from repro.codegen.native import Toolchain

        fields = dict(
            command="/usr/bin/c++",
            identity="c++ 12.2.0",
            flags=("-O2", "-fPIC", "-std=c++17", "-march=native"),
            features=frozenset({"aes", "pext"}),
            target="x86",
        )
        fields.update(overrides)
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        return cache._native_disk_path(
            "f" * 64, "sepe_native", Toolchain(**fields)
        )

    def test_same_toolchain_same_path(self, tmp_path):
        assert self._path(tmp_path) == self._path(tmp_path)

    def test_flags_perturb_path(self, tmp_path):
        assert self._path(tmp_path) != self._path(
            tmp_path, flags=("-O2", "-fPIC", "-std=c++17", "-mbmi2")
        )

    def test_features_perturb_path(self, tmp_path):
        assert self._path(tmp_path) != self._path(
            tmp_path, features=frozenset({"pext"})
        )

    def test_host_cpu_perturbs_march_native_path(
        self, tmp_path, monkeypatch
    ):
        from repro.codegen import native as native_mod

        explicit = ("-O2", "-fPIC", "-std=c++17", "-mbmi2", "-maes")
        monkeypatch.setattr(native_mod, "host_cpu_identity", lambda: "A")
        first = self._path(tmp_path)
        first_explicit = self._path(tmp_path, flags=explicit)
        monkeypatch.setattr(native_mod, "host_cpu_identity", lambda: "B")
        assert self._path(tmp_path) != first
        # Without -march=native the object does not depend on the CPU.
        assert self._path(tmp_path, flags=explicit) == first_explicit

    def test_unit_version_perturbs_path(self, tmp_path, monkeypatch):
        from repro.codegen import native as native_mod

        first = self._path(tmp_path)
        version = native_mod.NATIVE_UNIT_VERSION
        monkeypatch.setattr(native_mod, "NATIVE_UNIT_VERSION", version + 1)
        assert self._path(tmp_path) != first


class TestSynthesisIntegration:
    def test_warm_synthesis_performs_zero_exec(self):
        """The acceptance criterion: synthesizing an already-seen format
        again runs no ``exec`` at all — the callable comes straight from
        the process-wide cache."""
        exec_counter = get_registry().counter("codegen.python.exec_calls")
        synthesize(MAC, HashFamily.AES)  # ensure the entry exists
        before = exec_counter.value
        warm = synthesize(MAC, HashFamily.AES)
        assert exec_counter.value == before
        assert warm(b"12:34:56:78:9a:bc") == synthesize(
            MAC, HashFamily.AES
        )(b"12:34:56:78:9a:bc")

    def test_synthesis_uses_default_cache(self):
        cache = get_compile_cache()
        baseline = cache.stats()["hits"]
        synthesize(SSN, HashFamily.OFFXOR)
        synthesize(SSN, HashFamily.OFFXOR)
        assert cache.stats()["hits"] > baseline


def _one_exec_cases():
    """``(label, synthesize thunk)``: all four families, a
    variable-length plan, a short-key plan and a perfect plan."""
    cases = [
        (family.value, lambda family=family: synthesize(MAC, family))
        for family in HashFamily
    ]
    cases += [
        ("variable", lambda: synthesize(r"[0-9a-f]{8,23}", HashFamily.AES)),
        ("short_key", lambda: synthesize_short_key(r"\d{4}")),
        ("perfect", lambda: synthesize_perfect(builtin_key_set("http-methods"))),
    ]
    return cases


class TestOneExecPerPlan:
    """A plan lowers once: the scalar function, ``batch_function``,
    ``lane_function`` and ``hash_many`` all come from one ``exec``."""

    @staticmethod
    def _costs(thunk):
        """``(exec calls, codegen.ir spans)`` of synthesizing and then
        touching every Python entry of the result."""
        execs = get_registry().counter("codegen.python.exec_calls")
        before = execs.value
        with capture_spans() as sink:
            synthesized = thunk()
            synthesized.batch_function
            synthesized.lane_function
            length = synthesized.plan.key_length or 16
            keys = [
                bytes(48 + (i + j) % 10 for j in range(length))
                for i in range(20)
            ]
            assert synthesized.hash_many(keys) == list(map(synthesized, keys))
        lowerings = [r for r in sink.records() if r.name == "codegen.ir"]
        return execs.value - before, len(lowerings)

    @pytest.mark.parametrize(
        "label, thunk", _one_exec_cases(), ids=[c[0] for c in _one_exec_cases()]
    )
    def test_cold_plan_execs_once_and_warm_plan_never(
        self, monkeypatch, label, thunk
    ):
        monkeypatch.setattr(
            cache_mod, "_DEFAULT_CACHE", CompileCache(registry=MetricsRegistry())
        )
        assert self._costs(thunk) == (1, 1)
        assert self._costs(thunk) == (0, 0)


class TestScalarSourceUnchanged:
    """``python_source`` is the scalar function alone, exactly as
    :func:`emit_python` renders it, for every built-in plan (the 7-byte
    PLATE format through the short-key path)."""

    @pytest.mark.parametrize("family", list(HashFamily))
    @pytest.mark.parametrize(
        "key_type", sorted({**KEY_TYPES, **EXTENDED_KEY_TYPES})
    )
    def test_python_source_is_emit_python(self, key_type, family):
        spec = {**KEY_TYPES, **EXTENDED_KEY_TYPES}[key_type]
        synthesized = synthesize_short_key(spec.regex, family)
        func = optimize(build_ir(synthesized.plan, name=synthesized.name))
        assert synthesized.python_source == emit_python(func)
