"""Tests for the content-addressed compile cache.

The headline property: a warm cache performs **zero** ``exec`` calls,
pinned through the ``codegen.python.exec_calls`` counter that
``compile_source`` bumps on every invocation.
"""

import dataclasses

import pytest

from repro.codegen.cache import (
    CompileCache,
    get_compile_cache,
    plan_fingerprint,
)
from repro.codegen.python_backend import LOWERING_VERSION
from repro.core.plan import HashFamily, LoadOp
from repro.core.synthesis import synthesize
from repro.keygen.keyspec import KEY_TYPES
from repro.obs.metrics import MetricsRegistry, get_registry

SSN = KEY_TYPES["SSN"].regex
MAC = KEY_TYPES["MAC"].regex


def ssn_plan(family=HashFamily.PEXT):
    return synthesize(SSN, family).plan


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
        first = cache.scalar(plan)
        second = cache.scalar(plan)
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_scalar_and_batch_are_distinct_entries(self):
        cache = CompileCache(registry=MetricsRegistry())
        plan = ssn_plan()
        scalar = cache.scalar(plan)
        batch = cache.batch(plan)
        assert scalar is not batch
        assert len(cache) == 2
        key = b"123-45-6789"
        assert batch.function([key]) == [scalar.function(key)]

    def test_warm_hit_performs_zero_exec(self):
        registry = MetricsRegistry()
        cache = CompileCache(registry=registry)
        plan = ssn_plan()
        cache.scalar(plan)
        cache.batch(plan)
        execs = get_registry().counter("codegen.python.exec_calls").value
        cache.scalar(plan)
        cache.batch(plan)
        after = get_registry().counter("codegen.python.exec_calls").value
        assert after == execs

    def test_lru_eviction(self):
        cache = CompileCache(maxsize=2, registry=MetricsRegistry())
        plans = [
            synthesize(SSN, family).plan
            for family in (HashFamily.NAIVE, HashFamily.OFFXOR, HashFamily.AES)
        ]
        for plan in plans:
            cache.scalar(plan)
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1
        # The evicted (oldest) entry recompiles: a fresh miss.
        cache.scalar(plans[0])
        assert cache.stats()["misses"] == 4

    def test_clear_keeps_counter_totals(self):
        cache = CompileCache(registry=MetricsRegistry())
        cache.scalar(ssn_plan())
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
        artifact = first.scalar(plan)
        files = list(tmp_path.glob("*.scalar.*.py"))
        assert len(files) == 1
        assert files[0].read_text() == artifact.source
        # A fresh cache (new process, same dir) skips IR+emit.
        second = CompileCache(registry=registry, source_dir=tmp_path)
        reloaded = second.scalar(plan)
        assert reloaded.source == artifact.source
        assert second.stats()["disk_hits"] == 1
        assert reloaded.function(b"123-45-6789") == artifact.function(
            b"123-45-6789"
        )

    def test_disk_file_named_by_fingerprint(self, tmp_path):
        plan = ssn_plan()
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        cache.batch(plan, name="hm")
        expected = (
            tmp_path
            / f"{plan_fingerprint(plan)}.batch.v{LOWERING_VERSION}.hm.py"
        )
        assert expected.exists()

    @pytest.mark.parametrize("kind", ["scalar", "batch"])
    def test_source_of_another_lowering_version_is_re_emitted(
        self, tmp_path, kind
    ):
        """Source an older emitter persisted for the same plan is not
        exec'd: the file name carries the lowering version, so the cache
        misses the stale file and writes the current lowering beside it."""
        plan = ssn_plan()
        fingerprint = plan_fingerprint(plan)
        stale = tmp_path / f"{fingerprint}.{kind}.v{LOWERING_VERSION - 1}.f.py"
        stale.write_text("def f(key):\n    return 12345\n")
        legacy = tmp_path / f"{fingerprint}.{kind}.f.py"
        legacy.write_text("def f(key):\n    return 12345\n")
        cache = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        artifact = getattr(cache, kind)(plan, name="f")
        assert cache.stats()["disk_hits"] == 0
        assert "12345" not in artifact.source
        key = b"123-45-6789"
        value = artifact.function([key])[0] if kind == "batch" else (
            artifact.function(key)
        )
        assert value == synthesize(SSN, HashFamily.PEXT)(key)
        current = tmp_path / f"{fingerprint}.{kind}.v{LOWERING_VERSION}.f.py"
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
