"""Tests for the content-addressed compile cache.

The headline property: a warm cache performs **zero** ``exec`` calls,
pinned through the ``codegen.python.exec_calls`` counter that
``compile_source`` bumps on every invocation.
"""

import dataclasses

import pytest

from repro.codegen import cache as cache_mod
from repro.codegen.cache import (
    CompileCache,
    get_compile_cache,
    plan_fingerprint,
)
from repro.codegen.ir import build_ir, optimize
from repro.codegen.python_backend import emit_python
from repro.core.plan import HashFamily
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
