"""One native unit for several plans, and the service that goes live on it.

A ``HashService`` compiles every route registered before it goes live
as one unit: one compiler run, one load, one view per plan.  These tests
hold that unit to the interpreter for plans of every family in one
unit, keep its failures per plan in the compile cache, read the unit
back from the disk tier without the compiler, and check the service's
go-live: one compile for all its routes, the native states installed
before ``start()`` returns, and no compiler at all under
``SEPE_NATIVE=0``.
"""

import dataclasses
import os
import random
import sys

import pytest

from repro.codegen import native as native_mod
from repro.codegen.cache import CompileCache
from repro.codegen.cpp_backend import emit_cpp_native, native_symbol
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import synthesize
from repro.core.validate import sample_conforming_keys
from repro.errors import NativeUnavailableError
from repro.keygen.keyspec import key_spec
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.serve import HashService

SSN = key_spec("SSN").regex
MAC = key_spec("MAC").regex
URL1 = key_spec("URL1").regex
SKIP_TABLE = r"[a-f0-9]{12}:[a-f0-9]{4,12}"
TAIL_XOR = r"\d{8,24}"

pytestmark = pytest.mark.native

requires_compiler = pytest.mark.skipif(
    not native_mod.native_available(),
    reason="no working C++ toolchain on this host",
)


def _count(name):
    return get_registry().counter(f"codegen.native.{name}").value


def _runnable(plans):
    toolchain = native_mod.detect_toolchain()
    return [
        plan
        for plan in plans
        if toolchain.supports(native_mod.plan_isa_features(plan))
    ]


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty compile cache behind synthesis, the native tier on."""
    import repro.core.synthesis as synthesis_mod

    monkeypatch.delenv("SEPE_NATIVE", raising=False)
    fresh = CompileCache(registry=MetricsRegistry())
    monkeypatch.setattr(synthesis_mod, "get_compile_cache", lambda: fresh)
    return fresh


# -- the emitted unit ---------------------------------------------------------


def test_unit_emits_each_plan_once_in_its_own_namespace():
    ssn = synthesize(SSN, HashFamily.PEXT).plan
    mac = synthesize(MAC, HashFamily.AES).plan
    source = emit_cpp_native([ssn, mac, ssn])
    assert source.count("typedef __UINT64_TYPE__ uint64_t;") == 1
    assert source.count("static inline uint64_t sepe_load_u64_le(") == 1
    for plan in (ssn, mac):
        symbol = native_symbol(plan)
        assert source.count(f"namespace {symbol} {{") == 1
        assert source.count(f'extern "C" uint64_t {symbol}_hash(') == 1
    # The prelude carries the helpers of both plans' features.
    assert "__builtin_ia32_pext_di" in source
    assert "__builtin_ia32_aesenc128" in source
    assert native_symbol(ssn) != native_symbol(mac)
    with pytest.raises(ValueError):
        emit_cpp_native([])


# -- one unit, every family ---------------------------------------------------


def _keys_for(regex, seed):
    """Conforming keys, every prefix of the first one down to ``b""``,
    and keys wider than the format."""
    conforming = sample_conforming_keys(
        pattern_from_regex(regex), 12, rng=random.Random(seed)
    )
    short = [conforming[0][:cut] for cut in range(len(conforming[0]))]
    wide = [key + b"~" * 9 for key in conforming[:3]]
    return conforming + short + wide


@requires_compiler
def test_one_unit_of_every_family_matches_the_interpreter():
    """Plans of all four families, fixed-length and variable-length, in
    one unit: every view equals the interpreter on ``bytes``,
    ``bytearray``, ``memoryview`` and ``str`` keys, on short prefixes
    down to ``b""``, and on empty and one-key batches."""
    numpy = pytest.importorskip("numpy")
    cases = [
        (regex, synthesize(regex, family).plan)
        for family in HashFamily
        for regex in (
            SSN,
            TAIL_XOR if family is HashFamily.AES else SKIP_TABLE,
        )
    ]
    runnable = _runnable([plan for _, plan in cases])
    cases = [(regex, plan) for regex, plan in cases if plan in runnable]
    assert {plan.family for _, plan in cases} >= {
        HashFamily.NAIVE,
        HashFamily.OFFXOR,
    }
    assert any(not plan.is_fixed_length for _, plan in cases)
    compiles = _count("compiles")
    modules, source = native_mod.compile_plans_native(
        [plan for _, plan in cases]
    )
    assert _count("compiles") == compiles + 1
    assert len({module.path for module in modules}) == 1
    assert sum(
        line.startswith("namespace sepe_") for line in source.splitlines()
    ) == len(cases)
    for index, ((regex, plan), module) in enumerate(zip(cases, modules)):
        func = optimize(build_ir(plan, name="f"))
        keys = _keys_for(regex, seed=index)
        batches = [
            [],
            keys[:1],
            [b""],
            keys,
            [bytearray(key) for key in keys],
            [memoryview(key) for key in keys],
            [key.decode("latin-1") for key in keys],
        ]
        for batch in batches:
            expected = [
                interpret(
                    func,
                    key.encode("utf-8") if isinstance(key, str)
                    else bytes(key),
                )
                for key in batch
            ]
            assert module.hash_many(batch) == expected, (plan.family, batch)
            assert [module(key) for key in batch] == expected
            values = module.hash_many_array(batch)
            assert values.dtype == numpy.uint64
            assert values.tolist() == expected


# -- the compile cache's batch lookup ----------------------------------------


def _poison(monkeypatch, plan):
    """Make any unit holding ``plan`` fail to compile."""
    real_emit = native_mod.emit_cpp_native
    symbol = native_symbol(plan)

    def emit(plans, target="x86"):
        return real_emit(plans, target).replace(
            f"namespace {symbol} {{",
            f"namespace {symbol} {{\n#error poisoned plan",
        )

    monkeypatch.setattr(native_mod, "emit_cpp_native", emit)


@requires_compiler
def test_one_failing_plan_leaves_the_others_native(monkeypatch):
    """The unit fails, each plan is retried alone, and only the plan
    that fails alone is negative-cached and counted."""
    ssn = synthesize(SSN, HashFamily.OFFXOR).plan
    mac = synthesize(MAC, HashFamily.NAIVE).plan
    url = synthesize(URL1, HashFamily.OFFXOR).plan
    _poison(monkeypatch, mac)
    cache = CompileCache(registry=MetricsRegistry())
    failures = cache.stats()["native_failures"]
    compiles = _count("compiles")
    results = cache.native_batch([ssn, mac, url])
    assert isinstance(results[1], NativeUnavailableError)
    assert "poisoned" in str(results[1])
    for regex, artifact, key in (
        (SSN, results[0], b"123-45-6789"),
        (URL1, results[2], b"https://example.com/" + b"a" * 28),
    ):
        synthesized = synthesize(regex, HashFamily.OFFXOR)
        assert artifact.function.symbol == native_symbol(synthesized.plan)
        assert artifact.function(key) == synthesized.function(key)
    assert _count("compiles") == compiles + 2  # ssn and url, alone
    stats = cache.stats()
    assert stats["native_failures"] == failures + 1
    assert stats["kinds"]["native"]["failures"] == 1
    assert stats["kinds"]["native"]["misses"] == 3
    # The refusal is remembered: no compiler for it again.
    with pytest.raises(NativeUnavailableError):
        cache.native(mac)
    assert cache.stats()["kinds"]["native"]["negative_hits"] == 1
    assert _count("compiles") == compiles + 2


@requires_compiler
def test_plan_the_host_cannot_run_is_split_off(monkeypatch):
    """A plan needing a feature the probed toolchain lacks is
    negative-cached without a compile, and the rest still compile
    together."""
    real = native_mod.detect_toolchain()
    lacking = dataclasses.replace(
        real, features=real.features - {"aes"}
    )
    monkeypatch.setattr(native_mod, "probed_toolchain", lambda: lacking)
    monkeypatch.setattr(
        native_mod, "detect_toolchain", lambda refresh=False: lacking
    )
    aes = synthesize(MAC, HashFamily.AES).plan
    ssn = synthesize(SSN, HashFamily.OFFXOR).plan
    url = synthesize(URL1, HashFamily.NAIVE).plan
    cache = CompileCache(registry=MetricsRegistry())
    compiles = _count("compiles")
    results = cache.native_batch([ssn, aes, url])
    assert _count("compiles") == compiles + 1
    assert isinstance(results[1], NativeUnavailableError)
    assert "lacks required ISA features: aes" in str(results[1])
    assert results[0].function.path == results[2].function.path
    assert cache.stats()["kinds"]["native"]["failures"] == 1


@requires_compiler
def test_disk_tier_records_the_unit_under_every_member(
    tmp_path, monkeypatch
):
    plans = [
        synthesize(SSN, HashFamily.OFFXOR).plan,
        synthesize(MAC, HashFamily.NAIVE).plan,
        synthesize(SKIP_TABLE, HashFamily.OFFXOR).plan,
    ]
    keys = [b"123-45-6789", b"01:23:45:67:89:ab", b"0123456789ab:cdef01"]
    first = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
    compiles = _count("compiles")
    expected = [
        artifact.function(key)
        for artifact, key in zip(first.native_batch(plans), keys)
    ]
    assert _count("compiles") == compiles + 1
    units = sorted(tmp_path.glob("*.native.*.so"))
    assert len(units) == len(plans)
    assert len({os.stat(path).st_ino for path in units}) == 1 or all(
        path.read_bytes() == units[0].read_bytes() for path in units
    )

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("a warm disk tier invoked the compiler")

    monkeypatch.setattr(native_mod, "compile_shared_object", boom)
    for index, plan in enumerate(plans):
        # Each member's entry serves it, also in a cache of its own.
        warm = CompileCache(registry=MetricsRegistry(), source_dir=tmp_path)
        artifact = warm.native(plan)
        assert artifact.function(keys[index]) == expected[index]
        assert artifact.function.compile_ms == 0.0
        assert warm.stats()["kinds"]["native"]["disk_hits"] == 1


# -- the service goes live ----------------------------------------------------


@requires_compiler
def test_go_live_compiles_every_queued_route_once(fresh_cache):
    registry = MetricsRegistry()
    svc = HashService(shards=2, family=HashFamily.OFFXOR, registry=registry)
    compiles = _count("compiles")
    states = [
        svc.register(regex, label=name)
        for name, regex in (("SSN", SSN), ("MAC", MAC), ("URL1", URL1))
    ]
    assert _count("compiles") == compiles
    assert not any(state.native for state in states)
    assert [state.batch_tier for state in states] == ["numpy"] * 3
    svc.ready()
    assert _count("compiles") == compiles + 1
    routes = svc.table.routes
    assert all(route.native for route in routes)
    assert [(r.route_id, r.generation) for r in routes] == [
        (s.route_id, s.generation) for s in states
    ]
    assert len({route.scalar.path for route in routes}) == 1
    # An upgrade is not a swap.
    assert registry.counter("serve.swaps").value == 0
    svc.ready()  # once live, a no-op
    assert _count("compiles") == compiles + 1
    # After go-live a registration compiles at once.
    late = svc.register(r"[a-z]{10}", label="late")
    assert late.native
    assert _count("compiles") == compiles + 2
    for route, key in zip(routes, (b"123-45-6789", b"01:23:45:67:89:ab")):
        assert svc.hash(key) == route.synthesized.function(key)


@requires_compiler
def test_first_binding_goes_live(fresh_cache):
    svc = HashService(
        shards=1, family=HashFamily.OFFXOR, registry=MetricsRegistry()
    )
    state = svc.register(SSN)
    assert not svc.table.routes[0].native
    key = b"123-45-6789"
    assert svc.hash(key) == state.synthesized.function(key)
    assert svc.table.routes[0].native


@requires_compiler
def test_start_installs_native_routes_before_returning(fresh_cache):
    svc = HashService(
        shards=2, family=HashFamily.OFFXOR, registry=MetricsRegistry()
    )
    for regex in (SSN, MAC):
        svc.register(regex)
    svc.start(interval=60.0)
    try:
        assert all(route.native for route in svc.table.routes)
    finally:
        svc.stop()


def test_disabled_tier_goes_live_without_a_compiler(
    fresh_cache, monkeypatch
):
    monkeypatch.setenv("SEPE_NATIVE", "0")
    runs = []
    monkeypatch.setattr(
        native_mod, "_run", lambda cmd, *args, **kwargs: runs.append(cmd)
    )
    fallbacks = _count("fallbacks")
    svc = HashService(
        shards=1, family=HashFamily.OFFXOR, registry=MetricsRegistry()
    )
    svc.register(SSN)
    svc.register(MAC)
    with pytest.warns(RuntimeWarning, match="native hash tier"):
        native_mod.reset_native_state()  # re-arm the warn-once latch
        svc.ready()
    svc.start(interval=60.0)
    svc.stop()
    assert runs == []
    assert not any(route.native for route in svc.table.routes)
    assert _count("fallbacks") == fallbacks + 2
    assert svc.hash(b"123-45-6789") == svc.table.routes[0].scalar(
        b"123-45-6789"
    )


def _mapped_plan_units():
    with open("/proc/self/maps", encoding="utf-8") as handle:
        return {
            line.split(None, 5)[5].strip().removesuffix(" (deleted)")
            for line in handle
            if len(line.split(None, 5)) == 6
            and "/sepe-native-" in line
            and "plan.so" in line
        }


@requires_compiler
@pytest.mark.skipif(
    not sys.platform.startswith("linux") or not os.path.exists(
        "/proc/self/maps"
    ),
    reason="reads the process's mappings from /proc/self/maps",
)
def test_cold_service_set_up_maps_one_plan_unit(fresh_cache):
    """A cold three-route set-up loads one plan shared object."""
    native_mod.reset_native_state()
    toolchain = native_mod.detect_toolchain()
    if not toolchain.supports({"pext"}):
        pytest.skip("host toolchain lacks pext")
    native_mod.reset_native_state()
    before = _mapped_plan_units()
    svc = HashService(shards=2, registry=MetricsRegistry())
    for name, regex in (("SSN", SSN), ("MAC", MAC), ("URL1", URL1)):
        svc.register(regex, label=name)
    svc.start(interval=60.0)
    try:
        assert all(route.native for route in svc.table.routes)
        assert len(_mapped_plan_units() - before) == 1
    finally:
        svc.stop()
