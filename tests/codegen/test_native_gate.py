"""The toolchain probe gates the load, not the compile.

In a cold process the first native compile starts the toolchain probe
on a thread and compiles beside it with the flags a working host's
probe returns.  These tests hold the gate: an object compiled beside a
probe that returns other flags, no toolchain or too few ISA features is
never loaded; first compiles on two threads share one probe; a reset
while the probe runs stays a reset; and ``SEPE_NATIVE=0`` starts no
probe thread and no compiler.  The probe's verdict is faked where a
test needs one the host would not give, and gated on the compile beside
it, so every test sees the same order of events.
"""

import dataclasses
import threading
import time

import pytest

from repro.codegen import native as native_mod
from repro.codegen.cache import CompileCache
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.errors import NativeUnavailableError
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import key_spec
from repro.obs import capture_spans
from repro.obs.metrics import MetricsRegistry, get_registry

SSN = key_spec("SSN").regex
MAC = key_spec("MAC").regex
BASE = native_mod._BASE_FLAGS
GATE_TIMEOUT_S = 30.0

requires_compiler = pytest.mark.skipif(
    not native_mod.native_available(),
    reason="no working C++ toolchain on this host",
)


def _count(name):
    return get_registry().counter(f"codegen.native.{name}").value


@pytest.fixture
def cold(monkeypatch):
    """A cold process: no probe run, an empty compile cache for
    synthesis, and the native tier enabled; restored afterwards."""
    import repro.core.synthesis as synthesis_mod

    monkeypatch.delenv("SEPE_NATIVE", raising=False)
    native_mod.reset_native_state()
    fresh = CompileCache(registry=MetricsRegistry())
    monkeypatch.setattr(synthesis_mod, "get_compile_cache", lambda: fresh)
    yield monkeypatch
    native_mod.reset_native_state()


class _Events(list):
    def __init__(self):
        super().__init__()
        self.compiled = threading.Event()


@pytest.fixture
def events(cold):
    """Record, in order, each plan compile as it finishes (``"guess"``
    under ``-march=native``, else ``"probed"``) and each ``PyDLL`` load;
    ``events.compiled`` is set once the first compile has finished."""
    log = _Events()
    real_run = native_mod._run
    real_load = native_mod.ctypes.PyDLL

    def run(cmd, timeout, cwd=None):
        result = real_run(cmd, timeout, cwd)
        if "-shared" in cmd:
            log.append("guess" if "-march=native" in cmd else "probed")
            log.compiled.set()
        return result

    def load(path, *args, **kwargs):
        log.append("load")
        return real_load(path, *args, **kwargs)

    cold.setattr(native_mod, "_run", run)
    cold.setattr(native_mod.ctypes, "PyDLL", load)
    return log


def _probe_returns(monkeypatch, log, verdict):
    """Make the probe return ``verdict``, once the compile beside it has
    finished."""

    def probe():
        assert log.compiled.wait(GATE_TIMEOUT_S)
        log.append("probe")
        return verdict

    monkeypatch.setattr(native_mod, "_probe_toolchain", probe)


def _host_toolchain():
    toolchain = native_mod.detect_toolchain()
    native_mod.reset_native_state()
    if toolchain.target != "x86" or not toolchain.supports({"pext", "aes"}):
        pytest.skip("needs an x86 host with BMI2 and AES-NI")
    return toolchain


@requires_compiler
def test_cold_compile_runs_beside_the_probe(cold):
    toolchain = _host_toolchain()
    synthesized = synthesize(SSN, HashFamily.PEXT)
    before = {name: _count(name) for name in ("compiles", "discards")}
    with capture_spans() as sink:
        module, _ = native_mod.compile_plan_native(synthesized.plan)
    assert _count("compiles") == before["compiles"] + 1
    probe = [r for r in sink.records() if r.name == "codegen.native.probe"]
    compile_ = [
        r for r in sink.records() if r.name == "codegen.native.compile"
    ]
    assert len(probe) == 1 and len(compile_) == 1
    assert probe[0].thread != compile_[0].thread
    assert probe[0].started < compile_[0].started + compile_[0].wall_seconds
    assert compile_[0].started < probe[0].started + probe[0].wall_seconds
    if toolchain.flags == (*BASE, "-march=native"):
        assert _count("discards") == before["discards"]
    keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=3)
    assert module.hash_many(keys) == [synthesized(key) for key in keys]
    assert module.compiler == toolchain.identity


@requires_compiler
def test_object_beside_a_probe_with_other_flags_is_never_loaded(
    cold, events
):
    probed = dataclasses.replace(
        _host_toolchain(), flags=(*BASE, "-mbmi2", "-maes")
    )
    _probe_returns(cold, events, (probed, None))
    synthesized = synthesize(SSN, HashFamily.PEXT)
    before = {name: _count(name) for name in ("compiles", "discards")}
    module, _ = native_mod.compile_plan_native(synthesized.plan)
    # The guess was compiled beside the probe; the load came only after
    # the recompile with the probed flags, which overwrote it.
    assert events == ["guess", "probe", "probed", "load"]
    assert _count("discards") == before["discards"] + 1
    assert _count("compiles") == before["compiles"] + 1
    keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=4)
    assert module.hash_many(keys) == [synthesized(key) for key in keys]


def _refusal(verdict):
    """The probe's result for ``verdict``: no toolchain at all, or the
    host's toolchain proving no ISA feature."""
    host = _host_toolchain()
    if verdict == "no toolchain":
        return None, "no candidate compiler passed the probe"
    return dataclasses.replace(host, features=frozenset()), None


@requires_compiler
@pytest.mark.parametrize("verdict", ["no toolchain", "no features"])
def test_object_beside_a_refusing_probe_is_never_loaded(
    cold, events, tmp_path, verdict
):
    _probe_returns(cold, events, _refusal(verdict))
    plan = synthesize(SSN, HashFamily.PEXT).plan
    discards = _count("discards")
    with pytest.raises(NativeUnavailableError):
        native_mod.compile_plan_native(plan, out_path=tmp_path / "plan.so")
    assert events == ["guess", "probe"]
    assert _count("discards") == discards + 1
    assert not (tmp_path / "plan.so").exists()


@requires_compiler
@pytest.mark.parametrize("verdict", ["no toolchain", "no features"])
def test_refusing_probe_degrades_synthesis_and_counts_it(
    cold, events, verdict
):
    _probe_returns(cold, events, _refusal(verdict))
    import repro.core.synthesis as synthesis_mod

    synthesized = synthesize(SSN, HashFamily.PEXT)
    fallbacks = _count("fallbacks")
    with pytest.warns(RuntimeWarning, match="native hash tier"):
        assert synthesized.native_module is None
    assert "load" not in events
    assert _count("fallbacks") == fallbacks + 1
    # No toolchain is host-level and never negative-cached per plan; a
    # missing feature is the plan's own refusal.
    stats = synthesis_mod.get_compile_cache().stats()
    assert stats["kinds"]["native"]["failures"] == 1
    assert stats["native_failures"] == (verdict == "no features")
    key = b"123-45-6789"
    assert synthesized.hash_many_native([key]) == [synthesized(key)]


@requires_compiler
def test_two_first_compiles_share_one_probe(cold):
    toolchain = _host_toolchain()
    cold.setattr(native_mod, "_probe_run", _gated_probe_run(cold, 2))
    calls = []
    real_probe = native_mod._probe_toolchain

    def probe():
        calls.append(threading.current_thread().name)
        return real_probe()

    cold.setattr(native_mod, "_probe_toolchain", probe)
    plans = [
        synthesize(SSN, HashFamily.OFFXOR),
        synthesize(MAC, HashFamily.NAIVE),
    ]
    runs = _count("probe_runs")
    barrier = threading.Barrier(len(plans), timeout=GATE_TIMEOUT_S)
    modules = [None] * len(plans)

    def compile_(index):
        barrier.wait()
        modules[index] = native_mod.compile_plan_native(plans[index].plan)[0]

    threads = [
        threading.Thread(target=compile_, args=(index,))
        for index in range(len(plans))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(2 * GATE_TIMEOUT_S)
    assert not any(thread.is_alive() for thread in threads)
    assert calls == ["sepe-native-probe"]
    if toolchain.flags == (*BASE, "-march=native"):
        assert _count("probe_runs") == runs + 1
    for name, synthesized, module in zip(("SSN", "MAC"), plans, modules):
        keys = generate_keys(name, 32, Distribution.UNIFORM, seed=5)
        assert module.hash_many(keys) == [synthesized(key) for key in keys]


def _gated_probe_run(monkeypatch, compiles):
    """``_probe_run``, held until ``compiles`` plan compiles have
    started, so they all run while the probe is in flight."""
    started = threading.Semaphore(0)
    real_run = native_mod._run
    real_probe_run = native_mod._probe_run
    released = threading.Event()

    def run(cmd, timeout, cwd=None):
        if "-shared" in cmd:
            started.release()
        return real_run(cmd, timeout, cwd)

    def probe_run(*args, **kwargs):
        if not released.is_set():
            for _ in range(compiles):
                assert started.acquire(timeout=GATE_TIMEOUT_S)
            released.set()
        return real_probe_run(*args, **kwargs)

    monkeypatch.setattr(native_mod, "_run", run)
    return probe_run


def test_reset_during_a_probe_is_not_undone(cold):
    late = native_mod.Toolchain(
        command="/fake/late-c++", identity="late 1.0", flags=BASE
    )
    fresh = dataclasses.replace(late, command="/fake/fresh-c++")
    entered, release = threading.Event(), threading.Event()
    verdicts = [late, fresh]

    def probe():
        entered.set()
        assert release.wait(GATE_TIMEOUT_S)
        return verdicts.pop(0), None

    cold.setattr(native_mod, "_probe_toolchain", probe)
    prober = native_mod._start_probe()
    assert prober is not None and entered.wait(GATE_TIMEOUT_S)
    resetter = threading.Thread(target=native_mod.reset_native_state)
    resetter.start()
    time.sleep(0.05)
    assert resetter.is_alive()  # the reset waits for the probe
    release.set()
    prober.join(GATE_TIMEOUT_S)
    resetter.join(GATE_TIMEOUT_S)
    assert not resetter.is_alive()
    # The late probe's verdict was forgotten: the next gate probes anew.
    assert native_mod.detect_toolchain() is fresh
    assert verdicts == []


def test_disabled_tier_starts_no_probe_thread_or_compiler(cold, tmp_path):
    monkeypatch = cold
    monkeypatch.setenv("SEPE_NATIVE", "0")
    spawned = []
    real_start = threading.Thread.start

    def start(thread):
        spawned.append(thread.name)
        return real_start(thread)

    def run(cmd, timeout, cwd=None):  # pragma: no cover - must not run
        spawned.append(cmd[0])
        raise AssertionError(f"compiler process started: {cmd}")

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setattr(native_mod, "_run", run)
    plan = synthesize(SSN, HashFamily.OFFXOR).plan
    with pytest.raises(NativeUnavailableError, match="SEPE_NATIVE=0"):
        native_mod.compile_plan_native(plan)
    with pytest.raises(NativeUnavailableError, match="SEPE_NATIVE=0"):
        native_mod.compile_shared_object("", tmp_path / "unit.so")
    with pytest.raises(NativeUnavailableError, match="SEPE_NATIVE=0"):
        CompileCache().native(plan)
    assert native_mod.scan_unit() is None
    assert spawned == []
