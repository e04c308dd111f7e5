"""Native tier: parity pins, graceful degradation, disk cache reuse.

Parity tests pin the JIT-compiled entry points bit-for-bit against the
IR interpreter — the same reference every other execution tier is
pinned to — for all four families, through both the scalar and batched
ABI, on fixed-length, tail-xor and variable-length skip-table plans.

Tests that need a working C++ compiler carry the ``native`` marker and
skip themselves (visibly) on hosts without one; the degradation tests
run everywhere because they stub the toolchain away on purpose.
"""

import dataclasses
import random
import shutil
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.cache import CompileCache
from repro.codegen.cpp_backend import plan_isa_features
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.codegen import native as native_mod
from repro.core.plan import HashFamily, SkipTable
from repro.core.regex_expand import pattern_from_regex
from repro.core.synthesis import synthesize
from repro.core.validate import sample_conforming_keys
from repro.errors import NativeUnavailableError
from repro.keygen.distributions import Distribution
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPE_NAMES, key_spec
from tests.codegen.test_random_plans import KEY_LENGTH, random_plan

SSN = r"\d{3}-\d{2}-\d{4}"
TAIL_XOR = r"\d{8,24}"
SKIP_TABLE = r"[a-f0-9]{12}:[a-f0-9]{4,12}"

pytestmark = pytest.mark.native

requires_compiler = pytest.mark.skipif(
    not native_mod.native_available(),
    reason="no working C++ toolchain on this host",
)


def _interp_reference(synthesized, keys):
    func = optimize(build_ir(synthesized.plan, name=synthesized.name))
    return [interpret(func, key) for key in keys]


def _conforming_keys(regex, count, seed=0):
    pattern = pattern_from_regex(regex)
    return sample_conforming_keys(
        pattern, count, rng=random.Random(seed)
    )


# -- parity pins ------------------------------------------------------------


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
def test_scalar_parity_fixed_length(family):
    synthesized = synthesize(SSN, family)
    module = synthesized.native_module
    assert module is not None
    keys = generate_keys("SSN", 256, Distribution.UNIFORM, seed=7)
    expected = _interp_reference(synthesized, keys)
    assert [module(key) for key in keys] == expected


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize("name", ["SSN", "MAC"])
def test_scalar_entry_zero_fills_short_keys(family, name):
    """A fixed-length kernel reads ``key_length`` bytes: every prefix of
    a conforming key, ``b""`` included, hashes as the scalar function
    hashes it, never from bytes past the key's end."""
    synthesized = synthesize(key_spec(name).regex, family)
    module = synthesized.native_module
    assert module is not None and module.key_length is not None
    (key,) = generate_keys(name, 1, Distribution.UNIFORM, seed=5)
    for cut in range(len(key) + 1):
        prefix = key[:cut]
        assert module(prefix) == synthesized.function(prefix), prefix


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
def test_batch_parity_10k_keys(family):
    """The batched native entry point over >=10k conforming keys."""
    synthesized = synthesize(SSN, family)
    batch = synthesized.native_batch_function
    assert batch is not None
    keys = generate_keys("SSN", 10_000, Distribution.UNIFORM, seed=11)
    scalar = [synthesized(key) for key in keys]
    assert batch(keys) == scalar
    # Pin the Python tier itself to the interpreter on a sample so the
    # full-batch comparison above chains back to the reference.
    sample = keys[::257]
    assert _interp_reference(synthesized, sample) == [
        synthesized(key) for key in sample
    ]


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize("regex", [TAIL_XOR, SKIP_TABLE])
def test_parity_variable_length_plans(family, regex):
    """Tail-xor and skip-table lowerings through both native ABIs."""
    synthesized = synthesize(regex, family)
    module = synthesized.native_module
    assert module is not None
    keys = _conforming_keys(regex, 64, seed=13)
    assert len({len(key) for key in keys}) > 1, "want ragged lengths"
    expected = _interp_reference(synthesized, keys)
    assert [module(key) for key in keys] == expected
    assert module.hash_many(keys) == expected


@requires_compiler
def test_hash_many_array_matches_hash_many():
    numpy = pytest.importorskip("numpy")
    synthesized = synthesize(SSN, HashFamily.OFFXOR)
    module = synthesized.native_module
    keys = generate_keys("SSN", 2_048, Distribution.UNIFORM, seed=3)
    out = module.hash_many_array(keys)
    assert out.dtype == numpy.uint64
    assert out.tolist() == module.hash_many(keys)


@requires_compiler
def test_str_keys_accepted():
    synthesized = synthesize(SSN, HashFamily.NAIVE)
    module = synthesized.native_module
    assert module("123-45-6789") == module(b"123-45-6789")
    assert module.hash_many(["123-45-6789"]) == [module(b"123-45-6789")]


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize("wrap", [bytearray, memoryview])
def test_buffer_keys_accepted(family, wrap):
    """A ``bytearray`` or ``memoryview`` key — full-length, short or
    long — hashes as the same bytes do through the scalar function."""
    synthesized = synthesize(SSN, family)
    module = synthesized.native_module
    assert module is not None
    for key in (b"123-45-6789", b"123-45", b"123-45-6789-0123"):
        assert module(wrap(key)) == synthesized.function(key), key


@requires_compiler
@pytest.mark.parametrize("name", ["SSN", "MAC", "IPV4"])
def test_numpy_less_hash_many_normalises_keys(monkeypatch, name):
    """Without NumPy, ``hash_many`` hands the kernel each key cut or
    zero-filled to ``key_length``, as the scalar function reads it:
    short, exact, long and ``str`` keys alike."""
    synthesized = synthesize(key_spec(name).regex, HashFamily.PEXT)
    module = synthesized.native_module
    if module is None:
        pytest.skip("host toolchain lacks pext")
    monkeypatch.setattr(native_mod, "_HAVE_NUMPY", False)
    rng = random.Random(17)
    exact = generate_keys(name, 200, Distribution.UNIFORM, seed=9)
    short = [key[: rng.randrange(len(key))] for key in exact]
    long = [key + rng.randbytes(rng.randint(1, 9)) for key in exact[:50]]
    for keys in (exact, short, long, short + exact + long):
        assert module.hash_many(keys) == [
            synthesized.function(key) for key in keys
        ]
    text = [key.decode("ascii") for key in exact[:50] + short[:50]]
    assert module.hash_many(text) == [
        synthesized.function(key.encode("ascii")) for key in text
    ]
    assert module.hash_many([bytearray(key) for key in short[:20]]) == [
        synthesized.function(key) for key in short[:20]
    ]


# -- the link ---------------------------------------------------------------


@requires_compiler
@pytest.mark.skipif(
    not native_mod._LEAN_LINK, reason="-z defs is an ELF linker option"
)
@pytest.mark.parametrize("libc", [True, False])
def test_link_rejects_unresolved_symbols(tmp_path, libc):
    """A unit calling a function nothing defines fails its link, as a
    counted compile failure, instead of building and failing at load."""
    from repro.obs.metrics import get_registry

    source = (
        "#include <cstddef>\n#include <cstdint>\n"
        'extern "C" uint64_t sepe_undefined_helper(uint64_t);\n'
        'extern "C" uint64_t sepe_native_hash(const char* key,'
        " size_t len) {\n"
        "    return sepe_undefined_helper(len) + (uint64_t)key[0];\n"
        "}\n"
    )
    failures = get_registry().counter("codegen.native.compile_failures")
    before = failures.value
    with pytest.raises(NativeUnavailableError, match="sepe_undefined_helper"):
        native_mod.compile_shared_object(
            source, tmp_path / "bad.so", libc=libc
        )
    assert failures.value == before + 1
    assert not (tmp_path / "bad.so").exists()


@requires_compiler
@pytest.mark.parametrize("name", KEY_TYPE_NAMES)
def test_every_builtin_plan_links_and_matches_interpreter(name):
    """Every built-in format's plan, in every family the host can run,
    compiles, links and loads through ``compile_plan_native``, and its
    scalar and batch entries equal the interpreter."""
    toolchain = native_mod.detect_toolchain()
    regex = key_spec(name).regex
    keys = generate_keys(name, 64, Distribution.UNIFORM, seed=21)
    compiled = 0
    for family in HashFamily:
        synthesized = synthesize(regex, family)
        if not toolchain.supports(plan_isa_features(synthesized.plan)):
            continue
        module, _ = native_mod.compile_plan_native(synthesized.plan)
        expected = _interp_reference(synthesized, keys)
        assert [module(key) for key in keys] == expected, family
        assert module.hash_many(keys) == expected, family
        compiled += 1
    assert compiled >= 2  # Naive and OffXor need no ISA feature


# -- disk cache round-trip --------------------------------------------------


@requires_compiler
def test_disk_so_reused_without_recompiling(tmp_path, monkeypatch):
    plan = synthesize(SSN, HashFamily.OFFXOR).plan
    keys = generate_keys("SSN", 128, Distribution.UNIFORM, seed=5)

    first = CompileCache(source_dir=tmp_path)
    artifact = first.native(plan)
    expected = artifact.function.hash_many(keys)
    assert list(tmp_path.glob("*.native.*.so")), "no persisted artifact"

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("second synthesis invoked the compiler")

    monkeypatch.setattr(native_mod, "compile_shared_object", boom)
    second = CompileCache(source_dir=tmp_path)
    warm = second.native(plan)
    assert warm.function.hash_many(keys) == expected
    assert warm.function.compile_ms == 0.0
    kinds = second.stats()["kinds"]
    assert kinds["native"]["disk_hits"] == 1
    assert kinds["native"]["misses"] == 1


@requires_compiler
def test_memory_hit_and_kind_stats(tmp_path):
    plan = synthesize(SSN, HashFamily.NAIVE).plan
    cache = CompileCache(source_dir=tmp_path)
    assert cache.native(plan) is cache.native(plan)
    kinds = cache.stats()["kinds"]
    assert kinds["native"]["hits"] == 1
    assert kinds["native"]["misses"] == 1
    assert kinds["native"]["failures"] == 0


# -- graceful degradation ---------------------------------------------------


@pytest.fixture
def clean_native_state(monkeypatch):
    """Re-probe around the test so stubs cannot leak either way.

    Also swaps the process-global compile cache for a fresh one: the
    parity tests above legitimately warm it, and a warm memory hit
    would mask the degradation paths under test.
    """
    import repro.core.synthesis as synthesis_mod

    native_mod.reset_native_state()
    fresh = CompileCache()
    monkeypatch.setattr(
        synthesis_mod, "get_compile_cache", lambda: fresh
    )
    yield monkeypatch
    native_mod.reset_native_state()


def test_disabled_via_env_falls_back(clean_native_state):
    monkeypatch = clean_native_state
    monkeypatch.setenv("SEPE_NATIVE", "0")
    synthesized = synthesize(SSN, HashFamily.OFFXOR)
    with pytest.warns(RuntimeWarning, match="native hash tier"):
        assert synthesized.native_module is None
    # Degradation is sticky per instance and silent after the first hit.
    assert synthesized.native_function is None
    assert synthesized.native_batch_function is None
    # The Python tiers keep working.
    key = b"123-45-6789"
    assert synthesized.hash_many_native([key]) == [synthesized(key)]


def test_missing_compiler_falls_back(clean_native_state):
    monkeypatch = clean_native_state
    monkeypatch.delenv("SEPE_NATIVE", raising=False)
    monkeypatch.setenv("CXX", str("/nonexistent/sepe-cxx"))
    monkeypatch.setattr(native_mod, "_candidate_compilers", lambda: [])
    with pytest.raises(NativeUnavailableError, match="no C\\+\\+ compiler"):
        native_mod.detect_toolchain(refresh=True)
    assert not native_mod.native_available()
    synthesized = synthesize(SSN, HashFamily.NAIVE)
    with pytest.warns(RuntimeWarning):
        assert synthesized.native_module is None
    key = b"987-65-4321"
    assert synthesized.hash_many_native([key]) == [synthesized(key)]


def test_broken_compiler_negative_cached(clean_native_state, tmp_path):
    """A compile error degrades and is negative-cached per plan."""
    monkeypatch = clean_native_state
    broken = native_mod.Toolchain(
        command="/bin/false",
        identity="broken-cc 0.0",
        flags=("-O2",),
        features=frozenset({"aes", "pext"}),
        target="x86",
    )
    monkeypatch.setattr(
        native_mod, "detect_toolchain", lambda refresh=False: broken
    )
    plan = synthesize(SSN, HashFamily.OFFXOR).plan
    cache = CompileCache(source_dir=tmp_path)
    with pytest.raises(NativeUnavailableError, match="compile failed"):
        cache.native(plan)
    # Second request short-circuits on the negative cache: /bin/false
    # is not invoked again.
    with pytest.raises(NativeUnavailableError):
        cache.native(plan)
    kinds = cache.stats()["kinds"]
    assert kinds["native"]["failures"] == 1
    assert kinds["native"]["negative_hits"] == 1
    assert cache.stats()["native_failures"] == 1


def test_transient_disable_not_negative_cached(clean_native_state):
    """SEPE_NATIVE=0 must not poison the plan-level negative cache."""
    monkeypatch = clean_native_state
    monkeypatch.setenv("SEPE_NATIVE", "0")
    plan = synthesize(SSN, HashFamily.NAIVE).plan
    cache = CompileCache()
    with pytest.raises(NativeUnavailableError, match="SEPE_NATIVE"):
        cache.native(plan)
    kinds = cache.stats()["kinds"]
    assert kinds["native"]["failures"] == 1
    monkeypatch.setenv("SEPE_NATIVE", "1")
    native_mod.reset_native_state()
    if not native_mod.native_available():
        pytest.skip("no working C++ toolchain on this host")
    artifact = cache.native(plan)
    assert artifact.function(b"123-45-6789") == synthesize(
        SSN, HashFamily.NAIVE
    )(b"123-45-6789")


# -- dispatcher integration -------------------------------------------------


@requires_compiler
def test_dispatcher_prefer_native_parity():
    from repro.core.dispatch import FormatDispatcher

    keys = generate_keys("SSN", 512, Distribution.UNIFORM, seed=2)
    plain = FormatDispatcher(prefer_native=False)
    plain.register(SSN, family=HashFamily.OFFXOR)
    fast = FormatDispatcher(prefer_native=True)
    fast.register(SSN, family=HashFamily.OFFXOR)
    assert fast.stats()["prefer_native"] is True
    assert fast.stats()["native_formats"] == 1
    assert [fast(key) for key in keys[:32]] == [
        plain(key) for key in keys[:32]
    ]
    assert fast.hash_many(keys) == plain.hash_many(keys)


@requires_compiler
@pytest.mark.parametrize("family", list(HashFamily))
@pytest.mark.parametrize("regex", [SSN, SKIP_TABLE])
def test_list_entry_matches_interpreter(family, regex):
    """The list entry (and the scalar entry) against the interpreter on
    every kind of key it can be handed: ``bytes``, ``bytearray``,
    ``memoryview`` and ``str`` keys, keys shorter than the kernel reads
    (zero-filled, down to ``b""``), keys wider than the plan, a
    non-``bytes`` key in the middle of a list, and empty and one-key
    batches."""
    numpy = pytest.importorskip("numpy")
    synthesized = synthesize(regex, family)
    module = synthesized.native_module
    assert module is not None
    func = optimize(build_ir(synthesized.plan, name=synthesized.name))
    conforming = _conforming_keys(regex, 24, seed=19)
    short = [conforming[0][:cut] for cut in range(len(conforming[0]))]
    wide = [key + b"~" * 9 for key in conforming[:6]]
    keys = conforming + short + wide
    mixed = keys[:9] + [bytearray(keys[9])] + keys[10:]
    batches = [
        [],
        keys[:1],
        short[:1],
        [memoryview(keys[1])],
        keys,
        mixed,
        [memoryview(key) for key in keys],
        [key.decode("latin-1") for key in keys],
    ]
    for batch in batches:
        expected = [
            interpret(
                func,
                key.encode("utf-8") if isinstance(key, str) else bytes(key),
            )
            for key in batch
        ]
        assert module.hash_many(batch) == expected, batch
        assert [module(key) for key in batch] == expected, batch
        values = module.hash_many_array(batch)
        assert values.dtype == numpy.uint64
        assert values.tolist() == expected, batch
    assert [type(key) for key in mixed].count(bytearray) == 1


@requires_compiler
def test_threads_share_one_module():
    """Threads hash different batches through one module at once, the
    list entry releasing and retaking the GIL after each batch; each
    thread must get exactly its own values."""
    threads_count = 4
    synthesized = synthesize(SSN, HashFamily.OFFXOR)
    module = synthesized.native_module
    assert module is not None
    batches = [
        generate_keys("SSN", 2_048, Distribution.UNIFORM, seed=31 + index)
        for index in range(threads_count)
    ]
    expected = [[synthesized(key) for key in keys] for keys in batches]
    assert len({tuple(values) for values in expected}) == threads_count
    barrier = threading.Barrier(threads_count, timeout=60)
    wrong = []

    def hash_repeatedly(index):
        barrier.wait()
        for _ in range(100):
            if module.hash_many(batches[index]) != expected[index]:
                wrong.append(index)

    threads = [
        threading.Thread(target=hash_repeatedly, args=(index,))
        for index in range(threads_count)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


@requires_compiler
def test_unit_calls_only_weak_python_symbols(tmp_path):
    """The JIT unit declares the Python C API it calls by hand: no
    ``<Python.h>``, and every ``Py*`` symbol the shared object imports
    is weak, so it links without libpython."""
    plan = synthesize(SSN, HashFamily.OFFXOR).plan
    module, source = native_mod.compile_plan_native(
        plan, out_path=tmp_path / "unit.so"
    )
    assert "#include <Python.h>" not in source
    if shutil.which("nm"):
        listing = subprocess.run(
            ["nm", "-D", "--undefined-only", str(module.path)],
            capture_output=True, text=True, check=True,
        ).stdout
        # ``<address> <type> <name>``: ``w`` is a weak undefined symbol.
        imported = {
            fields[-1]: fields[-2]
            for fields in map(str.split, listing.splitlines())
            if fields and fields[-1].startswith("Py")
        }
        weak = {name for name, kind in imported.items() if kind == "w"}
    elif shutil.which("readelf"):
        listing = subprocess.run(
            ["readelf", "--dyn-syms", "-W", str(module.path)],
            capture_output=True, text=True, check=True,
        ).stdout
        # ``Num: Value Size Type Bind Vis Ndx Name``.
        rows = [
            fields
            for fields in map(str.split, listing.splitlines())
            if len(fields) >= 8 and fields[7].startswith("Py")
            and fields[6] == "UND"
        ]
        imported = {fields[7]: fields[4] for fields in rows}
        weak = {name for name, bind in imported.items() if bind == "WEAK"}
    else:
        pytest.skip("neither nm nor readelf on this host")
    assert set(imported) == {
        "PyList_GetItem",
        "PyBytes_AsStringAndSize",
        "PyErr_Clear",
        "PyEval_SaveThread",
        "PyEval_RestoreThread",
    }
    assert weak == set(imported)


@requires_compiler
def test_so_cached_under_the_previous_unit_is_recompiled(
    tmp_path, monkeypatch
):
    """A ``.so`` persisted under an older unit version's key (the
    pointer-array unit, version 2) is never loaded: the cache compiles
    the current unit beside it."""
    plan = synthesize(SSN, HashFamily.OFFXOR).plan
    keys = generate_keys("SSN", 64, Distribution.UNIFORM, seed=4)
    with monkeypatch.context() as patch:
        patch.setattr(native_mod, "NATIVE_UNIT_VERSION", 2)
        CompileCache(source_dir=tmp_path).native(plan)
    (stale,) = tmp_path.glob("*.native.*.so")
    cache = CompileCache(source_dir=tmp_path)
    artifact = cache.native(plan)
    assert artifact.function.path != stale
    assert artifact.function.compile_ms > 0.0
    kinds = cache.stats()["kinds"]
    assert kinds["native"]["disk_hits"] == 0
    assert len(list(tmp_path.glob("*.native.*.so"))) == 2
    assert artifact.function.hash_many(keys) == [
        synthesize(SSN, HashFamily.OFFXOR).function(key) for key in keys
    ]


@requires_compiler
def test_dispatcher_prefer_native_mixed_batch_parity():
    from repro.core.dispatch import FormatDispatcher

    keys = [
        key
        for trio in zip(
            generate_keys("SSN", 64, Distribution.UNIFORM, seed=8),
            generate_keys("MAC", 64, Distribution.UNIFORM, seed=8),
            [b"unregistered-%d" % index for index in range(64)],
        )
        for key in trio
    ]
    plain = FormatDispatcher(prefer_native=False)
    fast = FormatDispatcher(prefer_native=True)
    for dispatcher in (plain, fast):
        dispatcher.register(SSN, family=HashFamily.PEXT)
        dispatcher.register(r"([0-9a-f]{2}-){5}[0-9a-f]{2}", HashFamily.AES)
    expected = [plain(key) for key in keys]
    assert fast.hash_many(keys) == expected
    assert fast.hash_many_array(keys).tolist() == expected
    assert plain.hash_many(keys) == expected


# -- random plans -----------------------------------------------------------

TAIL = 12


@st.composite
def routed_plan(draw):
    """A random plan whose regex says which key lengths a route hands it.

    Half the plans are the fixed-length ones of ``random_plan``; the
    other half keep the same loads but take a variable tail of up to
    ``TAIL`` bytes, folded from ``KEY_LENGTH`` on.
    """
    plan = draw(random_plan())
    if draw(st.booleans()):
        return dataclasses.replace(plan, pattern_regex=f".{{{KEY_LENGTH}}}")
    return dataclasses.replace(
        plan,
        key_length=None,
        skip_table=SkipTable(0, (KEY_LENGTH,)),
        pattern_regex=f".{{{KEY_LENGTH}}}.{{0,{TAIL}}}",
    )


@requires_compiler
@given(routed_plan(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_plan_parity(plan, seed):
    """Native scalar and ``hash_many`` equal the interpreter on every key
    length a route can hand the kernel ([min_length, max_length] of the
    plan's pattern, as ``RouteTable`` resolves it), on keys drawn from
    the format's alphabet and on arbitrary bytes."""
    module, _ = native_mod.compile_plan_native(plan)
    pattern = pattern_from_regex(plan.pattern_regex)
    rng = random.Random(seed)
    keys = []
    for length in range(pattern.min_length, pattern.max_length + 1):
        keys.append(bytes(rng.choices(b"0123456789abcdef", k=length)))
        keys.append(rng.randbytes(length))
    keys.append(bytes(pattern.max_length))
    keys.append(b"\xff" * pattern.min_length)
    func = optimize(build_ir(plan, name="f"))
    expected = [interpret(func, key) for key in keys]
    assert [module(key) for key in keys] == expected
    assert module.hash_many(keys) == expected
