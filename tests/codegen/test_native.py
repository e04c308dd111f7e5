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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.cache import CompileCache
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
from repro.keygen.keyspec import key_spec
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
def test_hash_rows_matches_hash_many(family):
    numpy = pytest.importorskip("numpy")
    synthesized = synthesize(SSN, family)
    module = synthesized.native_module
    keys = generate_keys("SSN", 300, Distribution.UNIFORM, seed=5)
    rows = numpy.frombuffer(b"".join(keys), dtype=numpy.uint8).reshape(
        len(keys), 11
    )
    out = module.hash_many_array(rows)
    assert out.dtype == numpy.uint64
    assert out.tolist() == module.hash_many(keys)
    # A strided view (every other row) is packed before the call.
    assert module.hash_many_array(rows[::2]).tolist() == module.hash_many(
        keys[::2]
    )
    assert module.hash_many_array(rows[:0]).shape == (0,)
    # Wider rows hash as the longer keys they hold.
    wide = numpy.concatenate([rows, rows[:, :5]], axis=1)
    assert module.hash_many_array(wide).tolist() == [
        synthesized(key + key[:5]) for key in keys
    ]
    with pytest.raises(ValueError):
        module.hash_many_array(rows[:, :10])
    with pytest.raises(ValueError):
        module.hash_many_array(rows.astype(numpy.int64))
    with pytest.raises(ValueError):
        module.hash_many_array(rows[0])


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
