"""End-to-end perfect synthesis: tiers, serialization, refusals."""

import pytest

from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.codegen.serialize import dumps, loads
from repro.errors import PerfectSearchError, SynthesisError
from repro.perfect import (
    BUILTIN_KEY_SET_NAMES,
    PerfectHash,
    builtin_key_set,
    rq_closed_set,
    synthesize_perfect,
)

pytestmark = []


@pytest.fixture(scope="module")
def builtin_perfect():
    """One certified PerfectHash per built-in set (module-cached)."""
    return {
        name: synthesize_perfect(builtin_key_set(name))
        for name in BUILTIN_KEY_SET_NAMES
    }


class TestCertifiedOnBuiltins:
    @pytest.mark.parametrize("name", BUILTIN_KEY_SET_NAMES)
    def test_certified_and_collision_free(self, builtin_perfect, name):
        perfect = builtin_perfect[name]
        keys = builtin_key_set(name)
        assert isinstance(perfect, PerfectHash)
        assert perfect.certificate.certified
        assert perfect.plan.perfect
        values = {perfect(key) for key in keys}
        assert len(values) == len(keys)

    @pytest.mark.parametrize("name", BUILTIN_KEY_SET_NAMES)
    def test_tier_parity_interpreter_scalar_batch(
        self, builtin_perfect, name
    ):
        """The perfect plan flows through every tier unchanged."""
        perfect = builtin_perfect[name]
        keys = list(builtin_key_set(name))
        func = optimize(build_ir(perfect.plan, name=perfect.name))
        interpreted = [interpret(func, key) for key in keys]
        scalar = [perfect(key) for key in keys]
        batched = perfect.hash_many(keys)
        assert interpreted == scalar == list(batched)

    def test_values_fit_certified_range(self, builtin_perfect):
        for name, perfect in builtin_perfect.items():
            bound = perfect.certificate.range_size
            for key in builtin_key_set(name):
                assert perfect(key) < bound, name


@pytest.mark.native
class TestNativeParity:
    @pytest.mark.parametrize("name", BUILTIN_KEY_SET_NAMES)
    def test_native_matches_interpreter(self, name):
        perfect = synthesize_perfect(builtin_key_set(name))
        native = perfect.native_function
        if native is None:
            pytest.skip("native tier unavailable on this host")
        for key in builtin_key_set(name):
            assert native(key) == perfect(key)


class TestRQSets:
    @pytest.mark.parametrize("spec", ["SSN", "MAC"])
    def test_closed_rq_samples_certify(self, spec):
        keys = rq_closed_set(spec, count=200, seed=1)
        perfect = synthesize_perfect(keys)
        assert perfect.certificate.certified
        assert len({perfect(key) for key in keys}) == len(keys)


class TestSerialization:
    def test_plan_round_trip_preserves_perfect_flag(self, builtin_perfect):
        perfect = builtin_perfect["http-methods"]
        document = dumps(perfect.plan)
        restored = loads(document)
        assert restored == perfect.plan
        assert restored.perfect

    def test_round_tripped_plan_hashes_identically(self, builtin_perfect):
        from repro.codegen.serialize import compile_serialized

        perfect = builtin_perfect["enum-codec"]
        rebuilt = compile_serialized(dumps(perfect.plan))
        for key in builtin_key_set("enum-codec"):
            assert rebuilt(key) == perfect(key)

    def test_fingerprint_distinguishes_perfect_plans(self, builtin_perfect):
        import dataclasses

        from repro.codegen.cache import plan_fingerprint

        perfect = builtin_perfect["http-methods"]
        ordinary = dataclasses.replace(perfect.plan, perfect=False)
        assert plan_fingerprint(perfect.plan) != plan_fingerprint(ordinary)


class TestFrontDoor:
    def test_synthesize_perfect_for(self):
        from repro import synthesize

        keys = builtin_key_set("http-methods")
        perfect = synthesize(perfect_for=keys)
        assert isinstance(perfect, PerfectHash)
        assert perfect.certificate.certified

    def test_synthesize_requires_a_source(self):
        from repro import synthesize

        with pytest.raises(TypeError):
            synthesize()


class TestRefusals:
    def test_empty_key_set_refused(self):
        with pytest.raises(SynthesisError):
            synthesize_perfect([])

    def test_sub_word_body_refused_with_pad_hint(self):
        # 4-byte keys are below the 8-byte synthesis floor; the error
        # must exist rather than a silent mis-certification.
        with pytest.raises(SynthesisError):
            synthesize_perfect([b"abcd", b"abce"])

    def test_accepts_strings(self):
        perfect = synthesize_perfect(["GET\x00\x00\x00\x00\x00",
                                      "PUT\x00\x00\x00\x00\x00"])
        assert perfect.certificate.certified

    @pytest.mark.parametrize("format", [None, r"\d{3}-\d{2}-\d{4}"])
    def test_one_key_set_certifies(self, format):
        """One key needs no selected bit, with its format inferred or
        given: the structural plan certifies."""
        key = b"123-45-6789"
        perfect = synthesize_perfect([key], format=format)
        assert perfect.certificate.certified
        assert perfect.certificate.strategy == "structural"
        assert perfect.certificate.selected_bits == ()
        func = optimize(build_ir(perfect.plan, name="f"))
        assert perfect(key) == interpret(func, key)


class TestFormatCheck:
    FORMAT = r"\d{3}-\d{2}-\d{4}"

    def _keys_with(self, bad: bytes):
        keys = rq_closed_set("SSN", count=50, seed=3)
        keys.insert(25, bad)
        keys.insert(40, b"999-99-99X9")  # a second offender, later
        return keys

    def _message(self, key: bytes) -> str:
        from repro.core.regex_expand import pattern_from_regex
        from repro.core.regex_render import render_regex

        regex = render_regex(pattern_from_regex(self.FORMAT))
        return (
            f"key {key!r} does not match the format {regex!r}; a perfect "
            f"hash is only meaningful over conforming keys"
        )

    @pytest.mark.parametrize(
        "bad", [b"123-45-678X", b"123-45-67890", b"123-45-678"]
    )
    def test_names_the_first_offending_key(self, bad):
        # An off-format byte, a key too long and a key too short: each
        # is named, not the later offender.
        with pytest.raises(SynthesisError) as raised:
            synthesize_perfect(self._keys_with(bad), format=self.FORMAT)
        assert str(raised.value) == self._message(bad)


def _variable_length_sets():
    import random

    rng = random.Random(83)
    repaired = sorted({
        (
            "k"
            + "".join(rng.choice("ab") for _ in range(7))
            + "".join(
                rng.choice("0123456789abcdef")
                for _ in range(rng.randrange(0, 12))
            )
        ).encode()
        for _ in range(rng.randrange(4, 60))
    })
    rng = random.Random(5)
    tailed = sorted({
        (
            "id-"
            + "".join(rng.choice("0123456789") for _ in range(6))
            + "".join(rng.choice("xyz") for _ in range(rng.randrange(0, 5)))
        ).encode()
        for _ in range(40)
    })
    return {"repaired": repaired, "tailed": tailed}


class TestInterpreterPasses:
    """Fixed-length sets are interpreted once per key (the certify
    pass); variable-length sets keep the repair loop's checks."""

    @pytest.fixture
    def interpreted(self, monkeypatch):
        from repro.codegen import interp

        calls = []
        original = interp._interpret

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(interp, "_interpret", counting)
        return calls

    @pytest.mark.parametrize("spec", ["MAC", "SSN"])
    def test_fixed_length_set_is_interpreted_once(self, interpreted, spec):
        keys = rq_closed_set(spec, count=1000, seed=0)
        assert synthesize_perfect(keys).certificate.certified
        assert len(interpreted) == len(keys)

    @pytest.mark.parametrize(
        "name, passes",
        # Interpreter passes over the set before this change: the
        # repaired set's three repair rounds plus the first check, then
        # certify; the tailed set's one clean check, then certify.
        [("repaired", 5), ("tailed", 2)],
    )
    def test_variable_length_sets_keep_their_checks(
        self, interpreted, name, passes
    ):
        keys = _variable_length_sets()[name]
        perfect = synthesize_perfect(keys)
        assert not perfect.pattern.is_fixed_length
        assert perfect.certificate.certified
        assert len(interpreted) <= passes * len(keys)


class TestObservability:
    def test_counters_advance(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        synthesized_before = registry.counter("perfect.synthesized").value
        certified_before = registry.counter("perfect.certified").value
        synthesize_perfect(rq_closed_set("SSN", count=16, seed=9))
        assert (
            registry.counter("perfect.synthesized").value
            == synthesized_before + 1
        )
        assert (
            registry.counter("perfect.certified").value
            == certified_before + 1
        )


class TestLints:
    def test_perfect_plan_passes_the_lint_gate(self, builtin_perfect):
        from repro.verify.lints import run_lints

        perfect = builtin_perfect["c-keywords"]
        report = run_lints(perfect.plan)
        assert report.errors == []

    def test_dead_bits_downgraded_for_perfect_plans(self, builtin_perfect):
        from repro.verify.lints import run_lints

        perfect = builtin_perfect["c-keywords"]
        report = run_lints(perfect.plan)
        dead = [
            finding
            for finding in report.findings
            if finding.rule == "dead-input-bits"
        ]
        for finding in dead:
            assert finding.severity.value != "error"
