"""Differential tests for the batch tail of the compiled module.

The reference interpreter is the oracle: for every family and both
batch paths (the vectorized lane body and the mapped scalar function)
the batched result must equal ``[interpret(func, k) for k in keys]``
bit for bit.
"""

import ast
import hashlib
import random

import pytest

from repro.codegen import batch as batch_mod
from repro.codegen.batch import (
    HAVE_NUMPY,
    VECTOR_MIN_KEYS,
    emit_python_module,
)
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.codegen.python_backend import (
    LOWERING_VERSION,
    compile_source,
    emit_python,
)
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize, synthesize_short_key
from repro.keygen.distributions import Distribution
from repro.keygen.extended import EXTENDED_KEY_TYPES
from repro.keygen.generator import generate_keys
from repro.keygen.keyspec import KEY_TYPES

FIXED_FORMATS = ("SSN", "MAC", "IPV4", "IPV6")
VARIABLE_REGEX = r"[0-9a-f]{8,23}"  # odd lengths: exercises tail_xor
# SHA-256 of emit_python_module over every built-in plan, by
# LOWERING_VERSION (TestBatchSource pins the current one).
MODULE_DIGESTS = {
    6: "bc7cd27070b13f54a48b93f225db633457d8c4acd0cc939ea7a3ade8554b685c",
}


def reference(plan, keys):
    func = optimize(build_ir(plan, name="ref"))
    return [interpret(func, key) for key in keys]


def compile_batch(plan, name="hash"):
    """The list entry of the plan's compiled module (``<name>.many``)."""
    func = optimize(build_ir(plan, name=name))
    return compile_source(emit_python_module(func), name).many


def fixed_keys(key_type, count=64, seed=11):
    return generate_keys(key_type, count, Distribution.UNIFORM, seed=seed)


def variable_keys(count=64, seed=11):
    rng = random.Random(seed)
    alphabet = b"0123456789abcdef"
    return [
        bytes(rng.choice(alphabet) for _ in range(rng.randrange(8, 24)))
        for _ in range(count)
    ]


class TestBatchParityFixedLength:
    @pytest.mark.parametrize("key_type", FIXED_FORMATS)
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_matches_interpreter(self, key_type, family):
        plan = synthesize(KEY_TYPES[key_type].regex, family).plan
        keys = fixed_keys(key_type)
        batch = compile_batch(plan)
        assert batch(keys) == reference(plan, keys)

    @pytest.mark.parametrize("family", list(HashFamily))
    def test_loop_form_matches_interpreter(self, family, monkeypatch):
        """The entry a NumPy-less host emits — the scalar function
        mapped over the keys — against the same oracle."""
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        plan = synthesize(KEY_TYPES["SSN"].regex, family).plan
        keys = fixed_keys("SSN")
        batch = compile_batch(plan)
        assert not hasattr(batch, "lanes")
        assert batch(keys) == reference(plan, keys)

    @pytest.mark.parametrize("family", list(HashFamily))
    def test_small_batch_guard_path(self, family):
        """Below VECTOR_MIN_KEYS the generated guard maps the scalar
        function inside the vectorized entry; results must agree."""
        plan = synthesize(KEY_TYPES["MAC"].regex, family).plan
        keys = fixed_keys("MAC", count=VECTOR_MIN_KEYS - 1)
        batch = compile_batch(plan)
        assert batch(keys) == reference(plan, keys)

    def test_empty_batch(self):
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT).plan
        batch = compile_batch(plan)
        assert batch([]) == []

    def test_matches_scalar_synthesis(self):
        synthesized = synthesize(KEY_TYPES["IPV4"].regex, HashFamily.PEXT)
        keys = fixed_keys("IPV4")
        assert synthesized.hash_many(keys) == [
            synthesized(key) for key in keys
        ]


class TestBatchParityVariableLength:
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_tail_xor_matches_interpreter(self, family):
        plan = synthesize(VARIABLE_REGEX, family).plan
        assert not plan.is_fixed_length
        keys = variable_keys()
        batch = compile_batch(plan)
        assert batch(keys) == reference(plan, keys)

    def test_variable_length_never_vectorizes(self):
        plan = synthesize(VARIABLE_REGEX, HashFamily.NAIVE).plan
        func = optimize(build_ir(plan, name="hash_many"))
        assert "_np" not in emit_python_module(func)


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector tier needs numpy")
class TestVectorTier:
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_fixed_length_emits_vector_source(self, family):
        plan = synthesize(KEY_TYPES["SSN"].regex, family).plan
        func = optimize(build_ir(plan, name="hash"))
        source = emit_python_module(func)
        assert "_np.frombuffer" in source
        # The module opens with the scalar function the guard maps.
        assert source.startswith(emit_python(func))
        assert "return list(map(hash, keys))" in source

    @pytest.mark.parametrize("key_type", FIXED_FORMATS)
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_vector_equals_loop_form(self, key_type, family):
        """The lane body against the mapped scalar function."""
        synthesized = synthesize(KEY_TYPES[key_type].regex, family)
        keys = fixed_keys(key_type, count=VECTOR_MIN_KEYS * 4)
        vector = compile_batch(synthesized.plan)
        assert vector(keys) == list(map(synthesized.function, keys))

    def test_non_conforming_lengths_fall_back(self):
        """Keys of the wrong length can't reshape into the lane matrix;
        the generated guard must map the scalar function over them
        rather than raise or mis-hash."""
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.NAIVE).plan
        keys = fixed_keys("SSN", count=VECTOR_MIN_KEYS * 2)
        keys[3] = keys[3] + b"X"  # 12 bytes among 11-byte keys
        batch = compile_batch(plan)
        assert batch(keys) == reference(plan, keys)


@pytest.mark.skipif(not HAVE_NUMPY, reason="vector tier needs numpy")
class TestLaneBody:
    """``SynthesizedHash.hash_many`` on a ``uint8[k, L]`` row view runs
    the lane body and returns ``uint64[k]``."""

    @staticmethod
    def rows_of(keys):
        import numpy

        return numpy.frombuffer(b"".join(keys), dtype=numpy.uint8).reshape(
            len(keys), len(keys[0])
        )

    @pytest.mark.parametrize("count", [1, VECTOR_MIN_KEYS - 3, 4096])
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_rows_match_interpreter(self, family, count):
        import numpy

        synthesized = synthesize(KEY_TYPES["MAC"].regex, family)
        assert synthesized.lane_function is not None
        keys = fixed_keys("MAC", count=count, seed=count)
        values = synthesized.hash_many(self.rows_of(keys))
        assert values.dtype == numpy.uint64
        assert values.shape == (count,)
        assert values.tolist() == reference(synthesized.plan, keys)

    def test_partial_last_load(self):
        """INTS is 100 bytes: the last load reads 4 bytes, zero-padded."""
        synthesized = synthesize(KEY_TYPES["INTS"].regex, HashFamily.NAIVE)
        keys = fixed_keys("INTS", count=VECTOR_MIN_KEYS * 2)
        values = synthesized.hash_many(self.rows_of(keys))
        assert values.tolist() == reference(synthesized.plan, keys)

    def test_rows_without_a_vector_form_take_the_list_kernel(self):
        import numpy

        synthesized = synthesize(VARIABLE_REGEX, HashFamily.OFFXOR)
        assert synthesized.lane_function is None
        keys = [key[:16] for key in variable_keys(count=40) if len(key) >= 16]
        values = synthesized.hash_many(self.rows_of(keys))
        assert values.dtype == numpy.uint64
        assert values.tolist() == synthesized.hash_many(keys)

    def test_rows_of_another_width_hash_like_the_list_entry(self):
        synthesized = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT)
        keys = [key + b"X" for key in fixed_keys("SSN", count=32)]
        values = synthesized.hash_many(self.rows_of(keys))
        assert values.tolist() == synthesized.hash_many(keys)

    def test_rows_must_be_a_uint8_matrix(self):
        import numpy

        synthesized = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT)
        with pytest.raises(ValueError):
            synthesized.hash_many(numpy.zeros((4, 11), dtype=numpy.int64))
        with pytest.raises(ValueError):
            synthesized.hash_many(numpy.zeros(11, dtype=numpy.uint8))

    def test_list_entry_exposes_its_lane_body(self):
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.PEXT).plan
        batch = compile_batch(plan)
        assert callable(batch.lanes)
        variable = synthesize(VARIABLE_REGEX, HashFamily.PEXT).plan
        assert not hasattr(compile_batch(variable), "lanes")


class TestBatchSource:
    @pytest.mark.parametrize("regex", [KEY_TYPES["SSN"].regex, VARIABLE_REGEX])
    @pytest.mark.parametrize("family", list(HashFamily))
    def test_only_the_scalar_function_reads_key_bytes(self, family, regex):
        """One scalar lowering: the module's batch tail maps the scalar
        function ``<name>`` itself, and no other ``def`` in the module
        indexes or slices a key."""
        plan = synthesize(regex, family).plan
        source = emit_python_module(optimize(build_ir(plan, name="hash")))
        readers = [
            node.name
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef)
            and any(
                isinstance(sub, ast.Subscript)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "key"
                for sub in ast.walk(node)
            )
        ]
        assert readers == ["hash"]

    @pytest.mark.skipif(not HAVE_NUMPY, reason="vector tier needs numpy")
    def test_module_bytes_are_pinned_to_the_lowering_version(self):
        """A change to the emitted module must bump LOWERING_VERSION.
        This digest covers every built-in plan (13 paper + extended
        formats x 4 families); when the lowering changes, bump
        LOWERING_VERSION and record the new digest beside it."""
        specs = {**KEY_TYPES, **EXTENDED_KEY_TYPES}
        digest = hashlib.sha256()
        plans = 0
        for key_type in sorted(specs):
            for family in HashFamily:
                synthesized = synthesize_short_key(
                    specs[key_type].regex, family
                )
                func = optimize(
                    build_ir(synthesized.plan, name=synthesized.name)
                )
                digest.update(emit_python_module(func).encode() + b"\0")
                plans += 1
        assert plans == 52
        assert digest.hexdigest() == MODULE_DIGESTS[LOWERING_VERSION]


class TestOrderingAndTypes:
    def test_results_align_with_input_order(self):
        plan = synthesize(KEY_TYPES["MAC"].regex, HashFamily.OFFXOR).plan
        keys = fixed_keys("MAC", count=128)
        batch = compile_batch(plan)
        results = batch(keys)
        shuffled = list(keys)
        random.Random(3).shuffle(shuffled)
        remapped = dict(zip(keys, results))
        assert batch(shuffled) == [remapped[key] for key in shuffled]

    def test_returns_plain_python_ints(self):
        """Downstream container code does modulo and comparisons on the
        results; numpy scalars would silently change semantics."""
        plan = synthesize(KEY_TYPES["SSN"].regex, HashFamily.AES).plan
        keys = fixed_keys("SSN", count=VECTOR_MIN_KEYS * 2)
        for value in compile_batch(plan)(keys):
            assert type(value) is int
            assert 0 <= value < 1 << 64
