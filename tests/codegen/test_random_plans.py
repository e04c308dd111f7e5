"""Property tests over randomly generated plans.

Synthesis only ever produces well-formed plans of a few shapes; these
tests drive the codegen stack (serializer, Python backend, interpreter)
with *arbitrary* valid plans from a hypothesis strategy, so invariants
hold for every plan a future analysis pass might produce, not just
today's.
"""

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from repro.codegen.batch import emit_python_module, scalar_source
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.codegen.python_backend import (
    compile_plan,
    compile_source,
    emit_python,
)
from repro.codegen.serialize import dumps, loads
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SynthesisPlan,
)

KEY_LENGTH = 32
MASK64 = (1 << 64) - 1


@st.composite
def random_plan(draw):
    """A valid fixed-length plan over 32-byte keys."""
    combine = draw(
        st.sampled_from([CombineOp.XOR, CombineOp.OR, CombineOp.AESENC])
    )
    load_count = draw(st.integers(min_value=1, max_value=4))
    loads = []
    for _ in range(load_count):
        offset = draw(st.integers(min_value=0, max_value=KEY_LENGTH - 8))
        if combine is CombineOp.AESENC:
            loads.append(LoadOp(offset))
            continue
        width = draw(st.sampled_from([8, 8, 1, 3, 7]))
        mask = draw(
            st.one_of(
                st.none(),
                st.integers(min_value=1, max_value=(1 << (8 * width)) - 1),
            )
        )
        transform = draw(st.sampled_from(["none", "shift", "rotate"]))
        shift = rotate = 0
        if transform == "shift":
            shift = draw(st.integers(min_value=0, max_value=63))
        elif transform == "rotate":
            rotate = draw(st.integers(min_value=0, max_value=63))
        loads.append(
            LoadOp(offset, mask=mask, shift=shift, rotate=rotate, width=width)
        )
    return SynthesisPlan(
        family=draw(
            st.sampled_from(
                [HashFamily.NAIVE, HashFamily.OFFXOR, HashFamily.PEXT]
            )
        )
        if combine is not CombineOp.AESENC
        else HashFamily.AES,
        key_length=KEY_LENGTH,
        loads=tuple(loads),
        skip_table=None,
        combine=combine,
        total_variable_bits=draw(st.integers(min_value=0, max_value=256)),
        bijective=False,
        pattern_regex="<random>",
        final_mix=draw(st.booleans()),
    )


class TestRandomPlans:
    @given(random_plan())
    @settings(max_examples=60, deadline=None)
    def test_serialize_roundtrip(self, plan):
        assert loads(dumps(plan)) == plan

    @given(random_plan(), st.binary(min_size=KEY_LENGTH,
                                    max_size=KEY_LENGTH))
    @settings(max_examples=60, deadline=None)
    def test_backend_matches_interpreter(self, plan, key):
        compiled = compile_plan(plan, name="f")
        func = optimize(build_ir(plan, name="f"))
        assert compiled(key) == interpret(func, key)

    @given(random_plan(), st.binary(min_size=KEY_LENGTH,
                                    max_size=KEY_LENGTH))
    @settings(max_examples=60, deadline=None)
    def test_output_in_64_bit_range(self, plan, key):
        compiled = compile_plan(plan, name="f")
        assert 0 <= compiled(key) <= MASK64

    @given(random_plan(), st.binary(min_size=KEY_LENGTH,
                                    max_size=KEY_LENGTH))
    @settings(max_examples=40, deadline=None)
    def test_serialized_plan_compiles_identically(self, plan, key):
        original = compile_plan(plan, name="f")
        rebuilt = compile_plan(loads(dumps(plan)), name="f")
        assert original(key) == rebuilt(key)

    @given(
        random_plan(),
        st.binary(min_size=KEY_LENGTH + 8, max_size=KEY_LENGTH + 8),
        st.integers(min_value=0, max_value=KEY_LENGTH + 8),
    )
    @settings(max_examples=80, deadline=None)
    def test_fused_lowering_matches_interpreter_on_any_length(
        self, plan, data, length
    ):
        """The fused wide loads agree with per-load slicing on keys of
        every length: empty, shorter than one load, one byte short, the
        plan's length, 8 bytes longer, and a drawn length."""
        func = optimize(build_ir(plan, name="f"))
        scalar = compile_plan(plan, name="f")
        module = emit_python_module(func)
        assert scalar_source(module) == emit_python(func)
        batch = compile_source(module, "f").many
        keys = [
            data[:n]
            for n in (0, 1, 7, KEY_LENGTH - 1, KEY_LENGTH, KEY_LENGTH + 8,
                      length)
        ]
        expected = [interpret(func, key) for key in keys]
        assert [scalar(key) for key in keys] == expected
        assert batch(keys) == expected

    @pytest.mark.parametrize("tabulated", [True, False])
    def test_strategy_reaches_both_scalar_forms(self, tabulated):
        """The strategy draws plans of both scalar lowerings — byte
        tables and gathers — so the properties above cover each."""

        def form(plan):
            source = emit_python(optimize(build_ir(plan, name="f")))
            return ("except IndexError" in source) == tabulated

        find(random_plan(), form, settings=settings(max_examples=500))

    @given(random_plan())
    @settings(max_examples=40, deadline=None)
    def test_optimizer_preserves_semantics(self, plan):
        key = bytes(range(KEY_LENGTH))
        raw = build_ir(plan, name="f")
        optimized = optimize(build_ir(plan, name="f"))
        assert interpret(raw, key) == interpret(optimized, key)


class TestRandomPlanLanes:
    """The NumPy lane body agrees with the interpreter on every row."""

    np = pytest.importorskip("numpy")

    @given(
        random_plan(),
        st.sampled_from([16, 17, 257]),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_lanes_match_interpreter(self, plan, rows_count, seed):
        np = self.np
        func = optimize(build_ir(plan, name="f"))
        lanes = compile_source(emit_python_module(func), "f").many.lanes
        rows = np.random.default_rng(seed).integers(
            0, 256, size=(rows_count, KEY_LENGTH), dtype=np.uint8
        )
        assert lanes(rows).tolist() == [
            interpret(func, row.tobytes()) for row in rows
        ]
