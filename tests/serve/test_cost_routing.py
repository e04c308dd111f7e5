"""Batch tier selection in the route state.

A route's batch tier is ``"native"`` exactly when the plan has a native
module (and the route prefers it), else ``"numpy"``; the static cost
model (:mod:`repro.verify.cost`) takes no part in it.  Either way the
chosen callable must hash identically to the scalar path.
"""

from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen import KEY_TYPES
from repro.core.routes import build_route_state


def _ssn_state(**kwargs):
    return build_route_state(
        "r0", KEY_TYPES["SSN"].regex, HashFamily.PEXT, **kwargs
    )


class TestBatchTierSelection:
    def test_native_iff_a_module_exists(self):
        state = _ssn_state()
        module = state.synthesized.native_module
        assert state.native is (module is not None)
        if module is None:
            assert state.batch_tier == "numpy"
        else:
            assert state.batch_tier == "native"
            assert state.batch == module.hash_many

    def test_without_native_the_numpy_tier_serves(self):
        state = _ssn_state(prefer_native=False)
        assert state.batch_tier == "numpy"
        assert state.batch is state.synthesized.batch_function

    def test_variable_length_plan_falls_back_to_fixed_order(self):
        """A tail_xor plan follows the same rule as any other."""
        synthesized = synthesize(r"[a-z]{8,16}", family=HashFamily.OFFXOR)
        state = build_route_state("r1", synthesized, prefer_native=False)
        assert state.batch_tier == "numpy"
        native = build_route_state("r1", synthesized)
        expected = "numpy" if synthesized.native_module is None else "native"
        assert native.batch_tier == expected

    def test_tier_is_never_priced(self, monkeypatch):
        import repro.verify.cost

        def refuse(plan):
            raise AssertionError("routing must not price a plan")

        monkeypatch.setattr(repro.verify.cost, "predict_plan_costs", refuse)
        for regex in (KEY_TYPES["SSN"].regex, r"[a-z]{8,16}"):
            for family in HashFamily:
                for prefer_native in (True, False):
                    state = build_route_state(
                        "r0", regex, family, prefer_native=prefer_native
                    )
                    assert state.batch_tier in ("native", "numpy")

    def test_picked_batch_agrees_with_scalar(self):
        spec = KEY_TYPES["SSN"]
        state = _ssn_state()
        keys = [
            spec.encode((i * 104729) % spec.space_size) for i in range(64)
        ]
        scalar = state.synthesized.function
        assert list(state.batch(keys)) == [scalar(k) for k in keys]
