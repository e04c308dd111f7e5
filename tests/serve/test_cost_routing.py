"""Cost-model-driven batch tier selection in the route state.

The static cost model (:mod:`repro.verify.cost`) orders the batch
candidates by predicted ns/key; when it abstains the route falls back
to the fixed native → NumPy preference that predated the model.  Either
way the chosen callable must hash identically to the scalar path.
"""

from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.keygen import KEY_TYPES
from repro.core.routes import _pick_batch_tier, build_route_state
from repro.verify.cost import predict_plan_costs


def _ssn_state(**kwargs):
    return build_route_state(
        "r0", KEY_TYPES["SSN"].regex, HashFamily.PEXT, **kwargs
    )


class TestBatchTierSelection:
    def test_route_state_records_tier_and_ordering_mode(self):
        state = _ssn_state()
        assert state.batch_tier in ("native", "numpy")
        assert isinstance(state.cost_ordered, bool)

    def test_without_native_the_numpy_tier_serves(self):
        state = _ssn_state(prefer_native=False)
        assert state.batch_tier == "numpy"
        assert state.batch is state.synthesized.batch_function

    def test_cost_ordering_matches_prediction_when_priced(self):
        state = _ssn_state()
        if not state.native:
            # A sole candidate is taken without pricing it.
            assert not state.cost_ordered
            return
        prediction = predict_plan_costs(state.synthesized.plan)
        candidates = ("native", "numpy")
        if all(prediction.cost(tier) is not None for tier in candidates):
            assert state.cost_ordered
            expected = next(
                tier for tier in prediction.order() if tier in candidates
            )
            assert state.batch_tier == expected
        else:
            assert not state.cost_ordered

    def test_variable_length_plan_falls_back_to_fixed_order(self):
        """tail_xor makes NumPy abstain, so the fixed order decides."""
        synthesized = synthesize(r"[a-z]{8,16}", family=HashFamily.OFFXOR)
        prediction = predict_plan_costs(synthesized.plan)
        assert prediction.cost("numpy") is None
        state = build_route_state("r1", synthesized, prefer_native=False)
        assert state.cost_ordered is False
        assert state.batch_tier == "numpy"

    def test_picked_batch_agrees_with_scalar(self):
        spec = KEY_TYPES["SSN"]
        state = _ssn_state()
        keys = [
            spec.encode((i * 104729) % spec.space_size) for i in range(64)
        ]
        scalar = state.synthesized.function
        assert list(state.batch(keys)) == [scalar(k) for k in keys]

    def test_pick_batch_tier_single_candidate(self, monkeypatch):
        import repro.verify.cost

        def refuse(plan):
            raise AssertionError("a sole candidate must not be priced")

        monkeypatch.setattr(repro.verify.cost, "predict_plan_costs", refuse)
        synthesized = synthesize(
            KEY_TYPES["SSN"].regex, family=HashFamily.PEXT
        )
        batch, tier, cost_ordered = _pick_batch_tier(
            synthesized, {"numpy": synthesized.batch_function}
        )
        assert tier == "numpy"
        assert batch is synthesized.batch_function
        assert cost_ordered is False
