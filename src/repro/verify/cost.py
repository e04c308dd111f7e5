"""Static per-tier cost model for synthesized hash functions.

The third domain of the multi-domain analyzer (alongside the range and
entropy domains of :mod:`repro.verify.dataflow`): given the opcode
profile of a plan's optimized IR, predict ns/key for each execution
backend *without running a single key*.  Predictions feed the
``sepe analyze`` cost ladder, the ``cost-anomaly`` lint, and the
router's batch-tier selection (:mod:`repro.core.routes`), which
orders callables by predicted cost and falls back to the fixed
native → NumPy → interp preference whenever the model abstains.

Tables were calibrated once on the benchmark container by
``benchmarks/calibrate_cost_model.py`` from the PR 6 profiler's
per-opcode attribution (chained-timestamp interp attribution; NumPy
vector-mode array-op attribution including the ``(batch setup)``
marshaling window) plus direct tier timings:

- **interp** — ns per executed instruction in the IR interpreter;
- **python** — generated scalar source, least-squares fit of measured
  per-key times against opcode counts (collinear opcodes — ``ret``,
  ``const``, ``or`` always travel together in seed plans — fold into
  their neighbours' coefficients, which is harmless for ranking);
- **numpy** — ns per array op per key for the vectorized batch kernel,
  plus a per-key ``__base__`` covering marshaling/setup;
- **native** — two-parameter fit (per-key call overhead plus a
  per-instruction slope) of the compiled ``hash_many`` tier.

A prediction **abstains** (``None``) rather than guess: the NumPy tier
abstains on any non-vectorizable opcode (``tail_xor`` lowers the whole
batch to loop form) and every tier abstains on opcodes missing from
its table, so a future family's new opcode degrades to the fixed tier
order instead of a fabricated number.  Absolute values drift with
hardware; the model's contract is *ranking*, which the EXPERIMENTS.md
sweep checks against measured ``BENCH_batch.json`` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.codegen.ir import IRFunction, build_ir, optimize
from repro.core.plan import SynthesisPlan

#: Tier names in the serving layer's fixed preference order (fastest
#: expected first); also the fallback order when the model abstains.
TIERS: Tuple[str, ...] = ("native", "numpy", "python", "interp")

#: Opcodes the NumPy batch backend cannot express as array ops; their
#: presence drops the whole kernel to loop form, so the model abstains.
NON_VECTORIZABLE = frozenset({"tail_xor"})

#: Calibrated ns tables.  ``__base__`` is a per-key constant (call or
#: marshaling overhead); ``__per_instr__`` (native only) multiplies the
#: total instruction count.  Values marked in the calibration script's
#: output; ``tail_xor`` (interp) and ``mul64``/``shr`` came from a
#: supplemental final-mix / variable-length run, and the python-tier
#: ``mul64``/``shr``/``rotl``/``tail_xor`` entries are estimates
#: consistent with measured final-mix deltas (~62 ns per mix
#: instruction) rather than direct least-squares coefficients.
CALIBRATION: Dict[str, Dict[str, float]] = {
    "interp": {
        "aes_absorb": 53122.0,
        "aes_fold": 1748.8,
        "const": 860.9,
        "load64": 1204.2,
        "mul64": 1050.4,
        "or": 1095.8,
        "pext": 7728.5,
        "ret": 1051.8,
        "rotl": 1674.0,
        "shl": 1287.7,
        "shr": 998.6,
        "tail_xor": 1450.4,
        "xor": 1203.3,
    },
    "python": {
        "__base__": 0.0,
        "aes_absorb": 1826.8,
        "aes_fold": 0.0,
        "const": 0.0,
        "load64": 113.6,
        "mul64": 90.0,
        "or": 0.0,
        "pext": 354.5,
        "ret": 0.0,
        "rotl": 600.0,
        "shl": 409.8,
        "shr": 40.0,
        "tail_xor": 200.0,
        "xor": 62.8,
    },
    "numpy": {
        "__base__": 69.9,
        "aes_absorb": 88.0,
        "aes_fold": 2.2,
        "const": 14.6,
        "load64": 11.8,
        "mul64": 10.0,
        "or": 2.4,
        "pext": 27.1,
        "ret": 24.7,
        "rotl": 9.9,
        "shl": 2.2,
        "shr": 5.5,
        "xor": 6.3,
    },
    "native": {
        "__base__": 32.8,
        "__per_instr__": 0.79,
    },
}


@dataclass(frozen=True)
class CostPrediction:
    """Predicted ns/key per tier for one IR function.

    ``per_tier`` maps tier name to predicted ns/key, or ``None`` when
    the model abstains for that tier.
    """

    per_tier: Mapping[str, Optional[float]]
    opcode_counts: Mapping[str, int]

    def cost(self, tier: str) -> Optional[float]:
        return self.per_tier.get(tier)

    def abstained(self) -> Tuple[str, ...]:
        """Tiers the model declined to price, in fixed-order position."""
        return tuple(t for t in TIERS if self.per_tier.get(t) is None)

    def order(self) -> Tuple[str, ...]:
        """Priced tiers from cheapest to dearest.

        Ties break toward the fixed preference order, so equal
        predictions never *reverse* the conservative default.
        """
        priced = [
            (self.per_tier[t], TIERS.index(t), t)
            for t in TIERS
            if self.per_tier.get(t) is not None
        ]
        return tuple(t for _, _, t in sorted(priced))

    def to_dict(self) -> dict:
        return {
            "per_tier_ns": {
                tier: (round(cost, 1) if cost is not None else None)
                for tier, cost in self.per_tier.items()
            },
            "order": list(self.order()),
            "abstained": list(self.abstained()),
            "opcode_counts": dict(self.opcode_counts),
        }


def _count_opcodes(func: IRFunction) -> Dict[str, int]:
    """Opcode histogram of the straight-line body up to the first ret."""
    counts: Dict[str, int] = {}
    for instr in func.instrs:
        counts[instr.opcode] = counts.get(instr.opcode, 0) + 1
        if instr.opcode == "ret":
            break
    return counts


def predict_costs(opcode_counts: Mapping[str, int]) -> CostPrediction:
    """Price an opcode histogram on every tier (abstaining as needed)."""
    per_tier: Dict[str, Optional[float]] = {}
    total = sum(opcode_counts.values())

    for tier in ("interp", "python", "numpy"):
        table = CALIBRATION[tier]
        if tier == "numpy" and any(
            op in NON_VECTORIZABLE for op in opcode_counts
        ):
            per_tier[tier] = None
            continue
        if any(op not in table for op in opcode_counts):
            per_tier[tier] = None
            continue
        per_tier[tier] = table.get("__base__", 0.0) + sum(
            table[op] * count for op, count in opcode_counts.items()
        )

    native = CALIBRATION["native"]
    per_tier["native"] = (
        native["__base__"] + native["__per_instr__"] * total
    )

    from repro.obs.metrics import get_registry

    get_registry().counter("verify.cost.predictions").inc()
    return CostPrediction(per_tier=per_tier, opcode_counts=dict(opcode_counts))


def predict_ir_costs(func: IRFunction) -> CostPrediction:
    """Price an IR function as-is (no further optimization applied)."""
    return predict_costs(_count_opcodes(func))


def predict_plan_costs(plan: SynthesisPlan) -> CostPrediction:
    """Price a synthesis plan via its optimized IR lowering."""
    return predict_ir_costs(optimize(build_ir(plan)))
