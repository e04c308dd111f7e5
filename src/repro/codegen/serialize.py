"""Plan serialization: ship synthesized functions without re-synthesis.

A :class:`~repro.core.plan.SynthesisPlan` is small, declarative data —
exactly what a build system wants to cache or a service wants to ship to
workers.  This module round-trips plans through JSON and rebuilds the
executable function on the other side, so synthesis (pattern analysis,
mask computation) runs once per format per toolchain, not once per
process.

The *pattern* travels as its rendered regex: compact, human-auditable,
and sufficient to reconstruct matching/validation on the consumer side.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.codegen.python_backend import HashCallable
from repro.core.plan import (
    CombineOp,
    HashFamily,
    LoadOp,
    SkipTable,
    SynthesisPlan,
)
from repro.errors import SynthesisError

FORMAT_VERSION = 1
"""Schema version embedded in every serialized plan."""


def plan_to_dict(plan: SynthesisPlan) -> Dict[str, Any]:
    """Lower a plan to plain JSON-ready data."""
    return {
        "version": FORMAT_VERSION,
        "family": plan.family.value,
        "key_length": plan.key_length,
        "combine": plan.combine.value,
        "total_variable_bits": plan.total_variable_bits,
        "bijective": plan.bijective,
        "pattern_regex": plan.pattern_regex,
        "short_key": plan.short_key,
        "final_mix": plan.final_mix,
        "perfect": plan.perfect,
        "loads": [
            {
                "offset": load.offset,
                "mask": load.mask,
                "shift": load.shift,
                "rotate": load.rotate,
                "width": load.width,
            }
            for load in plan.loads
        ],
        "skip_table": (
            {
                "initial_offset": plan.skip_table.initial_offset,
                "skips": list(plan.skip_table.skips),
            }
            if plan.skip_table is not None
            else None
        ),
    }


def plan_from_dict(data: Dict[str, Any]) -> SynthesisPlan:
    """Rebuild a plan from :func:`plan_to_dict` output.

    Raises:
        SynthesisError: on version mismatch or malformed data —
            validation re-runs through the plan dataclasses, so a
            tampered payload cannot produce an out-of-bounds load.
    """
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise SynthesisError(
            f"unsupported plan format version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    try:
        skip_table = None
        if data["skip_table"] is not None:
            skip_table = SkipTable(
                initial_offset=data["skip_table"]["initial_offset"],
                skips=tuple(data["skip_table"]["skips"]),
            )
        return SynthesisPlan(
            family=HashFamily(data["family"]),
            key_length=data["key_length"],
            loads=tuple(
                LoadOp(
                    offset=load["offset"],
                    mask=load["mask"],
                    shift=load["shift"],
                    rotate=load["rotate"],
                    width=load["width"],
                )
                for load in data["loads"]
            ),
            skip_table=skip_table,
            combine=CombineOp(data["combine"]),
            total_variable_bits=data["total_variable_bits"],
            bijective=data["bijective"],
            pattern_regex=data["pattern_regex"],
            short_key=data["short_key"],
            final_mix=data["final_mix"],
            # Payloads written before the perfect tier lack the key;
            # absence means an ordinary (non-perfect) plan.
            perfect=data.get("perfect", False),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SynthesisError(f"malformed serialized plan: {error}") from error


def dumps(plan: SynthesisPlan) -> str:
    """Serialize a plan to a JSON string."""
    return json.dumps(plan_to_dict(plan), sort_keys=True)


def loads(payload: str) -> SynthesisPlan:
    """Parse a plan from a JSON string.

    Raises:
        SynthesisError: on invalid JSON or schema violations.
    """
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as error:
        raise SynthesisError(f"invalid plan JSON: {error}") from error
    if not isinstance(data, dict):
        raise SynthesisError("plan JSON must be an object")
    return plan_from_dict(data)


def compile_serialized(payload: str, name: str = "sepe_hash") -> HashCallable:
    """JSON in, executable hash function out — the consumer-side call.

    The restored plan goes through the process compile cache, so a plan
    this process has already compiled under ``name`` is not lowered
    again.
    """
    # Lazy import: repro.core.synthesis sits on top of repro.codegen.
    from repro.core.synthesis import compile_python

    return compile_python(loads(payload), name)[1]
