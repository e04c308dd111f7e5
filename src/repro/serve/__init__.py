"""The sharded online hash service (ROADMAP: online serving + drift).

Public surface::

    from repro.serve import HashService

    service = HashService(shards=4)
    service.register(r"\\d{3}-\\d{2}-\\d{4}")   # or register_examples(keys)
    service.start()                            # background reconciler

    service.submit(key)        # streaming: batched, delivered to sink
    service.hash(key)          # synchronous scalar
    service.hash_many(keys)    # synchronous batch

Layers, hot path downward:

- :mod:`repro.serve.service` — :class:`HashService`: registration,
  thread→shard binding, atomic table install, lifecycle.
- :mod:`repro.serve.shard` — the single-writer submission lanes.
- :mod:`repro.core.routes` — immutable :class:`RouteTable` /
  :class:`RouteState` snapshots (the thing that hot-swaps) and the
  columnar batch loop, shared with
  :class:`~repro.core.dispatch.FormatDispatcher`: one router for both.
- :mod:`repro.serve.drift` — pattern-vs-sample drift detection as
  monoid algebra over :class:`~repro.core.fast_infer.PatternAccumulator`.
- :mod:`repro.serve.reconciler` — the background resynthesize-and-swap
  loop, ``verify="strict"`` gated.
- :mod:`repro.serve.replay` — the traffic-replay benchmark harness.
"""

from repro.core.routes import RouteState, RouteTable, build_route_state
from repro.serve.drift import (
    DRIFT_KINDS,
    DRIFT_NEW_LENGTH,
    DRIFT_WIDENED_BYTE_CLASS,
    DriftReport,
    accumulator_from_pattern,
    detect_drift,
    route_affinity,
)
from repro.serve.reconciler import Reconciler, SwapEvent, SwapFailure
from repro.serve.replay import (
    ReplayConfig,
    VerifyingSink,
    build_schedules,
    measure_scaling,
    run_replay,
    scaling_ratio,
)
from repro.serve.service import HashService
from repro.serve.shard import Shard, sampling_mask

__all__ = [
    "DRIFT_KINDS",
    "DRIFT_NEW_LENGTH",
    "DRIFT_WIDENED_BYTE_CLASS",
    "DriftReport",
    "HashService",
    "Reconciler",
    "ReplayConfig",
    "RouteState",
    "RouteTable",
    "Shard",
    "SwapEvent",
    "SwapFailure",
    "VerifyingSink",
    "accumulator_from_pattern",
    "build_route_state",
    "build_schedules",
    "detect_drift",
    "measure_scaling",
    "route_affinity",
    "run_replay",
    "sampling_mask",
    "scaling_ratio",
]
