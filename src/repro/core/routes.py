"""The router: immutable route tables and the columnar batch loop.

The paper's Figure 2 shows Polymur branching on key length before it
hashes.  This module is the one place that branch is automated: a key
resolves by length alone when exactly one route can serve that length
(the paper's functions assume conforming input, footnote 3), and
contested lengths fall through to template matching.  Both front doors
— :class:`repro.core.dispatch.FormatDispatcher` and the sharded
:class:`repro.serve.HashService` — route through a :class:`RouteTable`,
so a key gets the same hash whichever door it enters.

A :class:`RouteTable` is a persistent data structure: built once,
shared by reference, and *replaced* — never mutated — when a route is
added or hot-swapped.  Under CPython a plain attribute store is an
atomic reference swap, so readers either see the whole old table or the
whole new one, and the hashing hot path never takes a lock.

Each :class:`RouteState` pre-resolves the fastest callable of every
kind at build time — scalar and list batch (native when the plan has a
native module, else the Python tiers: the scalar function and the
NumPy batch entry) and array batch (native only: the native list entry,
which reads the key list itself) — through the process
:class:`repro.codegen.cache.CompileCache`, so a hot-swap pays JIT cost
in the thread that builds it and traffic only ever calls
already-compiled functions.

:func:`hash_columnar` is the one synchronous batch loop: sort the batch
by key length once, hash each length run a route owns in one call (the
run's key list for a native route, a row view of one joined block for
the NumPy tier), resolve the rest key by key, and scatter everything
into one ``uint64`` array.  Where the host has a C++ toolchain, the
lengths and the joined block come from one per-host C unit that reads
the key list itself (:func:`repro.codegen.native.scan_unit`, compiled
on the first batch); elsewhere, and for a batch that unit cannot read,
from the Python scan :func:`length_runs`.  The block is written only
when some run is hashed from rows, and a run's key list is built only
where something reads keys: an all-native one-length batch is handed to
the native list entry as it came.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.codegen.batch import VECTOR_MIN_KEYS
from repro.codegen.native import scan_unit
from repro.core.pattern import KeyPattern
from repro.core.plan import HashFamily
from repro.core.synthesis import FormatSource, SynthesizedHash, synthesize

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy-less installs
    _np = None

_FAST_LENGTH_SPAN = 64
"""Widest bounded variable-length range eagerly expanded into the
length → route map; wider ranges resolve through the match walk."""

RunCallback = Callable[[Optional["RouteState"], int, int], None]
"""Per-run accounting hook of :func:`hash_columnar`: ``(route, keys,
elapsed_ns)``, ``route`` None for keys the fallback hashed."""


class RouteState:
    """One route's plan plus its pre-resolved callables, frozen.

    Attributes:
        route_id: stable identity across hot swaps (``"r0"``, ...).
        label: human-readable route name (the plan's format regex).
        synthesized: the full synthesis artifact behind the callables.
        generation: 0 at registration, +1 per verified hot swap.
        scalar: fastest ``hash(key) -> int`` available.
        batch: fastest ``hash_many(keys) -> list[int]`` available.
        batch_array: native ``hash_many_array`` returning a NumPy
            uint64 array, or None when the native tier degraded or NumPy
            is missing.
        native: True when the native module backs the callables.
        key_length: the plan's fixed key length, or None for a
            variable-length plan.
        batch_tier: name of the tier serving ``batch``: ``"native"``
            when a native module exists, else ``"numpy"``; :meth:`hash_run`
            uses the same tier.
    """

    __slots__ = (
        "route_id",
        "label",
        "synthesized",
        "generation",
        "scalar",
        "batch",
        "batch_array",
        "native",
        "key_length",
        "batch_tier",
    )

    def __init__(
        self,
        route_id: str,
        synthesized: SynthesizedHash,
        generation: int = 0,
        prefer_native: bool = True,
        label: Optional[str] = None,
    ):
        self.route_id = route_id
        self.synthesized = synthesized
        self.generation = generation
        self.label = label or synthesized.plan.pattern_regex or route_id
        module = synthesized.native_module if prefer_native else None
        self.native = module is not None
        self.batch_array = None
        if module is None:
            self.scalar = synthesized.function
            self.batch = synthesized.batch_function
            self.batch_tier = "numpy"
        else:
            self.scalar = module
            self.batch = module.hash_many
            self.batch_tier = "native"
            if _np is not None:
                self.batch_array = module.hash_many_array
        self.key_length = synthesized.plan.key_length

    @property
    def pattern(self) -> KeyPattern:
        """The key pattern this route's plan was synthesized for."""
        return self.synthesized.pattern

    @property
    def family(self) -> HashFamily:
        return self.synthesized.family

    def reads_rows(self, count: int) -> bool:
        """Whether :meth:`hash_run` hashes a run of ``count`` keys from
        its row view: the NumPy tier with a lane body, and a run of at
        least :data:`~repro.codegen.batch.VECTOR_MIN_KEYS` keys."""
        return (
            self.batch_tier == "numpy"
            and count >= VECTOR_MIN_KEYS
            and self.synthesized.lane_function is not None
        )

    def hash_run(self, keys: Optional[Sequence[bytes]] = None, rows=None):
        """Hash one run of this route's keys through its batch tier.

        Pass the run's ``uint8[k, L]`` row view as ``rows`` when
        :meth:`reads_rows` says so — it goes to the NumPy lane body —
        and otherwise the run's key list as ``keys``.  The native tier
        reads the key list itself through ``hash_many_array``; the
        NumPy tier hashes it with the format's ``hash_many``.
        ``hash_many`` is looked up per call, never captured, so a
        wrapper installed on the artifact sees every kernel call.
        Returns a ``uint64`` array or a list of ints, aligned with the
        run.
        """
        if rows is not None:
            return self.synthesized.hash_many(rows)
        if self.batch_tier == "native":
            # ``scalar`` is the native module when it serves.
            return self.scalar.hash_many_array(keys)
        return self.synthesized.hash_many(keys)

    def __repr__(self) -> str:
        return (
            f"RouteState({self.route_id}, {self.label!r}, "
            f"gen={self.generation}, native={self.native})"
        )


def build_route_state(
    route_id: str,
    source: Union[FormatSource, SynthesizedHash],
    family: HashFamily = HashFamily.PEXT,
    *,
    generation: int = 0,
    prefer_native: bool = True,
    verify: Optional[str] = None,
    label: Optional[str] = None,
) -> RouteState:
    """Synthesize (unless given an artifact) and freeze a route state.

    Raises:
        SynthesisError: propagated for unsupported formats.
        VerificationError: under ``verify="strict"`` when the static
            verifier refutes the plan — the swap/registration must not
            happen.
    """
    if isinstance(source, SynthesizedHash):
        synthesized = source
    else:
        synthesized = synthesize(source, family=family, verify=verify)
    return RouteState(
        route_id,
        synthesized,
        generation=generation,
        prefer_native=prefer_native,
        label=label,
    )


class RouteTable:
    """An immutable snapshot of every route, with O(1) length routing.

    ``fast`` maps key lengths that exactly one route can serve to that
    route — the hot path is one dict probe against it.  A length is
    contested when two fixed routes collide on it, when a variable
    route's range overlaps a fixed route, or when it falls inside the
    ``[min_length, max_length]`` range (open-ended when unbounded) of a
    variable route too wide to expand; contested lengths resolve
    through :meth:`resolve_checked`'s template walk.
    """

    __slots__ = ("version", "routes", "fast", "_fixed", "_variable")

    def __init__(self, routes: Sequence[RouteState], version: int = 0):
        self.version = version
        self.routes: Tuple[RouteState, ...] = tuple(routes)
        fixed: Dict[int, List[RouteState]] = {}
        variable: List[RouteState] = []
        for route in self.routes:
            pattern = route.pattern
            if pattern.is_fixed_length:
                fixed.setdefault(pattern.body_length, []).append(route)
            else:
                variable.append(route)
        self._fixed = {length: tuple(states) for length, states in
                       fixed.items()}
        self._variable = tuple(variable)
        self.fast = self._build_fast_map(fixed, variable)

    @staticmethod
    def _build_fast_map(
        fixed: Dict[int, List[RouteState]],
        variable: List[RouteState],
    ) -> Dict[int, RouteState]:
        claims: Dict[int, List[RouteState]] = {
            length: list(states) for length, states in fixed.items()
        }
        wide: List[Tuple[int, float]] = []
        for route in variable:
            pattern = route.pattern
            upper = pattern.max_length
            if (
                upper is None
                or upper - pattern.min_length > _FAST_LENGTH_SPAN
            ):
                # Contests its whole range without claiming any of it.
                wide.append(
                    (pattern.min_length, float("inf") if upper is None
                     else upper)
                )
                continue
            for length in range(pattern.min_length, upper + 1):
                claims.setdefault(length, []).append(route)
        return {
            length: states[0]
            for length, states in claims.items()
            if len(states) == 1
            and not any(lower <= length <= upper for lower, upper in wide)
        }

    def resolve(self, key: bytes) -> Optional[RouteState]:
        """The route serving ``key``, or None (fallback traffic).

        Lengths owned by exactly one route resolve by length alone;
        contested lengths fall through to template matching.
        """
        route = self.fast.get(len(key))
        if route is not None:
            return route
        return self.resolve_checked(key)

    def resolve_checked(self, key: bytes) -> Optional[RouteState]:
        """Template-matching resolution (no length-trust shortcut)."""
        for route in self._fixed.get(len(key), ()):
            if route.pattern.matches(key):
                return route
        for route in self._variable:
            if route.pattern.matches(key):
                return route
        return None

    def get(self, route_id: str) -> Optional[RouteState]:
        for route in self.routes:
            if route.route_id == route_id:
                return route
        return None

    def with_route(self, *new_states: RouteState) -> "RouteTable":
        """A new table with each same-id route replaced (the hot swap;
        several states replace several routes in one snapshot)."""
        by_id = {state.route_id: state for state in new_states}
        for route_id in by_id:
            if self.get(route_id) is None:
                raise KeyError(f"no route {route_id!r} to replace")
        replaced = tuple(
            by_id.get(route.route_id, route) for route in self.routes
        )
        return RouteTable(replaced, version=self.version + 1)

    def added(self, new_state: RouteState) -> "RouteTable":
        """A new table with an additional route appended."""
        if self.get(new_state.route_id) is not None:
            raise KeyError(f"route {new_state.route_id!r} already exists")
        return RouteTable(
            self.routes + (new_state,), version=self.version + 1
        )

    def __len__(self) -> int:
        return len(self.routes)

    def __repr__(self) -> str:
        return (
            f"RouteTable(v{self.version}, "
            f"routes=[{', '.join(r.route_id for r in self.routes)}])"
        )


# -- the columnar batch loop ---------------------------------------------------


def length_runs(keys: Sequence[bytes]):
    """Stable-sort a batch by key length, once: ``(sorted_keys, order, runs)``.

    ``runs`` lists one ``(length, start, stop)`` slice of
    ``sorted_keys`` per distinct length, shortest first, and
    ``order[i]`` is the position in ``keys`` of ``sorted_keys[i]`` (a
    NumPy index array), so results computed in sorted order scatter
    back with ``out[order] = values``.  A batch of one length is one
    run: ``sorted_keys`` is then ``keys`` itself and ``order`` is None.

    Lengths below 256 (every format the paper names) are taken as one
    ``bytes`` object, one byte per key: the homogeneous check is then a
    ``memchr``-speed ``count`` and the mixed sort a radix sort over a
    zero-copy ``uint8`` view.  Needs NumPy.
    """
    count = len(keys)
    if not count:
        return keys, None, []
    try:
        lengths = bytes(map(len, keys))
    except ValueError:  # a key of 256 bytes or more
        lens = _np.fromiter(map(len, keys), dtype=_np.intp, count=count)
        if lens.min() == lens.max():
            return keys, None, [(len(keys[0]), 0, count)]
    else:
        if lengths.count(lengths[:1]) == count:
            return keys, None, [(lengths[0], 0, count)]
        lens = _np.frombuffer(lengths, dtype=_np.uint8)
    order, runs = _sorted_runs(lens)
    # Gathering through an object array beats a Python-level gather.
    gathered = _np.empty(count, dtype=object)
    gathered[:] = keys
    return gathered[order].tolist(), order, runs


def _sorted_runs(lens):
    """``(order, runs)`` of :func:`length_runs` for the NumPy array of
    a mixed batch's key lengths: a radix sort, then one run per
    distinct length."""
    order = _np.argsort(lens, kind="stable")
    ordered = lens[order]
    cuts = (_np.flatnonzero(ordered[1:] != ordered[:-1]) + 1).tolist()
    bounds = [0, *cuts, len(lens)]
    runs = [
        (int(ordered[start]), start, stop)
        for start, stop in zip(bounds, bounds[1:])
    ]
    return order, runs


def unsort(values, order):
    """Put ``uint64`` results computed in :func:`length_runs` order
    back in batch order."""
    if order is None:
        return values
    out = _np.empty_like(values)
    out[order] = values
    return out


def row_view(block: bytes, offset: int, count: int, length: int):
    """The zero-copy ``uint8[count, length]`` view of ``count`` keys of
    ``length`` bytes joined in ``block`` from byte ``offset`` on."""
    return _np.frombuffer(
        block, dtype=_np.uint8, count=count * length, offset=offset
    ).reshape(count, length)


def hash_fallback(fallback: Callable[[bytes], int], keys, rows=None):
    """Hash keys no route owns: a ``uint64`` array or a list of ints.

    A fallback carrying a NumPy row kernel as ``fallback.lanes`` (the
    STL murmur port does) hashes each length run of at least
    :data:`~repro.codegen.batch.VECTOR_MIN_KEYS` keys with one call on
    its ``uint8[k, L]`` row view — ``rows`` when the caller already
    holds it for keys of one length.  Shorter runs, and every key of a
    fallback without ``.lanes``, take one ``fallback(key)`` call per key,
    in order.  Results are aligned with ``keys``.
    """
    lanes = getattr(fallback, "lanes", None)
    if lanes is None or len(keys) < VECTOR_MIN_KEYS:
        return [fallback(key) for key in keys]
    if rows is not None:
        return lanes(rows)
    ordered, order, runs = length_runs(keys)
    block = b"".join(ordered)
    out = _np.empty(len(keys), dtype=_np.uint64)
    offset = 0
    for length, start, stop in runs:
        size = stop - start
        rows = row_view(block, offset, size, length)
        out[start:stop] = hash_fallback(fallback, ordered[start:stop], rows)
        offset += size * length
    return unsort(out, order)


def group_by_resolution(keys: Sequence[bytes], resolve: Callable):
    """Group keys by what ``resolve(key)`` returns: ``(groups, unresolved)``.

    ``groups`` lists ``(target, indices, keys)`` per distinct target in
    first-seen order; ``unresolved`` holds the positions ``resolve``
    mapped to None.  The per-key path for keys whose length alone does
    not decide their hash.
    """
    groups: Dict[int, tuple] = {}
    unresolved: List[int] = []
    for index, key in enumerate(keys):
        target = resolve(key)
        if target is None:
            unresolved.append(index)
        elif id(target) in groups:
            group = groups[id(target)]
            group[1].append(index)
            group[2].append(key)
        else:
            groups[id(target)] = (target, [index], [key])
    return list(groups.values()), unresolved


def _native_scan(keys, fast, fallback):
    """The batch's length runs from the native scan unit, or None.

    Returns ``(keys, order, runs, block)``: ``keys`` as a list, ``order``
    and ``runs`` as :func:`length_runs` returns them, and ``block`` the
    length-sorted keys joined into one ``uint8`` block, or None when no
    run is hashed from rows.  None — the Python scan then takes the
    batch — under ``SEPE_NATIVE=0``, without the unit, when a key is
    not ``bytes`` or is 256 bytes or longer, and when the list changed
    between the scan and the gather.
    """
    unit = scan_unit()
    if unit is None:
        return None
    if not isinstance(keys, list):
        keys = list(keys)
    scanned = unit.lengths(keys)
    if scanned is None:
        return None
    lens, total, same = scanned
    count = len(keys)
    if not count:
        return keys, None, [], None
    if same:
        order, runs = None, [(lens[0], 0, count)]
    else:
        order, runs = _sorted_runs(_np.frombuffer(lens, dtype=_np.uint8))
    fallback_rows = getattr(fallback, "lanes", None) is not None
    for length, start, stop in runs:
        route = fast.get(length)
        if (
            route.reads_rows(stop - start)
            if route is not None
            else fallback_rows and stop - start >= VECTOR_MIN_KEYS
        ):
            block = unit.gather(keys, order, lens, total)
            if block is None:
                return None
            return keys, order, runs, block
    return keys, order, runs, None


def hash_columnar(
    table: RouteTable,
    keys: Sequence[bytes],
    fallback: Callable[[bytes], int],
    on_run: RunCallback,
    checked: bool = False,
):
    """Hash a batch through ``table`` into one ``uint64`` array.

    The batch is stable-sorted by key length once (a batch of one
    length needs no sort).  Two bodies scan it:

    - the native scan unit (:func:`repro.codegen.native.scan_unit`),
      compiled on the first call: one C pass over the key list records
      every key's length, and a second copies the length-sorted keys
      into one block, only when some run is hashed from rows;
    - the Python scan (:func:`length_runs`, then one ``b"".join``),
      under ``SEPE_NATIVE=0``, without a toolchain, for a batch with a
      key that is not ``bytes`` or is 256 bytes or longer, and when the
      list changed between the two C calls.

    A run whose length ``table.fast`` owns is hashed by one
    :meth:`RouteState.hash_run` call: on its zero-copy ``uint8[k, L]``
    row view of the block when :meth:`RouteState.reads_rows`, otherwise
    on its key list — the batch itself when it is one run, else built
    from the sort order only here.  Every other run — and every run
    when ``checked`` (no length trust) — resolves key by key through
    :meth:`RouteTable.resolve_checked`, one ``hash_run`` per resolved
    route, and :func:`hash_fallback` hashes the keys no route accepts
    from the run's rows.  Results land in batch order.  After each
    hashing call ``on_run`` receives the route (None for the fallback),
    its key count and the call's wall time, for the caller's own
    accounting.

    Needs NumPy.
    """
    fast = {} if checked else table.fast
    scanned = _native_scan(keys, fast, fallback)
    if scanned is None:
        ordered, order, runs = length_runs(keys)
        block = b"".join(ordered)
    else:
        keys, order, runs, block = scanned
        ordered = keys if order is None else None
    out = _np.empty(len(keys), dtype=_np.uint64)
    if block is not None:
        block = _np.frombuffer(block, dtype=_np.uint8)
    perf = time.perf_counter_ns
    offset = 0
    rows = None
    for length, start, stop in runs:
        size = stop - start
        if block is not None:
            end = offset + size * length
            rows = block[offset:end].reshape(size, length)
            offset = end
        route = fast.get(length)
        if route is not None and rows is not None and route.reads_rows(size):
            started = perf()
            out[start:stop] = route.hash_run(rows=rows)
            on_run(route, size, perf() - started)
            continue
        if ordered is not None:
            run = ordered if size == len(ordered) else ordered[start:stop]
        else:
            run = [keys[i] for i in order[start:stop].tolist()]
        if route is not None:
            started = perf()
            out[start:stop] = route.hash_run(run)
            on_run(route, size, perf() - started)
            continue
        window = out[start:stop]
        groups, unresolved = group_by_resolution(run, table.resolve_checked)
        for route, indices, grouped in groups:
            started = perf()
            window[indices] = route.hash_run(grouped)
            on_run(route, len(indices), perf() - started)
        if len(unresolved) == size:  # no key of the run resolved
            started = perf()
            window[:] = hash_fallback(fallback, run, rows)
            on_run(None, size, perf() - started)
        elif unresolved:
            started = perf()
            window[unresolved] = hash_fallback(
                fallback,
                [run[i] for i in unresolved],
                None if rows is None else rows[unresolved],
            )
            on_run(None, len(unresolved), perf() - started)
    return unsort(out, order)
