"""Perfect-tier comparison: certified lookups vs gperf/FNV/paper families.

The measurement engine behind ``benchmarks/bench_perfect.py`` and the
ledger's perfect smoke sample.  For one closed key set it races every
variant on the *same* keys:

- **perfect** — the certified plan from
  :func:`repro.perfect.synthesize_perfect`, container lookups on the
  ``perfect=True`` fast path (one key comparison at the first hash
  match, no chain walk; that the match is the only candidate is the
  exhaustive :class:`~repro.perfect.PerfectCertificate`).
- **gperf** — the mini-gperf baseline trained on the same closed set.
- **fnv** — FNV-1a, the classic general-purpose byte loop.
- **naive / offxor / aes / pext** — the paper families synthesized for
  the set's inferred format (open-set hashes: no certificate, so their
  lookups pay the key equality probe).

Two figures per (set, variant): H-Time ns/key (scalar hash loop over
the whole set) and lookup ns/key (``UnorderedSet.find`` over every key
on a pre-built table), each with per-repeat samples for noise-aware
ledger verdicts.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.runner import measure_h_time
from repro.containers import UnorderedSet
from repro.core.inference import infer_pattern
from repro.core.plan import HashFamily
from repro.core.synthesis import synthesize
from repro.errors import SepeError
from repro.hashes.fnv import fnv1a_64
from repro.hashes.gperf import generate as gperf_generate
from repro.perfect import (
    BUILTIN_KEY_SET_NAMES,
    builtin_key_set,
    rq_closed_set,
    synthesize_perfect,
)

RQ_SETS = ("SSN", "MAC")
"""Paper RQ formats sampled as closed sets for the committed artifact."""


def _measure_lookup(
    table: UnorderedSet, keys: Sequence[bytes], repeats: int
) -> List[float]:
    """ns/key samples for ``find`` over every key, one pass per repeat."""
    find = table.find
    scale = 1e9 / len(keys)
    samples: List[float] = []
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for key in keys:
            find(key)
        samples.append((time.perf_counter() - start) * scale)
    return samples


def _measure_variant(
    name: str,
    hash_function: Callable[[bytes], int],
    keys: Sequence[bytes],
    repeats: int,
    perfect: bool = False,
) -> Dict[str, object]:
    scale = 1e9 / len(keys)
    h_samples = [
        measure_h_time(hash_function, keys, repeats=1) * scale
        for _ in range(max(repeats, 1))
    ]
    table = UnorderedSet(hash_function, perfect=perfect)
    table.insert_many(keys)
    lookup_samples = _measure_lookup(table, keys, repeats)
    return {
        "variant": name,
        "h_ns_per_key": min(h_samples),
        "lookup_ns_per_key": min(lookup_samples),
        "samples_h": h_samples,
        "samples_lookup": lookup_samples,
        "repeats": max(repeats, 1),
        "fast_path": perfect,
    }


def measure_key_set(
    label: str,
    keys: Sequence[bytes],
    repeats: int = 5,
) -> Dict[str, object]:
    """All variants over one closed key set, plus the certificate."""
    keys = list(keys)
    perfect = synthesize_perfect(keys)
    rows: List[Dict[str, object]] = [
        _measure_variant(
            "perfect",
            perfect.container_function,
            keys,
            repeats,
            perfect=True,
        )
    ]
    gperf = gperf_generate(keys)
    rows.append(_measure_variant("gperf", gperf, keys, repeats))
    rows.append(_measure_variant("fnv", fnv1a_64, keys, repeats))
    pattern = infer_pattern(keys)
    for family in HashFamily:
        try:
            synthesized = synthesize(pattern, family)
        except SepeError:
            continue  # family refuses this format (e.g. AES width rules)
        rows.append(
            _measure_variant(
                family.value, synthesized.function, keys, repeats
            )
        )
    return {
        "key_set": label,
        "key_count": len(keys),
        "key_width": max(len(key) for key in keys),
        "certificate": perfect.certificate.to_dict(),
        "gperf_table_size": gperf.table_size,
        "gperf_perfect_on_train": gperf.is_perfect_on_keywords(),
        "rows": rows,
    }


def measure(
    rq_count: int = 1000,
    repeats: int = 5,
    seed: int = 0,
    rq_sets: Sequence[str] = RQ_SETS,
) -> Dict[str, object]:
    """The full perfect report: built-in fixtures + RQ closed samples."""
    sets: List[Tuple[str, Sequence[bytes]]] = [
        (name, builtin_key_set(name)) for name in BUILTIN_KEY_SET_NAMES
    ]
    sets.extend(
        (name.lower(), rq_closed_set(name, count=rq_count, seed=seed))
        for name in rq_sets
    )
    return {
        "benchmark": "perfect",
        "params": {
            "rq_count": rq_count,
            "repeats": repeats,
            "seed": seed,
        },
        "key_sets": [
            measure_key_set(label, keys, repeats=repeats)
            for label, keys in sets
        ],
    }


def render(report: Dict[str, object]) -> str:
    lines: List[str] = []
    for entry in report["key_sets"]:
        certificate = entry["certificate"]
        lines.append(
            f"{entry['key_set']}: {entry['key_count']} keys x "
            f"{entry['key_width']}B -> {certificate['hash_bits']}-bit "
            f"perfect hash (load {certificate['load_factor']:.3f}, "
            f"strategy {certificate['strategy'] or 'structural'})"
        )
        for row in entry["rows"]:
            fast = "  [fast path]" if row["fast_path"] else ""
            lines.append(
                f"  {row['variant']:8s} H-Time {row['h_ns_per_key']:8.1f} "
                f"ns/key   lookup {row['lookup_ns_per_key']:8.1f} "
                f"ns/key{fast}"
            )
    return "\n".join(lines)


def _lookup_ns(entry: Dict[str, object], variant: str) -> Optional[float]:
    for row in entry["rows"]:
        if row["variant"] == variant:
            return row["lookup_ns_per_key"]
    return None


def perfect_beats_gperf(report: Dict[str, object]) -> List[str]:
    """RQ key sets where the certified lookup beats the gperf lookup."""
    winners = []
    rq_labels = {name.lower() for name in RQ_SETS}
    for entry in report["key_sets"]:
        if entry["key_set"] not in rq_labels:
            continue
        ours = _lookup_ns(entry, "perfect")
        theirs = _lookup_ns(entry, "gperf")
        if ours is not None and theirs is not None and ours < theirs:
            winners.append(entry["key_set"])
    return winners
