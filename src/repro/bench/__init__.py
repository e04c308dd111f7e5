"""The benchmark harness: everything needed to regenerate the paper's
tables and figures.

- :mod:`repro.bench.metrics` — geometric means, collision counts,
  chi-square uniformity, Mann-Whitney U tests.
- :mod:`repro.bench.suite` — builds the per-key-type set of ten hash
  functions (four synthetic families + six baselines) of Table 1.
- :mod:`repro.bench.experiment` — the 144-cell experiment grid
  (4 containers x 3 distributions x 3 spreads x 4 scheduling modes).
- :mod:`repro.bench.runner` — B-Time / H-Time / collision measurement.
- :mod:`repro.bench.tables` — Tables 1, 2 and 3.
- :mod:`repro.bench.figures` — Figures 13 through 20.
- :mod:`repro.bench.report` — plain-text rendering of results.
- :mod:`repro.bench.ledger` — the committed regression ledger: one
  smoke collector for every row family, noise-aware comparison, perf
  trajectory.

Scale: the paper runs each experiment ten times at 10,000 affectations.
Every function here exposes ``samples``/``affectations``/``keys`` knobs;
the benchmark scripts default to reduced sizes that finish on a laptop
and document the paper-scale values.
"""

from repro.bench.code_size import measure_code_size
from repro.bench.experiment import ExperimentSpec, experiment_grid
from repro.bench.full_run import run_all
from repro.bench.memory import container_footprint
from repro.bench.significance import p_value_matrix
from repro.bench.metrics import (
    chi_square_uniformity,
    geometric_mean,
    mann_whitney_u,
    total_collisions,
)
from repro.bench.runner import (
    measure_b_time,
    measure_h_time,
    run_experiment,
)
from repro.bench.suite import SYNTHETIC_NAMES, make_hash_suite

_LEDGER_NAMES = frozenset(
    {
        "LedgerEntry",
        "Verdict",
        "compare_entries",
        "compare_ledger",
        "collect_smoke_entries",
        "fingerprint",
        "load_ledger",
        "render_verdicts",
        "update_ledger",
        "write_ledger",
    }
)


def __getattr__(name: str):
    # The ledger loads on first use, not with the package: importing it
    # here would put it in ``sys.modules`` before ``python -m
    # repro.bench.ledger`` runs it as ``__main__``.
    if name in _LEDGER_NAMES:
        from repro.bench import ledger

        return getattr(ledger, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ExperimentSpec",
    "LedgerEntry",
    "SYNTHETIC_NAMES",
    "Verdict",
    "chi_square_uniformity",
    "collect_smoke_entries",
    "compare_entries",
    "compare_ledger",
    "container_footprint",
    "experiment_grid",
    "fingerprint",
    "geometric_mean",
    "load_ledger",
    "make_hash_suite",
    "mann_whitney_u",
    "measure_b_time",
    "measure_code_size",
    "measure_h_time",
    "p_value_matrix",
    "render_verdicts",
    "run_all",
    "run_experiment",
    "total_collisions",
    "update_ledger",
    "write_ledger",
]
