"""Tests for the bench regression ledger and its noise-aware compare."""

import json
from pathlib import Path

import pytest

from repro.bench.ledger import (
    LedgerEntry,
    compare_entries,
    compare_ledger,
    fingerprint,
    fingerprints_comparable,
    ledger_entries,
    load_ledger,
    new_ledger,
    regression_count,
    render_verdicts,
    trajectory,
    update_ledger,
    write_ledger,
    _main,
)


COMMITTED_LEDGER = Path(__file__).resolve().parents[2] / "BENCH_LEDGER.json"


def _entry(entry_id, value, samples=None):
    return LedgerEntry(
        id=entry_id,
        value=value,
        samples=list(samples) if samples else [],
        repeats=len(samples) if samples else 0,
        source="test",
    )


TIGHT = [100.0, 101.0, 102.0, 103.0, 104.0]


class TestFingerprints:
    def test_self_comparable(self):
        assert fingerprints_comparable(fingerprint(), fingerprint())

    def test_machine_mismatch(self):
        other = {**fingerprint(), "machine": "arm64"}
        assert not fingerprints_comparable(fingerprint(), other)

    def test_patch_release_tolerated_minor_not(self):
        base = fingerprint()
        patch = {**base, "python_version": base["python_version"] + "0"}
        assert fingerprints_comparable(base, patch)
        minor = dict(base)
        major, minor_v, *_ = base["python_version"].split(".")
        minor["python_version"] = f"{major}.{int(minor_v) + 1}.0"
        assert not fingerprints_comparable(base, minor)


class TestLedgerDocument:
    def test_update_pushes_history_and_trims(self):
        ledger = new_ledger()
        for round_no in range(4):
            update_ledger(
                ledger,
                [_entry("batch/SSN/pext/scalar_ns_per_key", 100.0 + round_no)],
                max_history=2,
            )
        assert len(ledger["history"]) == 2
        points = trajectory(ledger, "batch/SSN/pext/scalar_ns_per_key")
        assert [value for _at, value in points] == [101.0, 102.0, 103.0]

    def test_recording_one_family_keeps_the_others(self):
        ledger = new_ledger()
        update_ledger(
            ledger,
            [
                _entry("perfect/SSN/certified/ns_per_key", 50.0),
                _entry("serve/scaling/shards2/ns_per_key", 300.0),
                _entry("batch/SSN/aes/batch_ns_per_key", 200.0),
            ],
        )
        update_ledger(
            ledger,
            [
                _entry("batch/SSN/aes/batch_ns_per_key", 120.0),
                _entry("batch/MAC/aes/batch_ns_per_key", 130.0),
            ],
        )
        assert {
            entry.id: entry.value for entry in ledger_entries(ledger)
        } == {
            "perfect/SSN/certified/ns_per_key": 50.0,
            "serve/scaling/shards2/ns_per_key": 300.0,
            "batch/SSN/aes/batch_ns_per_key": 120.0,
            "batch/MAC/aes/batch_ns_per_key": 130.0,
        }
        # The replaced value stays on the row's trajectory.
        points = trajectory(ledger, "batch/SSN/aes/batch_ns_per_key")
        assert [value for _at, value in points] == [200.0, 120.0]

    def test_cli_record_merges_into_committed_rows(
        self, tmp_path, monkeypatch
    ):
        from repro.bench import ledger as bench_ledger

        path = tmp_path / "LEDGER.json"
        ledger = new_ledger()
        update_ledger(
            ledger, [_entry("perfect/SSN/certified/ns_per_key", 5.0)]
        )
        write_ledger(ledger, str(path))
        monkeypatch.setattr(
            bench_ledger,
            "collect_smoke_entries",
            lambda **kwargs: [
                _entry("batch/SSN/aes/scalar_ns_per_key", 900.0),
                _entry("batch/SSN/aes/batch_ns_per_key", 150.0),
            ],
        )
        assert _main(["--out", str(path), "--smoke"]) == 0
        ids = {entry.id for entry in ledger_entries(load_ledger(str(path)))}
        assert ids == {
            "perfect/SSN/certified/ns_per_key",
            "batch/SSN/aes/scalar_ns_per_key",
            "batch/SSN/aes/batch_ns_per_key",
        }

    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "LEDGER.json"
        ledger = new_ledger()
        update_ledger(ledger, [_entry("a/b/c/d", 7.0, TIGHT)])
        write_ledger(ledger, str(path))
        loaded = load_ledger(str(path))
        entries = ledger_entries(loaded)
        assert entries[0].id == "a/b/c/d"
        assert entries[0].samples == TIGHT

    def test_load_rejects_garbage(self, tmp_path):
        missing = load_ledger(str(tmp_path / "absent.json"))
        assert missing is None
        path = tmp_path / "bad.json"
        path.write_text("not json")
        assert load_ledger(str(path)) is None
        path.write_text('{"no": "entries"}')
        assert load_ledger(str(path)) is None


class TestCompareEntries:
    def test_self_compare_is_all_ok(self):
        """Acceptance: comparing a run against itself finds nothing."""
        entries = [
            _entry("x/scalar", 100.0, TIGHT),
            _entry("y/batch", 50.0),
        ]
        verdicts = compare_entries(entries, entries)
        assert regression_count(verdicts) == 0
        assert {v.status for v in verdicts} == {"ok"}

    def test_synthetic_2x_slowdown_flagged(self):
        """Acceptance: an injected 2x slowdown is a regression."""
        baseline = [_entry("x/scalar", 100.0, TIGHT)]
        slowed = [
            _entry("x/scalar", 200.0, [s * 2 for s in TIGHT])
        ]
        verdicts = compare_entries(baseline, slowed)
        assert regression_count(verdicts) == 1
        assert verdicts[0].ratio == pytest.approx(2.0)
        assert verdicts[0].p_value < 0.05

    def test_noise_without_samples_uses_ratio_only(self):
        baseline = [_entry("x", 100.0)]
        assert compare_entries(baseline, [_entry("x", 120.0)])[0].status == "ok"
        assert (
            compare_entries(baseline, [_entry("x", 160.0)])[0].status
            == "regression"
        )

    def test_insignificant_breach_is_not_flagged(self):
        # Wildly overlapping samples: ratio of the mins breaches, but
        # Mann-Whitney cannot tell the arrays apart.
        baseline = [_entry("x", 100.0, [100.0, 400.0, 150.0, 390.0, 200.0])]
        current = [_entry("x", 160.0, [160.0, 170.0, 380.0, 150.0, 390.0])]
        verdicts = compare_entries(baseline, current)
        assert verdicts[0].status == "ok"
        assert verdicts[0].p_value >= 0.05

    def test_hard_breach_overrides_noisy_samples(self):
        baseline = [_entry("x", 100.0, [100.0, 4000.0, 150.0, 3900.0, 200.0])]
        current = [
            _entry("x", 400.0, [400.0, 4100.0, 500.0, 3950.0, 700.0])
        ]
        verdicts = compare_entries(baseline, current)
        assert verdicts[0].status == "regression"

    def test_improvement_new_and_missing(self):
        baseline = [
            _entry("x", 100.0, TIGHT),
            _entry("gone", 10.0),
        ]
        current = [
            _entry("x", 40.0, [s * 0.4 for s in TIGHT]),
            _entry("fresh", 5.0),
        ]
        statuses = {
            v.entry_id: v.status for v in compare_entries(baseline, current)
        }
        assert statuses == {
            "x": "improvement",
            "gone": "missing",
            "fresh": "new",
        }

    def test_identical_constant_samples(self):
        entries = [_entry("x", 100.0, [100.0] * 5)]
        verdicts = compare_entries(entries, entries)
        assert verdicts[0].status == "ok"
        assert verdicts[0].p_value == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_entries([], [], threshold=1.0)


class TestCompareLedger:
    def _ledger(self, machine=None):
        ledger = new_ledger()
        update_ledger(ledger, [_entry("x", 100.0, TIGHT)])
        if machine is not None:
            ledger["fingerprint"] = {**ledger["fingerprint"], **machine}
        return ledger

    def test_same_host_compares(self):
        verdicts = compare_ledger(self._ledger(), [_entry("x", 100.0, TIGHT)])
        assert verdicts[0].status == "ok"

    def test_cross_host_skipped_by_default(self):
        ledger = self._ledger(machine={"machine": "arm64"})
        verdicts = compare_ledger(ledger, [_entry("x", 500.0)])
        assert [v.status for v in verdicts] == ["skipped"]
        assert "fingerprint mismatch" in verdicts[0].detail

    def test_cross_host_allowed_loosens_threshold(self):
        ledger = self._ledger(machine={"machine": "arm64"})
        mild = compare_ledger(
            ledger, [_entry("x", 200.0)], allow_cross_host=True
        )
        assert mild[0].status == "ok"  # 2x < 1.5 * 2.0
        wild = compare_ledger(
            ledger, [_entry("x", 400.0)], allow_cross_host=True
        )
        assert wild[0].status == "regression"

    def test_render_includes_summary(self):
        verdicts = compare_ledger(
            self._ledger(), [_entry("x", 300.0, [s * 3 for s in TIGHT])]
        )
        text = render_verdicts(verdicts)
        assert "1 regression" in text
        assert "x" in text
        assert render_verdicts([]) == "(no entries to compare)"


class TestModuleMain:
    def test_runs_as_main_without_a_runtime_warning(self):
        """``repro.bench`` does not import the ledger eagerly, so running
        it with ``-m`` finds no earlier copy in ``sys.modules``."""
        import os
        import subprocess
        import sys

        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.bench.ledger", "--help",
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert "--smoke" in result.stdout

    def test_package_still_exports_the_ledger_api(self):
        import repro.bench as bench
        from repro.bench import ledger

        assert bench.collect_smoke_entries is ledger.collect_smoke_entries
        with pytest.raises(AttributeError):
            bench.no_such_name

    def test_build_from_smoke(self, tmp_path, monkeypatch):
        from repro.bench import ledger as bench_ledger

        monkeypatch.setattr(
            bench_ledger,
            "collect_smoke_entries",
            lambda **kwargs: [
                _entry("batch/SSN/pext/scalar_ns_per_key", 900.0, TIGHT),
                _entry("batch/SSN/pext/batch_ns_per_key", 55.0, TIGHT),
            ],
        )
        out = tmp_path / "LEDGER.json"
        assert _main(["--out", str(out), "--smoke"]) == 0
        ledger = load_ledger(str(out))
        assert len(ledger["entries"]) == 2
        # A second run demotes the first snapshot into history.
        assert _main(["--out", str(out), "--smoke"]) == 0
        assert len(load_ledger(str(out))["history"]) == 1

    def test_nothing_to_record_errors(self, tmp_path):
        assert _main(["--out", str(tmp_path / "L.json")]) == 2


@pytest.fixture(scope="module")
def smoke_run():
    """One tiny run of the collector: rows by id, plus how many native
    compiles and toolchain probes it made."""
    from repro.bench.ledger import collect_smoke_entries
    from repro.codegen import native as native_mod

    registry = native_mod.get_registry()
    compiles = registry.counter("codegen.native.compiles")
    probes = registry.counter("codegen.native.probe_runs")
    compiles_before, probes_before = compiles.value, probes.value
    entries = collect_smoke_entries(keys_per_type=64, repeats=2)
    return {
        "entries": {entry.id: entry for entry in entries},
        "compiles": compiles.value - compiles_before,
        "probes": probes.value - probes_before,
    }


def _require_native():
    from repro.codegen import native as native_mod

    if not native_mod.native_available():
        pytest.skip("no working C++ toolchain on this host")


class TestSmokeEntries:
    def test_smoke_run_measures_every_committed_row(self, smoke_run):
        """Every committed row is re-measured by the one collector, so
        none can read ``missing`` on a compare and gate nothing."""
        from repro.codegen import native as native_mod

        committed = {
            entry.id
            for entry in ledger_entries(load_ledger(str(COMMITTED_LEDGER)))
        }
        if not native_mod.native_available():
            committed = {
                entry_id
                for entry_id in committed
                if "native" not in entry_id
            }
        assert committed - set(smoke_run["entries"]) == set()
        for entry in smoke_run["entries"].values():
            assert entry.source == "smoke"
            assert len(entry.samples) == entry.repeats == 2
            assert entry.value == min(entry.samples)

    def test_every_row_family_is_measured(self, smoke_run):
        families = {
            entry_id.split("/")[0] for entry_id in smoke_run["entries"]
        }
        assert {"batch", "serve", "infer", "perfect"} <= families
        labels = ("c-keywords", "http-methods", "enum-codec", "ssn", "mac")
        for label in labels:
            assert (
                f"perfect/{label}/perfect-probe/lookup_ns_per_key"
                in smoke_run["entries"]
            )

    def test_perfect_synthesis_rows_are_measured(self, smoke_run):
        labels = ("c-keywords", "http-methods", "enum-codec", "ssn", "mac")
        for label in labels:
            row = smoke_run["entries"][f"perfect/{label}/synthesize_ms"]
            assert row.unit == "ms"
            assert all(sample > 0 for sample in row.samples)

    @pytest.mark.native
    def test_native_compile_rows_compile_afresh_per_repeat(self, smoke_run):
        _require_native()
        entries = smoke_run["entries"]
        row = entries["batch/SSN/naive/native_compile_ms"]
        assert len(row.samples) == 2
        assert all(sample > 0 for sample in row.samples)
        assert row.value == min(row.samples)
        assert "batch/SSN/naive/native_ns_per_key" in entries
        assert smoke_run["compiles"] >= 2

    def test_serve_setup_row_is_measured(self, smoke_run):
        row = smoke_run["entries"]["serve/setup/cold_ms"]
        assert row.unit == "ms"
        assert all(sample > 0 for sample in row.samples)

    @pytest.mark.native
    def test_serve_setup_starts_cold_per_repeat(self):
        """Each repeat of ``serve/setup/cold_ms`` pays the probe and the
        three plan compiles again."""
        from repro.bench.ledger import SERVE_SETUP_FORMATS, _serve_setup_ms
        from repro.codegen import native as native_mod

        _require_native()
        registry = native_mod.get_registry()
        compiles = registry.counter("codegen.native.compiles")
        unavailable = registry.counter("codegen.native.unavailable")
        before = compiles.value, unavailable.value
        starts = []
        real_start = native_mod._start_probe

        def start_probe():
            thread = real_start()
            starts.append(thread)
            return thread

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(native_mod, "_start_probe", start_probe)
            assert len(_serve_setup_ms(2)) == 2
        assert compiles.value - before[0] == 2 * len(SERVE_SETUP_FORMATS)
        assert unavailable.value == before[1]
        # One probe thread per cold set-up, started by its first compile.
        assert len({thread for thread in starts if thread}) == 2

    @pytest.mark.native
    def test_probe_row_probes_afresh_per_repeat(self, smoke_run):
        _require_native()
        row = smoke_run["entries"]["native/probe_ms"]
        assert row.unit == "ms"
        assert len(row.samples) == 2
        assert all(sample > 0 for sample in row.samples)
        assert row.value == min(row.samples)
        assert smoke_run["probes"] >= 2

    @pytest.mark.native
    def test_every_ms_row_carries_unit_ms(self, smoke_run):
        _require_native()
        ms_rows = {
            entry_id: entry.unit
            for entry_id, entry in smoke_run["entries"].items()
            if entry_id.endswith("_ms")
        }
        assert "batch/SSN/pext/native_compile_ms" in ms_rows
        assert set(ms_rows.values()) == {"ms"}

    def test_perfect_beats_gperf_reads_the_rq_lookup_rows(self):
        from repro.bench.ledger import perfect_beats_gperf

        rows = [
            _entry("perfect/ssn/perfect/lookup_ns_per_key", 500.0),
            _entry("perfect/ssn/gperf/lookup_ns_per_key", 3000.0),
            _entry("perfect/mac/perfect/lookup_ns_per_key", 900.0),
            _entry("perfect/mac/gperf/lookup_ns_per_key", 800.0),
            # A built-in set never counts toward the RQ claim.
            _entry("perfect/c-keywords/perfect/lookup_ns_per_key", 1.0),
            _entry("perfect/c-keywords/gperf/lookup_ns_per_key", 9.0),
        ]
        assert perfect_beats_gperf(rows) == ["ssn"]
        assert perfect_beats_gperf(rows[2:]) == []
        assert perfect_beats_gperf([]) == []

    def test_committed_ms_rows_carry_unit_ms(self):
        ledger = load_ledger(str(COMMITTED_LEDGER))
        assert ledger is not None
        ms_rows = {
            entry.id: entry.unit
            for entry in ledger_entries(ledger)
            if entry.id.endswith("_ms")
        }
        assert len(ms_rows) >= 9
        assert set(ms_rows.values()) == {"ms"}

    def test_no_probe_samples_when_native_disabled(self, monkeypatch):
        from repro.bench.ledger import _probe_ms

        monkeypatch.setenv("SEPE_NATIVE", "0")
        assert _probe_ms(repeats=2) == []
