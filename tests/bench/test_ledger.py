"""Tests for the bench regression ledger and its noise-aware compare."""

import json

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
    normalize_batch_report,
    normalize_infer_report,
    normalize_report,
    regression_count,
    render_verdicts,
    trajectory,
    update_ledger,
    write_ledger,
    _main,
)


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


class TestNormalization:
    def test_batch_report(self):
        report = {
            "experiment": "batch_vs_scalar_h_time",
            "rows": [
                {
                    "key_type": "SSN",
                    "family": "pext",
                    "repeats": 5,
                    "scalar_ns_per_key": 900.0,
                    "batch_ns_per_key": 55.0,
                }
            ],
        }
        entries = normalize_batch_report(report)
        ids = {entry.id for entry in entries}
        assert ids == {
            "batch/SSN/pext/scalar_ns_per_key",
            "batch/SSN/pext/batch_ns_per_key",
        }
        assert all(entry.source == "batch_report" for entry in entries)

    def test_infer_report(self):
        report = {
            "benchmark": "infer_compare",
            "params": {"repeats": 3},
            "corpora": [
                {
                    "name": "fixed",
                    "rows": [{"engine": "bigint", "ns_per_key": 42.0}],
                }
            ],
        }
        entries = normalize_infer_report(report)
        assert entries[0].id == "infer/fixed/bigint/ns_per_key"
        assert entries[0].repeats == 3


    def test_serve_report(self):
        from repro.bench.ledger import normalize_serve_report

        report = {
            "benchmark": "serve_replay",
            "scaling": {
                "rows": [
                    {
                        "shards": 1,
                        "ns_per_key": 760.0,
                        "samples_ns_per_key": [760.0, 790.0, 810.0],
                    },
                    {
                        "shards": 4,
                        "ns_per_key": 287.0,
                        "samples_ns_per_key": [287.0, 301.0, 295.0],
                    },
                ]
            },
            "drift": {
                "ns_per_key": 750.0,
                "swap_events": [
                    {"swap_ms": 520.0},
                    {"swap_ms": 999.0},  # only the first is recorded
                ],
            },
        }
        entries = normalize_serve_report(report)
        by_id = {entry.id: entry for entry in entries}
        assert set(by_id) == {
            "serve/scaling/shards1/ns_per_key",
            "serve/scaling/shards4/ns_per_key",
            "serve/drift/replay/ns_per_key",
            "serve/drift/swap/swap_ms",
        }
        assert by_id["serve/scaling/shards1/ns_per_key"].samples == [
            760.0, 790.0, 810.0,
        ]
        assert by_id["serve/drift/swap/swap_ms"].unit == "ms"
        assert by_id["serve/drift/swap/swap_ms"].value == 520.0
        assert normalize_report(report) == entries

    def test_dispatch_and_rejection(self):
        assert normalize_report(
            {"experiment": "batch_vs_scalar_h_time", "rows": []}
        ) == []
        with pytest.raises(ValueError, match="unrecognized"):
            normalize_report({"something": "else"})


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

    def test_cli_record_merges_into_committed_rows(self, tmp_path):
        path = tmp_path / "LEDGER.json"
        ledger = new_ledger()
        update_ledger(
            ledger, [_entry("perfect/SSN/certified/ns_per_key", 5.0)]
        )
        write_ledger(ledger, str(path))
        report = tmp_path / "batch.json"
        report.write_text(
            json.dumps(
                {
                    "experiment": "batch_vs_scalar_h_time",
                    "rows": [
                        {
                            "key_type": "SSN",
                            "family": "aes",
                            "scalar_ns_per_key": 900.0,
                            "batch_ns_per_key": 150.0,
                        }
                    ],
                }
            )
        )
        assert _main(["--out", str(path), "--reports", str(report)]) == 0
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
    def test_build_from_reports(self, tmp_path):
        report_path = tmp_path / "BENCH_batch.json"
        report_path.write_text(
            json.dumps(
                {
                    "experiment": "batch_vs_scalar_h_time",
                    "rows": [
                        {
                            "key_type": "SSN",
                            "family": "pext",
                            "repeats": 2,
                            "scalar_ns_per_key": 900.0,
                            "batch_ns_per_key": 55.0,
                        }
                    ],
                }
            )
        )
        out = tmp_path / "LEDGER.json"
        assert _main(["--out", str(out), "--reports", str(report_path)]) == 0
        ledger = load_ledger(str(out))
        assert len(ledger["entries"]) == 2
        # A second run demotes the first snapshot into history.
        assert _main(["--out", str(out), "--reports", str(report_path)]) == 0
        assert len(load_ledger(str(out))["history"]) == 1

    def test_nothing_to_record_errors(self, tmp_path):
        assert _main(["--out", str(tmp_path / "L.json")]) == 2

    def test_unreadable_report_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("nope")
        out = tmp_path / "L.json"
        assert _main(["--out", str(out), "--reports", str(bad)]) == 2


class TestPerfectReport:
    def test_perfect_report(self):
        from repro.bench.ledger import normalize_perfect_report

        report = {
            "benchmark": "perfect",
            "key_sets": [
                {
                    "key_set": "http-methods",
                    "rows": [
                        {
                            "variant": "perfect",
                            "h_ns_per_key": 400.0,
                            "lookup_ns_per_key": 650.0,
                            "samples_h": [400.0, 410.0, 405.0],
                            "samples_lookup": [650.0, 655.0, 660.0],
                            "repeats": 3,
                            "fast_path": True,
                        },
                        {
                            "variant": "gperf",
                            "h_ns_per_key": 260.0,
                            "lookup_ns_per_key": 610.0,
                            "samples_h": [260.0],
                            "samples_lookup": [610.0],
                            "repeats": 1,
                            "fast_path": False,
                        },
                    ],
                }
            ],
        }
        entries = normalize_perfect_report(report)
        by_id = {entry.id: entry for entry in entries}
        assert set(by_id) == {
            "perfect/http-methods/perfect/h_ns_per_key",
            "perfect/http-methods/perfect/lookup_ns_per_key",
            "perfect/http-methods/gperf/h_ns_per_key",
            "perfect/http-methods/gperf/lookup_ns_per_key",
        }
        entry = by_id["perfect/http-methods/perfect/lookup_ns_per_key"]
        assert entry.value == 650.0
        assert entry.samples == [650.0, 655.0, 660.0]
        assert entry.repeats == 3
        # The dispatcher recognizes the report kind.
        assert normalize_report(report) == entries

    def test_collect_perfect_smoke_entries_measures_builtins(self):
        from repro.bench.ledger import collect_perfect_smoke_entries

        entries = collect_perfect_smoke_entries(repeats=1)
        ids = {entry.id for entry in entries}
        assert any(id.startswith("perfect/c-keywords/") for id in ids)
        assert any(id.startswith("perfect/http-methods/") for id in ids)
        assert any(id.startswith("perfect/enum-codec/") for id in ids)
        # RQ samples are committed-artifact-only in the smoke pass.
        assert not any("/ssn/" in id for id in ids)
        assert all(entry.source == "smoke" for entry in entries)


class TestSmokeEntries:
    @pytest.mark.native
    def test_native_compile_rows_compile_afresh_per_repeat(self):
        from repro.bench.ledger import collect_smoke_entries
        from repro.codegen import native as native_mod
        from repro.core.plan import HashFamily

        if not native_mod.native_available():
            pytest.skip("no working C++ toolchain on this host")
        before = native_mod.get_registry().counter(
            "codegen.native.compiles"
        ).value
        entries = {
            entry.id: entry
            for entry in collect_smoke_entries(
                key_types=("SSN",),
                families=(HashFamily.NAIVE,),
                keys_per_type=64,
                repeats=2,
            )
        }
        row = entries["batch/SSN/naive/native_compile_ms"]
        assert len(row.samples) == 2
        assert all(sample > 0 for sample in row.samples)
        assert row.value == min(row.samples)
        assert "batch/SSN/naive/native_ns_per_key" in entries
        compiles = native_mod.get_registry().counter(
            "codegen.native.compiles"
        ).value
        assert compiles - before >= 2

    @pytest.mark.native
    def test_probe_row_probes_afresh_per_repeat(self):
        from repro.bench.ledger import collect_smoke_entries
        from repro.codegen import native as native_mod
        from repro.core.plan import HashFamily

        if not native_mod.native_available():
            pytest.skip("no working C++ toolchain on this host")
        counter = native_mod.get_registry().counter(
            "codegen.native.probe_runs"
        )
        before = counter.value
        entries = {
            entry.id: entry
            for entry in collect_smoke_entries(
                key_types=("SSN",),
                families=(HashFamily.NAIVE,),
                keys_per_type=64,
                repeats=2,
            )
        }
        row = entries["native/probe_ms"]
        assert row.unit == "ms"
        assert len(row.samples) == 2
        assert all(sample > 0 for sample in row.samples)
        assert row.value == min(row.samples)
        assert counter.value - before >= 2

    def test_no_probe_samples_when_native_disabled(self, monkeypatch):
        from repro.bench.ledger import _probe_ms

        monkeypatch.setenv("SEPE_NATIVE", "0")
        assert _probe_ms(repeats=2) == []
