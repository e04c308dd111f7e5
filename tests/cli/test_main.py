"""Tests for the umbrella sepe CLI."""

import itertools

import pytest

from repro.cli.main import run


class TestInfer:
    def test_infer_subcommand(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("ab\ncd\n")
        assert run(["infer", str(path)]) == 0
        assert capsys.readouterr().out.strip() != ""

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--engine", "auto"]])
    def test_removed_inference_knobs_rejected(self, tmp_path, flag):
        path = tmp_path / "keys.txt"
        path.write_text("ab\ncd\n")
        with pytest.raises(SystemExit) as error:
            run(["infer", str(path), *flag])
        assert error.value.code == 2


class TestSynth:
    def test_synth_subcommand(self, capsys):
        assert run(["synth", r"\d{3}-\d{2}-\d{4}", "--family", "pext"]) == 0
        assert "synthesizedPextHash" in capsys.readouterr().out

    def test_synth_python(self, capsys):
        assert run(
            ["synth", r"\d{10}", "--family", "naive", "--emit", "python"]
        ) == 0
        assert "def sepe_naive_hash" in capsys.readouterr().out


class TestDemo:
    def test_demo_runs(self, capsys):
        assert run(["demo", "SSN", "--keys", "300"]) == 0
        out = capsys.readouterr().out
        assert "STL" in out and "Pext" in out
        assert "collisions" in out

    def test_demo_unknown_key_type(self, capsys):
        assert run(["demo", "NOPE"]) == 1
        assert "error" in capsys.readouterr().err


class TestListFormats:
    def test_lists_both_catalogs(self, capsys):
        assert run(["list-formats"]) == 0
        out = capsys.readouterr().out
        assert "SSN" in out and "MAC" in out and "INTS" in out
        assert "UUID4" in out and "PLATE" in out


class TestValidate:
    def test_validate_pext(self, capsys):
        assert run(["validate", r"\d{3}-\d{2}-\d{4}", "--family", "pext",
                    "--sample", "300"]) == 0
        out = capsys.readouterr().out
        assert "bijection claimed: True" in out
        assert "collision rate:    0.000000" in out

    def test_validate_final_mix_improves_avalanche(self, capsys):
        assert run(["validate", r"\d{3}-\d{2}-\d{4}", "--family", "offxor",
                    "--final-mix", "--sample", "300"]) == 0
        out = capsys.readouterr().out
        avalanche = float(out.split("avalanche score:")[1].split()[0])
        assert avalanche > 0.3

    def test_validate_bad_family(self, capsys):
        assert run(["validate", r"\d{10}", "--family", "bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_validate_bad_regex(self, capsys):
        assert run(["validate", "[oops", "--family", "pext"]) == 1


class TestBench:
    def test_bench_table1_tiny(self, capsys):
        assert run(
            ["bench", "1", "--key-types", "SSN", "--samples", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Pext" in out

    def test_bench_table2_tiny(self, capsys):
        assert run(
            ["bench", "2", "--key-types", "SSN", "--keys", "3000"]
        ) == 0
        assert "Table 2" in capsys.readouterr().out


class TestObs:
    def test_obs_prints_span_tree_and_exports_jsonl(self, capsys, tmp_path):
        import json

        export = str(tmp_path / "spans.jsonl")
        assert run(
            ["obs", r"\d{3}-\d{2}-\d{4}", "--export", export, "--routes", "3"]
        ) == 0
        out = capsys.readouterr().out
        # The acceptance bar: a span tree with >= 4 pipeline stages.
        for stage in (
            "synthesize",
            "synthesis.plan",
            "codegen.ir",
            "codegen.python.compile",
        ):
            assert stage in out
        assert "dispatcher stats" in out
        assert "routes 3" in out
        with open(export) as handle:
            events = [json.loads(line) for line in handle if line.strip()]
        assert len(events) >= 4
        assert {event["name"] for event in events} >= {
            "synthesize",
            "synthesis.plan",
        }
        assert all("wall_seconds" in event for event in events)

    def test_obs_metrics_flag(self, capsys):
        assert run(["obs", "--metrics", "--routes", "20"]) == 0
        out = capsys.readouterr().out
        assert "process metrics" in out
        assert "containers.inserts" in out

    @pytest.mark.native
    def test_obs_traces_the_native_probe(self, capsys):
        from repro.codegen import native as native_mod

        if not native_mod.native_available():
            pytest.skip("no working C++ toolchain on this host")
        native_mod.reset_native_state()  # the probe runs under tracing
        assert run(["obs", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "codegen.native.probe " in out
        assert "codegen.native.compile " in out
        assert "codegen.native.probe_runs" in out

    def test_obs_bad_family(self, capsys):
        assert run(["obs", "--family", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_obs_bad_regex(self, capsys):
        assert run(["obs", "[oops"]) == 1
        assert "error" in capsys.readouterr().err

    def test_obs_leaves_global_tracing_disabled(self, capsys):
        from repro.obs import tracing_enabled

        assert run(["obs"]) == 0
        assert not tracing_enabled()


class TestBenchBatch:
    def test_bench_without_table_or_batch_errors(self, capsys):
        assert run(["bench"]) == 1
        assert "--compare" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            run(["bench", "--batch"])


class TestObsCompileCache:
    def test_obs_reports_compile_cache(self, capsys):
        assert run(["obs", r"\d{3}-\d{2}-\d{4}"]) == 0
        out = capsys.readouterr().out
        assert "compile cache:" in out
        assert "exec calls" in out
        cache_report = out[out.index("compile cache:"):].splitlines()[1:]
        kinds = {
            line.split(":")[0].strip()
            for line in itertools.takewhile(
                lambda line: line.startswith("  "), cache_report
            )
        }
        assert "python" in kinds and kinds <= {"python", "native"}


class TestVerify:
    def test_verify_all_families_ok(self, capsys):
        assert run(["verify", r"[0-9]{3}-[0-9]{2}-[0-9]{4}"]) == 0
        out = capsys.readouterr().out
        assert "pext: ok" in out
        assert "bijective (certified)" in out

    def test_verify_single_family_json(self, capsys):
        import json

        assert run(
            ["verify", r"[0-9]{3}-[0-9]{2}-[0-9]{4}",
             "--family", "pext", "--json"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert len(document) == 1
        assert document[0]["ok"] is True
        assert document[0]["bijectivity"]["certified"] is True

    def test_verify_final_mix(self, capsys):
        assert run(
            ["verify", r"[0-9]{3}-[0-9]{2}-[0-9]{4}",
             "--family", "pext", "--final-mix"]
        ) == 0
        assert "bijective (certified)" in capsys.readouterr().out

    def test_verify_bad_regex(self, capsys):
        assert run(["verify", "[oops"]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_short_body(self, capsys):
        assert run(["verify", r"[0-9]{4}"]) == 2
        assert "error" in capsys.readouterr().err


class TestLint:
    def test_lint_explicit_regex(self, capsys):
        assert run(["lint", r"[0-9]{3}-[0-9]{2}-[0-9]{4}"]) == 0
        err = capsys.readouterr().err
        assert "linted 4 plan(s)" in err
        assert "0 error(s)" in err

    def test_lint_builtin_formats(self, capsys):
        assert run(["lint", "--formats"]) == 0
        err = capsys.readouterr().err
        assert "0 error(s)" in err
        assert "1 skipped" in err  # PLATE's 7-byte body

    def test_lint_corpus_dir(self, capsys, tmp_path):
        from repro.fuzz.corpus import save_reproducer
        from repro.fuzz.generators import FormatSpec, Piece
        from repro.fuzz.oracles import FuzzCase

        case = FuzzCase(
            FormatSpec((Piece(12, bytes(range(0x30, 0x3A))),), 0),
            (b"0" * 12,),
        )
        save_reproducer(case, "demo-oracle", "message", tmp_path)
        assert run(["lint", "--corpus", str(tmp_path)]) == 0
        assert "linted 4 plan(s)" in capsys.readouterr().err

    def test_lint_json_output(self, capsys):
        import json

        assert run(["lint", r"[0-9]{16}", "--json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert len(document) == 4
        assert all(entry["ok"] for entry in document)

    def test_lint_nothing_to_do(self, capsys):
        assert run(["lint"]) == 2
        assert "nothing to lint" in capsys.readouterr().err

    def test_lint_fail_on_error_by_default(self, capsys):
        # A clean format exits 0 even with info findings present.
        assert run(["lint", r"[0-9a-f]{8}"]) == 0


class TestServe:
    def test_serve_clean_replay(self, capsys, tmp_path):
        import json

        report_path = tmp_path / "serve.json"
        assert run(
            [
                "serve", "--shards", "2", "--threads", "2",
                "--keys", "4000", "--report", str(report_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "0 hash errors" in out
        document = json.loads(report_path.read_text())
        assert document["submitted"] == 8000
        assert document["hash_errors"] == 0

    def test_serve_drift_asserts_one_verified_swap(self, capsys):
        assert run(
            [
                "serve", "--shards", "2", "--threads", "2",
                "--keys", "6000", "--drift", "--assert-swaps", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "verified=True" in out

    def test_serve_assert_swaps_mismatch_fails(self, capsys):
        # No drift injected, so demanding a swap must fail the run.
        assert run(
            [
                "serve", "--shards", "1", "--threads", "1",
                "--keys", "2000", "--assert-swaps", "1",
            ]
        ) == 1
        assert "expected 1 verified swaps" in capsys.readouterr().err

    def test_serve_scaling_mode(self, capsys):
        assert run(
            [
                "serve", "--scaling", "--threads", "2",
                "--keys", "3000", "--shard-counts", "1", "2",
                "--repeats", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "shards=1" in out
        assert "ratio 2v1" in out


class TestBenchCompareServeRows:
    def test_serve_rows_in_ledger_are_smoke_compared(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        from repro.bench import ledger as bench_ledger

        entries = [
            bench_ledger.LedgerEntry(
                id="serve/scaling/shards1/ns_per_key",
                value=900.0,
                samples=[900.0, 910.0, 905.0],
                repeats=3,
                source="smoke",
            )
        ]
        ledger = bench_ledger.new_ledger()
        bench_ledger.update_ledger(ledger, entries)
        path = tmp_path / "ledger.json"
        bench_ledger.write_ledger(ledger, path)
        monkeypatch.setattr(
            bench_ledger,
            "collect_smoke_entries",
            lambda **kwargs: entries,
        )
        assert run(["bench", "--compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "serve/scaling/shards1/ns_per_key" in out


class TestBenchCompareKeys:
    """A bare ``--compare`` measures at the size the ledger rows were
    recorded at; the paper tables keep their own default."""

    def _compare(self, tmp_path, monkeypatch, argv):
        from repro.bench import ledger as bench_ledger

        path = tmp_path / "ledger.json"
        bench_ledger.write_ledger(bench_ledger.new_ledger(), path)
        seen = {}

        def collect(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(bench_ledger, "collect_smoke_entries", collect)
        assert run(["bench", "--compare", str(path), *argv]) == 0
        return seen["keys_per_type"]

    def test_default_is_the_recording_size(self, tmp_path, monkeypatch):
        from repro.bench.ledger import SMOKE_KEYS_PER_TYPE

        assert self._compare(tmp_path, monkeypatch, []) == (
            SMOKE_KEYS_PER_TYPE
        )

    def test_explicit_keys_win(self, tmp_path, monkeypatch):
        assert self._compare(tmp_path, monkeypatch, ["--keys", "64"]) == 64


class TestPerfect:
    def test_builtin_all_certifies(self, capsys):
        assert run(["perfect", "--builtin", "all"]) == 0
        out = capsys.readouterr().out
        assert "builtin:c-keywords: certified" in out
        assert "builtin:http-methods: certified" in out
        assert "builtin:enum-codec: certified" in out

    def test_single_builtin_with_json_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "certs.json"
        assert run(
            [
                "perfect", "--builtin", "http-methods",
                "--json", "--report", str(report),
            ]
        ) == 0
        documents = json.loads(report.read_text())
        assert documents[0]["key_set"] == "builtin:http-methods"
        assert documents[0]["certified"] is True

    def test_rq_closed_sample(self, capsys):
        assert run(
            ["perfect", "--rq", "SSN", "--count", "64", "--seed", "5"]
        ) == 0
        assert "rq:ssn: certified 64 keys" in capsys.readouterr().out

    def test_keys_file(self, capsys, tmp_path):
        path = tmp_path / "keys.txt"
        path.write_text("alpha\nbeta\ngamma\ndelta\n")
        assert run(["perfect", "--keys-file", str(path)]) == 0
        assert "certified 4 keys" in capsys.readouterr().out

    def test_unknown_builtin_errors(self, capsys):
        assert run(["perfect", "--builtin", "klingon"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_nothing_to_do_errors(self, capsys):
        assert run(["perfect"]) == 2
        assert "nothing to certify" in capsys.readouterr().err

    def test_obs_surfaces_perfect_counters(self, capsys):
        from repro.perfect import builtin_key_set, synthesize_perfect

        synthesize_perfect(builtin_key_set("http-methods"))
        assert run(["obs", r"\d{3}-\d{2}-\d{4}"]) == 0
        assert "perfect.certified" in capsys.readouterr().out


class TestBenchComparePerfectRows:
    def test_perfect_rows_in_ledger_are_smoke_compared(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.bench import ledger as bench_ledger

        entries = [
            bench_ledger.LedgerEntry(
                id="perfect/http-methods/perfect/lookup_ns_per_key",
                value=700.0,
                samples=[700.0, 710.0, 705.0],
                repeats=3,
                source="smoke",
            )
        ]
        ledger = bench_ledger.new_ledger()
        bench_ledger.update_ledger(ledger, entries)
        path = tmp_path / "ledger.json"
        bench_ledger.write_ledger(ledger, path)
        monkeypatch.setattr(
            bench_ledger, "collect_smoke_entries", lambda **kwargs: entries
        )
        assert run(["bench", "--compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "perfect/http-methods/perfect/lookup_ns_per_key" in out
