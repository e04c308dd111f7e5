"""CLI contract tests for ``sepe analyze`` and the ``sepe lint`` schema.

The exit-code protocol is part of the CI interface: 0 clean, 1 the gate
found findings, 2 the tooling itself failed (bad input or a crashed
rule).  The lint JSON document carries a ``schema_version`` so the
``static-analysis`` job can evolve its parser deliberately.
"""

import json

import pytest

from repro.cli.main import run
from repro.obs.metrics import get_registry
from repro.verify import lints
from repro.verify.lints import LINT_SCHEMA_VERSION


class TestAnalyze:
    def test_clean_format_exits_zero(self, capsys):
        assert run(["analyze", r"[0-9a-f]{16}", "--family", "pext"]) == 0
        assert "ret range" in capsys.readouterr().out

    def test_reports_entropy_funnel_findings(self, capsys):
        assert run(
            ["analyze", r"[0-9]{3}-[0-9]{2}-[0-9]{4}", "--family", "naive"]
        ) == 0
        out = capsys.readouterr().out
        assert "entropy" in out

    def test_json_document_fields(self, capsys):
        assert run(
            ["analyze", r"[0-9]{3}-[0-9]{2}-[0-9]{4}", "--json"]
        ) == 0
        documents = json.loads(capsys.readouterr().out)
        assert len(documents) == 4  # one per family
        for document in documents:
            assert set(document) == {
                "target",
                "pattern",
                "family",
                "ret",
                "entropy",
                "rewrites",
                "findings",
            }
            assert document["target"]
            assert document["family"]
            assert "range" in document["ret"]

    def test_json_out_writes_file(self, tmp_path, capsys):
        out_path = tmp_path / "analysis.json"
        assert run(
            ["analyze", "--formats", "--json-out", str(out_path)]
        ) == 0
        capsys.readouterr()
        documents = json.loads(out_path.read_text())
        assert documents

    def test_nothing_to_analyze_is_input_error(self, capsys):
        assert run(["analyze"]) == 2
        assert "nothing to analyze" in capsys.readouterr().err

    def test_bad_regex_is_input_error(self, capsys):
        assert run(["analyze", "[unclosed"]) == 2
        assert "error" in capsys.readouterr().err

    def test_short_format_is_skipped(self, capsys):
        assert run(["analyze", r"[0-9]{4}"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_crashed_rule_exits_two(self, capsys, monkeypatch):
        """A crashing rule is a tooling failure, not a plan finding."""
        severity, description, _ = lints._RULES["entropy-funnel"]

        def crash(ctx):
            raise RuntimeError("synthetic rule crash")

        monkeypatch.setitem(
            lints._RULES,
            "entropy-funnel",
            (severity, description, crash),
        )
        assert run(["analyze", r"[0-9]{16}", "--family", "pext"]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_crashed_analysis_is_not_read_again(self, capsys, monkeypatch):
        """The analysis a rule crashed on is not re-read outside it."""

        def crash(*args, **kwargs):
            raise RuntimeError("synthetic analysis crash")

        monkeypatch.setattr(lints, "entropy_report", crash)
        assert run(["analyze", r"[0-9]{16}", "--family", "pext"]) == 2
        assert "internal error" in capsys.readouterr().err


class TestAnalyzeOnce:
    """``sepe analyze`` optimizes and analyzes each plan once."""

    COUNTERS = (
        "verify.dataflow.runs",
        "codegen.optimize.rotl_to_shl",
        "codegen.optimize.pext_elided",
    )

    def _analyze(self, capsys, regex):
        registry = get_registry()
        before = [registry.counter(name).value for name in self.COUNTERS]
        assert run(["analyze", regex, "--family", "pext", "--json"]) == 0
        (document,) = json.loads(capsys.readouterr().out)
        moved = [
            registry.counter(name).value - value
            for name, value in zip(self.COUNTERS, before)
        ]
        return document, dict(zip(self.COUNTERS, moved))

    def test_two_dataflow_runs_per_plan(self, capsys):
        # One pass without the pattern (optimize's range rewrites), one
        # with it (the context's dataflow, shared by every consumer).
        _, moved = self._analyze(capsys, r"\d{3}-\d{2}-\d{4}")
        assert moved["verify.dataflow.runs"] == 2

    def test_rewrite_counters_move_once(self, capsys):
        document, moved = self._analyze(
            capsys, r"([0-9a-f]{2}-){5}[0-9a-f]{2}"
        )
        rewrites = document["rewrites"]
        assert rewrites["rotl_to_shl"] > 0  # a rewrite fires on MAC Pext
        for name in ("rotl_to_shl", "pext_elided"):
            assert moved[f"codegen.optimize.{name}"] == rewrites[name]


class TestLintSchema:
    def test_schema_version_in_json(self, capsys):
        assert run(["lint", r"[0-9]{16}", "--json"]) == 0
        documents = json.loads(capsys.readouterr().out)
        assert documents
        for document in documents:
            assert document["schema_version"] == LINT_SCHEMA_VERSION

    def test_findings_exit_one(self, capsys, monkeypatch):
        severity, description, _ = lints._RULES["entropy-funnel"]

        def always_err(ctx):
            return [
                lints.Finding(
                    "entropy-funnel",
                    lints.Severity.ERROR,
                    "forced finding for the exit-code contract",
                )
            ]

        monkeypatch.setitem(
            lints._RULES,
            "entropy-funnel",
            (severity, description, always_err),
        )
        assert run(["lint", r"[0-9]{16}"]) == 1

    def test_crashed_rule_exits_two(self, capsys, monkeypatch):
        severity, description, _ = lints._RULES["entropy-funnel"]

        def crash(ctx):
            raise RuntimeError("synthetic rule crash")

        monkeypatch.setitem(
            lints._RULES,
            "entropy-funnel",
            (severity, description, crash),
        )
        assert run(["lint", r"[0-9]{16}"]) == 2
        err = capsys.readouterr().err
        assert "internal error" in err

    def test_crash_findings_carry_the_crash_rule(self, monkeypatch):
        severity, description, _ = lints._RULES["entropy-funnel"]

        def crash(ctx):
            raise RuntimeError("synthetic rule crash")

        monkeypatch.setitem(
            lints._RULES,
            "entropy-funnel",
            (severity, description, crash),
        )
        from repro.core.plan import HashFamily
        from repro.core.regex_expand import pattern_from_regex
        from repro.core.synthesis import build_plan

        pattern = pattern_from_regex(r"[0-9]{16}")
        plan = build_plan(pattern, HashFamily.PEXT)
        report = lints.run_lints(plan, pattern)
        assert report.internal_errors
        assert all(
            finding.rule == lints.CRASH_RULE
            for finding in report.internal_errors
        )
