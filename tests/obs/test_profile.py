"""Tests for per-stage plan profiling and span self-time trees."""

import pytest

from repro.codegen import batch as batch_mod
from repro.codegen.batch import HAVE_NUMPY
from repro.codegen.interp import interpret
from repro.codegen.ir import build_ir, optimize
from repro.core.plan import HashFamily
from repro.core.synthesis import SynthesizedHash, synthesize
from repro.core.validate import sample_conforming_keys
from repro.obs import capture_spans
from repro.obs.profile import (
    profile_format,
    profile_plan,
    render_profile,
    render_self_time_tree,
    self_time_tree,
    stage_self_times,
)
from repro.obs.trace import SpanRecord

SSN = r"\d{3}-\d{2}-\d{4}"
FAMILIES = [
    HashFamily.NAIVE,
    HashFamily.OFFXOR,
    HashFamily.AES,
    HashFamily.PEXT,
]
ENTRY_STAGES = {"(length guard)", "(row view)", "(tolist)"}

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="needs numpy")


def _keys(synthesized, count=200, seed=0):
    return sample_conforming_keys(synthesized.pattern, count, seed=seed)


def _schedule(synthesized):
    counts = {}
    for instr in optimize(build_ir(synthesized.plan)).instrs:
        counts[instr.opcode] = counts.get(instr.opcode, 0) + 1
    return counts


class TestProfiledInterpreter:
    """The profiled stages agree with the plain IR interpreter."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_parity_with_plain_interpreter(self, family):
        synthesized = synthesize(SSN, family)
        func = optimize(build_ir(synthesized.plan))
        keys = _keys(synthesized, count=64)
        # profile_plan raises unless its values equal batch_function.
        report = profile_plan(synthesized, keys)
        assert synthesized.batch_function(keys) == [
            interpret(func, key) for key in keys
        ]
        assert report.total_wall > 0 and report.total_cpu >= 0


@needs_numpy
class TestProfilePlan:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_parity_with_hash_many(self, family):
        """Values equal ``batch_function`` (checked inside the profile),
        every IR instruction is one timed stage, and the stages cover
        the run."""
        synthesized = synthesize(SSN, family)
        report = profile_plan(synthesized, _keys(synthesized, count=2000))
        assert report.mode == "vector"
        counts = {op: stat.count for op, stat in report.opcodes.items()}
        assert counts == {
            **_schedule(synthesized),
            **dict.fromkeys(ENTRY_STAGES, 1),
        }
        assert 0.95 <= report.coverage <= 1.001

    def test_self_times_sum_to_internal_totals(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        report = profile_plan(synthesized, _keys(synthesized, count=400))
        assert report.attributed_wall == pytest.approx(
            report.total_wall, rel=1e-9
        )
        assert report.attributed_cpu == pytest.approx(
            report.total_cpu, rel=1e-9
        )

    def test_divergence_from_hash_many_raises(self, monkeypatch):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        monkeypatch.setattr(
            SynthesizedHash,
            "batch_function",
            property(lambda self: lambda keys: [0] * len(keys)),
        )
        with pytest.raises(AssertionError, match="diverged"):
            profile_plan(synthesized, _keys(synthesized, count=64))

    def test_ragged_batch_is_mapped(self):
        """Lengths that merely sum to ``n * L`` are no row view: the
        list entry maps the scalar function, and so does the profile."""
        synthesized = synthesize(SSN, HashFamily.PEXT)
        keys = _keys(synthesized, count=32)
        keys[0] += b"7"
        keys[1] = keys[1][:-1]
        assert sum(map(len, keys)) == 32 * synthesized.plan.key_length
        report = profile_plan(synthesized, keys)
        assert report.mode == "mapped"
        assert set(report.opcodes) == {"(scalar map)"}
        assert synthesized.hash_many(keys) == list(map(synthesized, keys))

    def test_small_batch_is_mapped(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        keys = _keys(synthesized, count=batch_mod.VECTOR_MIN_KEYS - 1)
        assert profile_plan(synthesized, keys).mode == "mapped"

    def test_numpy_less_host_is_mapped(self, monkeypatch):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        monkeypatch.setattr(batch_mod, "HAVE_NUMPY", False)
        report = profile_plan(synthesized, _keys(synthesized, count=64))
        assert report.mode == "mapped"


class TestProfileReports:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_interp_coverage_bounds(self, family):
        """Acceptance: stage self-times are ≤100% and ≥95% of wall."""
        synthesized = synthesize(SSN, family)
        report = profile_plan(synthesized, _keys(synthesized, count=2000))
        assert 0.95 <= report.coverage <= 1.001
        assert report.attributed_wall <= report.harness_wall * 1.001

    @needs_numpy
    def test_counts_match_instruction_schedule(self):
        synthesized = synthesize(r".{4}(:.{4}){7}", HashFamily.AES)
        report = profile_plan(synthesized, _keys(synthesized, count=120))
        for opcode, expected in _schedule(synthesized).items():
            assert report.opcodes[opcode].count == expected

    def test_hot_ranking_and_dict_shape(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        report = profile_plan(synthesized, _keys(synthesized, count=100))
        hot = report.hot()
        walls = [stat.wall_seconds for stat in hot]
        assert walls == sorted(walls, reverse=True)
        document = report.to_dict()
        assert document["keys"] == 100
        assert document["opcodes"][0]["opcode"] == hot[0].opcode
        assert 0.0 < document["coverage"] <= 1.001

    def test_profile_format_end_to_end(self):
        report = profile_format(SSN, count=200, seed=3)
        assert report.keys == 200
        assert report.family == "pext"
        text = render_profile(report)
        assert "hot opcode" in text
        assert "pext" in text

    @needs_numpy
    def test_fixed_length_batch_vectorizes(self):
        synthesized = synthesize(SSN, HashFamily.PEXT)
        report = profile_plan(synthesized, _keys(synthesized, count=300))
        assert report.mode == "vector"
        assert ENTRY_STAGES <= set(report.opcodes)

    def test_variable_length_plan_is_mapped(self):
        synthesized = synthesize(r"[a-z]+@corp\.com", HashFamily.OFFXOR)
        report = profile_plan(synthesized, _keys(synthesized, count=50))
        assert report.mode == "mapped"
        assert report.opcodes["(scalar map)"].count == 1
        assert 0.95 <= report.coverage <= 1.001


def _record(span_id, parent_id, name, started, wall, cpu=None):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        depth=0,
        started=started,
        wall_seconds=wall,
        cpu_seconds=wall if cpu is None else cpu,
        thread="main",
    )


class TestSelfTimeTree:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _record(1, None, "root", 0.0, 1.0),
            _record(2, 1, "child_a", 0.1, 0.3),
            _record(3, 1, "child_b", 0.5, 0.2),
            _record(4, 2, "grandchild", 0.15, 0.1),
        ]
        tree = self_time_tree(records)
        assert len(tree) == 1
        root = tree[0]
        assert root["self_wall"] == pytest.approx(0.5)
        child_a = root["children"][0]
        assert child_a["name"] == "child_a"
        assert child_a["self_wall"] == pytest.approx(0.2)

    def test_orphan_parent_becomes_root(self):
        records = [_record(7, 99, "orphan", 0.0, 0.4)]
        tree = self_time_tree(records)
        assert tree[0]["name"] == "orphan"
        assert tree[0]["self_wall"] == pytest.approx(0.4)

    def test_stage_totals_aggregate_by_name(self):
        records = [
            _record(1, None, "stage", 0.0, 0.5),
            _record(2, None, "stage", 1.0, 0.25),
        ]
        totals = stage_self_times(records)
        assert totals["stage"]["calls"] == 2
        assert totals["stage"]["wall_seconds"] == pytest.approx(0.75)

    def test_render_over_real_synthesis_spans(self):
        from repro.codegen.cache import get_compile_cache

        get_compile_cache().clear()
        with capture_spans() as sink:
            synthesize(SSN, HashFamily.PEXT)
        text = render_self_time_tree(sink.records())
        assert "synthesize" in text
        assert "self" in text
