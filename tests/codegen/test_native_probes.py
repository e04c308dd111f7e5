"""The toolchain probe, checked without a compiler (and once with one).

The probe is one program: the JIT prelude plus a ``main`` that prints
``42`` and one tagged result line per ISA feature, each under its
feature's macro guard.  Each line must be the result the pure-Python
ISA model predicts, so a probe binary that computes a wrong
``pext``/``aesenc`` fails instead of enabling the feature.  The expected
strings live in :mod:`repro.codegen.native`; these tests derive them
from :mod:`repro.isa`, pin how the probe reads the program's output
(with every compile-and-run faked), and, under the ``native`` marker,
check the one-run probe against per-feature runs on the real compiler.
"""

import subprocess
import tempfile
from pathlib import Path

import pytest

from repro.codegen import native as native_mod
from repro.codegen.cpp_backend import x86_jit_prelude
from repro.isa.aes import aesenc
from repro.isa.bits import pext
from repro.obs.metrics import get_registry

MASK64 = (1 << 64) - 1

PEXT = native_mod._PEXT_PROBE
AES = native_mod._AES_X86_PROBE
AES_ARM = native_mod._AES_ARM_PROBE
BASE = native_mod._BASE_FLAGS


def _section(program, probe):
    """The text of ``probe``'s guarded section in ``main``."""
    body = program[program.index("int main() {"):]
    start = body.index(f"#ifdef {probe.guard}\n")
    return body[start:body.index("#endif", start)]


class TestProbeExpectations:
    def test_pext_expectation_from_isa_model(self):
        value, mask = native_mod._PEXT_PROBE_ARGS
        assert PEXT.expect == str(pext(value, mask))
        section = _section(native_mod._probe_program("x86", (PEXT, AES)), PEXT)
        assert f"UINT64_C({value:#x})" in section
        assert f"UINT64_C({mask:#x})" in section

    def test_x86_aes_expectation_from_isa_model(self):
        state, key = native_mod._AES_PROBE_ARGS
        result = aesenc(state, key)
        assert AES.expect == f"{result & MASK64} {result >> 64}"
        section = _section(native_mod._probe_program("x86", (PEXT, AES)), AES)
        for word in (state & MASK64, state >> 64, key & MASK64, key >> 64):
            assert f"UINT64_C({word:#x})" in section

    def test_arm_aes_expectation_from_isa_model(self):
        # AESE with a zero key, then AESMC, on sixteen 0x5a bytes is one
        # aesenc round with a zero round key; the probe prints byte 0.
        state = int.from_bytes(bytes([0x5A] * 16), "little")
        assert AES_ARM.expect == str(aesenc(state, 0) & 0xFF)
        program = native_mod._probe_program("aarch64", (AES_ARM,))
        assert AES_ARM.guard == "__ARM_FEATURE_AES"
        assert "vdupq_n_u8(0x5a)" in _section(program, AES_ARM)
        assert "#include <arm_neon.h>" in program

    def test_x86_probes_compile_the_jit_prelude(self):
        program = native_mod._probe_program("x86", (PEXT, AES))
        guards = {"pext": "__BMI2__", "aes": "__AES__"}
        assert program.startswith(x86_jit_prelude({"pext", "aes"}, guards))
        # Without its guards the prelude is the JIT unit's, line for line.
        unguarded = "".join(
            line
            for line in program.splitlines(keepends=True)
            if not line.startswith(("#ifdef", "#endif"))
        )
        assert unguarded.startswith(x86_jit_prelude({"pext", "aes"}))
        assert "immintrin" not in program
        for probe in (PEXT, AES):
            assert "volatile" in _section(program, probe)

    @pytest.mark.parametrize(
        "target, probes",
        [("x86", (PEXT, AES)), ("aarch64", (AES_ARM,))],
    )
    def test_every_section_is_guarded_tagged_and_flushed(
        self, target, probes
    ):
        assert native_mod._FEATURE_PROBES[target] == probes
        program = native_mod._probe_program(target, probes)
        main = program[program.index("int main() {"):]
        # ``42`` comes out (and is flushed) before any feature section.
        assert main.index('std::printf("%d\\n", 40 + 2);') < main.index(
            "std::fflush(stdout);"
        ) < main.index("#ifdef")
        for probe in probes:
            section = _section(program, probe)
            assert f'std::printf("{probe.name} ' in section
            assert "std::fflush(stdout);" in section
            assert probe.line == f"{probe.name} {probe.expect}"

    def test_explicit_flag_program_carries_only_its_feature(self):
        program = native_mod._probe_program("x86", (AES,))
        assert "#ifdef __AES__" in program
        assert "__BMI2__" not in program
        assert "sepe_pext" not in program


class TestProbeOrder:
    def _probe(self, monkeypatch, outputs=None, target="x86", died=()):
        """Run the toolchain probe with every compile-and-run faked.

        ``outputs`` maps a run's stem to the stdout lines it returns (an
        empty list is a failed compile); the runs named in ``died``
        exit non-zero.  Any other run passes: it prints ``42`` and the
        expected line of every feature section in its source.  Returns
        the toolchain and the ``(stem, flags)`` of each run in order.
        """
        outputs = outputs or {}
        calls = []

        def fake_run(command, flags, source, work, stem):
            calls.append((stem, tuple(flags)))
            if stem in outputs:
                lines = list(outputs[stem])
                return lines, bool(lines) and stem not in died
            return ["42"] + [
                probe.line
                for probe in native_mod._FEATURE_PROBES[target]
                if f"#ifdef {probe.guard}" in source
            ], stem not in died

        monkeypatch.setattr(native_mod, "native_target", lambda: target)
        monkeypatch.setattr(
            native_mod, "_candidate_compilers", lambda: ["/fake/c++"]
        )
        monkeypatch.setattr(native_mod, "_probe_run", fake_run)
        monkeypatch.setattr(
            native_mod, "_compiler_identity", lambda command: "fake 1.0"
        )
        toolchain, _ = native_mod._probe_toolchain()
        return toolchain, calls

    def test_march_native_first_and_flagless_skipped(self, monkeypatch):
        toolchain, calls = self._probe(monkeypatch)
        assert calls == [("native", ("-march=native",))]
        assert toolchain == native_mod.Toolchain(
            command="/fake/c++",
            identity="fake 1.0",
            flags=(*BASE, "-march=native"),
            features=frozenset({"pext", "aes"}),
            target="x86",
        )

    def test_flagless_probe_only_when_march_fails(self, monkeypatch):
        toolchain, calls = self._probe(monkeypatch, {"native": []})
        assert calls == [
            ("native", ("-march=native",)),
            ("base", ()),
            ("pext_flag", ("-mbmi2",)),
            ("aes_flag", ("-maes",)),
        ]
        assert toolchain.flags == (*BASE, "-mbmi2", "-maes")
        assert toolchain.features == {"pext", "aes"}

    def test_no_compiler_passes(self, monkeypatch):
        toolchain, calls = self._probe(
            monkeypatch, {"native": [], "base": []}
        )
        assert toolchain is None
        assert [stem for stem, _ in calls] == ["native", "base"]

    def test_crash_after_pext_line_keeps_pext(self, monkeypatch):
        # The run died in the aes section: the flushed lines before it
        # still came out.  aes never ran there, so it is run alone under
        # -march=native, where it dies again, before its explicit flag.
        toolchain, calls = self._probe(
            monkeypatch,
            {"native": ["42", PEXT.line], "aes_arch": ["42"]},
            died=("native", "aes_arch"),
        )
        assert calls == [
            ("native", ("-march=native",)),
            ("aes_arch", ("-march=native",)),
            ("aes_flag", ("-maes",)),
        ]
        assert toolchain.flags == (*BASE, "-march=native", "-maes")
        assert toolchain.features == {"pext", "aes"}

    def test_crash_in_pext_keeps_aes_under_native(self, monkeypatch):
        # The run died in the pext section, so the aes section never
        # ran; alone under -march=native it passes and needs no -maes,
        # as when each feature was probed on its own.
        toolchain, calls = self._probe(
            monkeypatch,
            {"native": ["42"], "pext_arch": ["42"]},
            died=("native", "pext_arch"),
        )
        assert calls == [
            ("native", ("-march=native",)),
            ("pext_arch", ("-march=native",)),
            ("pext_flag", ("-mbmi2",)),
            ("aes_arch", ("-march=native",)),
        ]
        assert toolchain.flags == (*BASE, "-march=native", "-mbmi2")
        assert toolchain.features == {"pext", "aes"}

    def test_every_probe_checks_its_output(self, monkeypatch):
        # One wrong line: only that feature is re-probed, by its flag.
        toolchain, calls = self._probe(
            monkeypatch, {"native": ["42", "pext 21404384", AES.line]}
        )
        assert calls == [
            ("native", ("-march=native",)),
            ("pext_flag", ("-mbmi2",)),
        ]
        assert toolchain.flags == (*BASE, "-march=native", "-mbmi2")
        assert toolchain.features == {"pext", "aes"}

    def test_untagged_result_does_not_prove(self, monkeypatch):
        toolchain, calls = self._probe(
            monkeypatch,
            {"native": ["42", PEXT.expect, AES.line], "pext_flag": []},
        )
        assert [stem for stem, _ in calls] == ["native", "pext_flag"]
        assert toolchain.features == {"aes"}

    def test_wrong_result_disables_feature(self, monkeypatch):
        wrong = "aes 1 2"
        toolchain, _ = self._probe(
            monkeypatch,
            {"native": ["42", PEXT.line, wrong], "aes_flag": ["42", wrong]},
        )
        assert toolchain.features == {"pext"}
        assert toolchain.flags == (*BASE, "-march=native")

    def test_aarch64_one_run(self, monkeypatch):
        toolchain, calls = self._probe(monkeypatch, target="aarch64")
        assert calls == [("native", ("-march=native",))]
        assert toolchain.flags == (*BASE, "-march=native")
        assert toolchain.features == {"aes"}
        assert toolchain.target == "aarch64"

    def test_aarch64_crypto_flag_when_native_lacks_aes(self, monkeypatch):
        toolchain, calls = self._probe(
            monkeypatch, {"native": ["42"]}, target="aarch64"
        )
        assert calls == [
            ("native", ("-march=native",)),
            ("aes_flag", ("-march=armv8-a+crypto",)),
        ]
        assert toolchain.flags == (
            *BASE, "-march=native", "-march=armv8-a+crypto",
        )
        assert toolchain.features == {"aes"}


class TestProbeRun:
    def test_timed_out_run_keeps_its_lines(self, monkeypatch, tmp_path):
        def fake_run(cmd, timeout, cwd=None):
            if cmd[0] == "/fake/c++":
                return subprocess.CompletedProcess(cmd, 0, b"", b"")
            raise subprocess.TimeoutExpired(
                cmd, timeout, output=b"42\npext 1\n"
            )

        monkeypatch.setattr(native_mod, "_run", fake_run)
        assert native_mod._probe_run(
            "/fake/c++", [], "", tmp_path, "hang"
        ) == (["42", "pext 1"], False)

    def test_failed_compile_has_no_lines(self, monkeypatch, tmp_path):
        monkeypatch.setattr(
            native_mod,
            "_run",
            lambda cmd, timeout, cwd=None: subprocess.CompletedProcess(
                cmd, 1, b"", b"error"
            ),
        )
        assert native_mod._probe_run(
            "/fake/c++", [], "", tmp_path, "bad"
        ) == ([], False)


def _three_run_toolchain(command, target):
    """The toolchain as the per-feature probe found it: one run to prove
    ``-march=native`` (or no arch flag), then each feature's program
    compiled and run alone, first under the arch flag, then under its
    explicit flags."""
    probes = native_mod._FEATURE_PROBES[target]
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def proves(flags, section, stem, line):
            program = native_mod._probe_program(target, section)
            lines, exited = native_mod._probe_run(
                command, flags, program, work, stem
            )
            return exited and line in lines

        if proves(["-march=native"], (), "march", "42"):
            arch = ["-march=native"]
        else:
            assert proves([], (), "base", "42")
            arch = []
        features, feature_flags = set(), []
        for probe in probes:
            alone = (probe,)
            if arch and proves(arch, alone, "arch", probe.line):
                features.add(probe.name)
            elif proves(probe.flags, alone, "flag", probe.line):
                features.add(probe.name)
                feature_flags.extend(probe.flags)
    return native_mod.Toolchain(
        command=command,
        identity=native_mod._compiler_identity(command),
        flags=(*BASE, *arch, *feature_flags),
        features=frozenset(features),
        target=target,
    )


@pytest.mark.native
@pytest.mark.skipif(
    not native_mod.native_available(),
    reason="no working C++ toolchain on this host",
)
class TestProbeOnCompiler:
    def test_one_run_matches_per_feature_runs(self):
        registry = get_registry()
        before = registry.counter("codegen.native.probe_runs").value
        toolchain, reason = native_mod._probe_toolchain()
        runs = registry.counter("codegen.native.probe_runs").value - before
        assert reason is None
        assert toolchain == _three_run_toolchain(
            toolchain.command, toolchain.target
        )
        if "-march=native" in toolchain.flags and len(
            toolchain.features
        ) == len(native_mod._FEATURE_PROBES[toolchain.target]):
            assert runs == 1

    def test_lines_before_a_crash_are_read(self, tmp_path):
        command = native_mod.detect_toolchain().command
        source = (
            "#include <cstdio>\n#include <cstdlib>\nint main() {\n"
            '    std::printf("42\\n");\n    std::fflush(stdout);\n'
            "    std::abort();\n}\n"
        )
        assert native_mod._probe_run(
            command, [], source, tmp_path, "crash"
        ) == (["42"], False)
