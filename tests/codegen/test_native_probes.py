"""The toolchain probes, checked without a compiler.

Each ISA probe must print a result the pure-Python ISA model predicts,
so a probe binary that computes a wrong ``pext``/``aesenc`` fails
instead of enabling the feature.  The expected strings live in
:mod:`repro.codegen.native`; these tests derive them from
:mod:`repro.isa` and pin the probe order.
"""

from repro.codegen import native as native_mod
from repro.codegen.cpp_backend import x86_jit_prelude
from repro.isa.aes import aesenc
from repro.isa.bits import pext

MASK64 = (1 << 64) - 1


class TestProbeExpectations:
    def test_pext_expectation_from_isa_model(self):
        value, mask = native_mod._PEXT_PROBE_ARGS
        assert native_mod._PEXT_PROBE_EXPECT == str(pext(value, mask))
        assert f"UINT64_C({value:#x})" in native_mod._PROBE_PEXT
        assert f"UINT64_C({mask:#x})" in native_mod._PROBE_PEXT

    def test_x86_aes_expectation_from_isa_model(self):
        state, key = native_mod._AES_PROBE_ARGS
        result = aesenc(state, key)
        assert native_mod._AES_X86_PROBE_EXPECT == (
            f"{result & MASK64} {result >> 64}"
        )
        for word in (state & MASK64, state >> 64, key & MASK64, key >> 64):
            assert f"UINT64_C({word:#x})" in native_mod._PROBE_AES_X86

    def test_arm_aes_expectation_from_isa_model(self):
        # AESE with a zero key, then AESMC, on sixteen 0x5a bytes is one
        # aesenc round with a zero round key; the probe prints byte 0.
        state = int.from_bytes(bytes([0x5A] * 16), "little")
        assert native_mod._AES_ARM_PROBE_EXPECT == str(aesenc(state, 0) & 0xFF)
        assert "vdupq_n_u8(0x5a)" in native_mod._PROBE_AES_ARM

    def test_x86_probes_compile_the_jit_prelude(self):
        assert native_mod._PROBE_PEXT.startswith(x86_jit_prelude({"pext"}))
        assert native_mod._PROBE_AES_X86.startswith(x86_jit_prelude({"aes"}))
        for source in (native_mod._PROBE_PEXT, native_mod._PROBE_AES_X86):
            assert "immintrin" not in source
            assert "volatile" in source


class TestProbeOrder:
    def _probe(self, monkeypatch, failing=()):
        """Run the toolchain probe with every compile-and-run faked.

        Returns the toolchain and the ``(stem, flags, expect)`` of each
        probe in order; stems in ``failing`` fail.
        """
        calls = []

        def fake_runs(command, flags, source, work, stem, expect):
            calls.append((stem, tuple(flags), expect))
            return stem not in failing

        monkeypatch.setattr(native_mod, "native_target", lambda: "x86")
        monkeypatch.setattr(
            native_mod, "_candidate_compilers", lambda: ["/fake/c++"]
        )
        monkeypatch.setattr(native_mod, "_probe_runs", fake_runs)
        monkeypatch.setattr(
            native_mod, "_compiler_identity", lambda command: "fake 1.0"
        )
        toolchain, reason = native_mod._probe_toolchain()
        return toolchain, calls

    def test_march_native_first_and_flagless_skipped(self, monkeypatch):
        toolchain, calls = self._probe(monkeypatch)
        assert [stem for stem, _, _ in calls] == [
            "march", "pext_arch", "aes_arch",
        ]
        assert calls[0][1] == ("-march=native",)
        assert "-march=native" in toolchain.flags
        assert toolchain.features == {"pext", "aes"}

    def test_flagless_probe_only_when_march_fails(self, monkeypatch):
        toolchain, calls = self._probe(monkeypatch, failing={"march"})
        assert [stem for stem, _, _ in calls] == [
            "march", "base", "pext_flag", "aes_flag",
        ]
        assert calls[1][1] == ()
        assert "-march=native" not in toolchain.flags
        assert {"-mbmi2", "-maes"} <= set(toolchain.flags)

    def test_every_probe_checks_its_output(self, monkeypatch):
        _, calls = self._probe(monkeypatch, failing={"pext_arch"})
        expects = dict((stem, expect) for stem, _, expect in calls)
        assert expects["march"] == "42"
        assert expects["pext_arch"] == native_mod._PEXT_PROBE_EXPECT
        assert expects["pext_flag"] == native_mod._PEXT_PROBE_EXPECT
        assert expects["aes_arch"] == native_mod._AES_X86_PROBE_EXPECT

    def test_wrong_result_disables_feature(self, monkeypatch):
        toolchain, _ = self._probe(
            monkeypatch, failing={"aes_arch", "aes_flag"}
        )
        assert toolchain.features == {"pext"}
