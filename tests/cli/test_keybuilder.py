"""Tests for the keybuilder CLI."""

import io

import pytest

from repro.cli.keybuilder import run


class TestKeybuilder:
    def test_from_file(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("000-00-0000\n555-55-5555\n")
        assert run([str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out == r"[0-?]{3}(\-[0-?]{2}){2}[0-?]{2}"

    def test_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO("aaa\nbbb\n")
        )
        assert run([]) == 0
        assert capsys.readouterr().out.strip() != ""

    def test_blank_lines_ignored(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("abc\n\n\nabd\n")
        assert run([str(path)]) == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("ab")

    def test_empty_input_errors(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("\n")
        assert run([str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_show_pattern(self, tmp_path, capsys):
        path = tmp_path / "keys.txt"
        path.write_text("00\n55\n")
        assert run([str(path), "--show-pattern"]) == 0
        captured = capsys.readouterr()
        assert "const_mask" in captured.err

    def test_output_is_valid_input_for_keysynth(self, tmp_path, capsys):
        """The Figure 5 pipeline: keybuilder output feeds keysynth."""
        from repro.cli.keysynth import run as keysynth_run

        path = tmp_path / "keys.txt"
        path.write_text("123-45-6789\n000-00-0000\n999-99-9999\n")
        assert run([str(path)]) == 0
        regex = capsys.readouterr().out.strip()
        assert keysynth_run([regex, "--family", "pext"]) == 0

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--engine", "auto"]])
    def test_removed_inference_knobs_rejected(self, tmp_path, capsys, flag):
        path = tmp_path / "keys.txt"
        path.write_text("000-00-0000\n555-55-5555\n")
        with pytest.raises(SystemExit) as error:
            run([str(path), *flag])
        assert error.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
