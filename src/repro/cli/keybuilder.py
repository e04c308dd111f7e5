"""``sepe-keybuilder``: infer a format regex from example keys.

Mirrors the paper's ``./bin/keybuilder < file_with_keys.txt`` (Figure
5a): reads one key per line and prints the regular expression recognizing
the inferred format, suitable for piping into ``sepe-keysynth``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.inference import infer_pattern, infer_pattern_from_file
from repro.core.regex_render import render_regex
from repro.errors import SepeError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepe-keybuilder",
        description="Infer a key-format regex from example keys.",
    )
    parser.add_argument(
        "file",
        nargs="?",
        help="file with one key per line (default: stdin)",
    )
    parser.add_argument(
        "--show-pattern",
        action="store_true",
        help="also print the quad pattern (constant-bit template per byte)",
    )
    return parser


def run(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.file:
            # Stream the file through the accumulator: bounded memory.
            pattern = infer_pattern_from_file(args.file)
        else:
            lines = sys.stdin.read().splitlines()
            pattern = infer_pattern([line for line in lines if line])
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except SepeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(render_regex(pattern))
    if args.show_pattern:
        for index in range(pattern.body_length):
            byte = pattern.byte_pattern(index)
            print(
                f"byte {index:3d}: const_mask={byte.const_mask:08b} "
                f"const_value=0x{byte.const_value:02x}",
                file=sys.stderr,
            )
    return 0


def main() -> None:  # pragma: no cover - console-script shim
    raise SystemExit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
