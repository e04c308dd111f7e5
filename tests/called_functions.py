"""Opt-in pytest plugin: list the ``src/`` functions a test run never calls.

No coverage package is installed, so the record comes from the
interpreter's profile hook: ``sys.setprofile`` on the main thread and
``threading.setprofile`` for every thread started after it.  Each
``call`` event adds its code object to a set; at the end of the session
every function and method defined under ``src/repro`` (found with
:mod:`ast`) whose code never ran is printed as ``path:line qualname``.

Load it only with ``-p``, never from a conftest, so the plain test run
is unchanged::

    PYTHONPATH=src python -m pytest -p tests.called_functions -q

Known false positives: functions that run only at import time (before
this plugin installs its hook, or in a module imported by another
plugin first), and code reached only through a subprocess.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

_codes: Set[object] = set()
_add = _codes.add


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _install() -> None:
    sys.setprofile(_profile)
    threading.setprofile(_profile)


def _defined() -> Iterator[Tuple[Path, int, str]]:
    """``(path, first line, qualname)`` of every function under ``SRC``.

    The first line is the one a code object reports: the first
    decorator's line for a decorated function.
    """
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        yield from _walk(path, tree, "")


def _walk(path: Path, node: ast.AST, prefix: str):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            first = min(
                [child.lineno]
                + [decorator.lineno for decorator in child.decorator_list]
            )
            yield path, first, name
            yield from _walk(path, child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _walk(path, child, prefix + child.name + ".")
        else:
            yield from _walk(path, child, prefix)


def never_called(defined: List[Tuple[Path, int, str]]) -> List[str]:
    """``path:line qualname`` of each of ``defined`` not yet called."""
    called = {
        (Path(code.co_filename).resolve(), code.co_firstlineno)
        for code in list(_codes)
    }
    root = SRC.parents[1]
    return [
        f"{path.relative_to(root)}:{line} {name}"
        for path, line, name in defined
        if (path, line) not in called
    ]


def pytest_configure(config):
    _install()


def pytest_runtest_setup(item):
    # A test that runs its own profiler (cProfile) replaces the hook and
    # clears it on exit: put it back before every test.
    _install()


def _uninstall() -> None:
    sys.setprofile(None)
    threading.setprofile(None)


def pytest_unconfigure(config):
    _uninstall()


def pytest_terminal_summary(terminalreporter):
    _uninstall()
    defined = list(_defined())
    missing = never_called(defined)
    terminalreporter.section("src functions never called")
    for entry in missing:
        terminalreporter.write_line(entry)
    terminalreporter.write_line(
        f"{len(missing)} of {len(defined)} src functions never called"
    )
