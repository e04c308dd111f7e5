"""Every ``repro`` name the benchmark and example scripts import exists.

The test suite never imports ``benchmarks/*.py`` or ``examples/*.py``
(only ``tests/`` is collected) and byte-compiling checks syntax alone,
so a script importing a deleted module or name would break silently.
Each script is parsed with :mod:`ast`, not run: every
``from repro... import name`` (at any depth, including imports inside
functions) must name an importable module that has ``name`` as an
attribute or submodule, and every ``import repro...`` must import.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(
    path
    for directory in ("benchmarks", "examples")
    for path in (ROOT / directory).glob("*.py")
)


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def _repro_imports(path):
    """(module, name) per imported ``repro`` name; name None for
    a plain ``import repro...``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and _is_repro(node.module):
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    yield alias.name, None


def _resolves(module, name):
    imported = importlib.import_module(module)
    if name is None or name == "*" or hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_scripts_are_found():
    assert any(path.parent.name == "benchmarks" for path in SCRIPTS)
    assert any(path.parent.name == "examples" for path in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}"
)
def test_repro_imports_resolve(path):
    missing = []
    for module, name in _repro_imports(path):
        try:
            ok = _resolves(module, name)
        except ImportError as error:
            missing.append(f"{module}: {error}")
            continue
        if not ok:
            missing.append(f"{module} has no {name!r}")
    assert not missing, missing
