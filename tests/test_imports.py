"""Every name a module imports is read in that module, and no module
holds an ``assert`` or reads ``__debug__``.

The import check parses each module of the package except
``__init__.py``, which re-exports. ``__future__`` imports are skipped,
and so is an import statement marked ``# noqa``: pmd keeps
``check_certificate`` bound for a benchmark wrapper that looks it up
there. The second check parses every module, ``__init__.py`` included:
``python -O`` strips asserts and sets ``__debug__`` to False, so without
either a plain run and an optimized run execute the same program, and
every check in it is an explicit raise.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lssrings"
EVERY_MODULE = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in EVERY_MODULE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each imported name that the module never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for a in node.names:
            imported.append((node.lineno, a.asname or a.name.split(".")[0]))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [(line, name) for line, name in imported if name not in read]


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [(1, "os"), (2, "b")]
    assert unused_imports("import os  # noqa\nfrom __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def debug_only_code(source: str) -> list[tuple[int, str]]:
    """(line, what) for each ``assert`` statement and each read of
    ``__debug__``: the code that ``python -O`` runs differently."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
    return sorted(found)


def test_detects_debug_only_code():
    source = "def f(x):\n    assert x, 'no'\n    if __debug__:\n        g()\n    return x\n"
    assert debug_only_code(source) == [(2, "assert"), (3, "__debug__")]
    assert debug_only_code("if not x:\n    raise ValueError('no')\n") == []


@pytest.mark.parametrize("path", EVERY_MODULE, ids=lambda p: p.name)
def test_no_module_runs_differently_under_optimize_flag(path):
    assert debug_only_code(path.read_text(encoding="utf-8")) == []
