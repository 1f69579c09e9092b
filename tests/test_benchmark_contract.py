"""The program names the benchmark binds still exist.

perfbench/tracing.py wraps the attributes listed in ``PROGRAM_SPANS``,
and perfbench/run.py imports ``PROGRAM_MODULES`` and reports
``kernel.BACKEND`` and ``rationals.BACKEND``. Moving or deleting one of
them breaks traced benchmark runs, so this test fails first. The
benchmark files are only imported, never changed.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lssrings"
BENCH_MODULES = ("run", "tracing", "workloads", "checks", "inputs")


def _import_benchmark(monkeypatch):
    """perfbench/run.py and tracing.py, imported as the run script would."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("run"), importlib.import_module("tracing")


def test_benchmark_bindings_resolve(monkeypatch):
    run, tracing = _import_benchmark(monkeypatch)
    try:
        for owner, attr, span in tracing.PROGRAM_SPANS:
            assert callable(getattr(tracing.resolve(owner), attr, None)), (owner, attr, span)
        for name in run.PROGRAM_MODULES:
            importlib.import_module(f"lssrings.{name}")
        kernel = importlib.import_module("lssrings.kernel")
        rationals = importlib.import_module("lssrings.rationals")
        assert isinstance(kernel.BACKEND, str) and isinstance(rationals.BACKEND, str)
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)


def test_rationals_is_only_the_benchmark_backend_name():
    """rationals.py holds BACKEND and nothing else, and no program module
    imports it: exact numbers are fractions.Fraction, called directly."""
    rationals = importlib.import_module("lssrings.rationals")
    assert [k for k in vars(rationals) if not k.startswith("__")] == ["BACKEND"]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[-1] == "rationals" for n in names), path.name
