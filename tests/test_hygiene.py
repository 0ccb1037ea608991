"""Source hygiene: no dead imports, and every attribute the benchmark's
tracer wraps still exists."""

import ast
import importlib
from pathlib import Path

from benchmarks.tracing import TARGETS

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """(line, name) for each name ``source`` imports but never references;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    probe = "import os\nfrom math import comb, gcd\nprint(gcd(4, 6))\n"
    assert unused_imports(probe) == [(1, "os"), (2, "comb")]

    # ``__init__.py`` imports are the package's re-exports.
    paths = [
        path
        for path in sorted((ROOT / "src" / "gbb").glob("*.py"))
        + sorted((ROOT / "tests").glob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(paths) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_tracer_targets_resolve():
    missing = []
    for _name, _count, attributes in TARGETS:
        for dotted in attributes:
            module_name, attr = dotted.rsplit(".", 1)
            if not hasattr(importlib.import_module(module_name), attr):
                missing.append(dotted)
    assert missing == []
