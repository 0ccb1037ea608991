"""Source hygiene: no dead imports, no definition that only tests call,
every attribute the benchmark's tracer wraps still exists, and the README's
library example runs."""

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


# Definitions kept although nothing in ``src/gbb`` or ``benchmarks`` calls
# them, each with its reason.
TEST_ONLY_ALLOWED = {
    "surplus_totals": "keeps gbb.verify.all_surpluses imported, which the "
    "benchmark tracer wraps, until ROADMAP item 1 retargets the tracer",
}


def referenced_names(source):
    """Every name ``source`` reads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return names


def test_every_src_definition_has_a_non_test_caller():
    probe = "from m import a\nx = b.c\nd()\ndef e(): pass\n"
    assert referenced_names(probe) == {"a", "b", "c", "d"}

    # ``__init__.py`` re-exports everything, so its imports prove no use.
    package = [
        path
        for path in sorted((ROOT / "src" / "gbb").glob("*.py"))
        if path.name != "__init__.py"
    ]
    callers = package + sorted((ROOT / "benchmarks").glob("*.py"))
    referenced = set().union(
        *(referenced_names(path.read_text(encoding="utf-8")) for path in callers)
    )
    referenced |= {
        dotted.rsplit(".", 1)[1]
        for _, _, attributes in TARGETS
        for dotted in attributes
    }
    unreferenced = [
        f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
        for path in package
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in referenced
        and node.name not in TEST_ONLY_ALLOWED
    ]
    assert unreferenced == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    example = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    assert "certify(" in example
    exec(compile(example, "README.md (Library)", "exec"), {})
