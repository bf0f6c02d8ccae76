"""Every name a package module, test module or script imports is used in
that module, and every module-level function or class of the package is
named somewhere in the source tree."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "trilie").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "trilie").glob("*.py"))
# perfbench counts: its tracer patches package functions by name
READERS = sorted(p for folder in ("src", "tests", "scripts", "perfbench") for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    """The names bound by the imports of ``source`` (``__future__`` aside)
    that no other name or annotation string of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations such as "Element"
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used.add(node.value)
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def definitions(source: str) -> list:
    """The module-level functions and classes of ``source``, but dunder
    hooks such as a module's ``__getattr__``, which the interpreter calls."""
    types = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    nodes = [node for node in ast.parse(source).body if isinstance(node, types)]
    return [node.name for node in nodes if not (node.name.startswith("__") and node.name.endswith("__"))]


def named(source: str) -> set:
    """Every name ``source`` reads, imports, reads as an attribute or spells
    as a whole identifier string (a patched attribute, a lazy export)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_package_definition_is_named():
    used = set().union(*(named(path.read_text()) for path in READERS))
    dead = [f"{path.name}: {name}" for path in PACKAGE for name in definitions(path.read_text()) if name not in used]
    assert dead == []


def test_a_dead_definition_is_found():
    source = "def used():\n    return 1\n\ndef dead():\n    return used()\n\nclass Dead:\n    pass\n\ndef __dir__():\n    return []\n"
    assert definitions(source) == ["used", "dead", "Dead"]
    assert {"used"} <= named(source) and not {"dead", "Dead"} & named(source)


def test_an_unused_import_is_found():
    source = "from .report import ConfigError, Window\nimport os.path\n\ndef f(w: Window):\n    return w\n"
    assert unused_imports(source) == ["ConfigError (line 1)", "os (line 2)"]
