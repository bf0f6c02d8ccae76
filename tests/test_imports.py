"""Every name a package module, test module or script imports is used in
that module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "trilie").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .report import ConfigError, Window\nimport os.path\n\ndef f(w: Window):\n    return w\n"
    assert unused_imports(source) == ["ConfigError (line 1)", "os (line 2)"]
