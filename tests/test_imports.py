"""Every name a package module, test module or script imports is used in
that module, every module-level function or class of the package is
named somewhere in the source tree, and every ``trilie`` name the
benchmark in perfbench/ imports, reads or patches still resolves."""

import ast
import importlib
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


PERFBENCH = sorted((ROOT / "perfbench").rglob("*.py"))
# the patch helpers of perfbench/tracer.py and pytest's setattr: (owner, "name", ...)
PATCHERS = {"patch_function", "patch_method", "setattr"}


def _resolves(path: str) -> bool:
    """Whether the dotted ``trilie...`` path names a module or an attribute."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 1):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[: i + 1]))
        except ImportError:
            return False
    return True


def trilie_paths(source: str) -> list:
    """The dotted ``trilie`` paths ``source`` reads, as (path, line): the
    names it imports, every attribute chain on a name bound to a ``trilie``
    module or name (by an import or an assignment), and the attribute
    handed to a patch helper, spelled as a string or as the target of a
    loop over string constants."""
    tree = ast.parse(source)
    bound, found = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "trilie":
                    found.append((alias.name, node.lineno))
                    bound[alias.asname or "trilie"] = alias.name if alias.asname else "trilie"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "trilie":
            for alias in node.names:
                found.append((f"{node.module}.{alias.name}", node.lineno))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            owner = dotted(node.value)
            return owner and f"{owner}.{node.attr}"
        return None

    assigns = [n for n in ast.walk(tree) if isinstance(n, ast.Assign) and len(n.targets) == 1]
    for node in assigns:
        if isinstance(node.targets[0], ast.Name) and dotted(node.value):
            bound[node.targets[0].id] = dotted(node.value)
    def patched(call):
        """(the dotted owner, the attribute argument) of a patch-helper call."""
        if isinstance(call, ast.Call) and len(call.args) >= 2:
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in PATCHERS and dotted(call.args[0]):
                return dotted(call.args[0]), call.args[1]
        return None, None

    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and dotted(node):
            found.append((dotted(node), node.lineno))
        owner, attr = patched(node)
        if owner and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
            found.append((f"{owner}.{attr.value}", node.lineno))
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name) and isinstance(node.iter, ast.Tuple):
            values = [e.value for e in node.iter.elts if isinstance(e, ast.Constant) and isinstance(e.value, str)]
            for call in (n for stmt in node.body for n in ast.walk(stmt)):
                owner, attr = patched(call)
                if owner and isinstance(attr, ast.Name) and attr.id == node.target.id:
                    found += [(f"{owner}.{value}", call.lineno) for value in values]
    return found


def unresolved_trilie_paths(source: str) -> list:
    return sorted({f"{path} (line {line})" for path, line in trilie_paths(source) if not _resolves(path)})


@pytest.mark.parametrize("path", PERFBENCH, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_trilie_name_the_benchmark_uses_resolves(path):
    assert unresolved_trilie_paths(path.read_text()) == []


def test_a_benchmark_name_the_package_lost_is_found(monkeypatch):
    from trilie import analysis, operators

    monkeypatch.delattr(analysis, "closed_triple_fn")
    monkeypatch.delattr(operators, "decompose")
    lost = set().union(*(unresolved_trilie_paths(path.read_text()) for path in PERFBENCH))
    assert {path.partition(" ")[0] for path in lost} == {
        "trilie.analysis.closed_triple_fn",
        "trilie.operators.decompose",
    }
    source = (
        "import trilie.report\n"
        "from trilie import elements\n"
        "from trilie.polys import gone\n"
        "def install(tracer, monkeypatch):\n"
        "    for attr in ('d_k', 'lost'):\n"
        "        tracer.patch_function(elements, attr, 'point')\n"
        "    tracer.patch_method(elements.Element, 'missing', 'point')\n"
        "    monkeypatch.setattr(trilie.report, 'absent', None)\n"
        "    original = elements.nowhere\n"
    )
    assert unresolved_trilie_paths(source) == [
        "trilie.elements.Element.missing (line 7)",
        "trilie.elements.lost (line 6)",
        "trilie.elements.nowhere (line 9)",
        "trilie.polys.gone (line 3)",
        "trilie.report.absent (line 8)",
    ]
