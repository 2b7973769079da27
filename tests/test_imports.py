"""Every module-level import and every definition in the package is used.

Imports: ``__init__.py`` files are skipped, their imports are re-exports.
A name counts as used when the module reads it anywhere as a plain name.

Definitions: every function and class defined in the package must occur
as a name token somewhere in ``src/`` or ``bench/`` code besides the
definitions of that name.  An import counts, so a name
``epiplan/__init__.py`` re-exports is used.  Every non-dunder method and
property must be read as an attribute (``x.name``) somewhere in that code;
a plain name of the same spelling does not count.  Tests do not count.

In both scans, mentions in docstrings and comments do not count.

Attributes: every ``object.__setattr__(x, "<name>", ...)`` in the
package names an attribute that a class of the same module declares, as
a dataclass field or a ``__slots__`` entry, so no module stores state on
a record it does not own.
"""
import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "epiplan"


def _unused(source: str) -> list[str]:
    """The names the module-level imports of ``source`` bind and nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport re as regex\n"
              "from .x import a, b as c\n\ndef f(d):\n    \"\"\"b, os\"\"\"\n    return a, d.c\n")
    assert _unused(source) == ["os", "regex", "c"]


def test_every_module_level_import_is_used():
    modules = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    unused = {}
    for path in modules:
        with tokenize.open(path) as f:
            names = _unused(f.read())
        if names:
            unused[str(path.relative_to(PACKAGE))] = names
    assert not unused, unused


def _definitions(source: str) -> tuple[list[str], list[str]]:
    """The functions and classes ``source`` defines at any depth, and its methods.

    Methods are the functions of a class body, properties included; dunder
    names are left out of both lists.
    """
    tree = ast.parse(source)
    methods = [node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                 and node not in methods]

    def names(nodes):
        return [node.name for node in nodes
                if not (node.name.startswith("__") and node.name.endswith("__"))]

    return names(functions), names(methods)


def _dead(defining: list[str], sources: list[str]) -> list[str]:
    """The names ``defining`` defines that ``sources`` never uses.

    A function or class is used when a name token of ``sources`` spells it,
    not counting the tokens that name a definition; a method when
    ``sources`` reads it as an attribute.  ``defining`` is part of
    ``sources``.
    """
    tokens, defined, attributes = Counter(), Counter(), set()
    for source in sources:
        tokens.update(tok.string for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                      if tok.type == tokenize.NAME)
        functions, methods = _definitions(source)
        defined.update(functions + methods)
        attributes.update(node.attr for node in ast.walk(ast.parse(source))
                          if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    dead = set()
    for source in defining:
        functions, methods = _definitions(source)
        dead.update(name for name in functions if tokens[name] <= defined[name])
        dead.update(name for name in methods if name not in attributes)
    return sorted(dead)


def test_the_scan_finds_unused_definitions():
    source = ("def used():\n    \"\"\"unused, put\"\"\"  # unused\n    return Box().get()\n\n"
              "def unused():\n    return used\n\n"
              "class Box:\n    def __init__(self):\n        pass\n\n"
              "    def get(self):\n        return 'put'\n\n"
              "    def put(self):\n        pass\n\n"
              "    @property\n    def size(self):\n        return 0\n\n"
              "size = len(used())\n")
    assert _dead([source], [source]) == ["put", "size", "unused"]
    assert _dead([source], [source, "from .m import unused, put\n"]) == ["put", "size"]
    assert _dead([source], [source, "Box().put()\nprint(Box().size)\n"]) == ["unused"]


def _read(paths) -> list[str]:
    out = []
    for path in paths:
        with tokenize.open(path) as f:
            out.append(f.read())
    return out


def test_every_definition_is_used():
    defining = _read(sorted(PACKAGE.rglob("*.py")))
    assert len(defining) > 10
    bench = _read(sorted((ROOT / "bench").rglob("*.py")))
    assert _dead(defining, defining + bench) == []


def _undeclared(source: str) -> list[tuple[int, str]]:
    """The ``object.__setattr__(x, "<name>", ...)`` calls whose attribute no class declares.

    A class of ``source`` declares a name as a dataclass field (an
    annotated name in the body of a class decorated ``dataclass``) or as
    a ``__slots__`` entry.  Calls whose name is not a string literal are
    not checked.  Each finding is (line, name).
    """
    tree = ast.parse(source)
    declared = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        dataclass = any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass"
                        for d in decorators)
        for node in cls.body:
            if dataclass and isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                declared.add(node.target.id)
            elif (isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets)):
                value = node.value
                entries = value.elts if isinstance(value, (ast.Tuple, ast.List)) else [value]
                declared.update(e.value for e in entries if isinstance(e, ast.Constant))
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant) and node.args[1].value not in declared):
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def test_the_scan_finds_undeclared_attributes():
    source = ("from dataclasses import dataclass, field\n\n"
              "@dataclass(frozen=True)\nclass Record:\n    kept: int\n"
              "    cache: dict = field(init=False, default=None)\n"
              "    note = 'a class attribute, not a field'\n\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'cache', {})\n"
              "        object.__setattr__(self, 'extra', {})\n"
              "        object.__setattr__(self, 'note', '')\n\n"
              "class Node:\n    __slots__ = ('left', 'right')\n\n"
              "def build(node, name):\n"
              "    object.__setattr__(node, 'left', None)\n"
              "    object.__setattr__(node, name, None)\n"
              "    object.__setattr__(node, 'up', None)\n")
    assert _undeclared(source) == [(11, "extra"), (12, "note"), (20, "up")]


def test_every_set_attribute_is_declared():
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        with tokenize.open(path) as f:
            names = _undeclared(f.read())
        if names:
            found[str(path.relative_to(PACKAGE))] = names
    assert not found, found
