"""Every module-level import in the package is used.

``__init__.py`` files are skipped: their imports are re-exports.  A name
counts as used when the module reads it anywhere as a plain name;
mentions in docstrings and comments do not count.
"""
import ast
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epiplan"


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
