"""Every module-level private function or class in src/arith_lg is
referenced somewhere in src/arith_lg, so a refactor cannot leave an
unused helper behind.

A reference is an AST name or attribute with the helper's name, outside
the helper's own definition (recursion does not count).  Tests do not
count either: a helper only the tests call is dead code in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arith_lg"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _referenced(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_helpers(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level private def or class that no
    code outside its own body references."""
    helpers = []   # (module, name)
    references = []  # (module, enclosing top-level helper or None, names)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = None
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and _is_private(node.name)):
                owner = node.name
                helpers.append((module, owner))
            references.append((module, owner, _referenced(node)))
    return [f"{module}:{name}" for module, name in helpers
            if not any(name in names for ref_module, owner, names in references
                       if (ref_module, owner) != (module, name))]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_scan_sees_unused_and_self_referencing_helpers():
    sources = {
        "a": ("def _used():\n    return 1\n"
              "def _unused():\n    return 2\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "class _Shape:\n    pass\n"
              "def public():\n    return _used()\n"),
        "b": ("from . import a\n"
              "def run():\n    return a._Shape()\n"),
    }
    assert unused_helpers(sources) == ["a:_unused", "a:_recursive"]


def test_every_module_is_scanned():
    assert {"ffield", "cyclotomic", "frobdata"} <= set(package_sources())


def test_no_unused_private_helpers():
    assert unused_helpers(package_sources()) == []
