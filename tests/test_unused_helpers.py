"""Every module-level private function or class in src/arith_lg, and
every module-level name bound by an assignment that its module does not
export, is referenced somewhere in src/arith_lg, so a refactor cannot
leave an unused helper or a dead constant behind.

A reference is an AST name or attribute with the helper's name, outside
the statement that defines it (recursion does not count).  Tests do not
count either: a helper only the tests call is dead code in the package.
Dunder names (__all__, __version__) are left alone; so are assigned
names listed in their module's __all__, which are public API.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "arith_lg"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


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


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _defined(node: ast.stmt, exported: set[str]) -> set[str]:
    """The names a top-level statement defines that must be referenced:
    a private def or class, or the unexported non-dunder names an
    assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name} if _is_private(node.name) else set()
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        targets = [node.target]
    else:
        return set()
    return {sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and not _is_dunder(sub.id)
            and sub.id not in exported}


def unused_helpers(sources: dict[str, str]) -> list[str]:
    """module:name of each module-level private def or class, and of each
    unexported name bound by a module-level assignment, that no code
    outside its own statement references."""
    helpers = []   # (module, name)
    references = []  # (module, names the statement defines, names it references)
    for module, source in sources.items():
        tree = ast.parse(source)
        exported = _exported(tree)
        for node in tree.body:
            owners = _defined(node, exported)
            helpers.extend((module, name) for name in sorted(owners))
            references.append((module, owners, _referenced(node)))
    return [f"{module}:{name}" for module, name in helpers
            if not any(name in names for ref_module, owners, names in references
                       if not (ref_module == module and name in owners))]


def package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_the_scan_sees_unused_and_self_referencing_helpers():
    sources = {
        "a": ("__all__ = ['public', 'EXPORTED']\n"
              "__version__ = '1'\n"
              "EXPORTED = 1\n"
              "LIMIT = 3\n"
              "DEAD: tuple = ('x', 'y')\n"
              "SHARED, _PAIR = 4, 5\n"
              "def _used():\n    return LIMIT\n"
              "def _unused():\n    return 2\n"
              "def _recursive(n):\n    return _recursive(n - 1) if n else 0\n"
              "class _Shape:\n    pass\n"
              "def public():\n    return _used()\n"),
        "b": ("from . import a\n"
              "def run():\n    return a._Shape(), a.SHARED\n"),
    }
    assert unused_helpers(sources) == ["a:DEAD", "a:_PAIR", "a:_unused", "a:_recursive"]


def test_every_module_is_scanned():
    assert {"ffield", "cyclotomic", "frobdata"} <= set(package_sources())


def test_no_unused_private_helpers():
    assert unused_helpers(package_sources()) == []
