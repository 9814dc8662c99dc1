"""Every name a module in src/ or tests/ imports is used in that module,
so a deleted call cannot leave its import behind.

A name counts as used when it appears anywhere in the module, in an
annotation too (string annotations included), or when the module lists
it in __all__.  `from __future__ import ...` is exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path.relative_to(ROOT).as_posix()
               for folder in ("src/arith_lg", "tests")
               for path in (ROOT / folder).glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import outside __future__."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def _names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _used(tree: ast.Module) -> set[str]:
    used = _names(tree)
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _names(ast.parse(node.value, mode="eval"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree).items()
            if name not in used]


def test_every_file_is_checked():
    assert "src/arith_lg/laurent.py" in FILES and "tests/test_exports.py" in FILES


def test_the_scan_sees_unused_and_annotation_only_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from typing import Sequence, Iterator\n"
              "from fractions import Fraction as F\n"
              "from json import dumps, loads\n"
              "__all__ = ['dumps']\n"
              "def f(x: 'Sequence[int]') -> Iterator[int]:\n"
              "    return iter(x)\n")
    assert unused_imports(source) == ["os (line 2)", "F (line 4)", "loads (line 5)"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []
