"""The torus kernel has one driver: outside ffield and ffarray, which
build the tables and run the kernel's root search, only laurent's torus
walks may name the discrete-log table or the kernel's entry points.

A name is an AST name, attribute or imported name, so a module that
imports discrete_table, or calls table.trace_counts on a table it got
elsewhere, is caught alike.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "arith_lg"

KERNEL = {"discrete_table", "PowerTable", "trace_counts", "common_zeros"}
ALLOWED = {"ffield", "ffarray", "laurent"}


def kernel_names(source: str) -> set[str]:
    """The kernel names that the module's code names."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out & KERNEL


def test_the_scan_sees_names_attributes_and_imports():
    assert kernel_names("from .ffield import discrete_table as dt\n") == {"discrete_table"}
    assert kernel_names("t.trace_counts(1, [], [])\n") == {"trace_counts"}
    assert kernel_names("x = PowerTable\n") == {"PowerTable"}
    assert kernel_names("common_zeros = 'a string is no reference'\n") == {"common_zeros"}
    assert kernel_names("'common_zeros'\n") == set()


def test_only_laurent_drives_the_kernel():
    modules = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert ALLOWED <= set(modules)
    drivers = {name: sorted(kernel_names(source)) for name, source in modules.items()
               if name not in ALLOWED and kernel_names(source)}
    assert drivers == {}
    assert {"trace_counts", "common_zeros"} <= kernel_names(modules["laurent"])
