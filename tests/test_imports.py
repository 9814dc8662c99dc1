"""numpy is a dependency of the torus layer only, and `dataclasses` of
none.

Commands that never enumerate a torus (the exact layers) must not pay for
loading numpy: each check runs in a fresh interpreter and looks at
sys.modules after the command.  ffarray is the one module that imports
numpy at module level; every other numpy use is a call-time import.
The records are `errors.frozen` classes, so no command loads
`dataclasses`, and only numpy loads `inspect`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import (CURVED_CONN, FLAT_CONN, IRREGULAR_INF_CONN, JORDAN3,
                      KLOOSTERMAN5, LOG_CONN, fts_tuple)

SRC = Path(__file__).resolve().parents[1] / "src"

# command, input document, exit code
EXACT_COMMANDS = {
    "monodromy": ("monodromy", JORDAN3, 0),
    "verify-fts": ("verify-fts", fts_tuple("1"), 0),
    "verify-fts-fails": ("verify-fts", fts_tuple("2"), 1),
    "verify-connection": ("verify-connection", FLAT_CONN, 0),
    "verify-connection-fails": ("verify-connection", CURVED_CONN, 1),
    "verify-connection-log": ("verify-connection", LOG_CONN, 0),
    "verify-connection-irregular-inf": ("verify-connection", IRREGULAR_INF_CONN, 0),
    "analyze-polytope": ("analyze-polytope", KLOOSTERMAN5, 0),
}

RUN_SCRIPT = """
import json, sys
from arith_lg import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else None
sys.stdout.flush()
loaded = [name for name in ("numpy", "dataclasses", "inspect") if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def run_fresh(*argv):
    """Exit code of cli.main on argv (None: import only) in a fresh
    interpreter, and which of numpy, dataclasses and inspect were loaded
    by the end."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", RUN_SCRIPT, *argv], capture_output=True,
                         text=True, env=env, timeout=120, check=True)
    doc = json.loads(run.stderr.splitlines()[-1])
    return doc["code"], doc["loaded"]


def write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_import_leaves_numpy_unloaded():
    assert run_fresh() == (None, [])


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_exact_commands_leave_numpy_unloaded(tmp_path, name):
    command, doc, code = EXACT_COMMANDS[name]
    assert run_fresh(command, write(tmp_path, doc)) == (code, [])


def test_torus_command_loads_numpy(tmp_path):
    # the guard above can fail: a command that builds a table loads numpy,
    # and numpy loads inspect
    code, loaded = run_fresh("expsum", write(tmp_path, KLOOSTERMAN5), "--tau", "1")
    assert (code, "numpy" in loaded, "dataclasses" in loaded) == (0, True, False)


def module_level_imports(tree):
    """Module names imported by statements that run at import time, that
    is outside function bodies."""
    names = []
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_only_ffarray_imports_numpy_at_module_level():
    importers = sorted(
        path.name for path in (SRC / "arith_lg").glob("*.py")
        if any(name == "numpy" or name.startswith("numpy.")
               for name in module_level_imports(ast.parse(path.read_text()))))
    assert importers == ["ffarray.py"]


def test_no_module_imports_dataclasses():
    importers = sorted(
        path.name for path in (SRC / "arith_lg").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"))
    assert importers == []
