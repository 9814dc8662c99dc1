"""numpy is a dependency of the Frobenius root moduli only, and
`dataclasses` of none; each command loads its own layers.

A command that does not need the floating-point roots of a
characteristic polynomial must not pay for loading numpy: each check
runs in a fresh interpreter and looks at sys.modules after the command.
The torus kernel is pure Python, so the exact commands, `expsum` (also
over a field whose coefficients are embedded), `l-function` and
`check-nondegenerate` leave numpy unloaded, and `frobenius` loads it.
The one numpy import in the package is the call-time import in
`frobdata._all_root_moduli`.  The records are `errors.frozen` classes,
so no command loads `dataclasses`, and only numpy loads `inspect`.  The
CLI stamps its documents from time.time_ns(), so no command loads
`datetime` either, and the torus kernel picks its most common weight
with max, so no command short of `frobenius` loads `heapq`.  A
well-formed command line is read without argparse, so no such command
loads `argparse` or the `gettext` behind its messages; `--help` and a
usage error still go through argparse.  Importing the CLI pauses the
cyclic collector while its imports run and leaves it as it found it, and
loads no module beyond a pinned list: the torus stack, but neither
`connalg` nor `frobdata`.  Each handler imports the layer it calls, so
`expsum` and `check-nondegenerate` load neither, `frobenius`,
`l-function` and `monodromy` load `frobdata` only, and `verify-fts` and
`verify-connection` load `connalg` only.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import (CURVED_CONN, FLAT_CONN, IRREGULAR_INF_CONN, JORDAN3,
                      KLOOSTERMAN3, KLOOSTERMAN5, LOG_CONN, fts_tuple)

SRC = Path(__file__).resolve().parents[1] / "src"

# the layers a command loads beyond the CLI's own imports; a command not
# listed loads none
COMMAND_LAYERS = {
    "frobenius": ["arith_lg.frobdata"],
    "l-function": ["arith_lg.frobdata"],
    "monodromy": ["arith_lg.frobdata"],
    "verify-connection": ["arith_lg.connalg"],
    "verify-fts": ["arith_lg.connalg"],
}

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

# a Kloosterman family over F_9 with a coefficient outside F_3, so that
# sums over F_81 embed it
KLOOSTERMAN9 = dict(KLOOSTERMAN5, field={"p": "3", "m": 2},
                    f=[{"c": ["0", "1"], "w": [1]}, {"c": ["1", "0"], "w": [-1]}])

# torus commands that never take the roots of a characteristic polynomial
TORUS_COMMANDS = {
    "expsum": (KLOOSTERMAN5, ["expsum", "--tau", "1"]),
    "expsum-embedded": (KLOOSTERMAN9, ["expsum", "--tau", "1", "--k", "2"]),
    "l-function": (KLOOSTERMAN3, ["l-function", "--kmax", "8"]),
    "check-nondegenerate": (KLOOSTERMAN5, ["check-nondegenerate"]),
}

RUN_SCRIPT = """
import json, sys
from arith_lg import cli
try:
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else None
except SystemExit as exc:  # argparse's, after --help or a usage error
    code = exc.code
sys.stdout.flush()
loaded = [name for name in ("numpy", "dataclasses", "inspect", "datetime", "heapq",
                            "argparse", "gettext", "arith_lg.connalg",
                            "arith_lg.frobdata")
          if name in sys.modules]
print(json.dumps({"code": code, "loaded": loaded}), file=sys.stderr)
"""


def child_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_fresh(*argv):
    """Exit code of cli.main on argv (None: import only; argparse's
    exit code after --help or a usage error) in a fresh interpreter, and
    which of numpy, dataclasses, inspect, datetime, heapq, argparse,
    gettext, connalg and frobdata were loaded by the end."""
    run = subprocess.run([sys.executable, "-c", RUN_SCRIPT, *argv], capture_output=True,
                         text=True, env=child_env(), timeout=120, check=True)
    doc = json.loads(run.stderr.splitlines()[-1])
    return doc["code"], doc["loaded"]


def write(tmp_path, doc):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_import_leaves_numpy_unloaded():
    assert run_fresh() == (None, [])


# every module that importing the CLI may add, as recorded under -S (no
# site), where the interpreter starts with the fewest; field set-up reads
# its tables from ffield itself, so the list holds no data module
CLI_IMPORTS = {
    "__future__", "_collections", "_collections_abc", "_contextvars", "_decimal",
    "_functools", "_json", "_operator", "_sre", "_stat", "_typing", "arith_lg",
    "arith_lg.budget", "arith_lg.cli", "arith_lg.cyclotomic", "arith_lg.errors",
    "arith_lg.exactla", "arith_lg.expsum", "arith_lg.ffield", "arith_lg.laurent",
    "arith_lg.mpoly", "arith_lg.polytope", "arith_lg.problemio", "atexit", "cmath",
    "collections", "collections.abc", "contextlib", "contextvars", "copyreg", "decimal",
    "enum", "fractions", "functools",
    "gc", "genericpath", "itertools", "json", "json.decoder", "json.encoder",
    "json.scanner", "keyword", "math", "numbers", "operator", "os", "os.path",
    "posixpath", "re", "re._casefix", "re._compiler", "re._constants", "re._parser",
    "reprlib", "stat", "types", "typing", "typing.io", "typing.re", "warnings",
}

NEW_MODULES_SCRIPT = """
import json, sys
before = set(sys.modules)
import arith_lg.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_new_module():
    run = subprocess.run([sys.executable, "-c", NEW_MODULES_SCRIPT], capture_output=True,
                         text=True, env=child_env(), timeout=120, check=True)
    added = set(json.loads(run.stdout))
    assert "arith_lg.ffield" in added
    assert added - CLI_IMPORTS == set()


GC_SCRIPT = """
import gc, sys
if sys.argv[1] == "off":
    gc.disable()
import arith_lg.cli
print(gc.isenabled())
"""


@pytest.mark.parametrize("state", ["on", "off"])
def test_cli_import_leaves_the_collector_as_it_found_it(state):
    run = subprocess.run([sys.executable, "-c", GC_SCRIPT, state], capture_output=True,
                         text=True, env=child_env(), timeout=120, check=True)
    assert run.stdout == f"{state == 'on'}\n"


@pytest.mark.parametrize("name", sorted(EXACT_COMMANDS))
def test_exact_commands_leave_numpy_unloaded(tmp_path, name):
    command, doc, code = EXACT_COMMANDS[name]
    assert run_fresh(command, write(tmp_path, doc)) == (code, COMMAND_LAYERS.get(command, []))


@pytest.mark.parametrize("name", sorted(TORUS_COMMANDS))
def test_torus_commands_leave_numpy_unloaded(tmp_path, name):
    doc, (command, *options) = TORUS_COMMANDS[name]
    assert run_fresh(command, write(tmp_path, doc), *options) == (
        0, COMMAND_LAYERS.get(command, []))


def test_frobenius_loads_numpy(tmp_path):
    # the guard above can fail: the root moduli load numpy, and numpy
    # loads inspect
    code, loaded = run_fresh("frobenius", write(tmp_path, KLOOSTERMAN5), "--tau", "1")
    assert (code, "numpy" in loaded, "dataclasses" in loaded) == (0, True, False)
    assert [name for name in loaded if name.startswith("arith_lg.")] == ["arith_lg.frobdata"]


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["expsum", "--help"], 0),
                                        (["expsum", "{path}"], 2),        # no --tau
                                        (["monodromy", "{path}", "--bogus"], 2)])
def test_help_and_usage_errors_load_argparse(tmp_path, argv, code):
    path = write(tmp_path, KLOOSTERMAN5)
    got, loaded = run_fresh(*[a.format(path=path) for a in argv])
    assert (got, {"argparse", "gettext"} <= set(loaded)) == (code, True)


def numpy_imports(tree):
    """The dotted names of the functions (or "<module>") that hold an
    import of numpy."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_numpy_is_imported_only_for_root_moduli():
    importers = sorted(
        f"{path.stem}.{owner}" for path in (SRC / "arith_lg").glob("*.py")
        for owner in numpy_imports(ast.parse(path.read_text())))
    assert importers == ["frobdata._all_root_moduli"]


def test_no_module_imports_dataclasses():
    importers = sorted(
        path.name for path in (SRC / "arith_lg").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Import)
            and any(alias.name == "dataclasses" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses"))
    assert importers == []


def module_level_regex_compiles(tree):
    """The line of each call to a function of `re` that runs when the
    module is imported: outside every function body and lambda."""
    re_names = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.Import) for alias in node.names
                if alias.name == "re"}
    re_functions = {alias.asname or alias.name for node in tree.body
                    if isinstance(node, ast.ImportFrom) and node.module == "re"
                    for alias in node.names}
    found = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # decorators and defaults run at import, the body does not
            for child in [*getattr(node, "decorator_list", ()), *node.args.defaults,
                          *[d for d in node.args.kw_defaults if d is not None]]:
                visit(child)
            return
        if isinstance(node, ast.Call):
            func = node.func
            if ((isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                 and func.value.id in re_names)
                    or (isinstance(func, ast.Name) and func.id in re_functions)):
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(tree)
    return found


def test_the_regex_scan_sees_import_time_compiles():
    source = ("import re\nimport re as regex\nfrom re import compile as c\n"
              "A = re.compile('a')\n"
              "class K:\n    B = regex.match('b', 'b')\n"
              "def f(p=c('d')):\n    return re.compile('e')\n"
              "g = lambda: re.compile('f')\n")
    assert module_level_regex_compiles(ast.parse(source)) == [4, 6, 7]


def test_no_module_compiles_a_regex_at_import():
    # every request process pays for what runs at import; the parser
    # reads its exact strings with character tests
    compiles = {path.name: lines for path in sorted((SRC / "arith_lg").glob("*.py"))
                if (lines := module_level_regex_compiles(ast.parse(path.read_text())))}
    assert compiles == {}
