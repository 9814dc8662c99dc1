"""The shim runs in a subprocess: it rebinds package globals for good."""

import json
import subprocess
import sys
from pathlib import Path

from run import SRC, count_check
from workloads import SEGMENT, expsum

HERE = Path(__file__).resolve().parent.parent

PROBE = r"""
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
import arith_lg.cli, arith_lg.acceptance
import shim, tracing
originals = {}
for layer, names in shim.SPANNED.items():
    mod = importlib.import_module("arith_lg." + layer)
    for name in names:
        originals[layer + "." + name] = getattr(mod, name)
bindings = shim.instrument(tracing.Tracer())
leftover = [f"{m}.{a}" for m, mod in sys.modules.items() if m.startswith("arith_lg")
            for a, v in vars(mod).items() if any(v is o for o in originals.values())]
print(json.dumps({"bindings": bindings, "leftover": leftover}))
"""


def _env():
    return {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}


def test_every_binding_of_a_public_function_is_wrapped():
    out = subprocess.run([sys.executable, "-c", PROBE, str(HERE)], env=_env(),
                         capture_output=True, text=True, check=True)
    doc = json.loads(out.stdout)
    assert doc["leftover"] == []
    family_sum = doc["bindings"]["expsum.family_sum"]
    for where in ("arith_lg.expsum", "arith_lg.frobdata", "arith_lg.cli",
                  "arith_lg.acceptance"):
        assert f"{where}.family_sum" in family_sum
    assert "arith_lg.expsum.charge" in doc["bindings"]["budget.charge"]
    assert "arith_lg.laurent.charge" in doc["bindings"]["budget.charge"]


def test_traced_request_counts_match_its_inputs(tmp_path):
    import random
    req = expsum(random.Random(0), SEGMENT, 5, 2)
    for name, doc in req.files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(HERE / "shim.py"), str(spans), "--",
                           *req.argv, "--json"], cwd=tmp_path, env=_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["exit"] == 0
    assert count_check(req, trace) == []
    names = {s[0] for s in trace["spans"]}
    assert {"cli.main", "expsum.family_sum", "ffield.discrete_table"} <= names
    assert json.loads(proc.stdout)["command"] == "expsum"
