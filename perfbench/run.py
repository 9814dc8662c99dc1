#!/usr/bin/env python3
"""arith-lg benchmark: a closed loop with one client, driving the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload's request list is
generated from the seed (perfbench/workloads.py).  Each request runs as
a fresh `python -m arith_lg.cli ... --json` process, the next one only
after the previous has exited, under a timeout and an address-space
cap.  Outputs are checked after the timed part: exit codes, reference
digests for pinned seeds, and independent oracles.

--trace 0 runs the list three times over and prints the end-to-end
metrics, taking each request's latency as its fastest of the three
passes; --trace 1 runs the list once untraced and once through
perfbench/shim.py, and prints the per-layer metrics.  The line before
the last is a full record (provenance, every request, every metric);
the last line is the summary:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from tracing import aggregate, points_under
from workloads import BLOCK_SECONDS, WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

ROUNDS = 3             # passes over the request list; a request's latency is its fastest
SETUP_REPS = 11        # cold imports per run; setup_s is their median
REQUEST_TIMEOUT = 60   # seconds, per CLI request
LONG_TIMEOUT = 80      # seconds, for the acceptance suite
RUN_DEADLINE = 165     # seconds after start: no request runs past this
MEM_CAP = 1 << 30      # address-space cap of every request process
TAIL_BEYOND = 10       # samples that must lie beyond the tail percentile

# end-to-end metrics printed in the summary with --trace 0.  The record
# line also has latency_tail_s; over ten seeds on a shared 2-core VM its
# interquartile range reached 27 % of its median, too unsteady to gate on.
SUMMARY_END_TO_END = ("wall_s", "latency_p50_s", "setup_s", "peak_rss_mb")

# per-layer metrics printed in the summary with --trace 1: every count,
# and the times that no workload leaves at zero
SUMMARY_LAYER = (
    ("expsum.points", "count"), ("expsum.calls", "count"),
    ("expsum.crosscheck_points", "count"), ("laurent.points", "count"),
    ("ffield.table_builds", "count"), ("ffield.table_hits", "count"),
    ("ffield.table_elems", "count"), ("ffield.embed.calls", "count"),
    ("ffield.embed.subfield_elems", "count"),
    ("cyclotomic.CycloNum.mul.calls", "count"),
    ("connalg.curvature.calls", "count"), ("mpoly.MPoly.mul.calls", "count"),
    ("exactla.rref.calls", "count"), ("budget.charge.calls", "count"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("problemio.jsonable.self_s", "s"), ("trace.overhead_s", "s"),
)


@dataclass
class Outcome:
    latency_s: float
    exit: int | None
    status: str               # ok | timeout | memcap | crash | skipped
    stdout: str = ""
    stderr_tail: str = ""
    trace: dict | None = None
    problems: list = field(default_factory=list)


# --- statistics ----------------------------------------------------------------

def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """(value, percentile, samples beyond it) for the highest whole
    percentile that leaves at least `beyond` samples above it, by the
    nearest-rank rule.  With too few samples it is the maximum, at
    percentile 100 with nothing beyond."""
    xs = sorted(samples)
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100, 0
    pct = (100 * (n - beyond)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return xs[rank - 1], pct, n - rank


# --- processes -----------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # imports read the bytecode cache, as from an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEM_CAP, MEM_CAP))


def spawn(cmd: list[str], cwd: Path, timeout: float) -> Outcome:
    """Run one request process to completion; never leaves it running."""
    if timeout <= 0:
        return Outcome(0.0, None, "skipped")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=_cap_memory)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        return Outcome(time.perf_counter() - t0, None, "timeout", out, err[-400:])
    latency = time.perf_counter() - t0
    status = "ok"
    if "MemoryError" in err:
        status = "memcap"
    elif proc.returncode < 0 or "Traceback" in err:
        status = "crash"
    return Outcome(latency, proc.returncode, status, out, err[-400:])


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "arith_lg.cli", *argv, "--json"]


def shim_cmd(argv: list[str], spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "shim.py"), str(spans), "--", *argv, "--json"]


def measure_setup(cwd: Path) -> list[float]:
    """Cold `import arith_lg.cli` in fresh interpreters, after one
    untimed import that leaves the bytecode cache filled."""
    cmd = [sys.executable, "-c", "import arith_lg.cli"]
    spawn(cmd, cwd, REQUEST_TIMEOUT)
    times = []
    for _ in range(SETUP_REPS):
        o = spawn(cmd, cwd, REQUEST_TIMEOUT)
        if o.status != "ok" or o.exit != 0:
            raise RuntimeError(f"cannot import arith_lg.cli: {o.stderr_tail}")
        times.append(o.latency_s)
    return times


# --- correctness ---------------------------------------------------------------

def canonical(req, stdout: str):
    """The JSON document with run-dependent fields removed."""
    doc = json.loads(stdout)
    doc.pop("generated_at", None)
    if req.argv[0] == "acceptance":
        for crit in doc.get("criteria", []):
            crit.pop("elapsed_seconds", None)
    return doc


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def check(req, o: Outcome, reference: str | None, inputs: Path):
    """Fill o.problems; returns the canonical output digest or None."""
    if o.status != "ok":
        o.problems.append(f"{o.status}: {o.stderr_tail.strip()[-200:]}")
        return None
    if o.exit != req.expect_exit:
        o.problems.append(f"exit {o.exit}, expected {req.expect_exit}")
    try:
        doc = canonical(req, o.stdout)
    except (json.JSONDecodeError, AttributeError) as exc:
        o.problems.append(f"output is not a JSON object: {exc}")
        return None
    dg = digest(doc)
    if reference is not None and dg != reference:
        o.problems.append("output differs from the reference recorded at the seed commit")
    o.problems.extend(oracles.check(req, doc, inputs))
    return dg


# --- one run -------------------------------------------------------------------

def run_list(reqs, dirs, traced: bool, spans_dir: Path, deadline: float):
    outcomes = []
    t0 = time.perf_counter()
    for i, (req, cwd) in enumerate(zip(reqs, dirs)):
        limit = LONG_TIMEOUT if req.argv[0] == "acceptance" else REQUEST_TIMEOUT
        limit = min(limit, deadline - time.perf_counter())
        if traced:
            spans = spans_dir / f"{i:03d}.json"
            o = spawn(shim_cmd(req.argv, spans), cwd, limit)
            if spans.exists():
                o.trace = json.loads(spans.read_text())
                spans.unlink()
        else:
            o = spawn(cli_cmd(req.argv), cwd, limit)
        outcomes.append(o)
    return outcomes, time.perf_counter() - t0


def provenance(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "arith_lg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "tracing": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(), "source_sha256": h.hexdigest()[:16],
        "client": "closed loop, one client, one request process at a time",
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=ROUNDS * BLOCK_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "arith_lg" / "cli.py").is_file():
        print(f"no arith_lg sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.perf_counter() + RUN_DEADLINE
    blocks = max(1, round(args.seconds / (ROUNDS * BLOCK_SECONDS)))
    reqs = generate(args.workload, args.seed, blocks)
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {}) \
        if REFERENCE.exists() else {}
    pinned = reference.get(str(args.seed))

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        tmp = Path(tmp)
        dirs = []
        for i, req in enumerate(reqs):
            d = tmp / f"r{i:03d}"
            d.mkdir()
            for name, doc in req.files.items():
                (d / name).write_text(json.dumps(doc))
            dirs.append(d)
        setup = measure_setup(tmp)
        # a traced run needs one untraced pass, for the tracing overhead
        rounds = [run_list(reqs, dirs, False, tmp, deadline)[0]
                  for _ in range(1 if args.trace else ROUNDS)]
        traced = None
        if args.trace:
            traced = run_list(reqs, dirs, True, tmp, deadline)[0]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

        # --- checks, outside the timed part
        attempted = failed = 0
        records = []
        for i, req in enumerate(reqs):
            ref = pinned[i] if pinned and i < len(pinned) else None
            runs = [outs[i] for outs in rounds]
            dg = None
            for o in runs:
                dg = check(req, o, ref, dirs[i]) or dg
            if traced is not None:
                o = traced[i]
                tdg = check(req, o, ref, dirs[i])
                if tdg is not None and tdg != dg:
                    o.problems.append("traced output differs from the untraced output")
                o.problems.extend(count_check(req, o.trace))
                runs.append(o)
            for o in runs:
                attempted += 1
                failed += bool(o.problems)
            records.append({"label": req.label, "argv": req.argv, "digest": dg,
                            "runs": [{"latency_s": o.latency_s, "exit": o.exit,
                                      "status": o.status, "problems": o.problems,
                                      "traced": o.trace is not None} for o in runs]})

    # slowdowns on a shared machine only ever add time, so a request's
    # fastest round is its most repeatable latency; the tail is taken over
    # every sample, so slow rounds still show there
    latencies = [min(o.latency_s for o in outs) for outs in zip(*rounds)]
    samples = [o.latency_s for outs in rounds for o in outs]
    tail, pct, beyond = tail_percentile(samples)
    wall = sum(latencies)
    end_to_end = {
        "wall_s": (wall, "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {
        "provenance": provenance(args.workload, args.seed, bool(args.trace)),
        "blocks": blocks,
        "rounds": len(rounds),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "latency_tail": {"percentile": pct, "samples": len(samples),
                         "beyond": beyond},
        "setup_samples_s": setup,
        "fail_rate": failed / attempted,
        "requests": records,
    }
    if args.trace:
        layers = per_layer(traced, rounds[0])
        overhead = sum(o.latency_s for o in traced) - wall
        layers["trace.overhead_s"] = record["tracing_overhead_s"] = overhead
        record["per_layer"] = layers
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in SUMMARY_LAYER}
    else:
        record["tracing_overhead_s"] = None  # measured by --trace 1 runs
        metrics = {name: record["end_to_end"][name] for name in SUMMARY_END_TO_END}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, sort_keys=True))
    return 0


# --- traced metrics ------------------------------------------------------------

def count_check(req, trace) -> list[str]:
    """Budget charges counted in the traced process against the totals
    implied by the request's inputs."""
    if trace is None:
        return ["no trace written"]
    counts = trace["counts"]
    got = {"expsum.points": counts.get("charge:torus sum", 0),
           "laurent.points": counts.get("charge:torus search", 0),
           "ffield.table_elems": counts.get("charge:discrete log table construction", 0)}
    return [f"{name}: charged {got[name]}, inputs imply {want}"
            for name, want in req.counts.items() if got[name] != want]


def per_layer(traced, plain) -> dict:
    spans_by_req = [o.trace["spans"] for o in traced if o.trace]
    agg: dict[str, dict] = {}
    crosscheck = 0
    for spans in spans_by_req:
        for name, a in aggregate(spans).items():
            tot = agg.setdefault(name, {"calls": 0, "self_s": 0.0})
            tot["calls"] += a["calls"]
            tot["self_s"] += a["self_s"]
        crosscheck += points_under(spans, "expsum.family_sum", "expsum.tau_summed_trace")

    def calls(*names):
        return sum(agg.get(n, {}).get("calls", 0) for n in names)

    def self_s(*names):
        return sum(agg.get(n, {}).get("self_s", 0.0) for n in names)

    def count(key):
        return sum(o.trace["counts"].get(key, 0) for o in traced if o.trace)

    def cache(name, key):
        return sum(o.trace["caches"][name][key] for o in traced if o.trace)

    enumerators = ("expsum.family_sum", "expsum.gkz_sum", "expsum.zero_count")
    expsum_spans = enumerators + ("expsum.tau_summed_trace",)
    points = count("charge:torus sum")
    out = {
        "expsum.points": points,
        "expsum.calls": calls(*enumerators),
        "expsum.self_s": self_s(*expsum_spans),
        "expsum.crosscheck_points": crosscheck,
        "laurent.points": count("charge:torus search"),
        "laurent.check_nondegenerate.self_s": self_s("laurent.check_nondegenerate"),
        "ffield.table_builds": cache("discrete_table", "misses"),
        "ffield.table_hits": cache("discrete_table", "hits"),
        "ffield.table_elems": count("charge:discrete log table construction"),
        "ffield.discrete_table.self_s": self_s("ffield.discrete_table"),
        "ffield.embed.calls": calls("ffield.embed"),
        "ffield.embed.self_s": self_s("ffield.embed"),
        "ffield.embed.subfield_elems": count("charge:subfield enumeration for embedding"),
        "ffield.make_field.self_s": self_s("ffield.make_field"),
        "cyclotomic.char_poly.self_s": self_s("cyclotomic.char_poly_from_power_sums",
                                              "cyclotomic.validate_power_sums"),
        "cyclotomic.reconstruct.self_s": self_s("cyclotomic.linear_recurrence_reconstruct"),
        "cyclotomic.CycloNum.mul.calls": count("cyclotomic.CycloNum.mul.calls"),
        "frobdata.frobenius_report.self_s": self_s("frobdata.frobenius_report"),
        "frobdata.family_l_function.self_s": self_s("frobdata.family_l_function"),
        "frobdata.monodromy_filtration.self_s": self_s("frobdata.monodromy_filtration"),
        "polytope.self_s": self_s("polytope.normalized_volume", "polytope.all_proper_faces"),
        "connalg.verify_fts.self_s": self_s("connalg.verify_fts"),
        "connalg.verify_metric.self_s": self_s("connalg.verify_metric"),
        "connalg.curvature.calls": calls("connalg.curvature"),
        "connalg.curvature.self_s": self_s("connalg.curvature"),
        "mpoly.MPoly.mul.calls": count("mpoly.MPoly.mul.calls"),
        "exactla.rref.calls": calls("exactla.rref"),
        "exactla.rref.self_s": self_s("exactla.rref"),
        "problemio.parse.self_s": self_s(*(n for n in agg if n.startswith("problemio.")
                                           and n != "problemio.jsonable")),
        "problemio.jsonable.self_s": self_s("problemio.jsonable"),
        "cli.import_s": sum(o.trace["import_s"] for o in traced if o.trace),
        "cli.main.self_s": self_s("cli.main"),
        "budget.charge.calls": count("budget.charge.calls"),
    }
    out["expsum.points_per_s"] = points / out["expsum.self_s"] if points else 0.0
    for o in plain:
        if o.status == "ok" and o.stdout.lstrip().startswith("{"):
            doc = json.loads(o.stdout)
            for crit in doc.get("criteria", []):
                out[f"acceptance.c{crit['number']}_s"] = crit["elapsed_seconds"]
    return out


if __name__ == "__main__":
    sys.exit(main())
