"""Command line front end.

Every subcommand reads JSON inputs (problemio formats), runs the
library, and renders a report as text or, with --json, as a canonical
JSON document: sorted keys, two-space indent, exact data as decimal
strings.  Re-running a command on the same inputs is byte-identical
except for the generated_at stamp.

Exit codes: 0 all requested checks pass, 1 a verification failed,
2 bad input (message carries the location), 3 budget exhausted (the
work budget, or memory).

`main(argv)` is the in-process API; `run()` is the process entry for
`python -m arith_lg.cli` and `arith-lg`.  Once the command is done it
runs the atexit callbacks, flushes stdout and stderr and leaves through
os._exit, so the process skips the interpreter's teardown of its heap.
Start-up is kept small too: the collector is paused while this module's
imports run, the generated_at stamp is formatted from time.time_ns()
without importing datetime, and a well-formed command line is read
without argparse.  Each command imports its own layers: this module
loads the torus stack the problem-file commands share, and the handlers
of frobenius, l-function and monodromy import frobdata, those of
verify-connection and verify-fts connalg, at the top of their bodies,
so a torus request loads neither.  Each subcommand's arguments are
declared once, as data in `_SUBCOMMANDS`: `build_parser` hands those
entries to argparse, and `_parse_direct` reads the same entries itself.
It declines anything it does not read exactly as argparse would
(--help, an abbreviation, a missing or malformed value, a misspelt
subcommand), which then goes to argparse, so help text, usage errors
and exit code 2 are argparse's own.
"""

from __future__ import annotations

import gc

# the imports below allocate many long-lived objects and no cycles worth
# collecting, so the collector is paused across them
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import atexit
    import json
    import os
    import sys
    import time
    from types import SimpleNamespace
    from typing import TYPE_CHECKING, NoReturn

    from . import problemio as pio
    from .budget import scope
    from .cyclotomic import PURITY_TOL, all_embeddings
    from .errors import (ArithLGError, BudgetExceeded, InputError,
                         VerificationError)
    from .expsum import family_sum
    from .ffield import extension_field
    from .laurent import check_nondegenerate, specialize
    from .polytope import all_proper_faces, is_convenient, normalized_volume
finally:
    if _gc_was_enabled:
        gc.enable()

if TYPE_CHECKING:
    import argparse

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_problem(args) -> pio.ProblemFile:
    return pio.parse_problem(pio.load_json_file(args.problem), args.problem,
                             getattr(args, "budget", None))


def _check_threads(args) -> None:
    """--threads N is accepted and has no effect; N must still be positive."""
    if args.threads < 1:
        raise InputError("--threads must be at least 1")


def _scope(args, pf: pio.ProblemFile):
    """One budget scope for the command, at the budget parse_problem
    resolved (else ARITH_LG_BUDGET or the default)."""
    _check_threads(args)
    return scope(pf.budget)


def _point(args, pf: pio.ProblemFile):
    raw = args.x if args.x is not None else ",".join(["0"] * pf.m)
    return pio.parse_point_arg(raw, pf.field, pf.m)


# --- subcommand handlers: return (payload of library values, ok) -----------

def _cmd_analyze_polytope(args):
    pf = _load_problem(args)
    P = pf.deformation.base.newton()
    payload = {
        "command": "analyze-polytope",
        "degenerate": P.degenerate,
        "vertices": P.vertices,
    }
    if not P.degenerate:
        payload["facets"] = [{"normal": nrm, "offset": c}
                             for nrm, c in P.facets]
        payload["convenient"] = is_convenient(P)
        payload["normalized_volume"] = normalized_volume(P)
        payload["face_count"] = len(all_proper_faces(P))
    return payload, True


def _cmd_check_nondegenerate(args):
    pf = _load_problem(args)
    x = _point(args, pf)
    Fx = specialize(pf.deformation, x)
    with _scope(args, pf):
        verdict = check_nondegenerate(Fx, K=args.depth)
    payload = {
        "command": "check-nondegenerate",
        "x": x,
        "kind": verdict.kind,
        "conclusive": verdict.conclusive,
        "checked_up_to": verdict.checked_up_to,
    }
    if verdict.degenerate:
        payload["witness"] = verdict.witness
        payload["witness_degree"] = verdict.witness_degree
        payload["face_generators"] = verdict.face.generators
    return payload, not verdict.degenerate


def _cmd_expsum(args):
    pf = _load_problem(args)
    with _scope(args, pf):
        # the twist may live anywhere in the degree-k extension, which
        # the command's budget must have room for
        tau = pio.parse_element_arg(args.tau, extension_field(pf.field, args.k), "tau")
        x = _point(args, pf)
        S = family_sum(pf.deformation, args.k, tau, x, psi_power=args.psi_power)
    base = pf.deformation.base
    r = normalized_volume(base.newton())
    q = pf.field.q
    bound = r * float(q) ** (args.k * base.n / 2)
    tol = pf.tolerance if pf.tolerance is not None else PURITY_TOL
    embeddings = all_embeddings(S)
    amax = max((abs(e) for e in embeddings), default=0.0)
    payload = {
        "command": "expsum",
        "k": args.k,
        "tau": tau,
        "x": x,
        "exact": S,
        "embeddings": embeddings,
        "bound": bound,
        "max_abs": amax,
        "bound_ok": amax <= bound + tol,
    }
    return payload, payload["bound_ok"]


def _cmd_frobenius(args):
    from .frobdata import frobenius_report
    pf = _load_problem(args)
    tau = pio.parse_element_arg(args.tau, pf.field, "tau")
    x = _point(args, pf)
    tol = pf.tolerance if pf.tolerance is not None else PURITY_TOL
    with _scope(args, pf):
        report = frobenius_report(pf.deformation, x, tau, tol=tol)
    ok = (report.consistency_ok and report.purity_ok
          and report.determinant_ok and report.duality_ok)
    # report fields are document keys, in field order for the text form
    return {"command": "frobenius", **vars(report)}, ok


def _cmd_l_function(args):
    from .frobdata import family_l_function
    pf = _load_problem(args)
    x = _point(args, pf)
    with _scope(args, pf):
        report = family_l_function(pf.deformation, x, args.kmax)
    ok = report.swan_bound_ok and report.stable
    return {"command": "l-function", "x": x, **vars(report)}, ok


def _cmd_verify_connection(args):
    from .connalg import verify_connection
    A = pio.parse_connection(pio.load_json_file(args.connection), args.connection)
    report = verify_connection(A)
    # fields that apply are document keys, in field order for the text form
    payload = {"command": "verify-connection",
               **{k: v for k, v in vars(report).items() if v is not None}}
    return payload, report.flat


def _cmd_verify_fts(args):
    from .connalg import verify_fts, verify_metric
    T = pio.parse_fts_tuple(pio.load_json_file(args.tuple), args.tuple)
    report = verify_fts(T)
    ok = report.all_conditions_ok
    payload = {"command": "verify-fts", **vars(report)}
    if T.g is not None:
        mr = verify_metric(T)
        payload["metric"] = vars(mr)
        ok = ok and mr.all_ok
    return payload, ok


def _cmd_monodromy(args):
    from .frobdata import monodromy_filtration
    N = pio.parse_nilpotent_matrix(pio.load_json_file(args.matrix), args.matrix)
    filt = monodromy_filtration(N)
    payload = {
        "command": "monodromy",
        "dim": filt.dim,
        "levels": [{"k": k, "dim": len(basis)} for k, basis in filt.levels],
        "jumps": {str(k): d for k, d in filt.jumps.items()},
    }
    return payload, True


def _cmd_acceptance(args):
    from .acceptance import run_all
    _check_threads(args)
    results = run_all()
    payload = {
        "command": "acceptance",
        "criteria": [{
            "number": res.number,
            "name": res.name,
            "ok": res.ok,
            "details": res.details,
            "elapsed_seconds": round(res.elapsed, 3),
        } for res in results],
        "all_ok": all(res.ok for res in results),
    }
    return payload, payload["all_ok"]


# --- rendering -------------------------------------------------------------

def _render_text(payload, out):
    if payload.get("command") == "acceptance":
        for res in payload["criteria"]:
            mark = "PASS" if res["ok"] else "FAIL"
            out.write(f"{mark}  criterion {res['number']:>2}  {res['name']}"
                      f"  ({res['elapsed_seconds']:.3f} s)  {res['details']}\n")
        out.write("acceptance: %s\n"
                  % ("all criteria passed" if payload["all_ok"]
                     else "some criteria FAILED"))
        return
    for key in payload:
        if key == "command":
            continue
        out.write(f"{key}: {json.dumps(payload[key], sort_keys=True)}\n")


def _utc_stamp(ns: int) -> str:
    """The UTC time ns nanoseconds after the epoch, as
    datetime.now(timezone.utc).isoformat() writes it: microseconds
    (truncated) only when nonzero, then "+00:00"."""
    s, us = divmod(ns // 1000, 1_000_000)
    tm = time.gmtime(s)
    return (f"{tm.tm_year:04d}-{tm.tm_mon:02d}-{tm.tm_mday:02d}"
            f"T{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d}"
            + (f".{us:06d}" if us else "") + "+00:00")


def _render(payload, args, out):
    payload = pio.jsonable(payload)
    if args.json:
        payload["generated_at"] = _utc_stamp(time.time_ns())
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _render_text(payload, out)


# --- argument parsing -------------------------------------------------------

# a subcommand's arguments: (name, add_argument keywords), in --help order
_JSON = ("--json", {"action": "store_true"})
_PROBLEM = [
    ("problem", {"help": "problem JSON file"}),
    ("--json", {"action": "store_true", "help": "emit a machine-readable JSON report"}),
]
_THREADS = ("--threads", {"type": int, "default": 1, "metavar": "N",
                          "help": "accepted for compatibility; has no effect (N >= 1)"})
# a problem-file command that enumerates tori under one work scope
_TORUS = [*_PROBLEM, _THREADS,
          ("--budget", {"type": int, "metavar": "POINTS",
                        "help": "enumeration budget override"})]

# subcommand -> (handler, help, arguments), in the order --help lists them
_SUBCOMMANDS = {
    "analyze-polytope": (_cmd_analyze_polytope,
                         "Newton polytope report for the base polynomial", _PROBLEM),
    "check-nondegenerate": (_cmd_check_nondegenerate,
                            "face-by-face nondegeneracy of a specialization", [
        *_TORUS,
        ("--x", {"help": "specialization point, e.g. 0,2"}),
        ("--depth", {"type": int, "metavar": "K",
                     "help": "search extensions up to degree K"}),
    ]),
    "expsum": (_cmd_expsum, "one exponential sum S_k(tau, x)", [
        *_TORUS,
        ("--k", {"type": int, "default": 1, "help": "extension degree"}),
        ("--tau", {"required": True, "help": "twist, e.g. 3 or 1:2"}),
        ("--x", {"help": "specialization point"}),
        ("--psi-power", {"type": int, "default": 1, "help": "replace psi by its a-th power"}),
    ]),
    "frobenius": (_cmd_frobenius,
                  "characteristic polynomial of Frobenius with "
                  "purity, determinant, and duality checks", [
        *_TORUS, ("--tau", {"required": True}), ("--x", {}),
    ]),
    "l-function": (_cmd_l_function, "L-function of the tau-summed family over the torus", [
        *_TORUS,
        ("--x", {}),
        ("--kmax", {"type": int, "help": "number of trace sums to reconstruct from"}),
    ]),
    "verify-connection": (_cmd_verify_connection,
                          "flatness and pole structure of a connection form",
                          [("connection", {"help": "connection JSON file"}), _JSON]),
    "verify-fts": (_cmd_verify_fts, "the six flatness conditions for a structure tuple",
                   [("tuple", {"help": "tuple JSON file"}), _JSON]),
    "monodromy": (_cmd_monodromy, "weight filtration of a nilpotent matrix",
                  [("matrix", {"help": "matrix JSON file"}), _JSON]),
    "acceptance": (_cmd_acceptance, "run the full acceptance suite", [_JSON, _THREADS]),
}


def _parse_direct(argv):
    """What vars(build_parser().parse_args(argv)) holds, read without
    argparse, or None for argparse to decide: when argv[0] is no
    subcommand, a token starting with "-" is no exact option of it (so
    -h, an abbreviation, --opt=v, -- or a negative number), an option
    value is missing or starts with "-", a type conversion raises, a
    required option is missing or the positionals do not fit."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    handler, _, arguments = _SUBCOMMANDS[argv[0]]
    wanted = [name for name, _ in arguments if not name.startswith("-")]
    options = {}  # flag -> (dest, keywords)
    ns = {"subcommand": argv[0], "handler": handler}
    for name, kw in arguments:
        if name.startswith("-"):
            dest = name.lstrip("-").replace("-", "_")
            options[name] = dest, kw
            ns[dest] = kw.get("default", False if "action" in kw else None)
    positionals, given = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        if token not in options:
            return None
        dest, kw = options[token]
        if "action" in kw:  # store_true
            ns[dest] = True
            continue
        value = next(tokens, "-")  # a missing value declines as one starting with "-"
        if value.startswith("-"):
            return None
        try:
            ns[dest] = kw.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        given.add(dest)
    if (len(positionals) != len(wanted)
            or any(kw.get("required") and dest not in given
                   for dest, kw in options.values())):
        return None
    ns.update(zip(wanted, positionals))
    return SimpleNamespace(**ns)


def build_parser() -> argparse.ArgumentParser:
    """The arith-lg parser, built from `_SUBCOMMANDS`.  argparse is
    imported here, so a request that `_parse_direct` reads never loads it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="arith-lg",
        description="Exponential sums, Frobenius eigenvalue reports, and "
                    "exact flat-connection verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (handler, summary, arguments) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        for arg, kw in arguments:
            sp.add_argument(arg, **kw)
        sp.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_direct(argv) or build_parser().parse_args(argv)
    out = sys.stdout
    try:
        payload, ok = args.handler(args)
    except BudgetExceeded as exc:
        _render_error(args, out, "budget", str(exc))
        return EXIT_BUDGET
    except MemoryError:  # work the process could not hold: refused, not a verdict
        _render_error(args, out, "budget", "out of memory")
        return EXIT_BUDGET
    except InputError as exc:
        _render_error(args, out, "input", str(exc))
        return EXIT_INPUT
    except VerificationError as exc:
        _render_error(args, out, "verification", str(exc))
        return EXIT_VERIFICATION
    except ArithLGError as exc:  # pragma: no cover - safety net
        _render_error(args, out, "error", str(exc))
        return EXIT_INPUT
    _render(payload, args, out)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _render_error(args, out, kind, message):
    if getattr(args, "json", False):
        out.write(json.dumps({"error": {"kind": kind, "message": message}},
                             indent=2, sort_keys=True) + "\n")
    else:
        out.write(f"error ({kind}): {message}\n")


def run() -> NoReturn:
    """Process entry: main on sys.argv, then a hard exit.

    Once main returns, or argparse exits after --help or a usage error,
    the registered atexit callbacks run, stdout and stderr are flushed,
    in the order interpreter shutdown would take, and os._exit ends the
    process with main's code.  What is skipped is the rest of the
    shutdown: module teardown and the last collection, which would walk
    every object loaded at start-up.  An exception that escapes main
    takes the usual traceback path and a normal interpreter exit.
    """
    try:
        code = main()
    except SystemExit as exc:
        if not isinstance(exc.code, int):  # not argparse's: exit as usual
            raise
        code = exc.code
    atexit._run_exitfuncs()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
