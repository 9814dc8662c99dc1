"""Independent checks of CLI outputs, from what the generator knows.

Each check returns a list of problems; an empty list means the output
agrees.  The brute-force sum walks the torus point by point with field
arithmetic, as acceptance criterion 4 does, and never touches the
log-domain engine the CLI uses.
"""

from __future__ import annotations

import json
from pathlib import Path


def brute_force_sum(doc: dict, k: int, tau: int):
    """sum over (F_{p^k}^*)^n of psi(tau * f(t)) for a prime-field family."""
    from arith_lg import problemio as pio
    from arith_lg.cyclotomic import CycloNum, psi
    from arith_lg.ffield import enumerate_torus, make_field

    p = int(doc["field"]["p"])
    if doc["field"].get("m", 1) != 1:
        raise ValueError("brute force is for prime base fields")
    E = make_field(p, k)
    terms = [(tuple(t["w"]), E.from_int(int(t["c"]))) for t in doc["f"]]
    tau_e = E.from_int(tau)
    total = CycloNum.zero(p)
    for point in enumerate_torus(E, doc["n"]):
        value = E.zero()
        for w, c in terms:
            term = c
            for ti, wi in zip(point, w):
                if wi:
                    term = term * ti ** wi
            value = value + term
        total = total + psi(tau_e * value)
    return pio.jsonable(total)


def graded_dims(sizes) -> dict[int, int]:
    """dim gr_k of the monodromy filtration for the given Jordan blocks:
    a block of size s contributes one dimension at k = s-1, s-3, ..., 1-s."""
    out: dict[int, int] = {}
    for s in sizes:
        for j in range(s):
            k = s - 1 - 2 * j
            out[k] = out.get(k, 0) + 1
    return out


def _arg(argv, flag):
    return argv[argv.index(flag) + 1]


def check(req, out: dict, inputs: Path) -> list[str]:
    cmd = req.argv[0]
    facts = req.oracle
    bad = []

    def expect(name, got, want):
        if got != want:
            bad.append(f"{name}: got {got!r}, expected {want!r}")

    if "error" in out:
        return [f"error output: {out['error']}"]
    expect("command", out.get("command"), cmd)
    if cmd == "expsum":
        expect("k", out.get("k"), str(facts["k"]))
        expect("bound_ok", out.get("bound_ok"), True)
        if facts.get("brute_force"):
            doc = json.loads((inputs / "family.json").read_text())
            want = brute_force_sum(doc, facts["k"], int(_arg(req.argv, "--tau")))
            expect("exact (brute force)", out.get("exact"), want)
    elif cmd == "frobenius":
        expect("rank", out.get("rank"), str(facts["rank"]))
        for flag in ("consistency_ok", "purity_ok", "determinant_ok", "duality_ok"):
            expect(flag, out.get(flag), True)
    elif cmd == "l-function":
        expect("rank", out.get("rank"), str(facts["rank"]))
        expect("swan_bound_ok", out.get("swan_bound_ok"), True)
        expect("stable", out.get("stable"), True)
    elif cmd == "check-nondegenerate":
        expect("kind", out.get("kind"), "verified_up_to")
        expect("checked_up_to", out.get("checked_up_to"), str(facts["depth"]))
    elif cmd == "verify-fts":
        flat = facts["flat"]
        expect("all_conditions_ok", out.get("all_conditions_ok"), flat)
        expect("assembled_flat", out.get("assembled_flat"), flat)
        if flat:
            expect("metric", out.get("metric"), {
                "higgs_self_adjoint": True, "r0_self_adjoint": True,
                "rinf_skew_adjoint": True, "pairing_flat": True})
        elif out.get("conditions", {}).get("r0_transport") is not False:
            bad.append("r0_transport should fail on the perturbed tuple")
    elif cmd == "verify-connection":
        expect("flat", out.get("flat"), facts["flat"])
    elif cmd == "monodromy":
        gr = graded_dims(facts["jordan"])
        d = sum(facts["jordan"])
        expect("dim", out.get("dim"), str(d))
        expect("jumps", out.get("jumps"),
               {str(k): str(v) for k, v in sorted(gr.items())})
        e = max(facts["jordan"])
        cumulative, levels = 0, []
        for k in range(-e, e):
            cumulative += gr.get(k, 0)
            levels.append({"k": str(k), "dim": str(cumulative)})
        expect("levels", out.get("levels"), levels)
    elif cmd == "acceptance":
        expect("all_ok", out.get("all_ok"), True)
        failing = [c["number"] for c in out.get("criteria", []) if not c.get("ok")]
        expect("failing criteria", failing, [])
    return bad
