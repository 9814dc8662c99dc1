"""Executable acceptance suite.

Nine desk-scale criteria covering the whole pipeline: Kloosterman
purity, polytope rank, duality, the L-function of a family over the
torus, the coefficient-map factorization, the Weil-type bound sweep,
the six-condition/assembled-flatness equivalence, the weight filtration
against an exhaustive oracle, and determinism across processes.

Each criterion returns a CriterionResult whose payload carries the
exact values it computed as library values.  The determinism criterion
serializes the payloads with problemio.jsonable and compares this
process's run with a fresh interpreter's, byte for byte.  Every stated
runtime limit is enforced, not just reported.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import problemio as pio
from .budget import scope
from .connalg import FTSTuple, assemble_nabla, curvature, verify_fts
from .cyclotomic import CycloNum, CycloPoly, conj_sigma, embed_complex, psi
from .exactla import (identity, mat_mul, mat_vec, nullspace, subspace_basis,
                      subspace_contains, subspace_sum, subspace_intersect,
                      transpose)
from .errors import VerificationError, frozen
from .expsum import family_sum, gkz_sum
from .ffield import enumerate_torus, extension_field, make_field
from .frobdata import family_l_function, frobenius_report, monodromy_filtration
from .laurent import Deformation, LaurentPoly, evaluate, monomial_table, phi_map
from .mpoly import MPoly
from .polytope import normalized_volume

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@frozen
class CriterionResult:
    number: int
    name: str
    ok: bool
    details: str
    elapsed: float
    payload: dict


def _criterion(number: int, name: str, limit: float | None = None):
    """Turn a body returning (checks, summary, payload) into a criterion.

    The body is timed; a stated limit becomes one more check.  The
    details are the summary when every check holds, else the names of
    the checks that failed.
    """
    def wrap(body):
        @functools.wraps(body)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            checks, summary, payload = body()
            elapsed = time.perf_counter() - t0
            if limit is not None:
                checks[f"runtime < {limit:g} s"] = elapsed < limit
            bad = [k for k, v in checks.items() if not v]
            details = "failed: " + "; ".join(bad) if bad else summary
            return CriterionResult(number, name, not bad, details, elapsed, payload)
        return run
    return wrap


def _kloosterman(p: int) -> Deformation:
    F = make_field(p, 1)
    f = LaurentPoly(1, [((1,), 1), ((-1,), 1)], field=F)
    return Deformation(f, [])


def _triple_point() -> Deformation:
    F3 = make_field(3, 1)
    f = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], field=F3)
    return Deformation(f, [])


# --- 1: Kloosterman purity -------------------------------------------------

def _report_payload(report) -> dict:
    return {
        "char_poly": report.char_poly,
        "power_sums": report.power_sums,
        "report_flags": [report.consistency_ok, report.purity_ok,
                         report.determinant_ok, report.duality_ok],
    }


@_criterion(1, "kloosterman-purity", limit=1)
def criterion_1():
    D = _kloosterman(5)
    report = frobenius_report(D, (), D.base.field.from_int(1))
    payload = _report_payload(report)
    P = report.char_poly
    # frozen first power sum: four-term enumeration by hand gives
    # S_1(1) = 2 + zeta^2 + zeta^3, and p_1 = -S_1
    expected_p1 = -(CycloNum.from_rational(5, 2)
                    + CycloNum.zeta(5, 2) + CycloNum.zeta(5, 3))
    const = P.coefficient(0)
    checks = {
        "monic quadratic": P.is_monic and P.degree == 2,
        "P(0) rational 5": const.is_rational and const.rational_value() == 5,
        "purity within 1e-6 in all embeddings":
            report.purity_ok and report.purity_max_rel_dev < 1e-6,
        "first power sum": report.power_sums[0] == expected_p1,
        "report flags": all(payload["report_flags"]),
    }
    summary = (f"P(0) = 5, purity dev {report.purity_max_rel_dev:.2e}, "
               "p1 matches the enumeration oracle")
    return checks, summary, payload


# --- 2: rank equals normalized volume ---------------------------------------

@_criterion(2, "rank-equals-normalized-volume", limit=30)
def criterion_2():
    D = _triple_point()
    vol = normalized_volume(D.base.newton())
    report = frobenius_report(D, (), D.base.field.from_int(1))
    payload = _report_payload(report)
    checks = {
        "normalized volume 3": vol == 3,
        "rank 3": report.rank == 3,
        "power sums 1..6 validate degree-3 char poly": report.consistency_ok,
        "purity within 1e-6 in both embeddings":
            report.purity_ok and report.purity_max_rel_dev < 1e-6,
        "|P(0)| = 27 within tolerance": report.determinant_ok,
    }
    summary = (f"volume 3, purity dev {report.purity_max_rel_dev:.2e}, "
               f"determinant dev {report.determinant_max_rel_dev:.2e}")
    return checks, summary, payload


# --- 3: duality pairing -----------------------------------------------------

def _dual_transform(P: CycloPoly, qn: int) -> CycloPoly:
    # T^r P(qn / T): coefficient of T^(r-j) is c_j qn^j
    r = P.degree
    coeffs = [CycloNum.from_rational(P.p, 0)] * (r + 1)
    for j in range(r + 1):
        coeffs[r - j] = P.coefficient(j) * Fraction(qn) ** j
    return CycloPoly(P.p, coeffs)


def _proportional(A: CycloPoly, B: CycloPoly) -> bool:
    if A.degree != B.degree:
        return False
    ratio = None
    for j in range(A.degree + 1):
        a, b = A.coefficient(j), B.coefficient(j)
        if bool(a) != bool(b):
            return False
        if b:
            r = a * b.inverse()
            if ratio is None:
                ratio = r
            elif r != ratio:
                return False
    return ratio is not None


@_criterion(3, "duality-pairing")
def criterion_3():
    payload = {}
    checks = {}
    for label, D in (("kloosterman_f5", _kloosterman(5)),
                     ("triple_point_f3", _triple_point())):
        tau = D.base.field.from_int(1)
        report = frobenius_report(D, (), tau)
        q, n = report.q, report.n
        transformed = _dual_transform(report.char_poly, q ** n)
        inverse_char = report.char_poly.conj_coeffs(D.base.field.p - 1)
        payload[label] = {
            "char_poly": report.char_poly,
            "transformed": transformed,
            "inverse_character": inverse_char,
            "proportional": _proportional(transformed, inverse_char),
            "report_duality_ok": report.duality_ok,
        }
        checks[f"{label} proportional"] = payload[label]["proportional"]
        checks[f"{label} report duality_ok"] = report.duality_ok
    summary = ("T^r P(q^n/T) proportional to the psi-inverse polynomial, "
               "exactly, for both instances")
    return checks, summary, payload


# --- 4: ramification shadow (L-function over the torus) ---------------------

def _direct_trace_sums() -> list:
    # independent oracle: brute double enumeration over tau and t
    F3 = make_field(3, 1)
    f = LaurentPoly(1, [((1,), 1), ((-1,), 1)], field=F3)
    out = []
    for k in (1, 2):
        E = extension_field(F3, k)
        fE = LaurentPoly(1, [((1,), 1), ((-1,), 1)], field=E)
        total = CycloNum.from_rational(3, 0)
        for (tau,) in enumerate_torus(E, 1):
            for (t,) in enumerate_torus(E, 1):
                total = total + psi(tau * evaluate(fE, (t,)))
        out.append(-total)  # c_k = (-1)^n sum, n = 1
    return out


@_criterion(4, "l-function-euler-characteristic", limit=5)
def criterion_4():
    report = family_l_function(_kloosterman(3), (), 8)
    payload = {
        "numerator": report.numerator,
        "denominator": report.denominator,
        "minus_chi_c": report.minus_chi_c,
        "trace_sums": report.trace_sums,
        "flags": [report.swan_bound_ok, report.stable],
    }
    num = report.numerator
    expected_num = CycloPoly(3, [CycloNum.from_rational(3, c)
                                 for c in (1, 2, -3)])
    direct = _direct_trace_sums()
    checks = {
        "c1 = 2": report.trace_sums[0] == 2,
        "c2 = -10": report.trace_sums[1] == -10,
        "L = 1 + 2T - 3T^2": num == expected_num,
        "denominator 1": report.denominator.degree == 0
                         and report.denominator.coefficient(0) == 1,
        "-chi_c = 2 <= rank 2": report.minus_chi_c == 2 and report.swan_bound_ok,
        "double enumeration agrees": (direct[0] == report.trace_sums[0]
                                      and direct[1] == report.trace_sums[1]),
        "stable reconstruction": report.stable,
    }
    summary = "L = (1 - T)(1 + 3T), -chi_c = 2, direct double enumeration agrees"
    return checks, summary, payload


# --- 5: coefficient-map factorization ---------------------------------------

def _constant_deformed_family(field) -> Deformation:
    f = LaurentPoly(1, [((1,), 1), ((-1,), 1)], field=field)
    g1 = LaurentPoly(1, [((0,), 1)], field=field)
    return Deformation(f, [g1], kind="subdiagram")


@_criterion(5, "coefficient-map-factorization")
def criterion_5():
    F5 = make_field(5, 1)
    F25 = extension_field(F5, 2)
    rng = random.Random(52025)
    sums = []
    agree = pullback_agree = 0
    trials = []
    for K, k, count in ((F5, 1, 25), (F5, 2, 25), (F25, 1, 50)):
        D = _constant_deformed_family(K)
        table = monomial_table(D)
        for _ in range(count):
            tau = K.zero()
            while not tau:
                tau = K.element([rng.randrange(K.p) for _ in range(K.m)])
            x = (K.element([rng.randrange(K.p) for _ in range(K.m)]),)
            trials.append((K, D, table, k, tau, x))
    for K, D, table, k, tau, x in trials:
        S = family_sum(D, k, tau, x)
        y = phi_map(D, table, tau, x)
        if gkz_sum(table, K, k, y) == S:
            agree += 1
        S_inv = family_sum(D, k, tau, x, psi_power=-1)
        S_neg = family_sum(D, k, -tau, x)
        if S_inv == conj_sigma(S, -1) == S_neg:
            pullback_agree += 1
        sums.append(S)
    payload = {"sums": sums, "agree": agree, "pullback_agree": pullback_agree,
               "trials": len(trials)}
    checks = {
        "100 trials": len(trials) == 100,
        f"{agree}/100 factorizations": agree == 100,
        f"{pullback_agree}/100 pullbacks": pullback_agree == 100,
    }
    summary = (f"{agree}/100 factorizations and "
               f"{pullback_agree}/100 pullback identities exact")
    return checks, summary, payload


# --- 6: purity bound sweep ---------------------------------------------------

@_criterion(6, "purity-bound-sweep", limit=5)
def criterion_6():
    F5 = make_field(5, 1)
    F25 = extension_field(F5, 2)
    D = _kloosterman(5)
    sums = []
    max_abs = 0.0
    for (tau,) in enumerate_torus(F25, 1):
        S = family_sum(D, 2, tau, ())
        sums.append(S)
        for a in range(1, 5):
            max_abs = max(max_abs, abs(embed_complex(S, a)))
    payload = {"sums": sums, "max_abs": max_abs}
    bound = 2 * 5 + 1e-6
    checks = {
        "24 twists": len(payload["sums"]) == 24,
        "max |S| <= 2q + 1e-6": payload["max_abs"] <= bound,
    }
    summary = (f"max |S_2(tau)| = {payload['max_abs']:.6f} <= 10 over all "
               "twists and embeddings")
    return checks, summary, payload


# --- 7: six conditions == assembled flatness ---------------------------------

def _random_structure_tuple(rng: random.Random) -> FTSTuple:
    r = rng.choice((1, 2, 3))
    m = rng.choice((1, 2))
    nv = m + 1
    kind = rng.random()

    def rand_poly(max_deg=2):
        p = MPoly(nv)
        for _ in range(rng.randrange(3)):
            exps = [0] * nv
            for _ in range(max_deg):
                i = rng.randrange(1, nv)
                if rng.random() < 0.6:
                    exps[i] += 1
            p = p + MPoly(nv, [(tuple(exps), rng.randint(-2, 2))])
        return p

    def rand_mat():
        return [[rand_poly() for _ in range(r)] for _ in range(r)]

    def zmat():
        return [[MPoly(nv) for _ in range(r)] for _ in range(r)]

    def cmat(scale):
        return [[MPoly.const(nv, scale if i == j else 0) for j in range(r)]
                for i in range(r)]

    if kind < 0.35:
        return FTSTuple(r, m, A=[zmat() for _ in range(m)],
                        phi=[zmat() for _ in range(m)],
                        r0=cmat(rng.randint(-2, 2)),
                        rinf=cmat(rng.randint(-2, 2)))
    if kind < 0.5 and r == 2:
        cval = rng.randint(1, 3)
        d = rng.randint(-2, 2)
        phi = [[MPoly.const(nv, 0), MPoly.const(nv, cval)],
               [MPoly.const(nv, 0), MPoly.const(nv, 0)]]
        rinf = [[MPoly.const(nv, d), MPoly.const(nv, 0)],
                [MPoly.const(nv, 0), MPoly.const(nv, d + 1)]]
        return FTSTuple(2, m, A=[zmat() for _ in range(m)],
                        phi=[phi] + [zmat() for _ in range(m - 1)],
                        r0=cmat(rng.randint(-2, 2)), rinf=rinf)
    return FTSTuple(r, m, A=[rand_mat() for _ in range(m)],
                    phi=[rand_mat() for _ in range(m)],
                    r0=rand_mat(), rinf=rand_mat())


def _explicit_instances():
    zero = [[MPoly.const(2, 0)] * 2 for _ in range(2)]
    e12 = [[MPoly.const(2, 0), MPoly.const(2, 1)],
           [MPoly.const(2, 0), MPoly.const(2, 0)]]
    eye = [[MPoly.const(2, 1 if i == j else 0) for j in range(2)]
           for i in range(2)]

    def rinf(b):
        return [[MPoly.const(2, 0), MPoly.const(2, 0)],
                [MPoly.const(2, 0), MPoly.const(2, b)]]

    good = FTSTuple(2, 1, A=[zero], phi=[e12], r0=eye, rinf=rinf(1))
    bad = FTSTuple(2, 1, A=[zero], phi=[e12], r0=eye, rinf=rinf(2))
    return good, bad


@_criterion(7, "six-condition-equivalence", limit=30)
def criterion_7():
    rng = random.Random(20260816)
    agree = flats = 0
    trials = 200
    for _ in range(trials):
        T = _random_structure_tuple(rng)
        try:
            report = verify_fts(T)
        except VerificationError:
            # four-way disagreement between the code paths
            continue
        flat = curvature(assemble_nabla(T)).is_zero
        if report.all_conditions_ok == report.assembled_flat == flat:
            agree += 1
        if flat:
            flats += 1
    good, bad = _explicit_instances()
    rep_good = verify_fts(good)
    rep_bad = verify_fts(bad)
    bad_conditions = {n for n, v in rep_bad.conditions.items() if not v}
    payload = {
        "agree": agree, "trials": trials, "flat_count": flats,
        "explicit_pass": dict(rep_good.conditions),
        "explicit_fail": dict(rep_bad.conditions),
    }
    checks = {
        "200/200 verdicts agree": agree == trials,
        "both verdicts occur": 0 < flats < trials,
        "explicit instance passes": rep_good.all_conditions_ok
                                    and rep_good.assembled_flat,
        "explicit failure is exactly r0_transport":
            not rep_bad.all_conditions_ok and not rep_bad.assembled_flat
            and bad_conditions == {"r0_transport"},
    }
    summary = f"{agree}/200 agree ({flats} flat), explicit pass/fail instances behave"
    return checks, summary, payload


# --- 8: weight filtration against an exhaustive oracle -----------------------

def _nilpotent_small_matrices():
    yield ((Fraction(0),),)
    for d in (2, 3):
        for entries in itertools.product((-1, 0, 1), repeat=d * d):
            M = [entries[i * d:(i + 1) * d] for i in range(d)]
            tr = sum(M[i][i] for i in range(d))
            if tr != 0:
                continue
            if d == 2:
                if M[0][0] * M[1][1] - M[0][1] * M[1][0] != 0:
                    continue
            else:
                m2 = sum(M[i][i] * M[j][j] - M[i][j] * M[j][i]
                         for i in range(d) for j in range(i + 1, d))
                det = (M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
                       - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
                       + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0]))
                if m2 != 0 or det != 0:
                    continue
            yield tuple(tuple(Fraction(v) for v in row) for row in M)


def _jordan(sizes):
    d = sum(sizes)
    M = [[Fraction(0)] * d for _ in range(d)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            M[pos + i][pos + i + 1] = Fraction(1)
        pos += s
    return tuple(tuple(row) for row in M)


def _apply_operator(N, basis):
    return subspace_basis(tuple(tuple(mat_vec(N, v)) for v in basis))


def _contains(space, sub):
    return all(subspace_contains(space, v) for v in sub)


def _filtration_oracle(N):
    """All increasing chains in the kernel/image lattice; returns the
    unique one with the three defining properties, or None."""
    d = len(N)
    powers = [identity(d)]
    while any(any(row) for row in powers[-1]):
        powers.append(mat_mul(powers[-1], N))
    e = len(powers) - 1
    zero, full = (), subspace_basis(identity(d))

    lattice = {zero, full}
    for P in powers:
        lattice.add(subspace_basis(nullspace(P)))
        lattice.add(subspace_basis(transpose(P)))
    while True:
        new = set()
        items = list(lattice)
        for i, A in enumerate(items):
            for B in items[i + 1:]:
                new.add(subspace_sum(A, B))
                new.add(subspace_intersect(A, B))
        if new <= lattice:
            break
        lattice |= new
    ordered = sorted(lattice, key=lambda b: (len(b), b))
    images = {cand: _apply_operator(N, cand) for cand in ordered}

    # chain positions are k = -e .. e-1; ends pinned to 0 and V
    hits = []

    def extend(chain):
        pos = len(chain)
        if pos == 2 * e:
            if chain[-1] == full and _graded_symmetry(powers, chain, e):
                hits.append(tuple(chain))
            return
        prev = chain[-1]
        below = chain[pos - 2] if pos >= 2 else zero
        for cand in ordered:
            if not _contains(cand, prev):
                continue
            if pos == 2 * e - 1 and cand != full:
                continue
            if not _contains(below, images[cand]):
                continue
            extend(chain + [cand])

    extend([zero])
    if len(hits) != 1:
        return None, len(hits)
    chain = hits[0]
    levels = tuple((k, chain[k + e]) for k in range(-e, e))
    return levels, 1


def _graded_symmetry(powers, chain, e):
    # N^k (powers[k]) must induce an isomorphism gr_k -> gr_-k for every k >= 1
    def level(k):
        if k < -e:
            return ()
        if k >= e:
            return chain[-1]
        return chain[k + e]

    for k in range(1, e):
        image = _apply_operator(powers[k], level(k))
        target = subspace_sum(image, level(-k - 1))
        if target != level(-k):
            return False
        gr_up = len(level(k)) - len(level(k - 1))
        gr_dn = len(level(-k)) - len(level(-k - 1))
        if gr_up != gr_dn:
            return False
    return True


@_criterion(8, "weight-filtration-oracle")
def criterion_8():
    tested = mismatches = 0
    jumps = {}
    cases = list(_nilpotent_small_matrices())
    cases.extend(_jordan(s) for s in ((2,), (2, 1), (3,)))
    for N in cases:
        filt = monodromy_filtration(N)
        expected, hit_count = _filtration_oracle(N)
        tested += 1
        if hit_count != 1 or filt.levels != expected:
            mismatches += 1
    for sizes in ((2,), (2, 1), (3,)):
        filt = monodromy_filtration(_jordan(sizes))
        jumps["+".join(map(str, sizes))] = {str(k): v for k, v in filt.jumps.items()}
    payload = {"tested": tested, "mismatches": mismatches, "jumps": jumps}
    checks = {
        f"{tested}/494 matrices tested": tested == 494,
        f"{mismatches} mismatches": mismatches == 0,
    }
    summary = (f"{tested} nilpotent matrices (all of dimension <= 3 over "
               "{-1,0,1} entries, plus the named Jordan types): oracle "
               "matches everywhere")
    return checks, summary, payload


# --- 9: determinism across processes ----------------------------------------

def _payload_lines() -> list[str]:
    """The payloads of criteria 1-6 (they carry every exact value they
    computed), each serialized with problemio.jsonable in its own scope."""
    lines = []
    for crit in CRITERIA[:6]:
        with scope():
            lines.append(json.dumps(pio.jsonable(crit().payload), sort_keys=True))
    return lines


_CHILD = ("import json\n"
          "from arith_lg.acceptance import _payload_lines\n"
          "print(json.dumps(_payload_lines()))\n")


@_criterion(9, "determinism-across-processes")
def criterion_9():
    labels = ("kloosterman_purity", "polytope_rank", "duality", "l_function",
              "factorization", "bound_sweep")
    here = _payload_lines()
    # a fresh interpreter on these sources: cold field, table and
    # embedding caches, and a new hash seed
    src = str(Path(__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", _CHILD], cwd=src, capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path,
                                               PYTHONHASHSEED="random"))
    there = json.loads(child.stdout) if child.returncode == 0 else []
    stable = [i < len(there) and line == there[i] for i, line in enumerate(here)]
    payload = {"stable": dict(zip(labels, stable)),
               "byte_lengths": {label: len(line.encode()) for label, line in zip(labels, here)}}
    checks = {f"fresh interpreter exited {child.returncode}": child.returncode == 0}
    checks.update({f"{label} byte-identical": s for label, s in zip(labels, stable)})
    summary = "criteria 1-6 values byte-identical in a fresh interpreter"
    return checks, summary, payload


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9)


def run_all() -> list[CriterionResult]:
    """Each criterion in its own budget scope."""
    results = []
    for crit in CRITERIA:
        with scope():
            results.append(crit())
    return results
