"""The numpy layer of the finite fields: int64 coordinate rows, discrete-log
tables and the log-domain torus kernel.

This is the only module that imports numpy.  ffield reaches it at call
time, when it builds a table (ffield.discrete_table) or searches for
embedding roots, and charges that work to the budget itself; so a
command that never enumerates a torus never loads numpy.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy

from .errors import InputError
from .ffield import FieldSpec, FqElem, _basis_traces, multiplicative_generator


# --------------------------------------------------------------------------
# batched arithmetic on coordinate rows (int64 numpy arrays, entries < p)

def _require_exact_int64(p: int, m: int) -> None:
    """Refuse fields whose coordinate products could overflow int64.

    A product of two rows sums at most 2m - 1 terms below p^2 per entry.
    """
    if (2 * m - 1) * (p - 1) ** 2 >= 2 ** 63:
        raise InputError(f"GF({p}^{m}) is too large for exact int64 coordinate arithmetic")


def _reduction_rows(field: FieldSpec) -> numpy.ndarray:
    """Row d holds the coordinates of X^d mod the modulus, for d < 2m - 1."""
    p, m = field.p, field.m
    rows = numpy.zeros((2 * m - 1, m), dtype=numpy.int64)
    cur = [1] + [0] * (m - 1)
    for d in range(2 * m - 1):
        rows[d] = cur
        # times X: shift up and replace X^m by -(modulus - X^m)
        top = cur[-1]
        cur = [(c - top * f) % p for c, f in zip([0] + cur[:-1], field.modulus)]
    return rows


def _mul_rows(a: numpy.ndarray, b: numpy.ndarray, reduce_rows: numpy.ndarray,
              p: int) -> numpy.ndarray:
    """Row-wise field products of two (N, m) coordinate arrays."""
    n, m = a.shape
    prod = numpy.zeros((n, 2 * m - 1), dtype=numpy.int64)
    for i in range(m):
        prod[:, i:i + m] += a[:, i:i + 1] * b
    return prod % p @ reduce_rows % p


# --------------------------------------------------------------------------
# embedding root search

def _subfield_basis(target: FieldSpec, a: int) -> numpy.ndarray:
    """An F_p-basis (rows of coordinates) of the subfield of order p^a.

    Computed as the kernel of Frobenius^a - id, an F_p-linear map.
    """
    p, m = target.p, target.m
    # columns: (X^j)^(p^a) - X^j for each basis monomial
    cols = []
    for j in range(m):
        b = target.element(tuple(1 if i == j else 0 for i in range(m)))
        img = b ** (p ** a) - b
        cols.append(list(img.coords))
    # kernel of the m x m matrix over F_p by Gaussian elimination
    mat = [[cols[j][i] for j in range(m)] for i in range(m)]
    pivots: list[int] = []
    row = 0
    for col in range(m):
        sel = None
        for r in range(row, m):
            if mat[r][col] % p:
                sel = r
                break
        if sel is None:
            continue
        mat[row], mat[sel] = mat[sel], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [v * inv % p for v in mat[row]]
        for r in range(m):
            if r != row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(v - f * w) % p for v, w in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    free = [c for c in range(m) if c not in pivots]
    basis = numpy.zeros((len(free), m), dtype=numpy.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, pc in enumerate(pivots):
            basis[k, pc] = -mat[r][fc] % p
    return basis


# subfield elements per root-search chunk; smaller than TORUS_CHUNK because
# a product holds (2m - 1) int64 per element, and m reaches 24 here
ROOT_CHUNK = 1024


def _roots_in(modulus: tuple[int, ...], source_degree: int,
              target: FieldSpec) -> list[FqElem]:
    """All roots of the (degree source_degree, F_p-coefficient) modulus
    inside the target field, in the order of the subfield enumeration.

    The subfield of order p^source_degree is enumerated in chunks of
    ROOT_CHUNK elements: element number i is the base-p digits of i (first
    basis row most significant) times the kernel basis.  The modulus is
    evaluated on a whole chunk by Horner's rule in coordinates.
    """
    p, m = target.p, target.m
    _require_exact_int64(p, m)
    basis = _subfield_basis(target, source_degree)
    reduce_rows = _reduction_rows(target)
    count = p ** len(basis)
    place = p ** numpy.arange(len(basis) - 1, -1, -1, dtype=numpy.int64)
    roots = []
    for lo in range(0, count, ROOT_CHUNK):
        idx = numpy.arange(lo, min(lo + ROOT_CHUNK, count), dtype=numpy.int64)
        z = (idx[:, None] // place % p) @ basis % p
        # the modulus is monic: start Horner's rule at z + c_(a-1)
        val = z.copy()
        val[:, 0] = (val[:, 0] + modulus[-2]) % p
        for c in reversed(modulus[:-2]):
            val = _mul_rows(val, z, reduce_rows, p)
            val[:, 0] = (val[:, 0] + c) % p
        for coords in z[~val.any(axis=1)].tolist():
            roots.append(FqElem(target, tuple(coords)))
    return roots


# --------------------------------------------------------------------------
# discrete log / Zech tables and the log-domain torus kernel

# points per kernel chunk; the scratch arrays hold (#terms + 4) x 4096 int64
TORUS_CHUNK = 4096


class DiscreteTable:
    """Log-domain tables for one field, and the torus kernel that runs on
    them.

    Elements are referenced by their discrete log e (g^e); zero is
    represented by None at API boundaries and -1 inside arrays.  The
    tables are int64 arrays so that log_values can evaluate sums on whole
    chunks of the torus at once:

    * exp_enc[e] = the base-p encoding sum(c_i p^i) of g^e;
    * zech[e] = log(1 + g^e), or -1 when 1 + g^e = 0;
    * trace_by_exp[e] = Tr(g^e) for e < q - 1, plus one last entry 0,
      the trace of zero, so that trace_by_exp[-1] covers the -1 marker.

    exp_enc is built in F_p-linear algebra on coordinate rows:
    multiplication by g^k is an m x m matrix, the rows of g^0 .. g^(B-1)
    come by doubling (B = min(TORUS_CHUNK, q - 1)), and each next block
    of B powers is the previous block times the matrix of g^B.
    Fields whose coordinate products could overflow int64 raise InputError.
    Construction is not charged here: ffield.discrete_table charges it.
    """

    __slots__ = ("field", "q", "g", "exp_enc", "log_by_enc", "zech", "trace_by_exp")

    def __init__(self, field: FieldSpec):
        self.field = field
        q = field.q
        self.q = q
        p, m = field.p, field.m
        _require_exact_int64(p, m)
        g = multiplicative_generator(field)
        self.g = g
        # multiplication by h is the F_p-linear map v -> v @ M_h on rows
        reduce_rows = _reduction_rows(field)
        eye = numpy.eye(m, dtype=numpy.int64)

        def mul_matrix(h: numpy.ndarray) -> numpy.ndarray:
            return _mul_rows(eye, numpy.tile(h, (m, 1)), reduce_rows, p)

        # rows g^0 .. g^(B-1) by doubling, then one block of B at a time
        size = min(TORUS_CHUNK, q - 1)
        mul_g = mul_matrix(numpy.array(g.coords, dtype=numpy.int64))
        block, step = eye[:1], mul_g
        while len(block) < size:
            block = numpy.concatenate([block, block @ step % p])
            step = step @ step % p
        block = block[:size]
        step = mul_matrix(block[-1] @ mul_g % p)
        weights = p ** numpy.arange(m, dtype=numpy.int64)
        exp_enc = numpy.empty(q - 1, dtype=numpy.int64)
        for lo in range(0, q - 1, size):
            hi = min(lo + size, q - 1)
            exp_enc[lo:hi] = block[:hi - lo] @ weights
            block = block @ step % p
        log_by_enc = numpy.full(q, -1, dtype=numpy.int64)
        log_by_enc[exp_enc] = numpy.arange(q - 1, dtype=numpy.int64)
        self.exp_enc = exp_enc
        self.log_by_enc = log_by_enc
        # adding 1 bumps the constant coordinate, the lowest base-p digit
        c0 = exp_enc % p
        self.zech = log_by_enc[exp_enc - c0 + (c0 + 1) % p]
        basis = _basis_traces(field) if m > 1 else (1,)
        trace = numpy.zeros(q, dtype=numpy.int64)
        rem = exp_enc
        for t in basis:
            trace[:-1] += rem % p * t
            rem = rem // p
        self.trace_by_exp = trace % p

    def log(self, a: FqElem) -> int | None:
        """Discrete log of a field element, None for zero."""
        if a.field != self.field:
            raise InputError("element from a different field")
        p = self.field.p
        enc = 0
        w = 1
        for c in a.coords:
            enc += c * w
            w *= p
        e = int(self.log_by_enc[enc])
        return None if e == -1 else e

    def elem(self, e: int | None) -> FqElem:
        if e is None:
            return self.field.zero()
        enc = int(self.exp_enc[e % (self.q - 1)])
        coords = []
        p = self.field.p
        for _ in range(self.field.m):
            coords.append(enc % p)
            enc //= p
        return self.field.element(coords)

    def log_values(self, n: int, logs: Sequence[int], weights: Sequence[Sequence[int]],
                   start: int, stop: int) -> Iterator[numpy.ndarray]:
        """Values of sum_j g^logs[j] * t^weights[j] over a window of (F_q^*)^n.

        The window [start, stop) is in the canonical order of
        ffield.enumerate_torus (last axis fastest).  Yields int64 arrays of
        at most TORUS_CHUNK entries, in order: the discrete log of the value
        at each point, -1 where it is zero.  Terms fold left to right
        through the Zech table; a zero partial sum followed by the term a
        gives a.
        """
        Q = self.q - 1
        zech = self.zech
        base = numpy.array(logs, dtype=numpy.int64).reshape(-1, 1)
        wmod = numpy.array([[w % Q for w in ws] for ws in weights],
                           dtype=numpy.int64).reshape(len(logs), n)
        # x - x // Q * Q is x % Q: numpy divides by a scalar several times
        # faster than it takes a remainder
        for lo in range(start, stop, TORUS_CHUNK):
            idx = numpy.arange(lo, min(lo + TORUS_CHUNK, stop), dtype=numpy.int64)
            if not logs:
                yield numpy.full(idx.size, -1, dtype=numpy.int64)
                continue
            # acc[j] = logs[j] + <weights[j], e> mod Q, one axis at a time; no
            # entry exceeds Q + Q^2, so int64 is safe for any table that exists
            acc = numpy.repeat(base, idx.size, axis=1)
            for axis in range(n - 1, -1, -1):
                quot = idx // Q
                acc += wmod[:, axis:axis + 1] * (idx - quot * Q)
                acc -= acc // Q * Q
                idx = quot
            # g^s + g^a = g^a (1 + g^(s - a)); a negative index s - a wraps
            # to (s - a) mod Q, and s = -1 gives a valid (discarded) index
            s = acc[0]
            for a in acc[1:]:
                z = zech[s - a]
                folded = a + z
                folded -= folded // Q * Q
                s = numpy.where(s < 0, a, numpy.where(z < 0, -1, folded))
            yield s

    def window_counts(self, n: int, logs: Sequence[int], weights: Sequence[Sequence[int]],
                      start: int, stop: int) -> tuple[list[int], int]:
        """Trace-value counts plus the zero-value count of the same sum over
        one window of the torus enumeration."""
        counts = numpy.zeros(self.field.p, dtype=numpy.int64)
        zeros = 0
        for vals in self.log_values(n, logs, weights, start, stop):
            # a zero value indexes the table's last entry, the trace of zero
            counts += numpy.bincount(self.trace_by_exp[vals], minlength=self.field.p)
            zeros += int(numpy.count_nonzero(vals < 0))
        return counts.tolist(), zeros
