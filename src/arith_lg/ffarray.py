"""The numpy layer of the finite fields: int64 coordinate rows, discrete-log
tables, the embedding root search and the log-domain torus kernel.

Both pieces of field set-up walk the powers of one element in blocks of
coordinate rows (_power_blocks): the table walks the powers of the
generator g, the root search those of the generator of a subfield's
units.

The kernel is DiscreteTable.log_values, the discrete log of a sum at
each point of a window of the torus; window_counts buckets those values
by trace.  Only the torus walks of laurent (torus_trace_counts and
torus_zeros) call them.

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


# points per kernel chunk and rows per power block; the kernel's scratch
# arrays hold (#terms + 4) x 4096 int64
TORUS_CHUNK = 4096


def _power_blocks(field: FieldSpec, h: FqElem, count: int) -> Iterator[numpy.ndarray]:
    """Coordinate rows of h^0 .. h^(count - 1), in order, in blocks of at
    most TORUS_CHUNK rows.

    Multiplication by h^k is an m x m matrix over F_p acting on rows: the
    rows of h^0 .. h^(B-1) come by doubling (B = min(TORUS_CHUNK, count)),
    and each next block of B powers is the previous block times the
    matrix of h^B.  Fields whose coordinate products could overflow int64
    raise InputError at the call, before the caller allocates anything.
    """
    p, m = field.p, field.m
    _require_exact_int64(p, m)
    reduce_rows = _reduction_rows(field)
    eye = numpy.eye(m, dtype=numpy.int64)

    def mul_matrix(v: numpy.ndarray) -> numpy.ndarray:
        return _mul_rows(eye, numpy.tile(v, (m, 1)), reduce_rows, p)

    size = min(TORUS_CHUNK, count)
    mul_h = mul_matrix(numpy.array(h.coords, dtype=numpy.int64))
    block, step = eye[:1], mul_h
    while len(block) < size:
        block = numpy.concatenate([block, block @ step % p])
        step = step @ step % p
    step = mul_matrix(block[size - 1] @ mul_h % p)

    def walk(block: numpy.ndarray) -> Iterator[numpy.ndarray]:
        for lo in range(0, count, size):
            if lo:
                block = block @ step % p
            yield block[:count - lo]

    return walk(block[:size])


# --------------------------------------------------------------------------
# embedding root search

def _roots_in(modulus: tuple[int, ...], source_degree: int,
              target: FieldSpec) -> list[FqElem]:
    """All roots of the monic irreducible modulus (F_p coefficients, degree
    a = source_degree >= 2) inside the target field, in the order of the
    powers of w = g^((q - 1) / (p^a - 1)), g the target's generator.

    The roots lie in the subfield of order p^a and are units, so they are
    among the powers w^0 .. w^(p^a - 2) of the generator w of that
    subfield's units.  The modulus is evaluated on each block of powers
    by Horner's rule in coordinates.
    """
    p = target.p
    count = p ** source_degree - 1
    w = multiplicative_generator(target) ** ((target.q - 1) // count)
    reduce_rows = _reduction_rows(target)
    roots = []
    for z in _power_blocks(target, w, count):
        # the modulus is monic: start Horner's rule at z + c_(a-1)
        val = z.copy()
        val[:, 0] = (val[:, 0] + modulus[-2]) % p
        for c in reversed(modulus[:-2]):
            val = _mul_rows(val, z, reduce_rows, p)
            val[:, 0] = (val[:, 0] + c) % p
        roots.extend(FqElem(target, tuple(coords)) for coords in z[~val.any(axis=1)].tolist())
    return roots


# --------------------------------------------------------------------------
# discrete log / Zech tables and the log-domain torus kernel

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

    exp_enc is filled block by block from _power_blocks, the coordinate
    rows of the powers of g.  Fields whose coordinate products could
    overflow int64 raise InputError.
    Construction is not charged here: ffield.discrete_table charges it.
    """

    __slots__ = ("field", "q", "exp_enc", "log_by_enc", "zech", "trace_by_exp")

    def __init__(self, field: FieldSpec):
        self.field = field
        q = field.q
        self.q = q
        p, m = field.p, field.m
        g = multiplicative_generator(field)
        blocks = _power_blocks(field, g, q - 1)  # the int64 check runs here
        weights = p ** numpy.arange(m, dtype=numpy.int64)
        exp_enc = numpy.empty(q - 1, dtype=numpy.int64)
        lo = 0
        for block in blocks:
            exp_enc[lo:lo + len(block)] = block @ weights
            lo += len(block)
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
                      start: int, stop: int) -> list[int]:
        """How often the trace of the log_values sum takes each value of
        F_p over one window of the torus enumeration."""
        counts = numpy.zeros(self.field.p, dtype=numpy.int64)
        for vals in self.log_values(n, logs, weights, start, stop):
            # a zero value indexes the table's last entry, the trace of zero
            counts += numpy.bincount(self.trace_by_exp[vals], minlength=self.field.p)
        return counts.tolist()
