"""Power tables of finite-field elements on byte lanes, and the torus
kernel that runs on them, in pure Python.

Lanes
-----
A row of residues mod p is one Python int: the value at position x is
the lane of `width` bytes at byte x * width, in the platform's byte
order.  Adding two such ints adds every lane at once, exactly, as long
as no lane overflows, so every sum here tracks a bound on its lanes and
reduces mod p before an addend could overflow one: bytes.translate
reduces byte lanes, and wider lanes subtract p * 2^k wherever they hold
at least that much, with a shift and a mask per k.  lane_width(p) is one
byte for p < 128, where two residues fit a byte, and otherwise the
narrowest of 2, 4 or 8 bytes that holds a product of two residues plus a
residue with the top bit to spare.

Power tables
------------
PowerTable(field, h, order) holds the coordinates of h^0 .. h^(order-1)
as m columns, one lane per exponent.  They are built in place by
doubling: the powers h^s .. h^(2s - 1) are the powers h^0 .. h^(s - 1)
times h^s, a linear map over F_p on coordinates, applied in chunks of
BATCH lanes (scaled by bytes.translate or by int products, summed as
ints).  The map's rows, the coordinates of h^s X^j for j < m, come from
companion shifts (shift up, subtract the top coordinate times the
modulus), so each doubling step makes one field product, the squaring
that gives the next h^s.  The discrete-log table of a field
(ffield.discrete_table) is the power table of its generator g, order
q - 1, plus a trace column Tr(g^e), built on first use.  log compares
coordinate columns against the element, and looks in the subfields
first: with order N = p^s - 1, an element of F_{p^d} (d | s) sits at a
multiple of N / (p^d - 1), so those exponents are tried for each d,
ascending, and all N exponents last.

The torus kernel
----------------
A Laurent polynomial sum_j g^logs[j] t^weights[j] on (F_q^*)^n, with
points in the order of ffield.enumerate_torus (last axis fastest), is
walked in rows over the trailing axes.  Along a row, term j reads one
column at the exponents logs[j] + <weights[j], e> mod N: a rotation,
by the offset the leading axes give, of a strided copy of the column.
When N <= 256 and lanes are bytes, a row spans as many trailing axes as
fit in BATCH and is one bytes.translate of the term's exponent pattern
through the rotated column; otherwise a row is the last axis, cut from
the strided copy by one slice.  The rows of all terms are added as ints
in batches of about BATCH lanes, whole rows each, from the first point
of the torus to the last, and then

* trace_counts reduces the trace column's sums mod p and counts each
  value (the trace is additive, so the terms' traces are summed);
* common_zeros reduces each coordinate column's sums mod p (several
  coordinates share a byte when a sum fits in a few bits), flags the
  points where every coordinate of every polynomial is zero, and counts
  them and decodes the first into its exponent vector.

Each works out its own walk from the logs it is given (_first_axis):
when n >= 2 and a power of the Frobenius, short of the identity on the
exponents, fixes every coefficient, it visits only the fibres over the
least exponent of each orbit on the first axis, ascending (the rows
over them when a row spans fewer than n axes, else their blocks of the
one row's exponent pattern), and counts each point of a fibre once per
point of its orbit (_weighted).  The whole torus is the case of all N
exponents, of weight 1.  Lanes, batches, pieces and weights stay in
this module: both reductions return answers.

laurent's torus walks drive both, and ffield's embedding root search
runs common_zeros on the power table of a subfield's unit generator.
ffield reaches this module at call time, when it builds a table or
searches for embedding roots, and charges that work to the budget.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError
from .ffield import FieldSpec, FqElem, _basis_traces, frobenius_orbits

# lanes per batch: table chunks, log searches and the rows of one kernel
# sum (one row when a row is longer)
BATCH = 1 << 16

_ORDER = sys.byteorder
_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}  # array and memoryview codes


def lane_width(p: int) -> int:
    """Bytes per lane for residues mod p (see the module docstring)."""
    if p < 128:
        return 1
    width = 2
    while p * (p - 1) >= 1 << (8 * width - 1):
        width *= 2
    return width


def table_bytes(field: FieldSpec) -> int:
    """Bytes of the field's discrete-log table: m coordinate columns and
    the trace column, one lane per element."""
    return (field.m + 1) * lane_width(field.p) * field.q


@lru_cache(maxsize=None)
def _mod_table(p: int) -> bytes:
    return bytes(v % p for v in range(256))


@lru_cache(maxsize=None)
def _scale_table(p: int, c: int) -> bytes:
    return bytes(c * v % p for v in range(256))


@lru_cache(maxsize=None)
def _flag_table(p: int, bits: int, slots: int) -> bytes:
    """Byte v -> 0 if each of its `slots` fields of `bits` bits is 0 mod p,
    else 1."""
    mask = (1 << bits) - 1
    return bytes(any((v >> bits * i & mask) % p for i in range(slots)) for v in range(256))


@lru_cache(maxsize=64)
def _pattern(N: int, tail: tuple[int, ...], first: Sequence[int]) -> bytes:
    """<tail, x> mod N for the exponent vectors x of the trailing axes in
    order, the first of them taking the values `first` and the others
    0 .. N - 1: a term's exponents along a row (N <= 256)."""
    if len(tail) == 1:
        return bytes(tail[0] * x % N for x in first)
    rest = _pattern(N, tail[1:], range(N))
    base = bytes(v % N for v in range(2 * N))  # base[s:s + N] adds s mod N
    return b"".join(rest.translate(base[s:s + N] + bytes(256 - N))
                    for s in (tail[0] * d % N for d in first))


def _weighted(pieces: Sequence[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """(weight, a, b): lane ranges of a batch whose counts, times their
    weights, add up to the pieces' weighted counts.  The whole batch comes
    at the weight that covers most of it, then each piece of another
    weight with the difference."""
    cover = Counter()
    for a, b, w in pieces:
        cover[w] += b - a
    common = max(cover, key=cover.__getitem__)  # the first of the largest, no heapq
    yield common, 0, pieces[-1][1]
    for a, b, w in pieces:
        if w != common:
            yield w - common, a, b


@lru_cache(maxsize=8)
def _ones(count: int, width: int) -> int:
    """The int with 1 in each of `count` lanes."""
    return int.from_bytes((1).to_bytes(width, _ORDER) * count, _ORDER)


@lru_cache(maxsize=None)
def _subfield_strides(N: int, p: int) -> tuple[int, ...]:
    """N / (p^d - 1) for the degrees d | s, ascending, when N = p^s - 1:
    the spacing of the units of F_{p^d} among the exponents of a generator
    of the units of F_{p^s}.  Otherwise (1,)."""
    s = 1
    while p ** s - 1 < N:
        s += 1
    if p ** s - 1 != N:
        return (1,)
    return tuple(N // (p ** d - 1) for d in range(1, s + 1) if s % d == 0)


class PowerTable:
    """The powers h^0 .. h^(order - 1) of one element h of a field, by
    coordinate columns, and the torus kernel on them.

    The columns hold the first `order` powers of any h; log and the
    kernel take h to have multiplicative order `order`.  An element is
    referenced by its exponent e; zero is None at API boundaries.
    Construction is not charged here: ffield.discrete_table and
    ffield._roots charge it.
    """

    __slots__ = ("field", "order", "width", "columns", "_cap", "_trace", "_packs")

    def __init__(self, field: FieldSpec, h: FqElem, order: int):
        p, m = field.p, field.m
        W = lane_width(p)
        if W > 8:
            raise InputError(f"{field!r} is too large for exact 64-bit lanes")
        self.field, self.order, self.width = field, order, W
        self._cap = 255 if W == 1 else (1 << 8 * W - 1) - 1
        self._trace = None
        self._packs: dict[int, list[bytes]] = {}
        cols = [bytearray(order * W) for _ in range(m)]
        cols[0][:W] = (1).to_bytes(W, _ORDER)
        modulus = field.modulus
        filled, step = 1, h
        while filled < order:
            # coordinate i of (sum_j c_j X^j) * step is sum_j c_j images[j][i];
            # images[j + 1] = images[j] * X shifts up and subtracts top * modulus
            images = [step.coords]
            for _ in range(m - 1):
                img = images[-1]
                images.append(tuple((lo - img[-1] * f) % p
                                    for lo, f in zip((0,) + img[:-1], modulus)))
            size = min(filled, order - filled)
            for lo in range(0, size, BATCH):
                hi = min(lo + BATCH, size)
                chunks = [col[lo * W:hi * W] for col in cols]
                values = [int.from_bytes(chunk, _ORDER) for chunk in chunks]
                for i, col in enumerate(cols):
                    col[(filled + lo) * W:(filled + hi) * W] = self._combine(
                        chunks, values, [img[i] for img in images], hi - lo)
            filled += size
            if filled < order:
                step = step * step
        self.columns = cols

    # ----------------------------------------------------------------------
    # lane arithmetic

    def _reduce(self, acc: int, count: int, bound: int) -> int:
        """acc's `count` lanes, each at most bound, reduced mod p."""
        p = self.field.p
        if bound < p:
            return acc
        if self.width == 1:
            return int.from_bytes(acc.to_bytes(count, _ORDER).translate(_mod_table(p)), _ORDER)
        top = 8 * self.width - 1
        ones = _ones(count, self.width)
        for k in range((bound // p).bit_length() - 1, -1, -1):
            t = p << k
            acc -= ((acc + ((1 << top) - t) * ones) >> top & ones) * t
        return acc

    def _add(self, acc: int, bound: int, value: int, vbound: int,
             count: int) -> tuple[int, int]:
        """acc + value and its lane bound, reducing acc first if the sum
        could overflow a lane."""
        if bound + vbound > self._cap:
            acc, bound = self._reduce(acc, count, bound), self.field.p - 1
        return acc + value, bound + vbound

    def _combine(self, chunks: Sequence[bytes], values: Sequence[int],
                 coeffs: Sequence[int], count: int) -> bytes:
        """The lanes of sum_j coeffs[j] * chunks[j] mod p, as bytes;
        values[j] is chunks[j] as an int."""
        p = self.field.p
        acc = bound = 0
        for chunk, value, c in zip(chunks, values, coeffs):
            if not c:
                continue
            if (c + 1) * (p - 1) <= self._cap:
                value, vbound = value * c, c * (p - 1)
            else:  # byte lanes: scale and reduce by one translate
                value = int.from_bytes(chunk.translate(_scale_table(p, c)), _ORDER)
                vbound = p - 1
            acc, bound = self._add(acc, bound, value, vbound, count)
        return self._reduce(acc, count, bound).to_bytes(count * self.width, _ORDER)

    def _flags(self, acc: int, count: int) -> bytes:
        """One byte per lane of acc (each below 2^(8 width - 1)): 0 where
        the lane is 0, nonzero elsewhere."""
        W = self.width
        if W == 1:
            return acc.to_bytes(count, _ORDER)
        top, ones = 8 * W - 1, _ones(count, W)
        acc = (acc + ((1 << top) - 1) * ones) >> top & ones
        return acc.to_bytes(count * W, _ORDER)[0 if _ORDER == "little" else W - 1::W]

    # ----------------------------------------------------------------------
    # elements

    def log(self, a: FqElem) -> int | None:
        """The exponent e with h^e = a, None for zero.

        When the order is N = p^s - 1, h generates the units of the
        subfield of order p^s, and an element of its subfield F_{p^d}
        (d | s) sits at a multiple of N / (p^d - 1): the search tries those
        p^d - 1 exponents for each d, ascending, before all N (d = s)."""
        if a.field != self.field:
            raise InputError("element from a different field")
        if not a:
            return None
        for stride in _subfield_strides(self.order, self.field.p):
            e = self._find(a.coords, stride)
            if e is not None:
                return e
        raise InputError(f"{a!r} is not a power of the table's element")

    def _find(self, coords: Sequence[int], stride: int) -> int | None:
        """The first exponent e, a multiple of stride, whose coordinates are
        coords, or None."""
        W, count = self.width, self.order // stride
        for lo in range(0, count, BATCH):
            hi = min(lo + BATCH, count)
            ones = _ones(hi - lo, W)
            diff = 0
            for col, c in zip(self.columns, coords):
                lanes = (col if W == 1 else memoryview(col).cast(_FORMATS[W]))[
                    lo * stride:hi * stride:stride]
                diff |= int.from_bytes(lanes, _ORDER) ^ c * ones
            pos = self._flags(diff, hi - lo).find(0)
            if pos >= 0:
                return (lo + pos) * stride
        return None

    def elem(self, e: int | None) -> FqElem:
        if e is None:
            return self.field.zero()
        e %= self.order
        W = self.width
        return FqElem(self.field, tuple(int.from_bytes(col[e * W:(e + 1) * W], _ORDER)
                                        for col in self.columns))

    def trace_column(self) -> bytearray:
        """Tr(h^e) for each exponent e, one lane each."""
        if self._trace is None:
            if self.field.m == 1:
                self._trace = self.columns[0]
            else:
                W, basis = self.width, _basis_traces(self.field)
                trace = bytearray(self.order * W)
                for lo in range(0, self.order, BATCH):
                    hi = min(lo + BATCH, self.order)
                    chunks = [col[lo * W:hi * W] for col in self.columns]
                    trace[lo * W:hi * W] = self._combine(
                        chunks, [int.from_bytes(c, _ORDER) for c in chunks], basis, hi - lo)
                self._trace = trace
        return self._trace

    # ----------------------------------------------------------------------
    # the torus kernel

    def _first_axis(self, n: int, logs: Iterable[int]
                    ) -> tuple[Sequence[int], list[tuple[int, int, int]]]:
        """The first-axis exponents a walk of (F_q^*)^n visits, ascending,
        and their runs (index of the first, index past the last, weight).

        Let r = p^s mod N for the least s >= 1 with h^(r l) = h^l for
        every log l, that is G (r - 1) = 0 mod N, G = gcd(N, logs): the
        p^s-power Frobenius fixes every coefficient, so it maps the fibre
        over t_1 onto the fibre over t_1^(p^s) and keeps the trace and the
        zero set.  When n >= 2 and r != 1, the walk visits the least
        exponent of each orbit of e -> r e alone, weighted by the orbit's
        size; otherwise all N exponents, of weight 1.
        """
        N, p = self.order, self.field.p
        G, r = math.gcd(N, *logs), p % N
        while G * (r - 1) % N:
            r = r * p % N
        if n < 2 or r == 1 % N:
            return range(N), [(0, N, 1)]
        orbits = frobenius_orbits(N, r)
        return tuple(orbits), [(i, i + 1, w) for i, w in enumerate(orbits.values())]

    def _batches(self, n: int, runs: Sequence[tuple[int, int, int]]
                 ) -> Iterator[tuple[int, int, list[tuple[int, int, int]]]]:
        """Runs of whole rows covering the fibres of (F_q^*)^n over the
        first-axis values the runs index, in order: (rows, lanes, pieces).
        A piece (its lanes a:b in the batch, its weight) is where the
        batch meets one of the runs."""
        fibre = self.order ** (n - 1)
        lanes = runs[-1][1] * fibre
        axes = self._axes(n)
        R = self.order ** axes if axes < n else lanes
        step, j = max(1, BATCH // R) * R, 0
        for lo in range(0, lanes, step):
            hi = min(lo + step, lanes)
            pieces = []
            while True:
                i0, i1, weight = runs[j]
                b = min(hi, i1 * fibre)
                pieces.append((max(lo, i0 * fibre) - lo, b - lo, weight))
                if b == i1 * fibre:
                    j += 1
                if b == hi:
                    break
            yield (hi - lo) // R, hi - lo, pieces

    def _axes(self, n: int) -> int:
        """How many trailing axes one row spans."""
        if self.width > 1 or self.order > 256:
            return 1
        a = 1
        while a < n and self.order ** (a + 1) <= BATCH:
            a += 1
        return a

    def _row_sum(self, builders: Sequence[Callable[[int], bytes]],
                 offsets: Sequence[Sequence[int]], count: int,
                 term_bound: int) -> tuple[int, int]:
        """Sum over the terms of their rows at the given offsets, as lanes,
        and its lane bound."""
        acc = bound = 0
        for build, offs in zip(builders, offsets):
            value = int.from_bytes(b"".join(map(build, offs)), _ORDER)
            acc, bound = self._add(acc, bound, value, term_bound, count)
        return acc, bound

    def trace_counts(self, n: int, logs: Sequence[int],
                     weights: Sequence[Sequence[int]]) -> list[int]:
        """How often Tr(sum_j h^logs[j] t^weights[j]) takes each value of
        F_p on the torus (F_q^*)^n."""
        p, W = self.field.p, self.width
        counts = [0] * p
        if logs:
            first, runs = self._first_axis(n, logs)
            terms = _Terms(self, n, logs, weights, first)
            builders = terms.builders(self.trace_column())
            for nrows, count, pieces in self._batches(n, runs):
                acc, bound = self._row_sum(builders, terms.take(nrows), count, p - 1)
                data = self._reduce(acc, count, bound).to_bytes(count * W, _ORDER)
                lanes = memoryview(data).cast(_FORMATS[W]) if W > 1 else None
                for weight, a, b in _weighted(pieces):
                    if W > 1:
                        tally = Counter(lanes[a:b]).items()
                    else:
                        tally = ((v, data.count(v, a, b)) for v in range(1, p))
                    for v, c in tally:
                        counts[v] += c * weight
        counts[0] = self.order ** n - sum(counts[1:])
        return counts

    def common_zeros(self, n: int, polys: Sequence[tuple[Sequence[int], Sequence[Sequence[int]]]],
                     *, first_only: bool = False) -> tuple[int, tuple[int, ...] | None]:
        """The common zeros of polys (each (logs, weights), at least one
        term) on (F_q^*)^n: their number and the exponent vector of the
        first of them in the canonical order, or (0, None).  With
        first_only the walk stops at the first zero and counts 1.

        A walk over orbits still meets the first zero first: it lies over
        the least exponent of its orbit, and the walk visits those in
        ascending order.
        """
        p, m, N = self.field.p, self.field.m, self.order
        first, runs = self._first_axis(n, [lg for logs, _ in polys for lg in logs])
        systems = []
        for logs, weights in polys:
            terms = _Terms(self, n, logs, weights, first)
            bits = (len(logs) * (p - 1)).bit_length()
            if self.width > 1 or m == 1 or bits > 4:
                columns, table, bound = self.columns, _flag_table(p, 8, 1), p - 1
            else:  # several coordinates per byte, no field overflowing its bits
                slots = 8 // bits
                columns, table = self._packed(bits, slots), _flag_table(p, bits, slots)
                bound = (p - 1) * sum(1 << bits * i for i in range(slots))
            systems.append((terms, [terms.builders(c) for c in columns], table, bound))
        count, found, lo = 0, None, 0
        for nrows, lanes, pieces in self._batches(n, runs):
            nonzero = 0
            for terms, groups, table, bound in systems:
                offsets = terms.take(nrows)
                for builders in groups:
                    acc, b = self._row_sum(builders, offsets, lanes, bound)
                    if self.width == 1:
                        acc = int.from_bytes(acc.to_bytes(lanes, _ORDER).translate(table), _ORDER)
                    else:
                        acc = self._reduce(acc, lanes, b)
                    nonzero |= acc
            flags = self._flags(nonzero, lanes)
            pos = -1 if found is not None else flags.find(0)
            if pos >= 0:
                i, x = divmod(lo + pos, N ** (n - 1))
                index = first[i] * N ** (n - 1) + x
                found = tuple(index // N ** (n - 1 - axis) % N for axis in range(n))
                if first_only:
                    return 1, found
            count += sum(w * flags.count(0, a, b) for w, a, b in _weighted(pieces))
            lo += lanes
        return count, found

    def _packed(self, bits: int, slots: int) -> list[bytes]:
        """The coordinate columns `slots` to a byte, `bits` bits each."""
        packs = self._packs.get(bits)
        if packs is None:
            packs = []
            for g in range(0, self.field.m, slots):
                value = 0
                for slot, col in enumerate(self.columns[g:g + slots]):
                    value += int.from_bytes(col, _ORDER) << bits * slot
                packs.append(value.to_bytes(self.order, _ORDER))
            self._packs[bits] = packs
        return packs


class _Terms:
    """One polynomial's terms h^logs[j] t^weights[j] on (F_q^*)^n, laid out
    for the rows of a table's walk from the first row on, the first axis
    taking the values `first` in turn: the offset of each term in the
    current row, and its row builders."""

    __slots__ = ("table", "lead", "first", "index", "digits", "logs", "heads", "offsets",
                 "deltas", "patterns", "tails")

    def __init__(self, table: PowerTable, n: int, logs: Sequence[int],
                 weights: Sequence[Sequence[int]], first: Sequence[int]):
        N = table.order
        self.table, self.lead, self.first = table, n - table._axes(n), first
        self.index, self.digits = 0, [0] * self.lead
        # a row's offsets, the lead axes after the first at 0: logs + heads t_1
        self.logs = [lg % N for lg in logs]
        self.heads = [ws[0] % N if self.lead else 0 for ws in weights]
        self.offsets = [(lg + h * first[0]) % N for lg, h in zip(self.logs, self.heads)]
        # the step of each offset when lead axis i >= 1 counts up and the
        # axes after it wrap from N - 1 to 0
        self.deltas = [[(ws[i] - (N - 1) * sum(ws[i + 1:self.lead])) % N
                        for i in range(self.lead)] for ws in weights]
        self.tails = [[w % N for w in ws[self.lead:]] for ws in weights]
        self.patterns = None
        if table.width == 1 and N <= 256:
            heads = range(N) if self.lead else first
            self.patterns = [_pattern(N, tuple(tail), heads) for tail in self.tails]

    def take(self, nrows: int) -> list[list[int]]:
        """Each term's offsets in the next nrows rows."""
        N, lead, digits = self.table.order, self.lead, self.digits
        offsets = self.offsets
        out = [[] for _ in offsets]
        for _ in range(nrows):
            for lst, o in zip(out, offsets):
                lst.append(o)
            i = lead - 1
            while i >= 1 and digits[i] == N - 1:
                digits[i] = 0
                i -= 1
            if i >= 1:
                digits[i] += 1
                offsets = [(o + d[i]) % N for o, d in zip(offsets, self.deltas)]
            elif i == 0 and self.index + 1 < len(self.first):
                self.index += 1
                t1 = self.first[self.index]
                offsets = [(lg + h * t1) % N for lg, h in zip(self.logs, self.heads)]
        self.offsets = offsets
        return out

    def builders(self, column: bytes) -> list[Callable[[int], bytes]]:
        """Per term, the row of the column at a given offset o: the lanes
        column[o + <tail weights, tail digits> mod N] along the row."""
        N = self.table.order
        if self.patterns is not None:
            tile = column * (1 + -(-255 // N))
            return [lambda o, e=e: e.translate(tile[o:o + 256]) for e in self.patterns]
        return [_rotations(column, N, self.table.width, tail[-1]) for tail in self.tails]


def _rotations(column: bytes, N: int, W: int, w: int) -> Callable[[int], bytes]:
    """o -> the lanes column[(o + w x) mod N], x = 0 .. N - 1.

    With d = gcd(w, N) and P = N / d the row has period P.  Writing
    o = s + d k (s < d), it is the strided copy V_s[x] = column[s + w x],
    x < P, rotated by r = k (w / d)^-1 mod P, d times over; each V_s is
    gathered once.
    """
    d = math.gcd(w, N)
    P = N // d
    inv = pow(w // d, -1, P) if P > 1 else 0
    lanes = memoryview(column).cast(_FORMATS[W])
    copies: dict[int, bytes] = {}

    def row(o: int) -> bytes:
        s = o % d
        seq = copies.get(s)
        if seq is None:
            seq = copies[s] = _strided(lanes, s, w if 2 * w <= N else w - N, P)
        r = o // d * inv % P * W
        piece = seq[r:] + seq[:r] if r else seq
        return piece * d if d > 1 else piece

    return row


def _strided(lanes: memoryview, s: int, u: int, count: int) -> bytes:
    """lanes[(s + u x) mod N] for x < count, N = len(lanes), as bytes: one
    slice per pass over the lanes, so about |u| count / N slices."""
    if not u:
        return lanes[s:s + 1].tobytes() * count
    N, parts = len(lanes), []
    while count:
        # the steps before the index leaves [0, N)
        run = min(count, (N - 1 - s) // u + 1 if u > 0 else s // -u + 1)
        stop = s + u * run
        parts.append(lanes[s:stop if stop >= 0 else None:u].tobytes())
        s, count = stop % N, count - run
    return b"".join(parts)

