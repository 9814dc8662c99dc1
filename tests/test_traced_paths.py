"""The call paths that per-layer call counts rely on.

A traced run counts eliminations by rebinding `exactla.rref` in every
module that bound it, and counts polynomial products by wrapping
`MPoly.__mul__`.  `rref` is the plain-Q reference: the package's own
eliminations run on exactla's integer kernels, so only callers of the
reference, such as acceptance criterion 8's oracle, are counted.  Those counts
only mean something if the layers built on them still reach them: the
reference's subspace functions through the module global `rref`, and
single rational-function operations through `MPoly.__mul__`.  Matrix
identities do not: connalg groups each entry of a combination of
matrices and matrix products by denominator and makes one
`mpoly._sum_products` call per group.  Curvature adds only the group
sums as rational functions, and a verdict multiplies only denominators,
so `MPoly.__mul__` sees the denominator products and curvature's
additions, not every product.
A subspace is its canonical RREF basis, so the subspace functions get
canonical bases here, and containment and products take no elimination
at all.
The tau-sum cross-check is pinned to one torus sum: one kernel call per
walk, and no `family_sum` per tau.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from arith_lg import connalg, exactla, expsum, ffarray, mpoly
from arith_lg.ffield import make_field
from arith_lg.laurent import Deformation, LaurentPoly
from arith_lg.mpoly import MPoly, RatFunc

M = exactla.to_fractions([[1, 2, 0], [0, 1, 1]])
N = exactla.to_fractions([[1, 0, 0], [0, 0, 1]])
U, W = exactla.subspace_basis(M), exactla.subspace_basis(N)


@pytest.fixture
def rref_calls(monkeypatch):
    calls = []
    real = exactla.rref

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(exactla, "rref", counting)
    return calls


@pytest.mark.parametrize("name, args, expected", [
    ("mat_mul", (M, exactla.transpose(M)), 0),
    ("nullspace", (M,), 1),
    ("subspace_contains", (U, [1, 3, 1]), 0),
    ("subspace_basis", (M,), 1),
    ("subspace_sum", (U, W), 1),
    ("subspace_intersect", (U, W), 1),
])
def test_rref_reached_through_module_global(rref_calls, name, args, expected):
    getattr(exactla, name)(*args)
    assert len(rref_calls) == expected


@pytest.fixture
def mul_calls(monkeypatch):
    calls = []
    real = MPoly.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(MPoly, "__mul__", counting)
    monkeypatch.setattr(MPoly, "__rmul__", counting)
    return calls


X = MPoly.variable(3, 1)
T = MPoly.variable(3, 0)


@pytest.mark.parametrize("op, expected", [
    # num * num and den * den
    (lambda f, g: f * g, 2),
    # num * den twice for the new numerator, den * den
    (lambda f, g: f + g, 3),
    (lambda f, g: f - g, 3),
    (lambda f, g: f == g, 2),
])
@pytest.mark.parametrize("den", [None, T], ids=["den-one", "den-t"])
def test_ratfunc_arithmetic_goes_through_mpoly_mul(mul_calls, op, expected, den):
    f = RatFunc(X + 1, den)
    g = RatFunc(X * Fraction(1, 2), den)
    mul_calls.clear()
    op(f, g)
    assert len(mul_calls) == expected


@pytest.fixture
def dot_calls(monkeypatch):
    """Sizes of the kernel calls, and the RatFunc additions; products
    made inside an addition belong to the addition."""
    kernel, adds = [], []
    real_kernel, real_add = mpoly._sum_products, RatFunc.__add__

    def counting_kernel(nvars, pairs):
        kernel.append(len(pairs))
        return real_kernel(nvars, pairs)

    def counting_add(self, other):
        adds.append(other)
        mark = len(kernel)
        out = real_add(self, other)
        del kernel[mark:]
        return out

    monkeypatch.setattr(mpoly, "_sum_products", counting_kernel)
    monkeypatch.setattr(RatFunc, "__add__", counting_add)
    monkeypatch.setattr(RatFunc, "__radd__", counting_add)
    return kernel, adds


ONE = MPoly.const(3, 1)
ZERO = RatFunc(MPoly(3))
ROW = (RatFunc(X + 1), RatFunc(X * Fraction(1, 2)), RatFunc(T + 2))


@pytest.mark.parametrize("dens, groups", [
    ((ONE, ONE, ONE), [3]),
    ((ONE, T, T), [1, 2]),
    ((ONE, T, T * T), [1, 1, 1]),
], ids=["one-group", "two-groups", "three-groups"])
def test_matrix_entry_is_one_kernel_call_per_denominator(dot_calls, dens, groups):
    # the (0, 0) entry of a 3x3 product whose first row is ROW and whose
    # first column has the given denominators; ROW is over 1, so the
    # denominator products take the shortcut and every kernel call outside
    # an addition sums one group
    col = [RatFunc(X - k, d) for k, d in enumerate(dens)]
    left = (ROW, (ZERO,) * 3, (ZERO,) * 3)
    right = tuple((v, ZERO, ZERO) for v in col)
    expected = sum(a * b for a, b in zip(ROW, col))
    kernel, adds = dot_calls
    kernel.clear()
    adds.clear()
    entry = next(connalg._entries((), [(1, left, right)]))
    assert sorted(kernel) == groups
    assert len(adds) == len(groups) - 1
    assert entry == expected


@pytest.fixture
def kernel_calls(monkeypatch):
    """(kernel entry point, torus dimension) of every kernel call."""
    calls = []

    def recording(name):
        real = getattr(ffarray.PowerTable, name)

        def counting(self, n, *args, **kwargs):
            calls.append((name, n))
            return real(self, n, *args, **kwargs)
        return counting

    def no_family_sum(*args, **kwargs):
        raise AssertionError("family_sum called from tau_summed_trace")

    for name in ("common_zeros", "trace_counts"):
        monkeypatch.setattr(ffarray.PowerTable, name, recording(name))
    monkeypatch.setattr(expsum, "family_sum", no_family_sum)
    return calls


@pytest.mark.parametrize("k", [1, 3])
def test_tau_sum_cross_check_is_one_torus_sum(kernel_calls, monkeypatch, k):
    # Kloosterman over F_5: the zero count walks the (5^k - 1)-point torus
    # and the cross-check the (5^k - 1)^2 pairs (tau, t), in batches of at
    # most 7 lanes, so each walk spans many batches
    monkeypatch.setattr(ffarray, "BATCH", 7)
    F5 = make_field(5, 1)
    one = F5.from_int(1)
    f = LaurentPoly(1, [((1,), one), ((-1,), one)], F5)
    D = Deformation(f, (LaurentPoly(1, [((1,), one)], F5),), "newton_preserving")
    expsum.tau_summed_trace(D, k, (F5.from_int(3),))
    # one kernel call per walk: the zero count searches the n = 1 torus,
    # the cross-check counts traces on the n = 2 torus
    assert kernel_calls == [("common_zeros", 1), ("trace_counts", 2)]
