"""The per-command work scope: one budget for all of a command's work."""

import inspect
import sys
from collections import Counter

import pytest

from arith_lg import acceptance, budget, expsum, ffarray, ffield, frobdata, laurent
from arith_lg.budget import charge, scope
from arith_lg.errors import BudgetExceeded, InputError
from arith_lg.expsum import family_sum, gkz_sum, tau_summed_trace, zero_count
from arith_lg.ffield import make_field
from arith_lg.frobdata import family_l_function, frobenius_report
from arith_lg.laurent import Deformation, LaurentPoly, check_nondegenerate, monomial_table

F3, F5, F9 = make_field(3, 1), make_field(5, 1), make_field(3, 2)


def _callables(module):
    """Functions and methods defined in module, private ones included."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member
        elif callable(obj):
            yield name, obj


@pytest.mark.parametrize("module", [expsum, frobdata, laurent, ffield, ffarray, acceptance],
                         ids=lambda m: m.__name__)
def test_no_threaded_budget_or_partitions(module):
    threaded = [f"{name}({param})" for name, fn in _callables(module)
                for param in inspect.signature(fn).parameters
                if param in ("budget", "partitions")]
    assert threaded == []


@pytest.fixture(autouse=True)
def no_env_budget(monkeypatch):
    monkeypatch.delenv("ARITH_LG_BUDGET", raising=False)


def test_charges_add_up_inside_a_scope():
    with scope(budget=1000):
        charge("first", 600)
        with pytest.raises(BudgetExceeded) as exc:
            charge("second", 600)
    assert (exc.value.required, exc.value.budget) == (1200, 1000)
    assert "second" in str(exc.value)


@pytest.mark.parametrize("limit, exponent, required", [
    (10 ** 1000, 1500, "5 + 5^1500 - 1"),
    (10 ** 1000, 10 ** 12, "5 + 5^1000000000000 - 1"),
    (5 ** 90 + 3, 90, 5 ** 90 + 4),
], ids=["formed-too-big", "unformed", "exact"])
def test_power_room_after_spending(limit, exponent, required):
    # a count of more than 4096 bits reads as an expression, formed when
    # it might fit (5^1500 has 3483 bits, 10^1000 has 3322) and refused
    # unformed when it cannot
    with scope(budget=limit):
        charge("first", 5)
        with pytest.raises(BudgetExceeded) as exc:
            budget.check_power_room("units", 5, exponent)
    assert (exc.value.required, exc.value.budget) == (required, limit)


def test_power_room_that_fits_passes():
    with scope(budget=5 ** 1500):
        budget.check_power_room("units", 5, 1500)


def test_limit_is_inclusive():
    with scope(budget=1000):
        charge("first", 600)
        charge("second", 400)


def test_outside_a_scope_each_charge_stands_alone(monkeypatch):
    monkeypatch.setenv("ARITH_LG_BUDGET", "1000")
    for _ in range(3):
        charge("alone", 1000)
    with pytest.raises(BudgetExceeded) as exc:
        charge("alone", 1001)
    assert (exc.value.required, exc.value.budget) == (1001, 1000)


def test_nested_scope_is_its_own_ledger():
    with scope(budget=1000):
        charge("outer", 900)
        with scope(budget=500):
            charge("inner", 500)
        with scope(budget=2000):
            charge("inner", 1500)
        charge("outer", 100)
        with pytest.raises(BudgetExceeded):
            charge("outer", 1)


def test_limit_resolution(monkeypatch):
    with scope():
        charge("default", budget.DEFAULT_BUDGET)
        with pytest.raises(BudgetExceeded):
            charge("default", 1)
    monkeypatch.setenv("ARITH_LG_BUDGET", "10")
    with scope():
        with pytest.raises(BudgetExceeded) as exc:
            charge("env", 11)
    assert exc.value.budget == 10
    with scope(budget=20):
        charge("explicit beats env", 20)


def test_check_room_charges_nothing(monkeypatch):
    with scope(budget=1000):
        charge("first", 600)
        with pytest.raises(BudgetExceeded) as exc:
            budget.check_room("more", 401)
        budget.check_room("more", 400)
        charge("second", 400)
    assert (exc.value.required, exc.value.budget) == (1001, 1000)
    monkeypatch.setenv("ARITH_LG_BUDGET", "1000")
    budget.check_room("alone", 1000)
    with pytest.raises(BudgetExceeded):
        budget.check_room("alone", 1001)


def test_extension_past_the_budget_is_refused_unbuilt(monkeypatch):
    def no_search(f, p):
        raise AssertionError("the modulus search ran")

    F25 = make_field(5, 2)
    monkeypatch.setattr(ffield, "_is_irreducible", no_search)
    with scope(budget=1000):
        charge("first", 1000 - 24)
        assert ffield.extension_field(F5, 2) is F25  # exactly room for its 24 units
        with pytest.raises(BudgetExceeded, match=r"units of GF\(5\^3\) "
                                                 r"\(required 1100, budget 1000\)"):
            ffield.extension_field(F5, 3)
        charge("the rest", 24)  # the refusal charged nothing
    with pytest.raises(BudgetExceeded):  # outside a scope, against the limit
        ffield.extension_field(F5, 40)


@pytest.mark.parametrize("bad", [0, -1])
def test_bad_values_are_input_errors(bad):
    with pytest.raises(InputError):
        with scope(budget=bad):
            pass


def test_scope_is_restored_after_an_error():
    with pytest.raises(BudgetExceeded):
        with scope(budget=5):
            charge("too much", 6)
    assert budget._SCOPE.get() is None
    charge("no ledger left behind", 6)


# --------------------------------------------------------------------------
# the budget covers what the walks visit

def _kloosterman(field):
    f = LaurentPoly(1, [((1,), 1), ((-1,), 1)], field)
    return Deformation(f, [LaurentPoly(1, [((1,), 1)], field)], "newton_preserving")


# no witness: every face is searched to the end
TRIPLE3 = LaurentPoly(2, [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)], F3)
# degenerate on the edge through (2, 0), (1, 1), (0, 2): the search stops
# at the first witness
EDGE3 = LaurentPoly(2, [((2, 0), 1), ((1, 1), 1), ((0, 2), 1)], F3)

# name -> (the work, whether a first_only search may stop before its end)
WALKS = {
    "family_sum-prime": (lambda: family_sum(_kloosterman(F5), 2, 2, (3,)), False),
    "family_sum-F9": (lambda: family_sum(_kloosterman(F9), 2, F9.element((1, 1)),
                                         (F9.element((0, 1)),)), False),
    "family_sum-orbits": (lambda: family_sum(Deformation(TRIPLE3, ()), 3, 2, ()), False),
    "family_sum-extension-tau": (lambda: family_sum(Deformation(TRIPLE3, ()), 3,
                                                    make_field(3, 3).element((0, 1, 0)), ()),
                                 False),
    "gkz_sum": (lambda: gkz_sum(monomial_table(_kloosterman(F5)), F5, 2, (1, 2, 3)), False),
    "zero_count": (lambda: zero_count(_kloosterman(F9), 2, (1,)), False),
    "tau_summed_trace": (lambda: tau_summed_trace(_kloosterman(F3), 2, (1,)), False),
    "check_nondegenerate": (lambda: check_nondegenerate(TRIPLE3, K=2), False),
    "check_nondegenerate-witness": (lambda: check_nondegenerate(EDGE3, K=2), True),
    "frobenius_report": (lambda: frobenius_report(_kloosterman(F5), (1,), 1), False),
    "family_l_function": (lambda: family_l_function(_kloosterman(F3), (0,), 6), False),
}


@pytest.fixture
def meter(monkeypatch):
    """Charges by description, and the lanes the kernel walks, each
    weighted by the size of its first coordinate's Frobenius orbit (1 on
    a walk over the whole torus), metered at PowerTable._batches: in the
    torus walks (trace_counts and common_zeros) and in the embedding root
    search (ffield._roots)."""
    charged, lanes = Counter(), Counter()
    real_charge = budget.charge

    def charge(description, required):
        charged[description] += required
        real_charge(description, required)

    for name, module in list(sys.modules.items()):
        if name.startswith("arith_lg") and getattr(module, "charge", None) is real_charge:
            monkeypatch.setattr(module, "charge", charge)
    searching = []
    real_roots, real_batches = ffield._roots, ffarray.PowerTable._batches

    def roots(*args):
        searching.append(True)
        try:
            return real_roots(*args)
        finally:
            searching.pop()

    def batches(self, *args):
        walk = "roots" if searching else "torus"
        for nrows, count, pieces in real_batches(self, *args):
            lanes[walk] += sum((b - a) * weight for a, b, weight in pieces)
            yield nrows, count, pieces

    monkeypatch.setattr(ffield, "_roots", roots)
    monkeypatch.setattr(ffarray.PowerTable, "_batches", batches)
    ffield._image_powers.cache_clear()  # so that embeddings search their roots here
    return charged, lanes


@pytest.mark.parametrize("name", list(WALKS))
def test_budget_covers_what_the_walks_visit(meter, name):
    charged, lanes = meter
    work, may_stop_early = WALKS[name]
    work()
    torus = charged["torus sum"] + charged["torus search"]
    assert 0 < lanes["torus"] <= torus
    if not may_stop_early:
        assert lanes["torus"] == torus
    assert lanes["roots"] <= charged["subfield enumeration for embedding"]
    if name in ("family_sum-F9", "zero_count"):
        assert lanes["roots"] > 0
