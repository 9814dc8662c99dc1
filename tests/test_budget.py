"""The per-command work scope: one budget and one partition count."""

import inspect

import pytest

from arith_lg import acceptance, budget, expsum, ffarray, ffield, frobdata, laurent
from arith_lg.budget import charge, scope
from arith_lg.errors import BudgetExceeded, InputError


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


@pytest.mark.parametrize("bad", [0, -1])
def test_bad_values_are_input_errors(bad):
    with pytest.raises(InputError):
        with scope(budget=bad):
            pass
    with pytest.raises(InputError, match="partition"):
        with scope(partitions=bad):
            pass


def test_partitions_are_scoped():
    assert budget.partitions() == 1
    with scope(partitions=3):
        assert budget.partitions() == 3
        with scope(partitions=8):
            assert budget.partitions() == 8
        assert budget.partitions() == 3
    assert budget.partitions() == 1


def test_scope_is_restored_after_an_error():
    with pytest.raises(BudgetExceeded):
        with scope(budget=5, partitions=2):
            charge("too much", 6)
    assert budget.partitions() == 1
    charge("no ledger left behind", 6)
