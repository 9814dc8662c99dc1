"""`errors.frozen` against `dataclasses.dataclass(frozen=True)`.

The package's records were dataclasses; the CLI's text key order, the
`lru_cache` keys and the error messages depend on what that gave them.
Each test builds the same class body twice, once under each decorator,
and asks for the same behaviour.
"""

import copy
import dataclasses
import importlib
import pkgutil

import pytest

import arith_lg
from arith_lg import acceptance, problemio as pio
from arith_lg.connalg import verify_connection, verify_fts, verify_metric
from arith_lg.cyclotomic import linear_recurrence_reconstruct
from arith_lg.errors import frozen
from arith_lg.ffield import make_field
from arith_lg.frobdata import family_l_function, frobenius_report, monodromy_filtration
from arith_lg.laurent import check_nondegenerate, monomial_table
from arith_lg.polytope import all_proper_faces

from test_cli import (EYE2, FLAT_CONN, JORDAN3, KLOOSTERMAN3, KLOOSTERMAN5,
                      fts_tuple)

DATACLASS = dataclasses.dataclass(frozen=True)


def point(decorate):
    class Point:
        x: int
        y: tuple
        label: str = "p"
    return decorate(Point)


def single(decorate):
    class Single:
        points: tuple
    return decorate(Single)


def checked(decorate):
    class Checked:
        lo: int
        hi: int

        def __post_init__(self):
            if self.lo > self.hi:
                raise ValueError(f"empty range {self.lo}..{self.hi}")
    return decorate(Checked)


def normalized(decorate):
    class Normalized:
        items: tuple
        kind: str

        def __init__(self, items, kind="plain"):
            object.__setattr__(self, "items", tuple(items))
            object.__setattr__(self, "kind", kind)
    return decorate(Normalized)


@pytest.fixture(params=[point, single, checked, normalized],
                ids=lambda f: f.__name__)
def pair(request):
    return request.param(frozen), request.param(DATACLASS)


def arguments(cls):
    return {"Point": [(1, (2, 3)), (1, (2, 3), "q"), (0, ())],
            "Single": [((1, 2),), ((),)],
            "Checked": [(0, 1), (2, 2)],
            "Normalized": [([1, 2],), ([], "other")]}[cls.__name__]


def hash_or_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


class TestParity:
    def test_repr_hash_and_field_order(self, pair):
        ours, twin = pair
        for args in arguments(ours):
            a, b = ours(*args), twin(*args)
            assert repr(a) == repr(b)
            assert hash(a) == hash(b)
            assert list(vars(a)) == list(vars(b)) == list(ours.__annotations__)

    def test_equality(self, pair):
        ours, twin = pair
        args = arguments(ours)
        for x in args:
            for y in args:
                assert (ours(*x) == ours(*y)) is (twin(*x) == twin(*y))
                assert (ours(*x) != ours(*y)) is (twin(*x) != twin(*y))
            # a record never equals another class's, however alike
            assert ours(*x) != twin(*x)
            assert ours(*x) == copy.copy(ours(*x))

    def test_frozen(self, pair):
        for cls in pair:
            rec = cls(*arguments(cls)[0])
            name = next(iter(cls.__annotations__))
            for action in (lambda: setattr(rec, name, 0),
                           lambda: setattr(rec, "extra", 0),
                           lambda: delattr(rec, name)):
                with pytest.raises(AttributeError):
                    action()
            assert vars(rec) == vars(cls(*arguments(cls)[0]))

    def test_defaults_and_keywords(self):
        for cls in (point(frozen), point(DATACLASS)):
            rec = cls(y=(5,), x=4)
            assert list(vars(rec)) == ["x", "y", "label"]
            assert rec.label == "p"
            assert rec == cls(4, (5,)) == cls(4, label="p", y=(5,))

    def test_post_init_runs_after_the_fields(self):
        for cls in (checked(frozen), checked(DATACLASS)):
            with pytest.raises(ValueError, match="empty range 3..1"):
                cls(3, 1)

    def test_body_init_is_kept(self):
        for cls in (normalized(frozen), normalized(DATACLASS)):
            rec = cls(iter([1, 2]))
            assert (rec.items, rec.kind) == ((1, 2), "plain")
            with pytest.raises(TypeError):
                cls([1], kind="k", extra=0)

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}),                               # x and y missing
        ((1,), {}),                             # y missing
        ((1, (), "q", 4), {}),                  # too many
        ((1, ()), {"z": 0}),                    # unknown
        ((1, ()), {"x": 2}),                    # x twice
    ], ids=["none", "missing", "too-many", "unknown", "duplicate"])
    def test_bad_arguments(self, args, kwargs):
        for cls in (point(frozen), point(DATACLASS)):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)


# --- the package's records -------------------------------------------------

def package_records():
    """One real instance of each record class in the package."""
    k5 = pio.parse_problem(KLOOSTERMAN5)
    k3 = pio.parse_problem(KLOOSTERMAN3)
    D = k5.deformation
    P = D.base.newton()
    tuple_ok = pio.parse_fts_tuple(fts_tuple("1"))
    with_metric = pio.parse_fts_tuple(dict(fts_tuple("1"), g=EYE2))
    return [
        make_field(3, 2),
        P,
        all_proper_faces(P)[0],
        D,
        monomial_table(D),
        k5,
        check_nondegenerate(D.base),
        frobenius_report(D, (0,), k5.field.from_int(1)),
        family_l_function(k3.deformation, (0,), 6),
        linear_recurrence_reconstruct([2, 4, 8, 16]),
        monodromy_filtration(pio.parse_nilpotent_matrix(JORDAN3)),
        verify_connection(pio.parse_connection(FLAT_CONN)),
        verify_fts(tuple_ok),
        verify_metric(with_metric),
        acceptance.CriterionResult(1, "name", True, "details", 0.5, {"k": 1}),
    ]


def added_by_frozen(value):
    return getattr(value, "__qualname__", "").startswith("frozen.")


def record_classes():
    found = set()
    for info in pkgutil.iter_modules(arith_lg.__path__, "arith_lg."):
        for value in vars(importlib.import_module(info.name)).values():
            if isinstance(value, type) and any(map(added_by_frozen, vars(value).values())):
                found.add(value)
    return found


def dataclass_twin(cls):
    """cls's own class body, without what `frozen` added, as a dataclass."""
    body = {name: value for name, value in vars(cls).items()
            if name not in ("__dict__", "__weakref__") and not added_by_frozen(value)}
    return DATACLASS(type(cls.__name__, (), body))


NAMES = sorted(["FieldSpec", "Polytope", "Face", "Deformation", "MonomialTable",
                "ProblemFile", "NondegeneracyVerdict", "FrobeniusReport",
                "LFunctionReport", "RationalFunctionFit", "Filtration",
                "ConnectionReport", "FTSReport", "MetricReport", "CriterionResult"])


@pytest.fixture(scope="module")
def records():
    return {type(rec).__name__: rec for rec in package_records()}


def test_every_record_class_has_an_instance(records):
    assert sorted(cls.__name__ for cls in record_classes()) == NAMES
    assert sorted(records) == NAMES
    assert {type(rec) for rec in records.values()} == record_classes()


@pytest.mark.parametrize("name", NAMES)
def test_package_record_matches_its_dataclass_twin(records, name):
    rec = records[name]
    cls = type(rec)
    assert list(vars(rec)) == list(cls.__annotations__)
    twin = dataclass_twin(cls)(**vars(rec))
    assert repr(rec) == repr(twin)
    assert hash_or_error(rec) == hash_or_error(twin)
    assert rec == copy.copy(rec)


def test_field_spec_repr_is_the_dataclass_repr():
    # FieldSpec's own __repr__ reaches error messages through FqElem
    F = make_field(5, 3)
    twin = dataclass_twin(type(F))(F.p, F.m, F.modulus)
    assert repr(F) == repr(twin) == "GF(5^3)"
    assert repr(F.one()) == "FqElem(GF(5^3), [1, 0, 0])"
