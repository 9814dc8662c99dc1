import random

from oracles import brute_force_sum, graded_dims
from workloads import TRIANGLE, _family


def test_graded_dims_of_jordan_types():
    assert graded_dims([2]) == {1: 1, -1: 1}
    assert graded_dims([3, 1]) == {2: 1, 0: 2, -2: 1}


def test_brute_force_matches_the_library_sum():
    from arith_lg import problemio as pio
    from arith_lg.expsum import family_sum

    doc = _family(random.Random(4), TRIANGLE, 3, 1, 1)
    pf = pio.parse_problem(doc)
    S = family_sum(pf.deformation, 2, 2, ())
    assert brute_force_sum(doc, 2, 2) == pio.jsonable(S)
