"""Newton polytope hulls, faces, convenience, normalized volume."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from test_exactla_kernels import fraction_det

from arith_lg import polytope
from arith_lg.errors import InputError
from arith_lg.polytope import (all_proper_faces, face_contains,
                               faces_not_containing_origin, is_convenient,
                               newton_polyhedron, normalized_volume)


def shoelace_double_area(pts):
    """Oracle for n=2: twice the polygon area via the shoelace formula
    applied to the convex hull in angular order."""
    import math
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    s = 0
    for (x1, y1), (x2, y2) in zip(ordered, ordered[1:] + ordered[:1]):
        s += x1 * y2 - x2 * y1
    return abs(s)


def volume_pulling_max(P):
    """normalized_volume with every triangulation pulled from the largest
    vertex instead of the smallest: an independent triangulation."""
    with mock.patch.object(polytope, "PULL_APEX", max):
        return normalized_volume(P)


class TestHull:
    def test_segment(self):
        P = newton_polyhedron([(1,), (-1,)])
        assert P.vertices == ((-1,), (1,))
        assert set(P.facets) == {((1,), -1), ((-1,), -1)}
        assert not P.degenerate

    def test_triangle_vertices(self):
        P = newton_polyhedron([(1, 0), (0, 1), (-1, -1)])
        assert set(P.vertices) == {(1, 0), (0, 1), (-1, -1)}

    def test_origin_always_generator(self):
        P = newton_polyhedron([(1,)])
        assert (0,) in P.generators
        assert P.vertices == ((0,), (1,))

    def test_interior_point_not_vertex(self):
        P = newton_polyhedron([(2, 0), (0, 2), (1, 1), (-1, -1)])
        assert (1, 1) not in P.vertices  # midpoint of an edge
        assert (0, 0) not in P.vertices  # interior

    def test_every_generator_satisfies_every_facet(self):
        P = newton_polyhedron([(2, 0), (0, 1), (-1, -1)])
        for a, c in P.facets:
            for g in P.generators:
                assert sum(x * y for x, y in zip(a, g)) >= c

    def test_facet_normals_primitive(self):
        import math
        P = newton_polyhedron([(2, 0), (0, 4), (-2, -2)])
        for a, _ in P.facets:
            assert math.gcd(*[abs(x) for x in a]) == 1

    def test_degenerate_flagged(self):
        P = newton_polyhedron([(2, 0)])
        assert P.degenerate
        with pytest.raises(InputError, match="polytope spans less than 2 dimensions"):
            normalized_volume(P)
        with pytest.raises(InputError, match="polytope spans less than 2 dimensions"):
            is_convenient(P)
        with pytest.raises(InputError, match="polytope spans less than 2 dimensions"):
            faces_not_containing_origin(P)

    def test_dimension_cap(self):
        with pytest.raises(InputError, match="ambient dimension 5 exceeds 4"):
            newton_polyhedron([(1, 0, 0, 0, 0)])

    def test_empty_support_rejected(self):
        with pytest.raises(InputError):
            newton_polyhedron([])


class TestConvenient:
    def test_symmetric_segment(self):
        assert is_convenient(newton_polyhedron([(1,), (-1,)]))

    def test_zero_vertex_not_convenient(self):
        assert not is_convenient(newton_polyhedron([(1,)]))

    def test_triangle(self):
        assert is_convenient(newton_polyhedron([(1, 0), (0, 1), (-1, -1)]))

    def test_boundary_origin_not_convenient(self):
        # 0 on the edge conv{(1,1),(-1,-1)}
        assert not is_convenient(newton_polyhedron([(1, 1), (-1, -1), (1, 0)]))


class TestVolume:
    def test_known_values(self):
        assert normalized_volume(newton_polyhedron([(1,), (-1,)])) == 2
        assert normalized_volume(newton_polyhedron([(1, 0), (0, 1), (-1, -1)])) == 3
        assert normalized_volume(newton_polyhedron([(2, 0), (0, 1), (-1, -1)])) == 5
        assert normalized_volume(newton_polyhedron([(1,)])) == 1

    def test_cross_polytopes(self):
        # n!vol(conv(+-e_i)) = 2^n
        for n in (2, 3, 4):
            pts = []
            for i in range(n):
                pts.append(tuple(1 if j == i else 0 for j in range(n)))
                pts.append(tuple(-1 if j == i else 0 for j in range(n)))
            assert normalized_volume(newton_polyhedron(pts)) == 2 ** n

    def test_cube(self):
        cube = list(itertools.product((0, 1), repeat=3))
        assert normalized_volume(newton_polyhedron(cube)) == 6

    def test_triangulation_order_independent(self):
        examples = [
            [(1, 0), (0, 1), (-1, -1)],
            [(2, 0), (0, 3), (-1, -2), (1, 1)],
            [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
            [(2, 1, 0), (0, 2, 1), (1, 0, 2), (-1, -1, -1)],
        ]
        for pts in examples:
            P = newton_polyhedron(pts)
            assert normalized_volume(P) == volume_pulling_max(P)

    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=6))
    @settings(deadline=None, max_examples=60)
    def test_matches_shoelace_in_dim_2(self, pts):
        P = newton_polyhedron(pts)
        if P.degenerate:
            return
        assert normalized_volume(P) == shoelace_double_area(set(P.vertices))
        assert normalized_volume(P) == volume_pulling_max(P)

    @given(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                    min_size=1, max_size=5),
           st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    @settings(deadline=None, max_examples=40)
    def test_monotone_under_new_generator(self, pts, extra):
        P = newton_polyhedron(pts)
        if P.degenerate:
            return
        bigger = newton_polyhedron(pts + [extra])
        assert normalized_volume(bigger) >= normalized_volume(P)


    def test_matches_the_fraction_determinant_on_seeded_hulls(self):
        """The simplex volumes by the Fraction elimination polytope used
        before exactla's Bareiss `_det` give the same total."""
        rng = random.Random(20261020)
        full = 0
        for case in range(400):
            n = case % 4 + 1
            pts = [tuple(rng.randint(-3, 3) for _ in range(n))
                   for _ in range(rng.randint(1, n + 3))]
            P = newton_polyhedron(pts)
            if P.degenerate:
                continue
            full += 1
            got = normalized_volume(P)
            with mock.patch.object(polytope, "_det", fraction_det):
                want = normalized_volume(P)
            assert type(got) is int and type(want) is Fraction
            assert got == want, pts
        assert full > 250

class TestFaces:
    def test_segment_faces(self):
        P = newton_polyhedron([(1,), (-1,)])
        fs = faces_not_containing_origin(P)
        assert sorted(f.generators for f in fs) == [((-1,),), ((1,),)]

    def test_triangle_face_count(self):
        P = newton_polyhedron([(1, 0), (0, 1), (-1, -1)])
        fs = faces_not_containing_origin(P)
        assert len(fs) == 6  # 3 vertices + 3 edges
        assert sorted(f.dim for f in fs) == [0, 0, 0, 1, 1, 1]

    def test_zero_vertex_excluded(self):
        P = newton_polyhedron([(1,)])
        fs = faces_not_containing_origin(P)
        assert [f.generators for f in fs] == [((1,),)]

    def test_contains_origin_flag(self):
        P = newton_polyhedron([(1, 0), (0, 1)])
        by_gens = {f.generators: f for f in all_proper_faces(P)}
        assert by_gens[((0, 0),)].contains_origin
        assert not by_gens[((0, 1), (1, 0))].contains_origin

    def test_face_generators_lie_on_supporting_hyperplanes(self):
        P = newton_polyhedron([(2, 0), (0, 3), (-1, -2)])
        for f in all_proper_faces(P):
            assert f.supporting
            for g in f.generators:
                assert face_contains(f, g)

    def test_convenient_faces_cover_boundary(self):
        # every facet of a convenient polytope shows up with its full
        # generator set among the faces missing the origin
        P = newton_polyhedron([(1, 0), (0, 1), (-1, -1)])
        assert is_convenient(P)
        fs = faces_not_containing_origin(P)
        facet_faces = [f for f in fs if f.dim == P.dim - 1]
        assert len(facet_faces) == len(P.facets)

    def test_octahedron_lattice(self):
        pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
        P = newton_polyhedron(pts)
        fs = faces_not_containing_origin(P)
        dims = sorted(f.dim for f in fs)
        assert dims == [0] * 6 + [1] * 12 + [2] * 8

    def test_faces_are_argmax_sets(self):
        # the negated sum of supporting normals is maximized exactly on
        # the face's generators
        P = newton_polyhedron([(2, 0), (0, 1), (-1, -1)])
        for f in all_proper_faces(P):
            func = tuple(-sum(a[i] for a, _ in f.supporting) for i in range(2))
            vals = {g: sum(x * y for x, y in zip(func, g)) for g in P.generators}
            best = max(vals.values())
            argmax = {g for g, v in vals.items() if v == best}
            assert argmax == set(f.generators)
