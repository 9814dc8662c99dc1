"""Newton polytopes of Laurent polynomial supports, at desk scale.

The polytope of a support set S in Z^n is conv(S united with {0}); the
origin is always a generator.  Everything is exact integer arithmetic:
facets are found by brute force over affinely independent n-subsets of
generators (n <= 4 keeps that cheap), the face lattice is the closure
of the facet generator-sets under intersection, and the normalized
volume n!*vol is assembled from a pulling triangulation.  Ranks and
facet normals come from exactla's integer echelon form and kernel, and
simplex volumes from its Bareiss determinant, with no Fraction made.

Facet convention: a pair (normal, offset) with primitive integer inward
normal a and offset c means the polytope satisfies <a, x> >= c, with
equality exactly on the facet.  The origin is interior iff every offset
is strictly negative, which is the "convenient" test.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import InputError, frozen
from .exactla import _det, _echelon, _kernel

LatticePoint = tuple[int, ...]

__all__ = [
    "LatticePoint",
    "Polytope",
    "Face",
    "newton_polyhedron",
    "is_convenient",
    "normalized_volume",
    "faces_not_containing_origin",
    "all_proper_faces",
    "face_contains",
]

MAX_DIM = 4
# The vertex a pulling triangulation cones from, read at each call; any
# choice gives the same volume, which tests check by setting max here.
PULL_APEX = min


@frozen
class Face:
    """A proper nonempty face: the argmax set of a linear functional.

    supporting: the facets (normal, offset) whose hyperplanes all contain
    the face; generators: the polytope generators lying on it.
    """

    supporting: tuple[tuple[LatticePoint, int], ...]
    generators: tuple[LatticePoint, ...]
    dim: int

    @property
    def contains_origin(self) -> bool:
        n = len(self.generators[0])
        return (0,) * n in self.generators


@frozen
class Polytope:
    dim: int
    generators: tuple[LatticePoint, ...]
    vertices: tuple[LatticePoint, ...]
    facets: tuple[tuple[LatticePoint, int], ...]
    degenerate: bool

    def _require_full_dim(self) -> None:
        if self.degenerate:
            raise InputError(
                f"polytope spans less than {self.dim} dimensions")


def _integer_normal(points: list[LatticePoint]) -> tuple[int, ...] | None:
    """Primitive normal of the hyperplane through affinely independent
    points, or None if they are affinely dependent: the integer kernel
    of the difference rows, whose one vector is positive at its free
    column."""
    base = points[0]
    rows = [tuple(x - b for x, b in zip(p, base)) for p in points[1:]]
    if not rows:
        return (1,) if len(base) == 1 else None
    kern = _kernel(*_echelon(rows), len(base))
    return tuple(kern[0]) if len(kern) == 1 else None


def newton_polyhedron(support) -> Polytope:
    """Convex hull of the support together with the origin.

    Exact hull description: vertices, facets with primitive inward
    normals.  A hull of lower dimension than the ambient space comes
    back flagged degenerate; volume, convenience, and face enumeration
    refuse such a polytope.
    """
    pts = [tuple(int(c) for c in w) for w in support]
    if not pts:
        raise InputError("empty support")
    n = len(pts[0])
    if n > MAX_DIM:
        raise InputError(f"ambient dimension {n} exceeds {MAX_DIM}")
    if n < 1:
        raise InputError("ambient dimension must be at least 1")
    if any(len(w) != n for w in pts):
        raise InputError("support points of mixed dimension")
    return _hull(tuple(sorted(set(pts) | {(0,) * n})))


@lru_cache(maxsize=256)
def _hull(generators: tuple[LatticePoint, ...]) -> Polytope:
    """The polytope of sorted generators, the origin among them: built
    once per generator set, which the frozen Polytope lets callers share."""
    n = len(generators[0])
    if len(_echelon(generators)[0]) < n:
        # span through 0: with 0 a generator, affine rank == linear rank
        return Polytope(n, generators, (), (), True)

    facets: dict[tuple[LatticePoint, int], None] = {}
    for subset in itertools.combinations(generators, n):
        normal = _integer_normal(list(subset))
        if normal is None:
            continue
        c = sum(a * x for a, x in zip(normal, subset[0]))
        values = [sum(a * x for a, x in zip(normal, g)) for g in generators]
        if all(v >= c for v in values):
            facets[(normal, c)] = None
        elif all(v <= c for v in values):
            facets[(tuple(-a for a in normal), -c)] = None
    facet_list = tuple(sorted(facets))

    vertices = []
    for g in generators:
        active = [a for a, c in facet_list
                  if sum(x * y for x, y in zip(a, g)) == c]
        if len(_echelon(active)[0]) == n:
            vertices.append(g)
    return Polytope(n, generators, tuple(vertices), facet_list, False)


def is_convenient(P: Polytope) -> bool:
    """True iff the origin is interior: every facet offset < 0."""
    P._require_full_dim()
    return all(c < 0 for _, c in P.facets)


def _facet_generators(P: Polytope, facet: tuple[LatticePoint, int]) -> tuple[LatticePoint, ...]:
    a, c = facet
    return tuple(g for g in P.generators
                 if sum(x * y for x, y in zip(a, g)) == c)


def _face_dim(gens: tuple[LatticePoint, ...]) -> int:
    base = gens[0]
    rows = [tuple(x - b for x, b in zip(g, base)) for g in gens[1:]]
    return len(_echelon(rows)[0])


def all_proper_faces(P: Polytope) -> list[Face]:
    """Every proper nonempty face, computed as the intersection closure
    of the facet generator-sets."""
    P._require_full_dim()
    facet_gens = {facet: frozenset(_facet_generators(P, facet)) for facet in P.facets}
    seen: dict[frozenset, set] = {}
    for facet, gens in facet_gens.items():
        seen.setdefault(gens, set()).add(facet)
    frontier = list(seen.keys())
    while frontier:
        nxt = []
        for gens in frontier:
            for facet, fgens in facet_gens.items():
                meet = gens & fgens
                if not meet or meet == gens:
                    continue
                if meet not in seen:
                    seen[meet] = set()
                    nxt.append(meet)
        frontier = nxt
    faces = []
    for gens in seen:
        glist = tuple(sorted(gens))
        supporting = tuple(sorted(facet for facet, fgens in facet_gens.items()
                                  if gens <= fgens))
        faces.append(Face(supporting, glist, _face_dim(glist)))
    faces.sort(key=lambda f: (f.dim, f.generators))
    return faces


def faces_not_containing_origin(P: Polytope) -> list[Face]:
    """Proper faces of all dimensions 0..n-1 whose affine span misses 0.

    Since 0 is a generator, a face's affine span contains 0 exactly when
    0 lies on the face itself, so the test is membership of 0 in the
    face's generator list.
    """
    return [f for f in all_proper_faces(P) if not f.contains_origin]


def face_contains(face: Face, w) -> bool:
    """Is the lattice point on every supporting hyperplane of the face?"""
    w = tuple(int(c) for c in w)
    return all(sum(a * x for a, x in zip(normal, w)) == c
               for normal, c in face.supporting)


def _pull_triangulate(gens: tuple[LatticePoint, ...], dim: int,
                      subfaces: list[tuple[tuple[LatticePoint, ...], int]]
                      ) -> list[tuple[LatticePoint, ...]]:
    """Pulling triangulation of a face given its own proper subfaces.

    Cones the PULL_APEX vertex over triangulations of the subfaces of
    one lower dimension that miss the apex.
    """
    if dim == 0:
        return [gens]
    apex = PULL_APEX(gens)
    out = []
    for sub_gens, sub_dim in subfaces:
        if sub_dim != dim - 1 or apex in sub_gens:
            continue
        nested = [(g, d) for g, d in subfaces
                  if d < sub_dim and set(g) <= set(sub_gens)]
        for simplex in _pull_triangulate(sub_gens, sub_dim, nested):
            out.append((apex,) + simplex)
    return out


def normalized_volume(P: Polytope) -> int:
    """n! times the Euclidean volume, an exact integer.

    Built from the fan over the origin: each facet off the origin is
    triangulated by pulling and coned to 0; each n-simplex contributes
    |det| of its edge matrix.
    """
    P._require_full_dim()
    faces = all_proper_faces(P)
    by_gens = {frozenset(f.generators): f for f in faces}
    total = 0
    for facet in P.facets:
        a, c = facet
        if c == 0:
            continue  # hyperplane through 0: flat cone
        fgens = _facet_generators(P, facet)
        face = by_gens[frozenset(fgens)]
        subfaces = [(g.generators, g.dim) for g in faces
                    if g.dim < face.dim and set(g.generators) <= set(fgens)]
        for simplex in _pull_triangulate(face.generators, face.dim, subfaces):
            total += abs(_det(simplex))
    return total
