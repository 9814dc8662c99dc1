"""Field set-up: discrete-log tables, embedding root searches, and the
embedding coordinates they lead to.

DiscreteTable and ffield._roots_in work on numpy coordinate rows; here
they are checked against plain FqElem arithmetic, with the block and
chunk constants shrunk so that boundaries fall mid-range.  The embedding
pins hold the coordinates embed gives on fixed tower sequences, each in a
fresh process because embeddings depend on what the process touched
before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arith_lg import ffield
from arith_lg.budget import scope
from arith_lg.errors import InputError
from arith_lg.ffield import DiscreteTable, make_field, multiplicative_generator

SRC = str(Path(__file__).resolve().parents[1] / "src")


def walk_encodings(field):
    """exp_enc by the g**e walk: base-p encodings of g^0, g^1, ..."""
    g = multiplicative_generator(field)
    cur = field.one()
    out = []
    for _ in range(field.q - 1):
        out.append(sum(c * field.p ** i for i, c in enumerate(cur.coords)))
        cur = cur * g
    return out


# F_{2^13} has q - 1 = 8191 prime; F_12289 has q - 1 = 3 * 4096; F_29 has
# q - 1 = 4 * 7 and F_8 has q - 1 = 7
TABLE_FIELDS = [(2, 13), (3, 7), (5, 5), (7919, 1), (2, 2), (12289, 1), (29, 1), (2, 3)]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_table_build_matches_walk(monkeypatch, p, m, block):
    if block is not None:
        monkeypatch.setattr(ffield, "TORUS_CHUNK", block)
    field = make_field(p, m)
    assert DiscreteTable(field).exp_enc.tolist() == walk_encodings(field)


def brute_roots(modulus, target):
    """Every element of the target at which the modulus vanishes."""
    roots = []
    for enc in range(target.q):
        z = target.element([enc // target.p ** i % target.p for i in range(target.m)])
        acc = target.zero()
        for c in reversed(modulus):
            acc = acc * z + c
        if not acc:
            roots.append(z)
    return roots


@pytest.mark.parametrize("chunk", [None, 7])
@pytest.mark.parametrize("p,a,L", [(2, 4, 8), (2, 6, 12), (3, 2, 6), (3, 4, 8), (5, 2, 4)])
def test_roots_in_matches_brute_force(monkeypatch, p, a, L, chunk):
    if chunk is not None:
        monkeypatch.setattr(ffield, "ROOT_CHUNK", chunk)
    modulus = make_field(p, a).modulus
    target = make_field(p, L)
    roots = ffield._roots_in(modulus, a, target)
    assert sorted(r.coords for r in roots) == sorted(r.coords for r in brute_roots(modulus, target))
    assert len(roots) == a
    assert set(roots) == {roots[0] ** (p ** i) for i in range(a)}


def test_int64_bound_is_checked_before_allocating():
    # (2m - 1)(p - 1)^2 >= 2^63 for p > 2^32: refused, not built in 34 GB
    with pytest.raises(InputError, match="int64"), scope(budget=10 ** 12):
        DiscreteTable(make_field(4294967311, 1))


# generator X of F_{p^a} embedded into F_{p^b}, step by step in one process;
# recorded before the root search and the table build moved to numpy
EMBED_PINS = {
    "f9_into_f729_fresh": (
        [(3, 2, 6)],
        [[0, 2, 1, 2, 2, 0]]),
    "f9_into_f729_after_f81": (
        [(3, 2, 4), (3, 2, 6)],
        [[0, 2, 1, 1], [0, 1, 2, 1, 1, 0]]),
    "f2_tower_up": (
        [(2, 2, 4), (2, 4, 8), (2, 2, 6), (2, 6, 12), (2, 4, 12), (2, 3, 12), (2, 2, 8)],
        [[1, 1, 1, 0], [0, 0, 1, 1, 1, 0, 1, 0], [1, 1, 0, 1, 1, 1],
         [1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1], [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1], [1, 0, 1, 1, 1, 1, 0, 1]]),
    "f2_tower_down": (
        [(2, 6, 12), (2, 4, 12), (2, 3, 6), (2, 4, 8), (2, 2, 8), (2, 2, 4)],
        [[1, 1, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1], [1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0],
         [1, 1, 1, 0, 1, 0], [0, 0, 1, 1, 1, 0, 1, 0], [1, 0, 1, 1, 1, 1, 0, 1],
         [1, 1, 1, 0]]),
    "f5_tower": (
        [(5, 2, 4), (5, 3, 6), (5, 2, 6)],
        [[0, 0, 1, 0], [0, 4, 4, 4, 4, 3], [0, 2, 2, 0, 1, 3]]),
    "f3_tower": (
        [(3, 3, 6), (3, 4, 8), (3, 2, 8)],
        [[1, 0, 1, 2, 1, 0], [0, 0, 1, 0, 1, 0, 1, 0], [0, 0, 2, 0, 1, 0, 1, 0]]),
}

EMBED_SCRIPT = """
import json, sys
from arith_lg.ffield import embed, make_field
out = []
for p, a, b in json.loads(sys.argv[1]):
    x = make_field(p, a).element([0, 1] + [0] * (a - 2))
    out.append(list(embed(x, make_field(p, b)).coords))
print(json.dumps(out))
"""


@pytest.mark.parametrize("name", sorted(EMBED_PINS))
def test_embedding_coordinates_pinned(name):
    steps, want = EMBED_PINS[name]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", EMBED_SCRIPT, json.dumps(steps)],
                         capture_output=True, text=True, env=env, timeout=120, check=True)
    assert json.loads(run.stdout) == want
