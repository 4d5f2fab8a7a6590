"""Duality invariance: circuit and cocircuit predicates, connectivity and
minor search answer on a matroid as on its dual.

Each check runs on every catalog entry and on seeded random matroids of at
most 9 elements with loops, coloops and parallel pairs.  A matroid of at
most 9 elements is checked on every subset; a larger one on every set of
at most 4 elements and a seeded sample of larger sets.
"""

import random
from itertools import combinations

import pytest

from binmat.catalog import get, graphic_matroid, list_names
from binmat.connectivity import lam
from binmat.matroid import dual, is_circuit, is_cocircuit
from binmat.structure import has_any_minor

from conftest import fresh, random_matroids


def _matroids():
    """(name, matroid) for the catalog and 40 seeded random matroids."""
    return [(name, fresh(name)) for name in list_names()] + [
        (f"random {i}", m) for i, m in enumerate(random_matroids(seed=8, count=40))
    ]


def _subsets(m, rng):
    labels = sorted(m.ground_set())
    small = m.size if m.size <= 9 else 4
    out = [frozenset(c) for size in range(small + 1) for c in combinations(labels, size)]
    if m.size > 9:
        out += [frozenset(rng.sample(labels, rng.randint(5, m.size))) for _ in range(200)]
    return out


def test_circuits_of_the_dual_are_cocircuits():
    rng = random.Random(3)
    for name, m in _matroids():
        d = dual(m)
        for s in _subsets(m, rng):
            assert is_circuit(m, s) == is_cocircuit(d, s), (name, sorted(s))
            assert is_cocircuit(m, s) == is_circuit(d, s), (name, sorted(s))


def test_lambda_is_self_dual():
    rng = random.Random(4)
    for name, m in _matroids():
        d = dual(m)
        for x in _subsets(m, rng):
            assert lam(m, x) == lam(d, x), (name, sorted(x))


K4 = graphic_matroid([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 4)


@pytest.mark.parametrize("target", ["F7", "F7*", "M(K4)"])
def test_minor_search_is_self_dual(target):
    t = K4 if target == "M(K4)" else get(target).matroid
    matroids = _matroids()
    found = 0
    for name, m in matroids:
        has = has_any_minor(m, [t]) is not None
        assert has == (has_any_minor(dual(m), [dual(t)]) is not None), name
        found += has
    assert 0 < found < len(matroids)  # both answers occur
