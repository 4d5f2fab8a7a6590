"""Shared fixtures and oracle helpers for the test suite.

A full verification run takes under a second on a 2-core box, but it is
still computed once per session, timed, and shared by the reporting and
acceptance tests.
Relabeling, brute-force rank, cycle- and cocycle-space, weight-profile,
circuit-list and coextension-shift helpers live here so property tests
can check the fast implementations against independent definitions.
The two spaces are XOR closures built here from [I_r | D], with no
`gf2` or `matroid` routine.  The package decides circuits and
cocircuits by rank alone (`matroid.is_circuit`, `is_cocircuit`); the
lists here are the minimal supports of the two spaces, so they share
no rank code with it.
"""

import random
import time

import pytest

from binmat.catalog import get, graphic_matroid, list_names
from binmat.gf2 import BitMatrix
from binmat.matroid import Matroid, make_matroid


def fresh(name: str) -> Matroid:
    """A catalog matroid as a fresh object carrying no cached state."""
    m = get(name).matroid
    return Matroid(BitMatrix(m.matrix.nrows, m.matrix.ncols, m.matrix.rows), m.labels)


def small_target(name: str) -> Matroid:
    """A catalog matroid by name, or M(K4), which the catalog lacks."""
    if name == "M(K4)":
        return graphic_matroid([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 4)
    return get(name).matroid


def relabeled_copy(m: Matroid, rng: random.Random) -> Matroid:
    """A fresh matroid presenting the same labeled columns in random order."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    cols = [m.column_of(m.labels[p]) for p in perm]
    rows = tuple(
        sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(m.rank)
    )
    return make_matroid(
        BitMatrix(m.rank, m.size, rows), labels=[m.labels[p] for p in perm]
    )


def random_matroids(seed: int, count: int, max_size: int = 9) -> list[Matroid]:
    """`count` seeded random binary matroids of 1..max_size elements with
    shuffled columns and labels.  In turn each one's last D column is
    zeroed (a loop), its first basis element is cleared from D (a coloop),
    or its last D column copies an earlier column (a parallel pair)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(1, max_size)
        r = rng.randint(0, n)
        cols = [1 << j for j in range(r)] + [rng.getrandbits(r) for _ in range(n - r)]
        if i % 3 == 0 and n > r:
            cols[-1] = 0
        elif i % 3 == 1:
            cols[r:] = [c & ~1 for c in cols[r:]]
        elif n > max(r, 1):
            cols[-1] = cols[rng.randrange(n - 1)]
        perm = rng.sample(range(n), n)
        rows = tuple(sum(((cols[p] >> k) & 1) << j for j, p in enumerate(perm)) for k in range(r))
        out.append(make_matroid(BitMatrix(r, n, rows), labels=rng.sample(range(1, n + 1), n)))
    return out


def span_size(cols) -> int:
    """Size of the GF(2) span of the given column values (oracle)."""
    span = {0}
    for c in cols:
        span |= {s ^ c for s in span}
    return len(span)


def oracle_rank(m: Matroid, elements) -> int:
    """Brute-force rank of a label set: log2 of the span of its columns."""
    size = span_size(m.column_of(lab) for lab in elements)
    return size.bit_length() - 1


def _xor_closure(vectors) -> list[int]:
    """All XOR combinations of the vectors, 0 first: mask i is the sum of
    the vectors k with bit k of i set (distinct when they are independent)."""
    space = [0]
    for v in vectors:
        space += [s ^ v for s in space]
    return space


def oracle_cocycle_masks(m: Matroid) -> list[int]:
    """The cocycle space as position masks, the XOR closure of the rows,
    built here: neither `gf2.span` nor `Matroid.cocycle_masks`."""
    return _xor_closure(m.matrix.rows)


def oracle_cycle_masks(m: Matroid) -> list[int]:
    """The cycle space as position masks, the XOR closure of the
    fundamental circuits read off [I_r | D]: column j >= r with the basis
    positions of the rows that have bit j set.  Neither
    `gf2.cycle_space_masks` nor `Matroid.cycle_masks`."""
    rows = m.matrix.rows
    return _xor_closure(
        1 << j | sum(1 << i for i, row in enumerate(rows) if (row >> j) & 1) for j in range(m.rank, m.size)
    )


def oracle_weight_profile(m: Matroid) -> tuple[int, ...]:
    """The cocycle weight enumerator by a loop over `oracle_cocycle_masks`:
    neither `gf2.span` nor `matroid.cocycle_index`."""
    counts = [0] * (m.size + 1)
    for s in oracle_cocycle_masks(m):
        counts[s.bit_count()] += 1
    return tuple(counts)


def oracle_lam(m: Matroid, x) -> int:
    x = frozenset(x)
    return oracle_rank(m, x) + oracle_rank(m, m.ground_set() - x) - m.rank


def _minimal_supports(m: Matroid, masks) -> list[frozenset[int]]:
    """The minimal nonzero masks, smallest first, as label sets."""
    minimal: list[int] = []
    for s in sorted((mk for mk in masks if mk), key=int.bit_count):
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    return [m.labels_of(mk) for mk in minimal]


def oracle_circuits(m: Matroid) -> list[frozenset[int]]:
    """All circuits, as the minimal supports of the cycle space: no rank
    code is shared with `matroid.is_circuit`."""
    return _minimal_supports(m, oracle_cycle_masks(m))


def oracle_cocircuits(m: Matroid) -> list[frozenset[int]]:
    """All cocircuits, as the minimal supports of the cocycle space."""
    return _minimal_supports(m, oracle_cocycle_masks(m))


def oracle_shift_label(label: int, r: int) -> int:
    """The paper's coextension relabeling, stated apart from the package:
    a coextension of a rank-r matroid moves every label above r up by one."""
    return label + 1 if label > r else label


def oracle_shift_labels(labels, r: int) -> frozenset[int]:
    return frozenset(oracle_shift_label(x, r) for x in labels)


@pytest.fixture(scope="session")
def catalog_names():
    return list_names()


@pytest.fixture(scope="session")
def verification():
    """(report, elapsed seconds) for a full verification run."""
    from binmat.verify import run_verification

    start = time.perf_counter()
    report = run_verification()
    elapsed = time.perf_counter() - start
    return report, elapsed
