"""Shared fixtures and oracle helpers for the test suite.

A full verification run takes under a second on a 2-core box, but it is
still computed once per session, timed, and shared by the reporting and
acceptance tests.
Relabeling, brute-force rank and coextension-shift helpers live here so
property tests can check the fast implementations against independent
definitions.
"""

import random
import time

import pytest

from binmat.catalog import get, list_names
from binmat.gf2 import BitMatrix
from binmat.matroid import Matroid, make_matroid


def fresh(name: str) -> Matroid:
    """A catalog matroid as a fresh object carrying no cached state."""
    m = get(name).matroid
    return Matroid(BitMatrix(m.matrix.nrows, m.matrix.ncols, m.matrix.rows), m.labels)


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


def oracle_lam(m: Matroid, x) -> int:
    x = frozenset(x)
    return oracle_rank(m, x) + oracle_rank(m, m.ground_set() - x) - m.rank


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
