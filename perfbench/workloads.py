"""Seeded inputs and summary statistics for the binmat benchmark.

Inputs depend only on the workload name and the seed, so the same seed
gives the same inputs on every machine and Python version (``random``
seeded from a string is stable).  Every input is a fresh ``Matroid``:
nothing the program caches on an object carries over to the next one.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_left
from itertools import accumulate
from math import floor

from binmat.catalog import get, list_names
from binmat.gf2 import BitMatrix
from binmat.iso import canonical_key, weight_profile
from binmat.matroid import Matroid, make_matroid, simplicity

MINOR_TARGETS = ("S10", "S10*")
# (size, rank) classes of minor-query: n in {11, 12, 13}, rank floor(n/2)-1 or floor(n/2).
MINOR_CLASSES = tuple((n, r) for n in (11, 12, 13) for r in (n // 2 - 1, n // 2))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def relabeled_copy(m: Matroid, perm: list[int]) -> Matroid:
    """``m`` with its columns permuted, re-standardised, labels 1..n."""
    rows = tuple(sum(((row >> p) & 1) << q for q, p in enumerate(perm)) for row in m.matrix.rows)
    return make_matroid(BitMatrix(m.rank, m.size, rows))


def iso_relabel_batches(seed: int):
    """Endless rounds; each is every catalog entry once, in a seeded
    order, as (name, randomly relabeled fresh copy) pairs."""
    rng = _rng("iso-relabel", seed)
    names = list_names()
    while True:
        order = names[:]
        rng.shuffle(order)
        batch = []
        for name in order:
            m = get(name).matroid
            perm = list(range(m.size))
            rng.shuffle(perm)
            batch.append((name, relabeled_copy(m, perm)))
        yield batch


def from_rows(r: int, n: int, rows) -> Matroid:
    """A fresh matroid with matrix rows ``rows`` and labels 1..n."""
    return Matroid(BitMatrix(r, n, tuple(rows)), tuple(range(1, n + 1)))


def random_simple_cosimple(rng: random.Random, n: int, r: int) -> Matroid:
    """A uniformly drawn [I_r | D], redrawn until simple and cosimple."""
    while True:
        m = from_rows(r, n, ((1 << i) | (rng.getrandbits(n - r) << r) for i in range(r)))
        if simplicity(m) == (True, True):
            return m


def same_profile_pairs(count: int, n: int = 11, r: int = 5) -> list[tuple[Matroid, Matroid]]:
    """The first ``count`` pairs, in a fixed random stream, of simple and
    cosimple matroids with equal cycle and cocycle weight enumerators but
    different canonical keys.  Nothing cheaper than a complete
    isomorphism invariant tells the two apart."""
    rng = _rng("same-profile-pairs", 0)
    seen: dict = {}
    pairs = []
    while len(pairs) < count:
        m = random_simple_cosimple(rng, n, r)
        by_key = seen.setdefault(weight_profile(m), {})
        key = canonical_key(m)
        if key not in by_key:
            if by_key:
                pairs.append((next(iter(by_key.values())), m))
            by_key[key] = m
    return pairs


def minor_query_batches(seed: int):
    """Endless batches; each holds one fresh random simple and cosimple
    matroid per (size, rank) class, in a seeded order, so the size mix
    of every run is exact and only the matroids themselves vary."""
    rng = _rng("minor-query", seed)
    while True:
        classes = list(MINOR_CLASSES)
        rng.shuffle(classes)
        yield [random_simple_cosimple(rng, n, r) for n, r in classes]


BATCHES = {"iso-relabel": iso_relabel_batches, "minor-query": minor_query_batches}


def _matroid_bytes(m: Matroid) -> bytes:
    return f"{m.rank}/{m.size}/{','.join(map(str, m.matrix.rows))};".encode()


def input_digest(workload: str, seed: int, batches: int = 2) -> str:
    """sha256 of the first ``batches`` batches of a workload's inputs."""
    h = hashlib.sha256()
    gen = BATCHES[workload](seed)
    for _ in range(batches):
        for item in next(gen):
            m = item[1] if isinstance(item, tuple) else item
            h.update(_matroid_bytes(m))
    return h.hexdigest()


def _ranked(samples: list[float], weights: list[float] | None):
    """Samples sorted by value, with their cumulative weight (all weights
    1 when ``weights`` is None) and the total weight."""
    if not samples:
        raise ValueError("no samples")
    pairs = sorted(zip(samples, weights or [1] * len(samples)))
    cum = list(accumulate(w for _, w in pairs))
    return [v for v, _ in pairs], cum, cum[-1]


def _rank(cum: list[float], total: float, percentile: float) -> int:
    """Index of the first sample whose cumulative weight reaches the
    percentile: the nearest-rank rule, exact for integer weights."""
    return bisect_left(cum, percentile / 100 * total * (1 - 1e-12))


def quantile(samples: list[float], percentile: float, weights: list[float] | None = None) -> float:
    values, cum, total = _ranked(samples, weights)
    return values[_rank(cum, total, percentile)]


def tail_percentile(samples: list[float], preferred: float, weights: list[float] | None = None):
    """(percentile, value, samples beyond it) by the nearest-rank rule.

    ``preferred`` is used when at least ten samples lie beyond it;
    otherwise the sample with exactly ten beyond, at its own percentile
    rounded down to a tenth.  With ten samples or fewer no percentile
    leaves ten beyond, and the maximum is reported (percentile 100, none
    beyond).  ``weights``, if given, weight the samples' ranks.
    """
    values, cum, total = _ranked(samples, weights)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1], 0
    k = _rank(cum, total, preferred)
    if n - 1 - k >= 10:
        return preferred, values[k], n - 1 - k
    k = n - 11
    return floor(cum[k] / total * 1000 * (1 + 1e-12)) / 10, values[k], 10
