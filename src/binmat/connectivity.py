"""Connectivity function, k-separations, and their enumeration.

lambda(X) = r(X) + r(E - X) - r(M).  A single value is two subset ranks
(`Matroid.rank_of_mask`, two lookups each in the matroid's rank tables),
including lambda in a minor M \\ D / C, whose rank function is
r(Y u C) - r(C) on E - D - C: no minor is built.  Separations
are label sets, one side each.  Enumeration is exhaustive over the
bipartitions (ground sets here never exceed ~15 elements), each taken once,
and each connectivity predicate is one sweep over rows of lambda: the
2^(n//2) sides that share their high half, read as two `matroid.rank_row`
rows added entry by entry, one of them reversed for the complements.
"""

from __future__ import annotations

from functools import cache
from operator import add

from .matroid import Matroid, is_union_of_circuits, is_union_of_cocircuits, rank_row


def lam(m: Matroid, x, deletions=(), contractions=()) -> int:
    """The connectivity function lambda(X) = r(X) + r(E-X) - r(M), by
    default of m itself, else of the minor m \\ deletions / contractions
    that `remove` would build: r(X u C) + r(E-D-X) - r(E-D) - r(C) in m's
    ranks.  X must avoid D and C, which must not overlap."""
    mask = m.mask_of(x)
    dmask = m.mask_of(deletions)
    cmask = m.mask_of(contractions)
    if dmask & cmask:
        raise ValueError("deletions and contractions overlap")
    if mask & (dmask | cmask):
        raise ValueError("the set meets the removed elements")
    rest, r = m.full_mask & ~dmask, m.rank_of_mask
    return r(mask | cmask) + r(rest & ~mask) - r(rest) - r(cmask)


def _lam_mask(m: Matroid, mask: int) -> int:
    return m.rank_of_mask(mask) + m.rank_of_mask(m.full_mask & ~mask) - m.rank


@cache
def _by_size(h: int) -> tuple[tuple[int, ...], ...]:
    """The subsets of h positions by size: entry j holds those of j elements."""
    return tuple(tuple(s for s in range(1 << h) if s.bit_count() == j) for j in range(h + 1))


def _lam_rows(m: Matroid):
    """(t, row) for each subset t of positions h..n-2 (h = n // 2), shifted
    down by h: ``row[s]`` is lambda(X) + r(M) for X = s | t << h.  Each X
    avoids position n - 1, so each bipartition is met once, by its side X,
    whose complement's ranks are the row of top ^ t read backwards."""
    top = (1 << (m.size - m.size // 2)) - 1
    for t in range(top + 1 >> 1):
        yield t, list(map(add, rank_row(m, t), reversed(rank_row(m, top ^ t))))


def _lam_bounded_below(m: Matroid, floor) -> bool:
    """True iff lambda(X) >= floor(s) for every bipartition (X, E - X),
    s the size of its smaller side: per row, the least value over the
    sides X of each size j."""
    n = m.size
    least = [floor(min(j, n - j)) + m.rank for j in range(n + 1)]
    for t, row in _lam_rows(m):
        for j, ss in enumerate(_by_size(n // 2), t.bit_count()):
            if min(map(row.__getitem__, ss)) < least[j]:
                return False
    return True


def is_n_connected(m: Matroid, n: int) -> bool:
    """True iff m has no k-separation for any k <= n - 1: a bipartition
    with smaller side s is one for some such k iff lambda < min(s, n - 1)."""
    if n < 2:
        raise ValueError("n-connectivity is defined for n >= 2")
    return _lam_bounded_below(m, lambda s: min(s, n - 1))


def is_internally_4_connected(m: Matroid) -> bool:
    """3-connected with lambda(A) >= 3 whenever both sides have >= 4 elements."""
    return _lam_bounded_below(m, lambda s: min(s, 2) if s <= 3 else 3)


def bridging_value(m: Matroid, a, b) -> int:
    """k_M(A, B) = min lambda(X) over all X with A subset X subset E - B."""
    amask = m.mask_of(a)
    bmask = m.mask_of(b)
    if amask & bmask:
        raise ValueError("sides overlap")
    free = m.full_mask & ~amask & ~bmask
    best = _lam_mask(m, amask | free)
    sub = free
    while sub:  # every submask of free, down to 0
        sub = (sub - 1) & free
        best = min(best, _lam_mask(m, amask | sub))
    return best


def nonminimal_exact_3seps(m: Matroid, require_unions: bool = False) -> list[frozenset[int]]:
    """One side of each non-minimal exact 3-separation (both sides of at
    least 4 elements, lambda = 2).

    The reported side is the lexicographically smaller one (by sorted
    label tuple); the result is sorted the same way.  With
    ``require_unions`` a side qualifies only if it is both a union of
    circuits and a union of cocircuits: a partition is kept if a side
    qualifies, reporting the smaller qualifying side.
    """
    out = []
    h, target = m.size // 2, m.rank + 2
    for t, row in _lam_rows(m):
        for s, value in enumerate(row):
            mask = s | t << h
            if value != target or not 4 <= mask.bit_count() <= m.size - 4:
                continue
            sides = sorted((m.labels_of(mask), m.labels_of(m.full_mask & ~mask)), key=sorted)
            if require_unions:
                sides = [x for x in sides if is_union_of_circuits(m, x) and is_union_of_cocircuits(m, x)]
            if sides:
                out.append(sides[0])
    return sorted(out, key=sorted)
