"""Connectivity function, k-separations, and their enumeration.

lambda(X) = r(X) + r(E - X) - r(M).  Every value is two subset ranks
(`Matroid.rank_of_mask`, two lookups each in the matroid's rank tables),
including lambda in a minor M \\ D / C, whose rank function is
r(Y u C) - r(C) on E - D - C: no minor is built.  Separations
are label sets, one side each.  Enumeration is exhaustive over the
bipartitions (ground sets here never exceed ~15 elements), each taken once,
and each connectivity predicate is one sweep that evaluates lambda once
per bipartition.
"""

from __future__ import annotations

from .matroid import Matroid, is_union_of_circuits, is_union_of_cocircuits


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


def _bipartitions(size: int, k: int):
    """One side's mask of each bipartition of ``size`` positions, taken
    once, with both sides of at least ``k`` elements."""
    # Fix position 0 on side A to take each partition once.
    for sub in range(1 << size >> 1):
        mask = (sub << 1) | 1
        na = mask.bit_count()
        if na >= k and size - na >= k:
            yield mask


def _lam_bounded_below(m: Matroid, floor) -> bool:
    """True iff lambda(X) >= floor(s) for every bipartition (X, E - X),
    s the size of its smaller side."""
    for mask in _bipartitions(m.size, 1):
        na = mask.bit_count()
        if _lam_mask(m, mask) < floor(min(na, m.size - na)):
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
    for mask in _bipartitions(m.size, 4):
        if _lam_mask(m, mask) != 2:
            continue
        sides = sorted((m.labels_of(mask), m.labels_of(m.full_mask & ~mask)), key=sorted)
        if require_unions:
            sides = [s for s in sides if is_union_of_circuits(m, s) and is_union_of_cocircuits(m, s)]
        if sides:
            out.append(sides[0])
    return sorted(out, key=sorted)
