"""Connectivity function, k-separations, and their enumeration.

lambda(X) = r(X) + r(E - X) - r(M).  Every value is read off the matroid's
memoized subset ranks, including lambda in a minor M \\ D / C, whose rank
function is r(Y u C) - r(C) on E - D - C: no minor is built.  Separation
enumeration is exhaustive over subsets (ground sets here never exceed ~15
elements) with complement deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matroid import Matroid, is_union_of_circuits_and_cocircuits


@dataclass(frozen=True)
class Separation:
    side_a: frozenset[int]
    side_b: frozenset[int]
    lambda_value: int
    exact: bool


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


def classify_separation(m: Matroid, a, k: int) -> Separation:
    """Classify the partition (a, E - a) as a k-separation."""
    mask = m.mask_of(a)
    side_a = m.labels_of(mask)
    side_b = m.labels_of(m.full_mask & ~mask)
    if len(side_a) < k or len(side_b) < k:
        raise ValueError(f"both sides must have at least {k} elements")
    lv = _lam_mask(m, mask)
    return Separation(side_a, side_b, lv, lv == k - 1)


def _bipartitions(size: int, k: int):
    """One side's mask of each bipartition of ``size`` positions, taken
    once, with both sides of at least ``k`` elements."""
    # Fix position 0 on side A to take each partition once.
    for sub in range(1 << (size - 1)):
        mask = (sub << 1) | 1
        na = mask.bit_count()
        if na >= k and size - na >= k:
            yield mask


def is_n_connected(m: Matroid, n: int) -> bool:
    """True iff m has no k-separation for any k <= n - 1."""
    if n < 2:
        raise ValueError("n-connectivity is defined for n >= 2")
    for k in range(1, n):
        if 2 * k > m.size:
            continue
        if any(_lam_mask(m, mask) <= k - 1 for mask in _bipartitions(m.size, k)):
            return False
    return True


def is_internally_4_connected(m: Matroid) -> bool:
    """3-connected with lambda(A) >= 3 whenever both sides have >= 4 elements."""
    if not is_n_connected(m, 3):
        return False
    return all(_lam_mask(m, mask) >= 3 for mask in _bipartitions(m.size, 4))


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


def nonminimal_exact_3seps(m: Matroid, require_unions: bool = False) -> list[Separation]:
    """All non-minimal exact 3-separations, one per complementary pair.

    The reported side of each partition is the lexicographically smaller
    one (by sorted label tuple); the result is sorted by that side.  With
    ``require_unions`` only sides that are both a union of circuits and a
    union of cocircuits survive (applied to the reported side).
    """
    seen = set()
    out = []
    for mask in _bipartitions(m.size, 4):
        if _lam_mask(m, mask) != 2:
            continue
        comp = m.full_mask & ~mask
        a = tuple(sorted(m.labels_of(mask)))
        b = tuple(sorted(m.labels_of(comp)))
        rep = min(a, b)
        if rep in seen:
            continue
        seen.add(rep)
        if require_unions:
            # Keep the partition if some side qualifies; report that side.
            for side in (rep, max(a, b)):
                uc, ucc = is_union_of_circuits_and_cocircuits(m, side)
                if uc and ucc:
                    rep = side
                    break
            else:
                continue
        out.append(classify_separation(m, rep, 3))
    out.sort(key=lambda s: tuple(sorted(s.side_a)))
    return out
