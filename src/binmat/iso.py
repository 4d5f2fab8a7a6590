"""Isomorphism of binary matroids via canonical representations.

Binary matroids are uniquely GF(2)-representable, so two of them are
isomorphic iff some choice of basis and column order makes their reduced
D blocks equal.  The canonical key minimizes the D block over all bases
and all row orders (columns kept sorted), with branch-and-bound pruning
on the partial sorted column prefixes.  Keys are deterministic byte
strings, invariant under relabeling, row operations and column
permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .gf2 import BitVector, reduce_rows
from .matroid import Matroid, dual


def _reduced_coords(m: Matroid, basis_positions: tuple[int, ...]):
    """Express every non-basis column in coordinates over the basis columns.

    Returns a list whose entry for column j has bit k = coefficient of
    basis column k in column j, or None when the chosen columns are
    dependent.
    """
    r = m.rank
    rows = list(m.matrix.rows)
    if len(reduce_rows(rows, basis_positions)) < r:
        return None
    basis_set = set(basis_positions)
    return [
        sum(((rows[k] >> j) & 1) << k for k in range(r))
        for j in range(m.size)
        if j not in basis_set
    ]


def _projections(t: tuple[int, ...], depth: int) -> list[tuple[int, ...]]:
    """Per-depth prefix projections of a sorted depth-``depth`` tuple."""
    return [tuple(x >> (depth - s) for x in t) for s in range(1, depth + 1)]


def _min_key_for_basis(coords: list[int], r: int, best):
    """Minimize the D block over row orders, in row-major order.

    ``coords`` holds the non-basis columns in basis coordinates (bit k =
    row k).  A row order (p_1 .. p_r) turns column c into the value with
    p_1 as the most significant bit; the key is the sorted column tuple
    of the row-major-minimal matrix.  Branch and bound on the sorted
    prefixes, which determine the row-major string exactly at each depth.
    The incumbent's projections are cached; candidate projections are
    built shallowest-first with early exit.
    """
    nd = len(coords)
    state = [best, None if best is None else _projections(best, r)]

    def rm_vs_best(skey: tuple[int, ...], depth: int) -> int:
        projs = state[1]
        for s in range(1, depth + 1):
            pa = tuple(x >> (depth - s) for x in skey)
            pb = projs[s - 1]
            if pa != pb:
                return -1 if pa < pb else 1
        return 0

    def recurse(partial: list[int], remaining: list[int]):
        depth = r - len(remaining)
        if not remaining:
            leaf = tuple(sorted(partial))
            if state[0] is None or rm_vs_best(leaf, r) < 0:
                state[0] = leaf
                state[1] = _projections(leaf, r)
            return
        children = []
        for idx, p in enumerate(remaining):
            nxt = [(partial[j] << 1) | ((coords[j] >> p) & 1) for j in range(nd)]
            children.append((tuple(sorted(nxt)), tuple(nxt), idx, nxt))
        children.sort()  # siblings share ancestry, so sorted tuples rank them
        seen = set()
        for skey, exact, idx, nxt in children:
            if exact in seen:
                # Equal exact nxt vectors mean the two rows have identical
                # bit patterns across all columns, so their subtrees coincide.
                continue
            seen.add(exact)
            if state[0] is not None and rm_vs_best(skey, depth + 1) > 0:
                continue
            recurse(nxt, remaining[:idx] + remaining[idx + 1 :])

    recurse([0] * nd, list(range(r)))
    return state[0]


def canonical_form(m: Matroid) -> tuple[int, int, tuple[int, ...]]:
    """(rank, size, minimal sorted D columns) over all bases and row orders."""
    r, n = m.rank, m.size
    if r == 0:
        return (0, n, (0,) * n)
    best = None
    for basis in combinations(range(n), r):
        coords = _reduced_coords(m, basis)
        if coords is None:
            continue
        best = _min_key_for_basis(coords, r, best)
    return (r, n, best)


def canonical_key(m: Matroid) -> bytes:
    """A byte string equal for two matroids iff they are isomorphic.

    When the corank is smaller than the rank the dual is canonicalised
    instead (isomorphism commutes with duality), which keeps the basis
    search over the smaller of the two row counts.
    """
    if m._canonical_key is None:
        if m.size - m.rank < m.rank:
            r, n, cols = canonical_form(dual(m))
            m._canonical_key = (f"d{r}|{n}|" + ",".join(map(str, cols))).encode()
        else:
            r, n, cols = canonical_form(m)
            m._canonical_key = (f"{r}|{n}|" + ",".join(map(str, cols))).encode()
    return m._canonical_key


def weight_profile(m: Matroid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Weight enumerators of the cycle and cocycle spaces (iso invariant)."""
    cyc = [0] * (m.size + 1)
    for mk in m.cycle_masks():
        cyc[mk.bit_count()] += 1
    coc = [0] * (m.size + 1)
    for mk in m.cocycle_masks():
        coc[mk.bit_count()] += 1
    return tuple(cyc), tuple(coc)


def are_isomorphic(m: Matroid, other: Matroid) -> bool:
    """True iff some ground-set bijection carries circuits to circuits."""
    if m.rank != other.rank or m.size != other.size:
        return False
    if weight_profile(m) != weight_profile(other):
        return False
    return canonical_key(m) == canonical_key(other)


@dataclass
class IsoClass:
    """A group of generator vectors whose children are pairwise isomorphic."""

    representative: Matroid
    members: list[BitVector]


def partition_into_classes(candidates) -> list[IsoClass]:
    """Group (generator, matroid) pairs by canonical key.

    Each class records all generators in ascending bracket-value order;
    the representative is the child of the least generator.  Classes are
    ordered by their least generator.
    """
    groups: dict[bytes, IsoClass] = {}
    for gen, child in sorted(candidates, key=lambda t: t[0].value):
        key = canonical_key(child)
        cls = groups.get(key)
        if cls is None:
            groups[key] = IsoClass(child, [gen])
        else:
            cls.members.append(gen)
    return sorted(groups.values(), key=lambda c: c.members[0].value)
