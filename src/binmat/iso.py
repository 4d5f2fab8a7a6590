"""Isomorphism of binary matroids: canonical keys for hashing, a
first-match search for deciding.

Binary matroids are uniquely GF(2)-representable, so two of them are
isomorphic iff some choice of basis and row order makes their reduced
D blocks equal up to column order.

`isomorphism` decides one pair: it fixes the target's own [I_r | D],
tries the other matroid's bases in turn and assigns their rows to the
target's rows one at a time, pruning as soon as the sorted column
projections onto the assigned rows differ from the target's.  The first
complete assignment is returned as an element bijection.

The search is guided by element colours (`element_colours`): each
element's counts, by weight, of the cocycle-space vectors that contain
it, after the refinement idea of McKay and Piperno (cited below).  They
are read off `cocycle_index` (kept in `matroid`, whose rank tables read
it too), the cocycle masks transposed and cached: mask i is the sum of
the rows k with bit k of i set (`gf2.span`), so the masks that contain
an element are found from its column alone, as one index mask, and a
count is one intersection with the index mask of the masks of one
weight.  A pair whose colour multisets differ is rejected at once.
The other matroid's bases are enumerated by a pruned depth-first walk
over positions in increasing order that visits only the bases with
the colour multiset of the target's basis, in ``combinations`` order; a
row goes only to a target row of its colour.  Colours cut only branches
that cannot succeed, so the first match is the one the unguided search
would find.

Every weight invariant here reads the cocycle space alone.  Over GF(2)
the cycle space is its orthogonal complement, so by the MacWilliams
identity (F. J. MacWilliams, "A theorem on the distribution of weights
in a systematic code", Bell Syst. Tech. J. 1963) the cocycle weight
enumerator of a matroid of known size fixes its cycle enumerator.  An
element's cocycle colour likewise fixes its cycle colour: the cocycles
avoiding e are those of M / e, whose cycles are M's with e removed.
`weight_profile` counts the index masks of each weight, and the minor
search (`structure.has_any_minor`) reads the enumerator of each minor
it considers off its parent's index, without building the minor.

`canonical_key` is for hashing many matroids at once: it minimizes the
D block over all bases and all row orders (columns kept sorted), with
branch-and-bound pruning on the partial sorted column prefixes: while a
prefix equals the best leaf's, each child is compared at its new depth
alone.  Keys are deterministic byte strings, invariant under relabeling,
row operations and column permutation.

The basis loop is pruned by automorphisms, after the idea in McKay and
Piperno, "Practical graph isomorphism II" (J. Symb. Comput. 2014).  A
row-order search that reaches a leaf equal to the best one so far has
found two presentations of the same [I_r | D]; matching their elements
column by column is an automorphism.  Bases in the orbit of a searched
basis under the group these generate give the same D blocks, so they are
skipped.  An automorphism is kept as a generator only if it enlarges the
set of skipped bases when found.  This only saves work: the key is still
the minimum over every basis and row order.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from itertools import combinations

from .gf2 import reduce_rows, transpose
from .matroid import Matroid, cocycle_index, dual


def _reduced_coords(m: Matroid, basis_positions: tuple[int, ...]):
    """Express every non-basis column in coordinates over the basis columns.

    Returns a list whose entry for column j has bit k = coefficient of
    basis column k in column j, or None when the chosen columns are
    dependent.
    """
    rows = list(m.matrix.rows)
    if len(reduce_rows(rows, basis_positions)) < m.rank:
        return None
    basis_set = set(basis_positions)
    return [c for j, c in enumerate(transpose(rows, m.size)) if j not in basis_set]


def _fixed_form(t: Matroid):
    """t's D columns in its own [I_r | D], their sorted weights, and for
    each depth d the sorted projections of the columns onto rows 0..d-1."""
    cols = t._cols[t.rank :]
    weights = sorted(c.bit_count() for c in cols)
    projections = [sorted(c & ((1 << d) - 1) for c in cols) for d in range(t.rank + 1)]
    return cols, weights, projections


def _match_rows(
    coords: list[int], r: int, projections, row_colours, target_colours
) -> list[int] | None:
    """Basis rows for target rows 0..r-1 that give the target's columns.

    ``coords`` holds the non-basis columns in basis coordinates (bit k =
    row k).  Rows are assigned depth by depth, basis row p to target row d
    only when ``row_colours[p] == target_colours[d]``; a branch is pruned
    as soon as the sorted partial columns differ from the target's
    projections.
    """
    nd = len(coords)

    def recurse(partial: tuple[int, ...], remaining: list[int]):
        depth = r - len(remaining)
        if not remaining:
            return []
        for idx, p in enumerate(remaining):
            if row_colours[p] != target_colours[depth]:
                continue
            nxt = tuple(partial[j] | (((coords[j] >> p) & 1) << depth) for j in range(nd))
            if sorted(nxt) != projections[depth + 1]:
                continue
            rest = recurse(nxt, remaining[:idx] + remaining[idx + 1 :])
            if rest is not None:
                return [p] + rest
        return None

    return recurse((0,) * nd, list(range(r)))


def element_colours(m: Matroid) -> tuple:
    """Each element's colour, in column order: the numbers of cocycle-space
    vectors of each weight that contain it, as a tuple indexed by weight.

    An isomorphism carries every element to one of the same colour.  The
    colours are read off `cocycle_index`, intersecting the masks that
    contain an element with those of each weight, and cached on m.
    """
    if m._element_colours is None:
        of_weight, contains = cocycle_index(m)
        m._element_colours = tuple(tuple([(c & ow).bit_count() for ow in of_weight]) for c in contains)
    return m._element_colours


def _colour_bases(colours: list, target: list):
    """The positions 0..n-1 chosen len(target) at a time whose colours, as
    a multiset, equal ``target``'s, in ``combinations`` order.

    A depth-first walk over the positions in increasing order takes a
    position while its colour is still needed, and may pass it over only
    while enough positions of its colour remain after it.  Every branch
    so ends in a basis, and no other subset is visited.
    """
    n = len(colours)
    later = [0] * n  # positions after p with p's colour
    seen: Counter = Counter()
    for p in range(n - 1, -1, -1):
        later[p] = seen[colours[p]]
        seen[colours[p]] += 1
    need = Counter(target)
    if any(seen[c] < k for c, k in need.items()):
        return
    chosen: list[int] = []

    def walk(start: int, todo: int):
        if not todo:
            yield tuple(chosen)
            return
        for p in range(start, n):
            c = colours[p]
            if need[c]:
                need[c] -= 1
                chosen.append(p)
                yield from walk(p + 1, todo - 1)
                chosen.pop()
                need[c] += 1
            if later[p] < need[c]:  # passing p over would leave too few of c
                return

    yield from walk(0, len(target))


def isomorphism(m: Matroid, t: Matroid) -> dict[int, int] | None:
    """An isomorphism from m onto t as a label map, or None if there is none.

    The first basis of m (in ``combinations`` order) whose reduced columns
    can be row-permuted onto t's D block gives the map: basis elements go
    to t's basis by row, and non-basis elements to the t column of equal
    value, duplicates taken in order.

    Every isomorphism preserves `element_colours`, each element's counts,
    by weight, of the cocycle-space vectors that contain it, read off m's
    cached cocycle masks.  So the search returns None at once when the two
    colour multisets differ, and assigns a basis row only to a target row
    of its colour.  The bases are enumerated by `_colour_bases`: only the
    position sets whose colour multiset equals that of t's basis, in
    ``combinations`` order, by a depth-first walk that never enters a
    branch without such a set.  Only branches that cannot succeed are
    cut, so the first match is the one the unpruned search finds.
    """
    r, n = t.rank, t.size
    if (m.rank, m.size) != (r, n):
        return None
    m_colours, t_colours = element_colours(m), element_colours(t)
    if sorted(m_colours) != sorted(t_colours):
        return None
    ids = {c: i for i, c in enumerate(set(t_colours))}
    m_ids = [ids[c] for c in m_colours]
    t_ids = [ids[c] for c in t_colours]
    cols, weights, projections = _fixed_form(t)
    for basis in _colour_bases(m_ids, t_ids[:r]):
        coords = _reduced_coords(m, basis)
        if coords is None or sorted(c.bit_count() for c in coords) != weights:
            continue
        order = _match_rows(coords, r, projections, [m_ids[p] for p in basis], t_ids)
        if order is None:
            continue
        mapping = {m.labels[basis[p]]: t.labels[i] for i, p in enumerate(order)}
        slots: dict[int, list[int]] = {}
        for j, c in enumerate(cols):
            slots.setdefault(c, []).append(r + j)
        nonbasis = [j for j in range(n) if j not in basis]
        for j, c in zip(nonbasis, coords):
            image = sum(((c >> p) & 1) << i for i, p in enumerate(order))
            mapping[m.labels[j]] = t.labels[slots[image].pop(0)]
        return mapping
    return None


def _min_key_for_basis(basis: tuple[int, ...], coords: list[int], best, automorphisms: list):
    """Minimize the D block over row orders, in row-major order.

    ``coords`` holds the non-basis columns in basis coordinates (bit k =
    row k).  A row order (p_1 .. p_r) turns column c into the value with
    p_1 as the most significant bit; the key is the sorted column tuple
    of the row-major-minimal matrix.  Branch and bound on the sorted
    prefixes, which determine the row-major string exactly at each depth.
    A node is tight when its sorted prefixes equal the incumbent's through
    its depth; otherwise it is strictly below the incumbent.  A tight node
    compares each child at the child's depth alone, and stops at the first
    child above the incumbent (children come sorted); children of a node
    strictly below need no comparison.  A new incumbent makes every node
    on the current path tight.

    ``best`` is the incumbent leaf as (key, projections, frame) or None,
    and the improved incumbent is returned.  A leaf's frame lists its
    element positions in presentation order: the basis by row, then the
    non-basis columns by value, equal values by position.  A tight leaf
    presents the matroid exactly as the incumbent does, so mapping its
    frame onto the incumbent's is an automorphism, which is appended to
    ``automorphisms`` as a position map.
    """
    r, nd = len(basis), len(coords)
    nonbasis = [j for j in range(r + nd) if j not in basis]
    state = [best]

    def frame(order: tuple[int, ...], values: list[int]) -> list[int]:
        by_value = sorted(range(nd), key=values.__getitem__)
        return [basis[p] for p in order] + [nonbasis[j] for j in by_value]

    def recurse(partial: list[int], remaining: list[int], order: tuple[int, ...], tight: bool) -> bool:
        """Search below one node; True when it set a new incumbent."""
        depth = r - len(remaining)
        if not remaining:
            if tight:
                pairs = sorted(zip(frame(order, partial), state[0][2]))
                automorphisms.append(tuple(dst for _, dst in pairs))
                return False
            leaf = tuple(sorted(partial))
            prefixes = [tuple(x >> (r - 1 - d) for x in leaf) for d in range(r)]  # depths 1..r
            state[0] = (leaf, prefixes, frame(order, partial))
            return True
        children = []
        for idx, p in enumerate(remaining):
            nxt = [(partial[j] << 1) | ((coords[j] >> p) & 1) for j in range(nd)]
            children.append((tuple(sorted(nxt)), tuple(nxt), idx, nxt))
        children.sort()  # siblings share ancestry, so sorted tuples rank them
        seen = set()
        improved = False
        for skey, exact, idx, nxt in children:
            if exact in seen:  # the two rows are equal, so their subtrees coincide
                continue
            seen.add(exact)
            if tight and skey > state[0][1][depth]:
                break
            rest = remaining[:idx] + remaining[idx + 1 :]
            if recurse(nxt, rest, order + (remaining[idx],), tight and skey == state[0][1][depth]):
                improved = tight = True
        return improved

    recurse([0] * nd, list(range(r)), (), best is not None)
    return state[0]


def _mask_map(perm: tuple[int, ...]):
    """The map of position masks through the position map ``perm``, as a
    function reading one 256-entry table per byte of the mask."""
    tables = []
    for base in range(0, len(perm), 8):
        table = [0]
        for p in perm[base : base + 8]:
            table += [t | (1 << p) for t in table]
        tables.append(table)

    def image(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & 255]
            mask >>= 8
        return out

    return image


def canonical_form(m: Matroid) -> tuple[int, int, tuple[int, ...]]:
    """(rank, size, minimal sorted D columns) over all bases and row orders.

    Bases are searched in ``combinations`` order, pruned by the
    automorphisms that the row-order searches find.  An automorphism
    carrying a searched basis B onto B' carries each row order of B to a
    row order of B' with the same D columns, so B' need not be searched:
    ``covered`` holds the orbits of the searched bases, as position
    masks, under the group that the kept automorphisms generate, and the
    bases in it are skipped.  An automorphism is kept as a generator only
    if it carries ``covered`` beyond itself when found; one that does not
    is dropped and not tested again.  Dropping one only skips fewer bases,
    so the key is the same as without the pruning.
    """
    r, n = m.rank, m.size
    if r == 0:
        return (0, n, (0,) * n)
    best = None
    # position map -> its mask map if kept as a generator, None if dropped
    generators: dict[tuple[int, ...], Callable[[int], int] | None] = {}
    covered: set[int] = set()

    def close(new: set[int]) -> None:
        while new:
            covered.update(new)
            new = {image for g in generators.values() if g for image in map(g, new)} - covered

    bits = [1 << p for p in range(n)]
    for basis, mask in zip(combinations(range(n), r), map(sum, combinations(bits, r))):
        if mask in covered:
            continue
        coords = _reduced_coords(m, basis)
        if coords is None:
            continue
        found: list[tuple[int, ...]] = []
        best = _min_key_for_basis(basis, coords, best, found)
        close({mask})
        for g in found:
            if g not in generators:
                image = _mask_map(g)
                new = set(map(image, covered)) - covered
                generators[g] = image if new else None
                close(new)
    return (r, n, best[0])


def canonical_key(m: Matroid) -> bytes:
    """A byte string equal for two matroids iff they are isomorphic.

    When the corank is smaller than the rank the dual is canonicalised
    instead (isomorphism commutes with duality), which keeps the basis
    search over the smaller of the two row counts.
    """
    use_dual = m.size - m.rank < m.rank
    r, n, cols = canonical_form(dual(m) if use_dual else m)
    return (("d" if use_dual else "") + f"{r}|{n}|" + ",".join(map(str, cols))).encode()


def weight_profile(m: Matroid) -> tuple[int, ...]:
    """Weight enumerator of the cocycle space (iso invariant), read off
    `cocycle_index`."""
    return tuple(ow.bit_count() for ow in cocycle_index(m)[0])


def are_isomorphic(m: Matroid, other: Matroid) -> bool:
    """True iff some ground-set bijection carries circuits to circuits."""
    return isomorphism(m, other) is not None


class IsoIndex:
    """One value per isomorphism class: matroids are bucketed by weight
    profile, which fixes rank and size, and `isomorphism` onto the
    class's first matroid confirms."""

    def __init__(self):
        self._buckets: dict[tuple, list[tuple[Matroid, object]]] = {}

    def find(self, m: Matroid, make: Callable[[], object]):
        """(value, map) for m's class: the map is `isomorphism` from m onto
        the class's first matroid, which is kept, or None when m is that
        matroid itself, found by identity without a search.  A new class
        gets ``make()``, kept with m itself, so its map is None too."""
        bucket = self._buckets.setdefault(weight_profile(m), [])
        for kept, value in bucket:
            if kept is m:
                return value, None
        for kept, value in bucket:
            if (found := isomorphism(m, kept)) is not None:
                return value, found
        value = make()
        bucket.append((m, value))
        return value, None
