"""The labeled binary matroid value type and its structural queries.

A :class:`Matroid` is a standard-form representation [I_r | D] over GF(2)
together with an ordered tuple of distinct positive integer labels, one
per column.  Public operations speak in labels, except those named for
masks, which work on bit positions.  Instances are immutable after
construction and cache the cocycle space transposed (`cocycle_index`),
the two half-tables subset ranks are read off (`rank_tables`), element
colours and growth classes of each kind
(`extension.enumerate_growth_classes`) internally.  Circuits and
cocircuits are decided by rank on label sets (`is_circuit`,
`is_cocircuit`), never listed.

Two instances are equal when they are the same labelled matroid: with
columns in label order their matrices have one row space (a binary
matroid has one representation up to row operations), and `pivots_first`
over that order gives one form for it.  No space is listed.

Ranks need no elimination.  The row vectors that vanish on a set X form
a space of dimension r - r(X), so r(X) = r - log2 A(X), where A(X)
counts the cocycle-space vectors that avoid X.  Those vectors are the
AND of ``~contains[p]`` over p in X, one index mask.  `rank_tables`
keeps that AND for every subset of the first h = n // 2 positions and
for every subset of the rest, so each rank is two lookups, one AND and
a popcount; `rank_row` reads the ranks of the 2^h sets with one high
half as one pass over the low table.  The tables hold 2^(n//2) +
2^(n - n//2) masks of 2^r bits, so they are kept only for n <= 16 and
r <= 12 (at most 256 KB; the catalog's matroids have n <= 15, r <= 11).
A larger matroid's ranks are eliminated per call (`gf2.rank_of_columns`),
so one question about a large input stays cheap.
"""

from __future__ import annotations

from functools import cache

from .gf2 import BitMatrix, cycle_space_masks, pivots_first, rank_of_columns, reduce_rows, span, standard_form


class Matroid:
    """A binary matroid given by a standard-form matrix and column labels."""

    def __init__(self, matrix: BitMatrix, labels: tuple[int, ...]):
        r, n = matrix.nrows, matrix.ncols
        if len(labels) != n:
            raise ValueError("one label per column required")
        if len(set(labels)) != n:
            raise ValueError("labels must be distinct")
        cols = [0] * n  # bit i of column j = row i; one pass over each row's set bits
        for i, row in enumerate(matrix.rows):
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= 1 << i
                row ^= low
        self._cols = tuple(cols)
        if self._cols[:r] != tuple(1 << i for i in range(r)):
            raise ValueError("matrix is not in standard form [I_r | D]")
        self.matrix = matrix
        self.labels = tuple(labels)
        self.rank = r
        self.size = n
        self._pos = {lab: p for p, lab in enumerate(self.labels)}
        self._cocycle_index: tuple | None = None
        self._rank_tables: tuple | None = None
        self._element_colours: tuple | None = None
        self._growth_classes: dict[str, tuple] = {}  # kind -> `extension.enumerate_growth_classes`

    # -- label/mask bookkeeping -------------------------------------------

    def ground_set(self) -> frozenset[int]:
        return frozenset(self.labels)

    def mask_of(self, elements) -> int:
        mask = 0
        for e in elements:
            p = self._pos.get(e)
            if p is None:
                raise ValueError(f"unknown element label {e}")
            mask |= 1 << p
        return mask

    def labels_of(self, mask: int) -> frozenset[int]:
        return frozenset(self.labels[p] for p in range(self.size) if (mask >> p) & 1)

    def column_of(self, label: int) -> int:
        p = self._pos.get(label)
        if p is None:
            raise ValueError(f"unknown element label {label}")
        return self._cols[p]

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    # -- rank -------------------------------------------------------------

    def rank_of_mask(self, mask: int) -> int:
        """r(X) for the positions X in ``mask``: r + 1 minus the bit length
        of A(X), read off `rank_tables`, or by elimination for a matroid
        too large to tabulate."""
        tables = self._rank_tables or rank_tables(self)
        if tables is None:
            return rank_of_columns(self._cols[p] for p in range(self.size) if (mask >> p) & 1)
        h, low, high = tables
        return self.rank + 1 - (low[mask & (len(low) - 1)] & high[mask >> h]).bit_count().bit_length()

    def rank_of(self, elements) -> int:
        return self.rank_of_mask(self.mask_of(elements))

    # -- cycle and cocycle space ------------------------------------------

    def cycle_masks(self) -> list[int]:
        """All vectors of the cycle space (null space) as position masks,
        computed on each call.  Nothing in the package reads it; it is
        kept because the benchmark's layer tracer names it."""
        return cycle_space_masks(self.matrix)

    def cocycle_masks(self) -> list[int]:
        """All vectors of the cocycle space (row space) as position masks,
        computed on each call: `cocycle_index` reads it once and caches
        the transposed view instead."""
        return span(self.matrix.rows)

    def _labelled_form(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(labels in column order, rows) of `pivots_first` over the
        columns in label order: the first basis in label order, then the
        other columns over it.  Equal iff equal labelled matroids."""
        matrix, order = pivots_first(list(self.matrix.rows), sorted(range(self.size), key=self.labels.__getitem__))
        return tuple(self.labels[p] for p in order), matrix.rows

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matroid):
            return NotImplemented
        return self._labelled_form() == other._labelled_form()

    def __hash__(self):
        return hash(self._labelled_form())

    def __repr__(self):
        return f"Matroid(rank={self.rank}, size={self.size}, labels={self.labels})"


@cache
def _index_masks(r: int) -> tuple[int, ...]:
    """For each k < r, the 2^r-bit mask of the indices i with bit k set: the
    indices of the cocycle masks that `gf2.span` builds with row k."""
    full = (1 << (1 << r)) - 1
    return tuple(full // ((1 << (2 << k)) - 1) * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(r))


def cocycle_index(m: Matroid) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """m's cocycle space transposed, as (of_weight, contains), cached on m.

    Both hold index masks over ``cocycle_masks()``: bit i stands for mask
    i.  ``of_weight[w]`` holds the masks of weight w, for w = 0..n.
    ``contains[p]`` holds the masks that contain position p.  Mask i is
    the sum of the rows k with bit k of i set, so p lies in it iff column
    p and i share an odd number of bits: ``contains[p]`` is the sum of
    the index masks of the rows that column p meets.
    """
    if m._cocycle_index is None:
        of_weight = [0] * (m.size + 1)
        for i, mk in enumerate(m.cocycle_masks()):
            of_weight[mk.bit_count()] |= 1 << i
        index = _index_masks(m.rank)
        contains = list(index)  # column p < r is the unit vector of row p
        for col in m._cols[m.rank :]:
            acc = 0
            while col:
                low = col & -col
                acc ^= index[low.bit_length() - 1]
                col ^= low
            contains.append(acc)
        m._cocycle_index = (tuple(of_weight), tuple(contains))
    return m._cocycle_index


TABLE_MAX_SIZE, TABLE_MAX_RANK = 16, 12  # largest n and r whose ranks are tabulated


def rank_tables(m: Matroid) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """(h, low, high) with h = n // 2, cached on m: ``low[s]`` is the index
    mask of the cocycle-space vectors that avoid the positions in s, for
    every subset s of positions 0..h-1, and ``high[t]`` the same for every
    subset t of positions h..n-1, shifted down by h.  A(X) is then the
    popcount of ``low[X & (2^h - 1)] & high[X >> h]``.  None, with nothing
    built, when n > TABLE_MAX_SIZE or r > TABLE_MAX_RANK."""
    if m._rank_tables is None and m.size <= TABLE_MAX_SIZE and m.rank <= TABLE_MAX_RANK:
        contains = cocycle_index(m)[1]
        h = m.size // 2
        full = (1 << (1 << m.rank)) - 1
        m._rank_tables = (h, _avoiding(contains[:h], full), _avoiding(contains[h:], full))
    return m._rank_tables


def rank_row(m: Matroid, t: int) -> list[int]:
    """Entry s: r(s | t << h), h = n // 2, for every subset s of positions
    0..h-1 and a subset t of the rest: one row of `rank_tables`, or one
    elimination per entry for a matroid too large to tabulate."""
    tables = m._rank_tables or rank_tables(m)
    if tables is None:
        h = m.size // 2
        return [m.rank_of_mask(s | t << h) for s in range(1 << h)]
    _, low, high = tables
    base, avoid = m.rank + 1, high[t]
    return [base - (a & avoid).bit_count().bit_length() for a in low]


def _avoiding(contains: tuple[int, ...], full: int) -> tuple[int, ...]:
    """Entry s: the AND of ``full & ~contains[j]`` over the bits j of s, in
    one AND per entry (the entries with bit j set copy those before them)."""
    table = [full]
    for c in contains:
        avoid = full & ~c
        table += [t & avoid for t in table]
    return tuple(table)


def make_matroid(matrix: BitMatrix, labels=None) -> Matroid:
    """Build a Matroid, re-standardizing the matrix if needed.

    The column permutation applied during standardization is also applied
    to the labels, so the labeled matroid is unchanged.  Default labels
    are 1..n in column order.  Raises RankDeficientError if the matrix
    does not have full row rank.
    """
    n = matrix.ncols
    if labels is None:
        labels = tuple(range(1, n + 1))
    else:
        labels = tuple(labels)
    if len(labels) != n:
        raise ValueError("one label per column required")
    std, perm = standard_form(matrix)
    return Matroid(std, tuple(labels[j - 1] for j in perm))


def dual(m: Matroid) -> Matroid:
    """The dual matroid on the same labels, via [I_r | D] -> [I_{n-r} | D^T]."""
    r, n = m.rank, m.size
    d_rows = []
    for j in range(r, n):
        d_rows.append(m._cols[j])  # column of D becomes a row of D^T
    new_rows = tuple((1 << i) | (d_rows[i] << (n - r)) for i in range(n - r))
    new_labels = m.labels[r:] + m.labels[:r]
    return Matroid(BitMatrix(n - r, n, new_rows), new_labels)


def remove(m: Matroid, deletions=(), contractions=()) -> Matroid:
    """The minor m \\ deletions / contractions, labels retained.

    One row reduction over the contracted positions, whose pivot rows
    are then dropped, and then `pivots_first` over the survivors in
    position order, not label order, give the minor's [I_r | D] form:
    the one `make_matroid` gives its columns in survivor order.  (S10*
    has labels (5, ..., 10, 1, ..., 4); removing 3 leaves
    (5, ..., 10, 1, 2, 4).)  Contraction of a dependent set is allowed:
    the members in the span of the earlier ones take no pivot and are
    simply removed, per M/X = (M/B_X) \\ (X - B_X).  Loops and parallel
    pairs created by contraction are preserved.  Removing every element
    gives the empty matroid, M \\ E, a minor of every matroid.
    """
    dels = frozenset(deletions)
    cons = frozenset(contractions)
    if dels & cons:
        raise ValueError("deletions and contractions overlap")
    for e in dels | cons:
        if e not in m._pos:
            raise ValueError(f"unknown element label {e}")
    keep = [p for p, lab in enumerate(m.labels) if lab not in dels and lab not in cons]
    rows = list(m.matrix.rows)
    contracted = len(reduce_rows(rows, sorted(m._pos[e] for e in cons)))
    matrix, order = pivots_first(rows[contracted:], keep)
    return Matroid(matrix, tuple(m.labels[p] for p in order))


def is_union_of_circuits(m: Matroid, a) -> bool:
    """Whether the label set `a` is a union of circuits: r(A - e) = r(A)
    for each e in A, no coloop of M|A.  The empty set qualifies."""
    mask = m.mask_of(a)
    r_a = m.rank_of_mask(mask)
    return all(m.rank_of_mask(mask & ~(1 << p)) == r_a for p in range(m.size) if (mask >> p) & 1)


def is_union_of_cocircuits(m: Matroid, a) -> bool:
    """Whether the label set `a` is a union of cocircuits: no element of
    A lies in the closure of E - A.  The empty set qualifies."""
    mask = m.mask_of(a)
    rest = m.full_mask & ~mask
    r_rest = m.rank_of_mask(rest)
    return all(m.rank_of_mask(rest | 1 << p) > r_rest for p in range(m.size) if (mask >> p) & 1)


def is_circuit(m: Matroid, s) -> bool:
    """Whether the label set `s` is a circuit: a union of circuits with
    |s| - r(s) = 1, since a set holding two circuits has nullity at least
    2 (J. Oxley, *Matroid Theory*, 2nd ed., 2011)."""
    mask = m.mask_of(s)
    return mask.bit_count() - m.rank_of_mask(mask) == 1 and is_union_of_circuits(m, s)


def is_cocircuit(m: Matroid, s) -> bool:
    """Whether the label set `s` is a cocircuit: a union of cocircuits
    with r(E - s) = r - 1, the dual of `is_circuit`'s test."""
    mask = m.mask_of(s)
    return m.rank_of_mask(m.full_mask & ~mask) == m.rank - 1 and is_union_of_cocircuits(m, s)


def simplicity(m: Matroid) -> tuple[bool, bool]:
    """(is_simple, is_cosimple): no loops/parallel pairs, dually likewise.

    [I_r | D] is simple iff the columns of D have weight >= 2 and are
    distinct, and cosimple iff the rows of D do.
    """
    r = m.rank
    return _distinct_heavy(m._cols[r:]), _distinct_heavy([row >> r for row in m.matrix.rows])


def _distinct_heavy(vectors) -> bool:
    return all(v.bit_count() >= 2 for v in vectors) and len(set(vectors)) == len(vectors)
