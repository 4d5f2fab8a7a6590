"""Dense linear algebra over GF(2) with bit-packed rows.

Matrices are stored row-major as Python ints: bit j of row i is the
entry in row i, column j.  Every index is a 0-based bit position, in
`transpose`, `standard_form`'s permutation and the eliminations alike;
only a `BitVector`'s bracket text counts from 1 (coordinate 1 is bit 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class RankDeficientError(ValueError):
    """Raised when an operation requires a full-row-rank matrix."""


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2); bracket coordinate i (from 1) is bit i-1."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse bracket notation like ``[1110]`` (first char = coordinate 1)."""
        t = text.strip()
        if t.startswith("[") and t.endswith("]"):
            t = t[1:-1]
        t = t.replace(" ", "")
        if not t or any(c not in "01" for c in t):
            raise ValueError(f"not a bit vector: {text!r}")
        return cls(len(t), int(t[::-1], 2))

    @property
    def value(self) -> int:
        """Numeric value reading coordinates as binary digits b1 b2 ... bn."""
        v = 0
        for i in range(self.length):
            v = (v << 1) | ((self.bits >> i) & 1)
        return v

    def __str__(self) -> str:
        return "[" + "".join(str((self.bits >> i) & 1) for i in range(self.length)) + "]"


@dataclass(frozen=True)
class BitMatrix:
    """An r x n matrix over GF(2); ``rows[i]`` holds row i, bit j = column j."""

    nrows: int
    ncols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.nrows < 0 or self.ncols < 0 or len(self.rows) != self.nrows:
            raise ValueError("inconsistent dimensions")
        for r in self.rows:
            if r < 0 or r >> self.ncols:
                raise ValueError("row has bits beyond declared width")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int] | str], ncols: int | None = None) -> "BitMatrix":
        """Pack rows of 0/1 entries, or strings over the characters 0 and 1;
        entry j of a row becomes bit j."""
        packed = []
        width = ncols
        for row in rows:
            if any(c not in (0, 1, "0", "1") for c in row):
                raise ValueError(f"bad row {row!r}: entries must be 0 or 1")
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError(f"bad row {row!r}: expected {width} entries")
            packed.append(sum(1 << j for j, c in enumerate(row) if c in (1, "1")))
        if width is None:
            width = 0
        return cls(len(packed), width, tuple(packed))


def transpose(rows: Sequence[int], ncols: int) -> list[int]:
    """The ``ncols`` columns of ``rows``, bit i of column j = bit j of row
    i, in one pass over each row's set bits: the one column-packing loop."""
    cols = [0] * ncols
    for i, row in enumerate(rows):
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= 1 << i
            row ^= low
    return cols


def rank_of_columns(cols: Iterable[int]) -> int:
    """GF(2) rank of a collection of bit-packed column vectors.

    `Matroid.rank_of_mask` reads ranks off `matroid.rank_tables` and calls
    this only for a matroid too large to tabulate; the elimination shares
    no code with the tables and is the tests' oracle for them."""
    pivots: dict[int, int] = {}  # top bit -> reduced vector
    for c in cols:
        while c:
            top = c.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = c
                break
            c ^= p
    return len(pivots)


def reduce_rows(rows: list[int], columns: Iterable[int]) -> list[int]:
    """Gauss-Jordan elimination of ``rows`` in place over ``columns``.

    Columns are 0-based bit positions, visited in the given order; a
    column in the span of the earlier ones gets no pivot.  Afterwards
    row k has a 1 in the k-th pivot column and a 0 in every other pivot
    column, and the rows past the last pivot are zero on all visited
    columns.  For a fixed, ordered pivot set the reduced rows are unique.
    Returns the pivot columns in order.
    """
    r = len(rows)
    pivots: list[int] = []
    k = 0
    for j in columns:
        if k == r:
            break
        bit = 1 << j
        for src in range(k, r):
            if rows[src] & bit:
                break
        else:
            continue
        p = rows[src]
        rows[src] = rows[k]
        for i in range(r):
            if rows[i] & bit:
                rows[i] ^= p
        rows[k] = p
        pivots.append(j)
        k += 1
    return pivots


def pivots_first(rows: list[int], columns: Sequence[int]) -> tuple[BitMatrix, tuple[int, ...]]:
    """[I_r | D] of ``rows`` restricted to ``columns``, with its column order.

    ``rows`` is reduced in place by `reduce_rows` over ``columns``
    (0-based bit positions, in the given order).  The r pivot columns
    come first, in pivot order, then the other columns in the given
    order; the rows past the last pivot, zero on every given column,
    are dropped.  Returns the r x len(columns) matrix and the order, a
    tuple whose entry at position q is the bit position now in column q.
    """
    pivots = reduce_rows(rows, columns)
    pivot_set = set(pivots)
    order = tuple(pivots) + tuple(j for j in columns if j not in pivot_set)
    new_rows = tuple(sum(((row >> p) & 1) << q for q, p in enumerate(order)) for row in rows[: len(pivots)])
    return BitMatrix(len(pivots), len(order), new_rows), order


def standard_form(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Row-reduce ``m`` to [I_r | D] form, permuting columns as needed.

    Returns the new matrix together with its column order: a tuple whose
    entry at position p is the bit position of ``m``'s column now at p.
    Requires full row rank.
    """
    std, order = pivots_first(list(m.rows), range(m.ncols))
    if std.nrows < m.nrows:
        raise RankDeficientError("matrix does not have full row rank")
    return std, order


def span(vectors: Iterable[int]) -> list[int]:
    """All 2^k XOR combinations of k independent bit-packed vectors,
    starting with 0: each vector doubles the list (0, b1, b2, b1^b2, ...)."""
    out = [0]
    for b in vectors:
        out.extend([x ^ b for x in out])
    return out


def cycle_space_masks(m: BitMatrix) -> list[int]:
    """All 2^(n-r) null-space vectors {v : m v = 0} as bit masks.

    They are the span of the fundamental circuits of the columns outside
    the first-come basis, taken in column order.
    """
    n = m.ncols
    rows = list(m.rows)
    pivots = reduce_rows(rows, range(n))
    pivot_set = set(pivots)
    circuits = []
    for j in range(n):
        if j in pivot_set:
            continue
        bits = 1 << j
        for row, p in zip(rows, pivots):
            if (row >> j) & 1:
                bits |= 1 << p
        circuits.append(bits)
    return span(circuits)
