"""Dense linear algebra over GF(2) with bit-packed rows.

Matrices are stored row-major as Python ints: bit j of row i is the
entry in row i, column j (columns 0-indexed internally).  All public
operations that take column indices use 1-based indices, matching the
element labels used everywhere else in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class RankDeficientError(ValueError):
    """Raised when an operation requires a full-row-rank matrix."""


@dataclass(frozen=True)
class BitVector:
    """A vector over GF(2), coordinate i (1-based) stored in bit i-1."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 0 or self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits outside declared length")

    @classmethod
    def from_coords(cls, coords: Sequence[int]) -> "BitVector":
        bits = 0
        for i, c in enumerate(coords):
            if c not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            bits |= c << i
        return cls(len(coords), bits)

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse bracket notation like ``[1110]`` (first char = coordinate 1)."""
        t = text.strip()
        if t.startswith("[") and t.endswith("]"):
            t = t[1:-1]
        t = t.replace(" ", "")
        if not t or any(c not in "01" for c in t):
            raise ValueError(f"not a bit vector: {text!r}")
        return cls.from_coords([int(c) for c in t])

    def coord(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise ValueError(f"coordinate {i} out of range")
        return (self.bits >> (i - 1)) & 1

    def coords(self) -> tuple[int, ...]:
        return tuple((self.bits >> i) & 1 for i in range(self.length))

    @property
    def value(self) -> int:
        """Numeric value reading coordinates as binary digits b1 b2 ... bn."""
        v = 0
        for i in range(self.length):
            v = (v << 1) | ((self.bits >> i) & 1)
        return v

    def __str__(self) -> str:
        return "[" + "".join(str(b) for b in self.coords()) + "]"


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
        packed = []
        width = ncols
        for row in rows:
            coords = [int(c) for c in row]
            if any(c not in (0, 1) for c in coords):
                raise ValueError("entries must be 0 or 1")
            if width is None:
                width = len(coords)
            elif len(coords) != width:
                raise ValueError("ragged rows")
            packed.append(sum(c << j for j, c in enumerate(coords)))
        if width is None:
            width = 0
        return cls(len(packed), width, tuple(packed))

    def column(self, j: int) -> int:
        """Column j (1-based) packed as an int, bit i = row i."""
        if not 1 <= j <= self.ncols:
            raise ValueError(f"column {j} out of range")
        c = 0
        for i, row in enumerate(self.rows):
            c |= ((row >> (j - 1)) & 1) << i
        return c

    def columns(self) -> list[int]:
        return [self.column(j) for j in range(1, self.ncols + 1)]


def independent_vectors(vectors: Iterable[int]) -> list[int]:
    """The bit-packed vectors outside the span of those kept before them.

    The kept vectors, in input order, are a basis of the input's span.
    """
    pivots: dict[int, int] = {}  # top bit -> reduced kept vector
    kept = []
    for v in vectors:
        c = v
        while c:
            top = c.bit_length() - 1
            p = pivots.get(top)
            if p is None:
                pivots[top] = c
                kept.append(v)
                break
            c ^= p
    return kept


def rank_of_columns(cols: Iterable[int]) -> int:
    """GF(2) rank of a collection of bit-packed column vectors."""
    return len(independent_vectors(cols))


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


def standard_form(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Row-reduce ``m`` to [I_r | D] form, permuting columns as needed.

    Returns the new matrix together with a permutation record: a tuple
    whose entry at new position p (0-indexed) is the original 1-based
    column index now sitting at position p.  Requires full row rank.
    """
    r, n = m.nrows, m.ncols
    rows = list(m.rows)
    pivots = [j + 1 for j in reduce_rows(rows, range(n))]
    if len(pivots) < r:
        raise RankDeficientError("matrix does not have full row rank")

    pivot_set = set(pivots)
    perm = tuple(pivots) + tuple(j for j in range(1, n + 1) if j not in pivot_set)
    new_rows = tuple(sum(((row >> (orig - 1)) & 1) << p for p, orig in enumerate(perm)) for row in rows)
    return BitMatrix(r, n, new_rows), perm


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
