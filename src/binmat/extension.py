"""Single-element growth: simple extensions and cosimple coextensions.

Extension columns follow the bracket convention [b1 b2 ... br] with b1
the top row of the displayed matrix; candidates are enumerated in
ascending order of that numeric reading.  Coextensions are duals of
extensions: a coextension row of m is an extension column of dual(m),
and the child is the dual of that extension.  `coextend` builds the
child directly, appending the row below m's D block and a unit column
at position r, and the result still equals the dual of the extension of
the dual, with its labels moved.  `growth_labels` is the
one statement of where a growth puts its labels: an extension keeps
every parent label and adds n+1; a coextension adds r+1 and moves every
parent label greater than r up by one.  `enumerate_growth_classes`
groups the growths of one kind into isomorphism classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector
from .iso import IsoIndex
from .matroid import Matroid, dual, simplicity


def extension_candidates(m: Matroid) -> list[BitVector]:
    """All columns usable for a simple single-element extension.

    These are the nonzero length-r vectors distinct from every existing
    column; since [I_r | D] contains all unit vectors this is exactly the
    vectors of weight >= 2 not already in D.  Ascending bracket order.
    """
    if not simplicity(m)[0]:
        raise ValueError("extension candidates require a simple matroid")
    existing = set(m._cols[m.rank :])
    out = [
        BitVector(m.rank, bits)
        for bits in range(1, 1 << m.rank)
        if bits.bit_count() >= 2 and bits not in existing
    ]
    out.sort(key=lambda v: v.value)
    return out


def growth_labels(m: Matroid, kind: str):
    """(move, new) for a growth of m of `kind`: ``move`` maps a parent label
    to its child label and ``new`` labels the new element.  An extension
    keeps every label and adds n + 1, or the largest label + 1 when n + 1
    is taken; a coextension adds r + 1 and moves labels above r up by one.
    The only statement of the paper's labelling of growth children."""
    if kind == "extension":
        n = m.size
        return (lambda x: x), (n + 1 if n + 1 not in m.labels else max(m.labels) + 1)
    if kind == "coextension":
        r = m.rank
        return (lambda x: x + 1 if x > r else x), r + 1
    raise ValueError(f"unknown growth kind {kind!r}")


def extend(m: Matroid, col: BitVector) -> Matroid:
    """Append `col` as a new element labeled per `growth_labels`: n + 1,
    or the largest label + 1 when n + 1 is taken."""
    if col.length != m.rank:
        raise ValueError("column length must equal the rank")
    if col.bits == 0 or col.bits in m._cols:
        raise ValueError("column must be nonzero and distinct from existing columns")
    n = m.size
    _, new = growth_labels(m, "extension")
    rows = tuple(m.matrix.rows[i] | (((col.bits >> i) & 1) << n) for i in range(m.rank))
    return Matroid(BitMatrix(m.rank, n + 1, rows), m.labels + (new,))


def coextension_candidates(m: Matroid) -> list[BitVector]:
    """All rows usable for a cosimple single-element coextension: the
    extension columns of the dual, of length n - r.  Ascending bracket
    order.
    """
    if not simplicity(m)[1]:
        raise ValueError("coextension candidates require a cosimple matroid")
    return extension_candidates(dual(m))


def coextend(m: Matroid, row: BitVector) -> Matroid:
    """Add a coextension row, relabeling per `growth_labels`: the new
    element is labeled r + 1 and parent labels greater than r move up by one.

    The child is built directly: its matrix is m's [I_r | D] with ``row``
    appended below D and a new unit column at position r, which is
    dual(extend(dual(m), row)) with its labels moved.  ``row`` is
    rejected as extend would reject it as a column of the dual: it must
    have length n - r, be nonzero, not be a unit vector and differ from
    every row of D.  The new element forms a cocircuit with the elements
    whose D columns carry a 1 in the new row; this is verified on the
    built child.
    """
    r, n = m.rank, m.size
    d_rows = [x >> r for x in m.matrix.rows]
    if row.length != n - r:
        raise ValueError("column length must equal the rank")
    if row.bits == 0 or row.bits.bit_count() == 1 or row.bits in d_rows:
        raise ValueError("column must be nonzero and distinct from existing columns")
    move, new = growth_labels(m, "coextension")
    rows = [(1 << i) | (d << (r + 1)) for i, d in enumerate(d_rows)]
    rows.append((1 << r) | (row.bits << (r + 1)))
    labels = tuple(map(move, m.labels[:r])) + (new,) + tuple(map(move, m.labels[r:]))
    child = Matroid(BitMatrix(r + 1, n + 1, tuple(rows)), labels)
    # Cocircuit test via ranks: r(E - S) = rank - 1 and minimality.
    members = (1 << r) | (row.bits << (r + 1))
    rest = child.full_mask & ~members
    if child.rank_of_mask(rest) != r:
        raise AssertionError("coextension row did not create the expected cocircuit")
    for p in range(r, n + 1):
        if (members >> p) & 1 and child.rank_of_mask(rest | 1 << p) != r + 1:
            raise AssertionError("coextension cocircuit is not minimal")
    return child


def growths(m: Matroid, kind: str):
    """(generator, child) for each simple extension ("extension") or cosimple
    coextension ("coextension") of m, in ascending bracket order."""
    if kind == "extension":
        return ((v, extend(m, v)) for v in extension_candidates(m))
    if kind == "coextension":
        return ((v, coextend(m, v)) for v in coextension_candidates(m))
    raise ValueError(f"unknown growth kind {kind!r}")


@dataclass
class IsoClass:
    """A group of generator vectors whose children are pairwise isomorphic."""

    representative: Matroid
    members: list[BitVector]


def enumerate_growth_classes(m: Matroid, kind: str) -> list[IsoClass]:
    """All growth candidates of one kind (see `growths`) grouped into
    isomorphism classes by an `IsoIndex`.  Growths come in ascending
    bracket order, so each class lists its generators in ascending order,
    its representative is the child of the least one, and classes are
    ordered by their least generator.  To keep the classes inside an
    excluded-minor class, filter on ``c.representative in cls`` with a
    `structure.ExcludedClass`."""
    classes: list[IsoClass] = []
    index = IsoIndex()
    for v, child in growths(m, kind):
        cls = index.setdefault(child, lambda: IsoClass(child, []))
        if not cls.members:  # a new class
            classes.append(cls)
        cls.members.append(v)
    return classes
