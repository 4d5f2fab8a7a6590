"""Single-element growth: simple extensions and cosimple coextensions.

Generators follow the bracket convention [b1 b2 ... br], b1 the top
row, and are enumerated in ascending order of that numeric reading.
`_generator_rule` is the one statement of which vectors generate a
growth: weight at least 2, and an extension column of length r not a
column of D, or a coextension row of length n - r not a row of D (a row
of m is then a column of dual(m)).  `growth_candidates`, `extend` and
`coextend` read it; `coextend` appends the row below m's D block and a
unit column at position r and checks nothing after building, so building
a growth computes no rank; `grow` is the one choice between the two by
kind.  `growth_labels` is the one statement of where a growth puts its
labels: an extension keeps every parent label and adds n+1; a
coextension adds r+1 and moves labels above r up by one.  `carrier` is
the one rule that carries a generator along an isomorphism of parents.

`enumerate_growth_classes` groups the growths of one kind into
isomorphism classes, once per matroid and kind; the parent keeps them.
The classes are the orbits of the generators under the parent's
automorphism group, so it reuses orbits after B. D. McKay,
"Isomorph-free exhaustive generation" (J. Algorithms 1998), with
automorphisms found for free: an `IsoIndex` map between two growths
that fixes the new element restricts to an automorphism of the parent,
and every generator already placed is carried along it.  A placed
generator joins its class with no growth built and no search.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BitMatrix, BitVector
from .iso import IsoIndex
from .matroid import Matroid, dual, simplicity


def _generator_rule(m: Matroid, kind: str):
    """Which vectors generate a growth of m of `kind`, as ``(side, length,
    taken, words)``: ``length`` bits, weight at least 2, not in ``taken``.
    An extension column has length r and is not a column of D (``taken``
    holds all of m's columns; the others are unit vectors); a coextension
    row has length n - r and is not a row of D.  `growth_candidates` needs
    ``simplicity(m)[side]``; ``words`` name the generator, its length and
    what it avoids in errors."""
    r = m.rank
    if kind == "extension":
        return 0, r, m._cols, ("column", "the rank", "existing columns")
    if kind == "coextension":
        return 1, m.size - r, [x >> r for x in m.matrix.rows], ("row", "n - r", "unit vectors and rows of D")
    raise ValueError(f"unknown growth kind {kind!r}")


def _check_generator(m: Matroid, kind: str, v: BitVector):
    """Raise ValueError unless `v` passes `_generator_rule` for m and
    `kind`; return the rule's ``taken``, from which coextend builds."""
    _, length, taken, (noun, length_name, avoid) = _generator_rule(m, kind)
    if v.length != length:
        raise ValueError(f"{noun} length must equal {length_name}")
    if v.bits.bit_count() < 2 or v.bits in taken:
        raise ValueError(f"{noun} must be nonzero and distinct from {avoid}")
    return taken


def growth_candidates(m: Matroid, kind: str) -> list[BitVector]:
    """Every generator of a simple extension ("extension") of a simple m, or
    of a cosimple coextension ("coextension") of a cosimple m, in ascending
    bracket order, per `_generator_rule`; no dual is built."""
    side, length, taken, _ = _generator_rule(m, kind)
    if not simplicity(m)[side]:
        raise ValueError(f"{kind} candidates require a {'co' * side}simple matroid")
    taken = set(taken)
    out = [BitVector(length, bits) for bits in range(1, 1 << length) if bits.bit_count() >= 2 and bits not in taken]
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


def carrier(p2: Matroid, p1: Matroid, kind: str, sigma):
    """``carry(bits) -> bits``: for an isomorphism `sigma` (a label map)
    from p2 onto p1, the generator of p1 of `kind` whose growth is
    isomorphic to p2's growth by a generator of p2.

    A generator is an extension column of a frame: the parent itself for
    an extension, and its dual for a coextension, since a coextension of
    m by row w is dual(extend(dual(m), w)) up to labels (see `coextend`),
    and sigma maps dual(p2) onto dual(p1) too.  The frames are built
    once per carrier, and are one dual when sigma is an automorphism (p2
    is p1).  The generator is the sum of the frame's basis columns it
    marks, and a binary matroid has one representation up to
    row operations, so the linear map taking each column of p2's frame to
    p1's column at its image takes the generator to the sum of p1's
    columns at sigma of those basis labels.  So sigma, with the new
    element to the new element, maps growth onto growth."""
    if kind == "coextension":
        p2, p1 = (dual(p1),) * 2 if p2 is p1 else (dual(p2), dual(p1))
    images = [p1.column_of(sigma[x]) for x in p2.labels[: p2.rank]]

    def carry(bits: int) -> int:
        c = 0
        for image in images:
            if bits & 1:
                c ^= image
            bits >>= 1
        return c

    return carry


def extend(m: Matroid, col: BitVector) -> Matroid:
    """Append `col` as a new element labeled per `growth_labels`: n + 1,
    or the largest label + 1 when n + 1 is taken."""
    _check_generator(m, "extension", col)
    n = m.size
    _, new = growth_labels(m, "extension")
    rows = tuple(m.matrix.rows[i] | (((col.bits >> i) & 1) << n) for i in range(m.rank))
    return Matroid(BitMatrix(m.rank, n + 1, rows), m.labels + (new,))


def coextend(m: Matroid, row: BitVector) -> Matroid:
    """Add a coextension row, relabeling per `growth_labels`: the new
    element is labeled r + 1 and parent labels greater than r move up by one.

    The child is built directly: its matrix is m's [I_r | D] with ``row``
    appended below D and a new unit column at position r, which is
    dual(extend(dual(m), row)) with its labels moved.  ``row`` must pass
    `_generator_rule`.  The new element forms a cocircuit with the
    elements whose D columns carry a 1 in the new row, and no check is
    needed: `Matroid` accepts only [I_{r+1} | D'], in which the one nonzero
    row-space vector inside row r's support is row r itself.
    """
    r, n = m.rank, m.size
    d_rows = _check_generator(m, "coextension", row)
    move, new = growth_labels(m, "coextension")
    rows = [(1 << i) | (d << (r + 1)) for i, d in enumerate(d_rows)]
    rows.append((1 << r) | (row.bits << (r + 1)))
    labels = tuple(map(move, m.labels[:r])) + (new,) + tuple(map(move, m.labels[r:]))
    return Matroid(BitMatrix(r + 1, n + 1, tuple(rows)), labels)


def grow(m: Matroid, kind: str, v: BitVector) -> Matroid:
    """The growth of m of `kind` by generator `v`: the one choice between
    `extend` and `coextend`."""
    if kind not in ("extension", "coextension"):
        raise ValueError(f"unknown growth kind {kind!r}")
    return (extend if kind == "extension" else coextend)(m, v)


@dataclass(frozen=True)
class IsoClass:
    """A group of generator vectors whose children are pairwise isomorphic."""

    representative: Matroid
    members: tuple[BitVector, ...]


def enumerate_growth_classes(m: Matroid, kind: str) -> tuple[IsoClass, ...]:
    """All growth candidates of one kind (see `growth_candidates`) grouped
    into isomorphism classes, once per matroid and kind: m keeps the
    tuple, and every later call returns it.  Generators come in ascending
    bracket order, so each class lists its generators in ascending order,
    its representative is the child of the least one, and classes are
    ordered by their least generator.  The classes inside an
    excluded-minor class are `structure.growth_classes_in`.

    A generator not yet placed is grown and looked up in an `IsoIndex`
    of the classes' representatives.  When the map phi found fixes the
    new element, phi restricted to the parent's labels (moved back
    through `growth_labels`) is an automorphism alpha of m: both growths
    lose the new element to give m.  By `carrier`, alpha carries each
    generator to one whose growth is isomorphic, so every placed
    generator is carried along every alpha recorded until nothing new is
    placed, each image in its source's class.  A placed generator then
    joins its class when its turn comes, with no growth built and no
    search.  The partition cannot change: images are isomorphic growths,
    and a class is still made only by a generator that no smaller one
    placed, so it is made by its least member.  An image below the
    current generator was already placed by its own turn."""
    classes = m._growth_classes.get(kind)
    if classes is None:
        move, new = growth_labels(m, kind)
        back = {move(x): x for x in m.labels}
        groups: list[tuple[Matroid, list[BitVector]]] = []
        index = IsoIndex()
        placed: dict[int, list[BitVector]] = {}  # generator bits -> its class's members
        carries = []  # one `carrier` per automorphism of m found
        for v in growth_candidates(m, kind):
            members = placed.get(v.bits)
            if members is None:
                child = grow(m, kind, v)
                members, phi = index.find(child, list)
                if not members:  # a new class, represented by this child
                    groups.append((child, members))
                placed[v.bits] = members
                todo = [v.bits]
                if phi is not None and phi[new] == new:
                    carries.append(carrier(m, m, kind, {x: back[phi[move(x)]] for x in m.labels}))
                    todo = list(placed)
                while todo:  # carry placed generators along every automorphism
                    bits = todo.pop()
                    for carry in carries:
                        image = carry(bits)
                        if image not in placed:
                            placed[image] = placed[bits]
                            todo.append(image)
            members.append(v)
        classes = m._growth_classes[kind] = tuple(IsoClass(rep, tuple(vs)) for rep, vs in groups)
    return classes
