"""The named matroids used throughout the toolkit.

Matrices transcribed from the published displays are stored as D-block
row strings; derived entries (Z4, D1, D3, E1..E7, the T12 minors, the
graphic matroids) are constructed programmatically from their documented
generators at load time, so a transcription slip surfaces as a test
failure rather than silently propagating.

Vertex/edge orderings for the graphic matroids: K5 on vertices 1..5 and
K3,3 with parts {1,2,3} / {4,5,6}, edges in lexicographic order.  Any
cycle-matroid representation works since comparisons are up to
isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .extension import grow
from .gf2 import BitMatrix, BitVector, reduce_rows
from .matroid import Matroid, dual, make_matroid

# D blocks of the displayed standard-form matrices [I_r | D].
_PAPER_D_BLOCKS = {
    "F7": ["0111", "1011", "1101"],
    "F7*": ["011", "101", "110", "111"],
    "AG(3,2)": ["0111", "1011", "1101", "1110"],
    "S8": ["0111", "1011", "1101", "1111"],
    "P9": ["01111", "10111", "11010", "11110"],
    "S10": ["011111", "101110", "110100", "111101"],
    "E4": ["01111", "10111", "11010", "11110", "01001"],
    "E5": ["01111", "10111", "11010", "11110", "10100"],
    "T12": ["110001", "100011", "000111", "001110", "011100", "111000"],
}

# (parent, kind, generator) for the derived single-element growths.
_DERIVED_GROWTHS = {
    "Z4": ("S8", "extension", "[1110]"),
    "D1": ("P9", "extension", "[1110]"),
    "D3": ("P9", "extension", "[0011]"),
    "E1": ("P9", "coextension", "[11000]"),
    "E2": ("P9", "coextension", "[11011]"),
    "E3": ("P9", "coextension", "[11001]"),
    "E6": ("P9", "coextension", "[00101]"),
    "E6*": ("P9", "coextension", "[00111]"),
    "E7": ("P9", "coextension", "[00011]"),
    "T12/e": ("E4", "extension", "[11011]"),
    "T12\\e": ("E4", "coextension", "[01010]"),
}


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    matroid: Matroid
    provenance: str  # "paper-matrix" or "derived-construction"
    notes: str = ""


def standard_matrix(d_rows: list[str]) -> BitMatrix:
    """[I_r | D] from D's rows given as bit strings, one per row."""
    r = len(d_rows)
    return BitMatrix.from_rows(
        [("0" * i + "1" + "0" * (r - 1 - i)) + d_rows[i] for i in range(r)]
    )


def _pg32_matrix() -> BitMatrix:
    cols = [bits for bits in range(1, 16) if bin(bits).count("1") >= 2]
    # Ascending bracket order [b1 b2 b3 b4] matches the published display.
    cols.sort(key=lambda b: BitVector(4, b).value)
    return standard_matrix(["".join(str((c >> i) & 1) for c in cols) for i in range(4)])


def graphic_matroid(edges: list[tuple[int, int]], nvertices: int) -> Matroid:
    """The cycle matroid of a graph, from its GF(2) incidence matrix."""
    rows = []
    for v in range(1, nvertices + 1):
        rows.append(sum((1 << j) for j, (a, b) in enumerate(edges) if v in (a, b)))
    # The incidence matrix has rank nvertices - 1; keep the rows that
    # stay nonzero after reduction.
    keep = rows[: len(reduce_rows(rows, range(len(edges))))]
    return make_matroid(BitMatrix(len(keep), len(edges), tuple(keep)))


def _k5_edges() -> list[tuple[int, int]]:
    return list(combinations(range(1, 6), 2))


def _k33_edges() -> list[tuple[int, int]]:
    return [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]


@lru_cache(maxsize=1)
def _entries() -> dict[str, CatalogEntry]:
    entries: dict[str, CatalogEntry] = {}

    def add(name, matroid, provenance, notes=""):
        entries[name] = CatalogEntry(name, matroid, provenance, notes)

    for name, d_rows in _PAPER_D_BLOCKS.items():
        add(name, make_matroid(standard_matrix(d_rows)), "paper-matrix")
    add("PG(3,2)", make_matroid(_pg32_matrix()), "paper-matrix")

    for name, (parent, kind, gen) in _DERIVED_GROWTHS.items():
        pm = entries[parent].matroid
        child = grow(pm, kind, BitVector.parse(gen))
        add(name, child, "derived-construction", f"{kind} of {parent} by {gen}")

    add("M(K5)", graphic_matroid(_k5_edges(), 5), "derived-construction", "cycle matroid of K5")
    add("M(K3,3)", graphic_matroid(_k33_edges(), 6), "derived-construction", "cycle matroid of K3,3")

    # Duals of everything above, under the X* naming convention.
    for name in list(entries):
        if name.endswith("*"):
            continue
        if name.startswith("M(") and name.endswith(")"):
            dual_name = "M*(" + name[2:]
        else:
            dual_name = name + "*"
        if dual_name not in entries:
            add(dual_name, dual(entries[name].matroid), "derived-construction", f"dual of {name}")
    return entries


def get(name: str) -> CatalogEntry:
    """Look up a catalog entry by its published name."""
    entries = _entries()
    entry = entries.get(name)
    if entry is None:
        raise KeyError(f"unknown matroid name {name!r}; see `binmat list`")
    return entry


def list_names() -> list[str]:
    return sorted(_entries())
