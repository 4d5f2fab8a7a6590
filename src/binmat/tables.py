"""Printed-cell manifests for the E4 decomposer case analysis.

The published case analysis tabulates, for the two candidate
3-separations of E4, the connectivity values of its one-step growths
(Tables 1a/1b) and the good/bad classification of every coextension row
over the in-class extensions A, B, C (Tables 2a/2b).  This module stores
those tables cell by cell, exactly as printed, so the verification
driver can recompute each cell independently and report any cell whose
printed value disagrees with the recomputation.

Conventions: vectors are bit strings with the first character the top
row (extension columns) or leftmost column (coextension rows); ground
set labels follow the standard-form numbering, with the growth children
labeled as `extension.growth_labels` states (a coextension renumbers
every label above the old rank up by one).
"""

from __future__ import annotations

from dataclasses import dataclass

# The two candidate 3-separation sides of E4, in E4's own labels.
SIDE_1 = frozenset({1, 2, 5, 6, 7, 10})
SIDE_2 = frozenset({1, 2, 3, 4, 8, 9})


@dataclass(frozen=True)
class GrowthCell:
    """One cell of Tables 1a/1b: a lambda value for a one-step growth.

    ``printed_set`` is either the separation side itself or the side
    plus the new element; ``printed_value`` is the printed lambda value
    (None when the table omits it).
    """

    group: str  # printed family name, e.g. "A22"
    label: str  # printed row label, e.g. "alpha"
    vector: str  # generator column/row bits
    side: int  # 0 for (A1, B1), 1 for (A2, B2)
    printed_set: frozenset[int]
    printed_value: int | None = 2


@dataclass(frozen=True)
class RowCell:
    """One cell of Tables 2a/2b: a coextension row over a type (i) parent.

    ``parents`` lists the extension generators the row applies to (the
    tables group parents whose rows behave identically).  ``has_minor``
    is the printed yes/no in the excluded-minor column; for rows kept
    in class, ``outcome`` is "good" (with ``witness``, the printed set
    of lambda value 2) or "bad".
    """

    parents: tuple[str, ...]
    label: str
    row: str
    has_minor: bool
    outcome: str | None = None  # "good", "bad", or None when has_minor
    witness: frozenset[int] | None = None


def _g(group, label, vector, side, printed_set, value=2):
    return GrowthCell(group, label, vector, side, frozenset(printed_set), value)


# Table 1a: simple single-element extensions of E4 (new element 11).
TABLE_1A = (
    _g("A22", "alpha", "00110", 0, {1, 2, 5, 6, 7, 10}),
    _g("A22", "alpha", "00110", 1, {1, 2, 3, 4, 8, 9, 11}),
    _g("A22", "beta", "10110", 0, {1, 2, 5, 6, 7, 10, 11}),
    _g("A22", "beta", "10110", 1, {1, 2, 3, 4, 8, 9}),
    _g("A11", "gamma", "01111", 0, {1, 2, 5, 6, 7, 10, 11}),
    _g("A11", "gamma", "01111", 1, {1, 2, 3, 4, 8, 9}),
    _g("A11", "delta", "11100", 0, {1, 2, 5, 6, 7, 10}),
    _g("A11", "delta", "11100", 1, {1, 2, 3, 4, 8, 9, 11}),
    _g("A5", "epsilon", "11000", 0, {1, 2, 5, 6, 7, 10}),
    _g("A5", "epsilon", "11000", 1, {1, 2, 3, 4, 8, 9}),
)

# Table 1b: cosimple single-element coextensions of E4 (new element 6;
# old labels above 5 renumbered up by one, so the sides read
# {1,2,5,7,8,11} and {1,2,3,4,9,10}).  The value of row b's first cell
# is omitted in print.
TABLE_1B = (
    _g("A22*", "a", "00110", 0, {1, 2, 5, 7, 8, 11}),
    _g("A22*", "a", "00110", 1, {1, 2, 3, 4, 6, 9, 10}),
    _g("A22*", "b", "10001", 0, {1, 2, 5, 6, 7, 8, 11}, None),
    _g("A22*", "b", "10001", 1, {1, 2, 3, 4, 9, 10}),
    _g("A11*", "c", "11001", 0, {1, 2, 5, 6, 7, 8, 11}),
    _g("A11*", "c", "11001", 1, {1, 2, 3, 4, 9, 10}),
    _g("A11*", "d", "11100", 0, {1, 2, 5, 7, 8, 11}),
    _g("A11*", "d", "11100", 1, {1, 2, 3, 4, 6, 9, 10}),
    _g("A5*", "e", "11000", 0, {1, 2, 5, 7, 8, 11}),
    _g("A5*", "e", "11000", 1, {1, 2, 3, 4, 9, 10}),
)


def _yes(parents, label, row):
    return RowCell(tuple(parents), label, row, has_minor=True)


def _good(parents, label, row, witness):
    return RowCell(
        tuple(parents), label, row, has_minor=False, outcome="good", witness=frozenset(witness)
    )


def _bad(parents, label, row):
    return RowCell(tuple(parents), label, row, has_minor=False, outcome="bad")


_AB1 = ("10110", "01111")  # "A with column [10110] and B with column [01111]"
_AB2 = ("00110", "11100")  # "A with column [00110] and B with column [11100]"
_C = ("11000",)

# Table 2a: coextension rows classified against (A1, B1).  In the
# 12-element child the side reads {1,2,5,7,8,11} and the earlier
# extension element is 12.
TABLE_2A = (
    _good(_AB1, "a", "001100", {1, 2, 5, 7, 8, 11, 12}),
    _yes(_AB1, "a'", "001101"),
    _bad(_AB1, "b", "100010"),
    _bad(_AB1, "b'", "100011"),
    _bad(_AB1, "c", "110010"),
    _bad(_AB1, "c'", "110011"),
    _yes(_AB1, "d", "111000"),
    _good(_AB1, "d'", "111001", {1, 2, 5, 7, 8, 11, 12}),
    _bad(_AB1, "e", "110000"),
    _good(_AB1, "e'", "110001", {1, 2, 5, 7, 8, 11, 12}),
    _yes(_AB1, "3'", "110100"),
    _yes(_AB1, "4'", "111100"),
    _yes(_AB1, "9'", "001001"),
    _yes(_AB1, "10'", "000101"),
    _good(_AB2, "b", "100010", {1, 2, 5, 6, 7, 8, 11}),
    _yes(_AB2, "b'", "100011"),
    _good(_AB2, "c", "110010", {1, 2, 5, 6, 7, 8, 11}),
    _yes(_AB2, "c'", "110011"),
    _good(_C, "b", "100010", {1, 2, 5, 6, 7, 8, 11}),
    _bad(_C, "b'", "100011"),
    _good(_C, "c", "110010", {1, 2, 5, 6, 7, 8, 11}),
    _bad(_C, "c'", "110011"),
)

# Table 2b: the same rows classified against (A2, B2); the side reads
# {1,2,3,4,9,10} in the child.  Two printed oddities are preserved
# verbatim: the cell calling row c over [10110]/[01111] a yes (Table 2a
# keeps it in class), and the C-block witness sets that repeat side-1
# labels; the recomputation flags both.
TABLE_2B = (
    _bad(_AB2, "a", "001100"),
    _bad(_AB2, "a'", "001101"),
    _good(_AB2, "b", "100010", {1, 2, 3, 4, 9, 10, 12}),
    _yes(_AB2, "b'", "100011"),
    _good(_AB2, "c", "110010", {1, 2, 3, 4, 9, 10, 12}),
    _yes(_AB2, "c'", "110011"),
    _bad(_AB2, "d", "111000"),
    _bad(_AB2, "d'", "111001"),
    _good(_AB2, "e", "110000", {1, 2, 3, 4, 9, 10, 12}),
    _bad(_AB2, "e'", "110001"),
    _yes(_AB2, "3'", "110100"),
    _yes(_AB2, "4'", "111100"),
    _yes(_AB2, "9'", "001001"),
    _yes(_AB2, "10'", "000101"),
    _good(_AB1, "a", "001100", {1, 2, 3, 4, 6, 9, 10}),
    _yes(_AB1, "b'", "100011"),
    _yes(_AB1, "c", "110010"),
    _good(_AB1, "c'", "110011", {1, 2, 3, 4, 6, 9, 10}),
    _good(_C, "a", "001100", {1, 2, 5, 6, 7, 8, 11}),
    _bad(_C, "a'", "001101"),
    _good(_C, "d", "111000", {1, 2, 5, 6, 7, 8, 11}),
    _bad(_C, "d'", "111001"),
)
