"""Tests for the named-matroid catalog."""

import pytest

from binmat.catalog import CatalogEntry, get, graphic_matroid, list_names
from binmat.extension import coextend, extend
from binmat.gf2 import BitVector
from binmat.iso import are_isomorphic
from binmat.matroid import dual, simplicity

from conftest import oracle_circuits


EXPECTED_NAMES = [
    "AG(3,2)", "AG(3,2)*", "D1", "D1*", "D3", "D3*",
    "E1", "E1*", "E2", "E2*", "E3", "E3*", "E4", "E4*",
    "E5", "E5*", "E6", "E6*", "E7", "E7*", "F7", "F7*",
    "M(K3,3)", "M(K5)", "M*(K3,3)", "M*(K5)", "P9", "P9*",
    "PG(3,2)", "PG(3,2)*", "S10", "S10*", "S8", "S8*",
    "T12", "T12*", "T12/e", "T12/e*", "T12\\e", "T12\\e*",
    "Z4", "Z4*",
]

EXPECTED_SHAPES = {
    "F7": (3, 7), "F7*": (4, 7), "AG(3,2)": (4, 8), "S8": (4, 8),
    "P9": (4, 9), "Z4": (4, 9), "S10": (4, 10), "E4": (5, 10),
    "E5": (5, 10), "T12": (6, 12), "PG(3,2)": (4, 15),
    "M(K5)": (4, 10), "M(K3,3)": (5, 9), "M*(K3,3)": (4, 9),
    "D1": (4, 10), "D3": (4, 10),
    "E1": (5, 10), "E2": (5, 10), "E3": (5, 10),
    "E6": (5, 10), "E7": (5, 10),
    "T12/e": (5, 11), "T12\\e": (6, 11),
}


class TestListing:
    def test_names_are_stable_and_sorted(self):
        assert list_names() == EXPECTED_NAMES
        assert list_names() == sorted(list_names())

    def test_get_returns_entries(self):
        e = get("S10")
        assert isinstance(e, CatalogEntry)
        assert e.name == "S10"
        assert e.provenance in ("paper-matrix", "derived-construction")

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get("U24")


class TestEntries:
    def test_ranks_and_sizes(self):
        for name, (r, n) in EXPECTED_SHAPES.items():
            m = get(name).matroid
            assert (m.rank, m.size) == (r, n), name

    def test_labels_are_one_to_n(self):
        for name in list_names():
            m = get(name).matroid
            assert sorted(m.ground_set()) == list(range(1, m.size + 1)), name

    def test_base_entries_are_simple_and_cosimple(self):
        for name in ("F7", "F7*", "S8", "P9", "S10", "E4", "E5", "T12"):
            assert simplicity(get(name).matroid) == (True, True), name

    def test_duals_are_duals(self):
        # Entries built as duals match exactly; independently constructed
        # starred entries (such as E6*, its own named coextension of P9)
        # must still be isomorphic to the dual of their base name.
        for name in list_names():
            if name.endswith("*") and not name.startswith("M*"):
                base = name[:-1]
                entry = get(name)
                if entry.notes == f"dual of {base}":
                    assert entry.matroid == dual(get(base).matroid), name
                else:
                    assert are_isomorphic(entry.matroid, dual(get(base).matroid)), name

    def test_mk33_star_is_dual_of_mk33(self):
        assert are_isomorphic(get("M*(K3,3)").matroid, dual(get("M(K3,3)").matroid))

    def test_pg32_has_all_nonzero_points(self):
        m = get("PG(3,2)").matroid
        assert sorted(m._cols) == list(range(1, 16))


class TestDerivedConstructions:
    def test_z4_is_the_marked_extension_of_s8(self):
        assert get("Z4").matroid == extend(get("S8").matroid, BitVector.parse("1110"))

    def test_t12_contract_and_delete_entries(self):
        t12 = get("T12").matroid
        from binmat.matroid import remove

        assert are_isomorphic(get("T12\\e").matroid, remove(t12, deletions={12}))
        assert are_isomorphic(get("T12/e").matroid, remove(t12, contractions={12}))

    def test_graphic_matroids(self):
        k4 = graphic_matroid([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], 4)
        assert (k4.rank, k4.size) == (3, 6)
        # Circuit count of K4: 3 triangles + ... = 7 cycles total.
        assert len(oracle_circuits(k4)) == 7
        mk5 = get("M(K5)").matroid
        assert (mk5.rank, mk5.size) == (4, 10)
        assert len([c for c in oracle_circuits(mk5) if len(c) == 3]) == 10

    def test_s10_extends_mk33_star(self):
        # S10 restricted away from its tenth element is M*(K3,3).
        from binmat.matroid import remove

        s10 = get("S10").matroid
        assert any(
            are_isomorphic(remove(s10, deletions={lab}), get("M*(K3,3)").matroid)
            for lab in s10.ground_set()
        )
