"""Unit and property tests for single-element growth steps."""

import random
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from binmat import extension, iso
from binmat.catalog import get, list_names
from binmat.extension import (
    coextend,
    enumerate_growth_classes,
    extend,
    grow,
    growth_candidates,
    growth_labels,
)
from binmat.gf2 import BitMatrix, BitVector
from binmat.iso import IsoIndex, are_isomorphic, weight_profile
from binmat.matroid import Matroid, dual, make_matroid, remove, simplicity
from binmat.structure import ExcludedClass, growth_classes_in, in_class

from conftest import fresh, oracle_circuits, oracle_cocircuits, oracle_shift_label, oracle_shift_labels, relabeled_copy


def M(name):
    return get(name).matroid


class TestCandidates:
    def test_candidate_counts(self):
        # Nonzero vectors of weight >= 2 not already present as a column
        # (dually, as a row of D).
        expected = {
            "F7*": (8, 0),
            "S8": (7, 7),
            "P9": (6, 22),
            "E5": (21, 21),
            "E4": (21, 21),
            "S10": (5, 53),
        }
        for name, (next_, ncoext) in expected.items():
            m = M(name)
            assert len(growth_candidates(m, "extension")) == next_, name
            assert len(growth_candidates(m, "coextension")) == ncoext, name

    def test_candidates_exclude_existing_columns_and_units(self):
        m = M("P9")
        existing = set(m._cols[m.rank :])
        for v in growth_candidates(m, "extension"):
            assert v.bits.bit_count() >= 2
            assert v.bits not in existing
        existing_rows = {row >> m.rank for row in m.matrix.rows}
        for v in growth_candidates(m, "coextension"):
            assert v.bits.bit_count() >= 2
            assert v.bits not in existing_rows

    def test_extension_candidates_require_a_simple_matroid(self):
        # Two parallel elements: columns 1 and 3 are equal.
        m = make_matroid(BitMatrix.from_rows(["101", "010"]))
        with pytest.raises(ValueError, match="^extension candidates require a simple matroid$"):
            growth_candidates(m, "extension")

    def test_extend_rejects_a_column_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="^column length must equal the rank$"):
            extend(M("S8"), BitVector.parse("11100"))

    def test_candidates_sorted_by_bracket_value(self):
        vals = [v.value for v in growth_candidates(M("P9"), "extension")]
        assert vals == sorted(vals)

    def test_duality_swaps_candidate_kinds(self):
        m = M("P9")
        ext = {v.bits for v in growth_candidates(m, "extension")}
        coext_dual = {v.bits for v in growth_candidates(dual(m), "coextension")}
        assert ext == coext_dual


class TestExtend:
    def test_extend_remove_round_trip(self):
        for name in ("F7*", "S8", "P9", "E4"):
            m = fresh(name)
            for v in growth_candidates(m, "extension")[:3]:
                child = extend(m, v)
                assert child.size == m.size + 1
                new = child.labels[-1]
                assert new == m.size + 1
                assert remove(child, deletions={new}) == m

    def test_new_label_skips_a_label_in_use(self):
        # S8 without 3 has labels 1, 2, 4, ..., 8: label 8 = n + 1 is taken.
        child = extend(remove(M("S8"), {3}), BitVector.parse("[1100]"))
        assert child.labels[-1] == 9

    def test_extend_rejects_duplicate_column(self):
        m = M("P9")
        with pytest.raises(ValueError):
            extend(m, BitVector(m.rank, m._cols[m.rank]))
        with pytest.raises(ValueError):
            extend(m, BitVector(m.rank, 0))

    def test_new_element_extends_circuits_only_through_itself(self):
        m = M("S8")
        v = growth_candidates(m, "extension")[0]
        child = extend(m, v)
        new = child.labels[-1]
        old = {c for c in oracle_circuits(child) if new not in c}
        assert old == set(oracle_circuits(m))


class TestCoextend:
    def test_growth_labels(self):
        assert oracle_shift_label(3, 5) == 3
        assert oracle_shift_label(6, 5) == 7
        assert oracle_shift_labels({1, 2, 5, 6, 7, 10}, 5) == {1, 2, 5, 7, 8, 11}
        assert oracle_shift_labels({1, 2, 3, 4, 8, 9}, 5) == {1, 2, 3, 4, 9, 10}
        # E4 has rank 5 and 10 elements.
        e4 = M("E4")
        move, new = growth_labels(e4, "coextension")
        assert (move(3), move(6), new) == (3, 7, 6)
        assert set(map(move, {1, 2, 5, 6, 7, 10})) == {1, 2, 5, 7, 8, 11}
        assert set(map(move, {1, 2, 3, 4, 8, 9})) == {1, 2, 3, 4, 9, 10}
        move, new = growth_labels(e4, "extension")
        assert list(map(move, e4.labels)) == list(e4.labels) and new == 11
        # n + 1 is taken once a label below it is gone: the largest label + 1.
        m = remove(M("S8"), deletions={3})
        assert growth_labels(m, "extension")[1] == 9
        assert extend(m, BitVector.parse("1100")).labels[-1] == 9
        with pytest.raises(ValueError, match="unknown growth kind 'growth'"):
            growth_labels(e4, "growth")

    def test_coextend_contract_round_trip(self):
        for name in ("S8", "P9", "E4"):
            m = fresh(name)
            r = m.rank
            for row in growth_candidates(m, "coextension")[:3]:
                child = coextend(m, row)
                assert child.size == m.size + 1 and child.rank == r + 1
                assert child.ground_set() == oracle_shift_labels(m.ground_set(), r) | {r + 1}
                back = remove(child, contractions={r + 1})
                assert are_isomorphic(back, m)
                # Exact labeled correspondence under the shift rule.
                shifted = {
                    frozenset(oracle_shift_label(x, r) for x in c) for c in oracle_circuits(m)
                }
                assert {frozenset(c) for c in oracle_circuits(back)} == shifted

    def test_coextend_presentation(self):
        # Table 2a/2b rows are vectors over this exact D-column order.  Every
        # row of every cosimple catalog matroid and of its cosimple
        # single-element deletions is checked against the layout and against
        # the dual of the extension of the dual, relabeled by the shift oracle.
        checked = 0
        for name in list_names():
            m = M(name)
            if not simplicity(m)[1]:
                continue
            deletions = (remove(m, deletions={e}) for e in m.labels)
            for base in [m] + [d for d in deletions if simplicity(d)[1]]:
                r, n = base.rank, base.size
                for row in growth_candidates(base, "coextension"):
                    child = coextend(base, row)
                    rows = [(1 << i) | ((base.matrix.rows[i] >> r) << (r + 1)) for i in range(r)]
                    rows.append((1 << r) | (row.bits << (r + 1)))
                    assert (child.rank, child.size) == (r + 1, n + 1), name
                    assert list(child.matrix.rows) == rows, (name, base.labels, row)
                    assert child.labels == (
                        tuple(oracle_shift_label(lab, r) for lab in base.labels[:r])
                        + (r + 1,)
                        + tuple(oracle_shift_label(lab, r) for lab in base.labels[r:])
                    ), name
                    grown = dual(extend(dual(base), row))
                    assert grown.matrix.rows == child.matrix.rows, (name, base.labels, row)
                    assert child.labels == tuple(
                        r + 1 if p == r else oracle_shift_label(lab, r) for p, lab in enumerate(grown.labels)
                    ), (name, base.labels, row)
                    checked += 1
        assert checked > 10000

    def test_coextension_dual_to_extension(self):
        m = M("P9")
        row = growth_candidates(m, "coextension")[0]
        child = coextend(m, row)
        # The dual of a coextension is an extension of the dual (up to iso).
        dext = extend(dual(m), BitVector(row.length, row.bits))
        assert are_isomorphic(dual(child), dext)

    def test_new_element_is_in_a_cocircuit_with_marked_columns(self):
        # coextend checks nothing after building: the new element and the
        # parent's D columns marked by the row must form a cocircuit of
        # every child.  Every coextension of every cosimple catalog entry
        # of rank at most 6, against the list oracle, which asks no rank.
        checked = 0
        for name in list_names():
            m = M(name)
            r = m.rank
            if r > 6 or not simplicity(m)[1]:
                continue
            for row in growth_candidates(m, "coextension"):
                child = coextend(m, row)
                marked = {oracle_shift_label(m.labels[r + j], r) for j in range(row.length) if (row.bits >> j) & 1}
                assert frozenset({r + 1} | marked) in oracle_cocircuits(child), (name, row)
                checked += 1
        assert checked == 2924

    def test_coextend_rejects_existing_row(self):
        # The rows that extend rejects as columns of the dual, named as rows.
        m = M("P9")
        width = m.size - m.rank
        with pytest.raises(ValueError, match="^row must be nonzero and distinct from unit vectors and rows of D$"):
            coextend(m, BitVector(width, m.matrix.rows[0] >> m.rank))
        with pytest.raises(ValueError, match="^row length must equal n - r$"):
            coextend(m, BitVector(width + 1, 0b111))
        with pytest.raises(ValueError, match="^row length must equal n - r$"):
            coextend(m, BitVector(width - 1, 0b111))
        for bits in [0] + [1 << k for k in range(width)]:
            with pytest.raises(ValueError, match="^row must be nonzero and distinct from unit vectors and rows of D$"):
                coextend(m, BitVector(width, bits))


def _random_simple_cosimple(rng):
    """A seeded [I_r | D] with n <= 9 whose D columns and rows are distinct,
    of weight >= 2."""
    while True:
        n = rng.randint(4, 9)
        r = rng.randint(2, n - 2)
        rows = tuple((1 << i) | (rng.randrange(1 << (n - r)) << r) for i in range(r))
        m = make_matroid(BitMatrix(r, n, rows))
        if simplicity(m) == (True, True):
            return m


def _grow(kind):
    return extend if kind == "extension" else coextend


class TestGeneratorRule:
    def test_coextension_candidates_are_the_duals_extension_candidates(self):
        rng = random.Random(20)
        bases = [M(name) for name in list_names()] + [_random_simple_cosimple(rng) for _ in range(40)]
        compared = 0
        for m in bases:
            if not simplicity(m)[1]:
                with pytest.raises(ValueError):
                    growth_candidates(m, "coextension")
                with pytest.raises(ValueError):
                    growth_candidates(dual(m), "extension")
                continue
            rows = growth_candidates(m, "coextension")
            cols = growth_candidates(dual(m), "extension")
            assert [(v.length, v.bits) for v in rows] == [(v.length, v.bits) for v in cols], m.matrix.rows
            compared += 1
        assert compared >= 60

    @pytest.mark.parametrize("kind", ["extension", "coextension"])
    def test_growth_is_built_iff_its_generator_is_a_candidate(self, kind):
        # Oracle: a generator must differ from every column of m (for an
        # extension) or of dual(m) (for a coextension), as Matroid packs
        # them, and be nonzero.
        checked = 0
        for name in list_names():
            m = M(name)
            other = m if kind == "extension" else dual(m)
            length = other.rank
            if length > 8:
                continue
            columns = set(other._cols)
            allowed = {bits for bits in range(1, 1 << length) if bits not in columns}
            if simplicity(other)[0]:
                assert {v.bits for v in growth_candidates(m, kind)} == allowed, name
            for bits in range(1 << length):
                v = BitVector(length, bits)
                if bits in allowed:
                    assert _grow(kind)(m, v).size == m.size + 1
                    checked += 1
                else:
                    with pytest.raises(ValueError):
                        _grow(kind)(m, v)
            message = "^column length must equal the rank$" if kind == "extension" else "^row length must equal n - r$"
            for wrong in (length - 1, length + 1):
                if wrong >= 0:
                    with pytest.raises(ValueError, match=message):
                        _grow(kind)(m, BitVector(wrong, 0))
        assert checked > 100

    def test_coextension_candidates_build_no_matroid(self, monkeypatch):
        built = []
        init = Matroid.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        bases = [M(name) for name in list_names()]
        monkeypatch.setattr(Matroid, "__init__", counting_init)
        rows = [growth_candidates(m, "coextension") for m in bases if simplicity(m)[1]]
        assert sum(map(len, rows)) > 0
        assert built == []

    def test_growths_compute_no_rank(self, monkeypatch):
        # Building a growth reads and writes matrices only: a coextension's
        # new cocircuit follows from the standard form and is not asked for.
        # Fresh bases start with no rank tables, and no base or child has
        # any afterwards, so no rank was read around `rank_of_mask` either.
        def no_rank(self, mask):
            raise AssertionError("rank computed")

        bases = {name: fresh(name) for name in ("S8", "P9", "E4")}
        monkeypatch.setattr(Matroid, "rank_of_mask", no_rank)
        for name, m in bases.items():
            for kind in ("extension", "coextension"):
                children = [grow(m, kind, v) for v in growth_candidates(m, kind)]
                assert children, (name, kind)
                assert m._rank_tables is None and all(c._rank_tables is None for c in children), (name, kind)

    def test_unknown_kind_is_named(self):
        for fn in (growth_candidates, growth_labels):
            with pytest.raises(ValueError, match="^unknown growth kind 'growth'$"):
                fn(M("S8"), "growth")
        with pytest.raises(ValueError, match="^unknown growth kind 'growth'$"):
            grow(M("S8"), "growth", BitVector(4, 0b11))

    def test_coextension_candidates_require_a_cosimple_matroid(self):
        # Element 3 is a coloop: D's first row is zero.
        m = make_matroid(BitMatrix.from_rows(["100", "011"]))
        with pytest.raises(ValueError, match="^coextension candidates require a cosimple matroid$"):
            growth_candidates(m, "coextension")


class TestGrowthClasses:
    def test_f7star_extension_classes(self):
        classes = enumerate_growth_classes(M("F7*"), "extension")
        assert sorted(len(c.members) for c in classes) == [1, 7]

    @pytest.mark.parametrize("name", ["S8", "P9", "E4", "E5"])
    @pytest.mark.parametrize("kind", ["extension", "coextension"])
    def test_classes_are_ordered_by_least_generator(self, name, kind):
        # Growths arrive in ascending bracket order, so the classes need no
        # sorting: members ascend, each representative is the child of its
        # class's least member, and classes ascend by least member.
        m = M(name)
        children = {v: grow(m, kind, v) for v in growth_candidates(m, kind)}
        classes = enumerate_growth_classes(m, kind)
        assert len(classes) > 1
        for cls in classes:
            values = [v.value for v in cls.members]
            assert values == sorted(values)
            assert cls.representative == children[cls.members[0]]
        least = [cls.members[0].value for cls in classes]
        assert least == sorted(least)

    def test_classes_partition_all_candidates(self):
        m = M("P9")
        classes = enumerate_growth_classes(m, "coextension")
        members = [v.bits for c in classes for v in c.members]
        assert sorted(members) == sorted(v.bits for v in growth_candidates(m, "coextension"))

    def test_classes_are_enumerated_once_per_matroid_and_kind(self, monkeypatch):
        # The parent keeps its classes: asking again on the same object
        # returns the same tuple and confirms no isomorphism.  The other
        # kind, and a fresh copy of the parent, enumerate afresh.
        def view(classes):
            return [(c.representative.matrix.rows, c.representative.labels, c.members) for c in classes]

        m = fresh("S8")
        first = {kind: enumerate_growth_classes(m, kind) for kind in ("extension", "coextension")}
        calls = []
        isomorphism = iso.isomorphism
        monkeypatch.setattr(iso, "isomorphism", lambda a, b: calls.append(a) or isomorphism(a, b))
        for kind, classes in first.items():
            assert enumerate_growth_classes(m, kind) is classes, kind
            assert not calls, kind
            again = enumerate_growth_classes(fresh("S8"), kind)
            assert again is not classes and calls, kind
            assert view(again) == view(classes), kind
            calls.clear()
        assert view(first["extension"]) != view(first["coextension"])

    def test_kept_classes_cannot_be_changed(self):
        classes = enumerate_growth_classes(fresh("P9"), "extension")
        with pytest.raises(AttributeError):
            classes.append(classes[0])
        with pytest.raises(AttributeError):
            classes[0].members.append(classes[1].members[0])
        with pytest.raises(FrozenInstanceError):
            classes[0].members = ()

    @pytest.mark.parametrize("name", ["S8", "P9", "E4", "E5"])
    def test_classes_are_invariant_under_presentation(self, name):
        # Other bases order the generators, and so the representatives,
        # differently; class sizes and representatives' weight profiles
        # do not change.
        def summary(m, kind):
            classes = enumerate_growth_classes(m, kind)
            return Counter((len(c.members), weight_profile(c.representative)) for c in classes)

        expected = {kind: summary(fresh(name), kind) for kind in ("extension", "coextension")}
        rng = random.Random(8)
        for _ in range(10):
            m = relabeled_copy(M(name), rng)
            assert {kind: summary(m, kind) for kind in expected} == expected, m.labels

    def test_classes_match_plain_iso_index_grouping(self):
        # Orbit reuse places generators without building their growths; the
        # classes must be those of building every growth and grouping it in
        # an IsoIndex: representatives' rows and labels, members, and class
        # order, on the catalog (but PG(3,2)'s 2,000-odd growths of one
        # kind) and on seeded random parents in shuffled presentations.
        def plain(m, kind):
            groups, index = [], IsoIndex()
            for v in growth_candidates(m, kind):
                child = grow(m, kind, v)
                members, _ = index.find(child, list)
                if not members:
                    groups.append((child, members))
                members.append(v)
            return [(rep.matrix.rows, rep.labels, tuple(vs)) for rep, vs in groups]

        def orbits(m, kind):
            classes = enumerate_growth_classes(m, kind)
            return [(c.representative.matrix.rows, c.representative.labels, c.members) for c in classes]

        rng = random.Random(31)
        parents = [fresh(name) for name in list_names() if get(name).matroid.size <= 12]
        parents += [relabeled_copy(_random_simple_cosimple(rng), rng) for _ in range(150)]
        seen = Counter()
        for m in parents:
            for kind in ("extension", "coextension"):
                expected = plain(m, kind)
                assert orbits(m, kind) == expected, (m.matrix.rows, m.labels, kind)
                seen[kind] += len(expected)
                seen["merged"] += sum(len(vs) > 1 for _, _, vs in expected)
        assert min(seen.values()) >= 300, seen

    def test_recorded_automorphisms_fix_the_parent(self, monkeypatch):
        # Every automorphism alpha that the orbit rule records maps m's
        # frame onto itself by GF(2) columns: the matrix whose columns are
        # the frame's columns at alpha of its basis labels takes the column
        # of every label x to the column of alpha(x).  The frame is m for
        # extensions and dual(m) for coextensions, where the rows are carried.
        recorded = []
        made = extension.carrier

        def recording(p2, p1, kind, sigma):
            recorded.append((p2, p1, kind, dict(sigma)))
            return made(p2, p1, kind, sigma)

        monkeypatch.setattr(extension, "carrier", recording)
        rng = random.Random(31)
        parents = [fresh(name) for name in ("S8", "P9", "E4", "E5", "T12", "T12/e", "M(K3,3)", "S10*")]
        parents += [relabeled_copy(_random_simple_cosimple(rng), rng) for _ in range(60)]
        for m in parents:
            for kind in ("extension", "coextension"):
                enumerate_growth_classes(m, kind)
        seen = Counter()
        for p2, p1, kind, alpha in recorded:
            assert p2 is p1 and sorted(alpha) == sorted(alpha.values()) == sorted(p1.labels)
            frame = p1 if kind == "extension" else dual(p1)
            images = [frame.column_of(alpha[b]) for b in frame.labels[: frame.rank]]
            for x in frame.labels:
                col, image = frame.column_of(x), 0
                for i, c in enumerate(images):
                    if (col >> i) & 1:
                        image ^= c
                assert image == frame.column_of(alpha[x]), (p1.matrix.rows, kind, alpha)
            seen[kind] += 1
        assert min(seen.values()) >= 50, seen

    def test_an_automorphism_carrier_builds_one_dual(self, monkeypatch):
        # A coextension carrier reads rows in the parents' duals, and the
        # two parents of an automorphism are one object: each carrier the
        # orbit rule makes for a fresh T12's coextensions builds one dual.
        duals, per_carrier = [], []
        made, build = extension.carrier, extension.dual

        def recording(p2, p1, kind, sigma):
            before = len(duals)
            carry = made(p2, p1, kind, sigma)
            per_carrier.append(len(duals) - before)
            return carry

        monkeypatch.setattr(extension, "dual", lambda m: duals.append(m) or build(m))
        monkeypatch.setattr(extension, "carrier", recording)
        t12 = fresh("T12")
        enumerate_growth_classes(t12, "coextension")
        assert per_carrier and per_carrier == [1] * len(per_carrier)
        assert all(m is t12 for m in duals)

    def test_excluded_filter_drops_children_with_minors(self):
        # growth_classes_in keeps a class iff its representative has no
        # excluded minor, and keeps some classes and drops others.
        family = [M("P9"), M("P9*")]
        for kind in ("extension", "coextension"):
            classes = enumerate_growth_classes(M("S8"), kind)
            kept = growth_classes_in(M("S8"), kind, ExcludedClass(family))
            assert kept == [c for c in classes if in_class(c.representative, family)], kind
            assert kept and len(kept) < len(classes), kind
            assert growth_classes_in(M("S8"), kind, family) == kept, kind

    def test_grow_builds_each_kind_by_its_own_step(self):
        m = M("P9")
        for kind, step in (("extension", extend), ("coextension", coextend)):
            vectors = growth_candidates(m, kind)
            assert [grow(m, kind, v) for v in vectors] == [step(m, v) for v in vectors], kind

