"""Unit and property tests for matroid construction, duality, and minors."""

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from binmat import connectivity, gf2, iso, matroid
from binmat.catalog import get, list_names
from binmat.gf2 import BitMatrix, BitVector, rank_of_columns
from binmat.matroid import (
    Matroid,
    dual,
    is_circuit,
    is_cocircuit,
    is_union_of_circuits,
    is_union_of_cocircuits,
    make_matroid,
    rank_row,
    rank_tables,
    remove,
    simplicity,
)

from conftest import (
    fresh,
    oracle_circuits,
    oracle_cocircuits,
    oracle_cycle_masks,
    oracle_lam,
    oracle_rank,
    random_matroids,
    relabeled_copy,
)


def M(name):
    return get(name).matroid


def brute_circuits(m):
    """Minimal dependent label sets, found by exhaustive search (oracle)."""
    labels = sorted(m.ground_set())
    dependent = []
    for size in range(1, m.size + 1):
        for combo in combinations(labels, size):
            if oracle_rank(m, combo) < size:
                if not any(d <= set(combo) for d in dependent):
                    dependent.append(frozenset(combo))
    return sorted(dependent, key=lambda c: tuple(sorted(c)))


class TestConstruction:
    def test_make_matroid_standardizes(self):
        mat = BitMatrix.from_rows(["0111", "1011"])
        m = make_matroid(mat)
        # Identity prefix with default labels 1..n.
        assert m.labels == (1, 2, 3, 4) or sorted(m.labels) == [1, 2, 3, 4]
        assert m.matrix.columns()[: m.rank] == [1 << i for i in range(m.rank)]

    def test_rank_of_matches_oracle_on_catalog(self):
        for name in ("F7", "S8", "P9", "E4", "T12"):
            m = M(name)
            labels = sorted(m.ground_set())
            for combo in combinations(labels, 3):
                assert m.rank_of(combo) == oracle_rank(m, combo)
            assert m.rank_of(labels) == m.rank

    def test_column_of_and_mask_round_trip(self):
        m = M("S8")
        for lab in m.ground_set():
            mask = m.mask_of({lab})
            assert m.labels_of(mask) == frozenset({lab})
        assert m.labels_of(m.full_mask) == m.ground_set()

    def test_repeated_labels_rejected_by_both_constructors(self):
        mat = BitMatrix.from_rows(["1011", "0111"])
        with pytest.raises(ValueError, match="distinct"):
            Matroid(mat, (1, 2, 2, 3))
        with pytest.raises(ValueError, match="distinct"):
            make_matroid(mat, labels=[1, 2, 2, 3])
        with pytest.raises(ValueError, match="one label per column"):
            make_matroid(mat, labels=[1, 2, 3])

    def test_constructor_rejects_wrong_label_count_and_non_standard_form(self):
        with pytest.raises(ValueError, match="^one label per column required$"):
            Matroid(BitMatrix.from_rows(["1011", "0111"]), (1, 2, 3))
        with pytest.raises(ValueError, match=r"^matrix is not in standard form \[I_r \| D\]$"):
            Matroid(BitMatrix.from_rows(["0111", "1011"]), (1, 2, 3, 4))

    def test_columns_match_the_matrix(self):
        # The constructor packs columns from the rows' set bits; BitMatrix.columns
        # reads them one entry at a time.
        cases = [M(name) for name in list_names()]
        rng = random.Random(19)
        for n, r in [(0, 0), (3, 0), (1, 1), (4, 4)] + [(n, rng.randint(0, n)) for n in range(1, 16)]:
            rows = tuple((1 << i) | (rng.randrange(1 << (n - r)) << r) for i in range(r))
            cases.append(Matroid(BitMatrix(r, n, rows), tuple(range(1, n + 1))))
        assert {(m.rank == 0, m.size == 0) for m in cases} == {(False, False), (True, False), (True, True)}
        for m in cases:
            assert m._cols == tuple(m.matrix.columns()), (m.matrix.rows, m.rank, m.size)
        # A unit column out of place, and a unit block in the wrong order.
        for rows in (["110", "010"], ["010", "100"]):
            with pytest.raises(ValueError, match=r"^matrix is not in standard form \[I_r \| D\]$"):
                Matroid(BitMatrix.from_rows(rows), (1, 2, 3))

    def test_column_of_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="^unknown element label 99$"):
            M("S8").column_of(99)

    def test_equality_is_labeled(self):
        a = fresh("S8")
        b = fresh("S8")
        assert a == b and hash(a) == hash(b)
        assert a != fresh("Z4")


def oracle_equal(a, b):
    """Equal labelled matroids: the same ground set and the same cycle
    space as masks over label bits (bit l = label l), built here."""

    def key(m):
        return frozenset(
            sum(1 << lab for p, lab in enumerate(m.labels) if (mask >> p) & 1) for mask in oracle_cycle_masks(m)
        )

    return a.ground_set() == b.ground_set() and key(a) == key(b)


def _re_presented(m, rng):
    """m after random row operations on [I_r | D] and a random column
    order, labels carried: the same labelled matroid, which `make_matroid`
    presents over the first basis of the new column order."""
    rows = list(m.matrix.rows)
    for _ in range(2 * m.rank if m.rank > 1 else 0):
        i, j = rng.sample(range(m.rank), 2)
        rows[i] ^= rows[j]
    perm = rng.sample(range(m.size), m.size)
    permuted = tuple(sum(((row >> p) & 1) << q for q, p in enumerate(perm)) for row in rows)
    return make_matroid(BitMatrix(m.rank, m.size, permuted), [m.labels[p] for p in perm])


def _flipped(m, rng):
    """m with one entry of D flipped, labels kept: another matroid."""
    rows = list(m.matrix.rows)
    rows[rng.randrange(m.rank)] ^= 1 << rng.randrange(m.rank, m.size)
    return Matroid(BitMatrix(m.rank, m.size, tuple(rows)), m.labels)


def _new_label(m, rng):
    """m with one label replaced by one outside its ground set."""
    labels = list(m.labels)
    labels[rng.randrange(m.size)] = max(labels) + 1
    return Matroid(m.matrix, tuple(labels))


class TestEquality:
    @pytest.mark.parametrize("seed", [5, 34, 61])
    def test_equality_and_hash_agree_with_the_cycle_space_oracle(self, seed):
        # Loops, coloops, parallel pairs, rank 0 and corank 0 all occur in
        # `random_matroids`; labels are shuffled, so positions and labels
        # differ.
        rng = random.Random(seed)
        seen = Counter()
        for m in random_matroids(seed, count=40, max_size=10):
            again = _re_presented(m, rng)
            seen["other basis"] += set(again.labels[: m.rank]) != set(m.labels[: m.rank])
            pairs = [("re-presented", again, True), ("relabeled copy", relabeled_copy(m, rng), True)]
            if 0 < m.rank < m.size:
                pairs.append(("D entry flipped", _flipped(m, rng), False))
            if m.size:
                pairs.append(("other ground set", _new_label(m, rng), False))
            for kind, other, equal in pairs:
                assert oracle_equal(m, other) is equal, (kind, m.matrix.rows, m.labels)
                assert (m == other) is equal and (other == m) is equal, (kind, m.matrix.rows, m.labels)
                if equal:
                    assert hash(m) == hash(other), (kind, m.matrix.rows, m.labels)
                seen[kind] += 1
        assert min(seen.values()) >= 10, seen

    def test_a_30_element_pair_compares_without_listing_a_space(self, monkeypatch):
        # Its cycle space has 2^20 vectors; equality and hashing list none.
        def no_space(*args):
            raise AssertionError("space listed")

        monkeypatch.setattr(gf2, "span", no_space)
        monkeypatch.setattr(matroid, "span", no_space)
        monkeypatch.setattr(matroid, "cycle_space_masks", no_space)
        monkeypatch.setattr(Matroid, "cycle_masks", no_space)
        rng = random.Random(30)
        n, r = 30, 10
        cols = [1 << k for k in range(r)] + [rng.getrandbits(r) for _ in range(n - r)]
        rows = tuple(sum(((c >> k) & 1) << j for j, c in enumerate(cols)) for k in range(r))
        m = Matroid(BitMatrix(r, n, rows), tuple(rng.sample(range(1, n + 1), n)))
        again = _re_presented(m, rng)
        assert set(again.labels[:r]) != set(m.labels[:r])
        assert m == again and hash(m) == hash(again)
        assert m != _flipped(m, rng) and m != _new_label(m, rng)


def _eliminated_ranks(m):
    """r(X) of every position mask X by GF(2) elimination, the oracle the
    rank tables share no code with."""
    cols = m._cols
    return [rank_of_columns(cols[p] for p in range(m.size) if (mask >> p) & 1) for mask in range(1 << m.size)]


class TestRankTables:
    def test_catalog_ranks_match_elimination_on_every_mask(self):
        # Every catalog entry: 40 of at most 12 elements, and PG(3,2) and
        # PG(3,2)*, whose 15 elements split 7 | 8; PG(3,2)*'s index masks
        # run to 2048 bits.
        cases = [fresh(name) for name in list_names()]
        assert sorted(m.size for m in cases)[-3:] == [12, 15, 15] and max(m.rank for m in cases) == 11
        for m in cases:
            assert [m.rank_of_mask(mask) for mask in range(1 << m.size)] == _eliminated_ranks(m), m.labels

    def test_random_ranks_match_elimination_on_every_mask(self):
        # Seeded random matroids with loops, coloops and parallel pairs,
        # of rank 0 and of one element, and the empty matroid.
        cases = random_matroids(seed=29, count=60, max_size=12) + [Matroid(BitMatrix(0, 0, ()), ())]
        assert {m.size for m in cases} >= {0, 1, 12} and min(m.rank for m in cases) == 0
        assert any(0 in m._cols for m in cases)  # a loop
        assert any(oracle_rank(m, m.ground_set() - {e}) < m.rank for m in cases for e in m.labels)  # a coloop
        for m in cases:
            ranks = [m.rank_of_mask(mask) for mask in range(1 << m.size)]
            assert ranks == _eliminated_ranks(m), (m.matrix.rows, m.labels)

    def test_rank_rows_match_elimination_on_every_mask(self):
        # Row t holds the masks s | t << h in order of s, so the rows in
        # order of t list every mask in order.  The 14-element matroid of
        # rank 13 is past the tables' bound: its rows are eliminated.
        rng = random.Random(33)
        cols = [1 << k for k in range(13)] + [rng.getrandbits(13)]
        rows = tuple(sum(((c >> k) & 1) << j for j, c in enumerate(cols)) for k in range(13))
        large = Matroid(BitMatrix(13, 14, rows), tuple(range(1, 15)))
        cases = [fresh("P9"), fresh("T12"), fresh("PG(3,2)*"), large, Matroid(BitMatrix(0, 0, ()), ())]
        cases += random_matroids(seed=33, count=20, max_size=11)
        for m in cases:
            table = [rank_row(m, t) for t in range(1 << (m.size - m.size // 2))]
            assert {len(row) for row in table} == {1 << (m.size // 2)}
            assert [r for row in table for r in row] == _eliminated_ranks(m), (m.matrix.rows, m.labels)
        assert large._rank_tables is None and large._cocycle_index is None

    def test_large_matroids_are_eliminated_not_tabulated(self):
        # Tables are kept up to n = 16 and r = 12.  Past either bound no
        # table and no cocycle index is built, and ranks still match.
        rng = random.Random(30)
        for n, r, tabulated in ((16, 12, True), (17, 6, False), (14, 13, False), (30, 15, False)):
            cols = [1 << k for k in range(r)] + [rng.getrandbits(r) for _ in range(n - r)]
            rows = tuple(sum(((c >> k) & 1) << j for j, c in enumerate(cols)) for k in range(r))
            m = Matroid(BitMatrix(r, n, rows), tuple(range(1, n + 1)))
            assert (rank_tables(m) is not None) == tabulated, (n, r)
            for _ in range(40):
                x = rng.sample(m.labels, rng.randint(0, n))
                assert m.rank_of(x) == oracle_rank(m, x), (n, r, x)
            if not tabulated:
                assert m._rank_tables is None and m._cocycle_index is None, (n, r)

    def test_tables_are_built_once_per_matroid(self, monkeypatch):
        # Ranks, lambda and both connectivity sweeps all read the tables
        # that the first rank built: one half-table each.
        built = []
        real = matroid._avoiding

        def counting(contains, full):
            built.append(len(contains))
            return real(contains, full)

        monkeypatch.setattr(matroid, "_avoiding", counting)
        m = fresh("P9")
        assert not hasattr(m, "_rank_cache") and m._rank_tables is None
        tables = rank_tables(m)
        assert built == [4, 5] and tables[0] == 4
        assert m.rank_of(m.labels[:3]) == 3 and connectivity.lam(m, m.labels[:4]) == oracle_lam(m, m.labels[:4])
        assert connectivity.is_n_connected(m, 3) and not connectivity.is_internally_4_connected(m)
        assert connectivity.nonminimal_exact_3seps(m)
        assert rank_tables(m) is tables and built == [4, 5]
        # The tables read the matroid's one cocycle index.
        assert iso.cocycle_index is matroid.cocycle_index and m._cocycle_index is not None
        # A fresh copy carries no cached state and builds its own.
        other = fresh("P9")
        assert other._rank_tables is None
        assert rank_tables(other) == tables and rank_tables(other) is not tables
        assert built == [4, 5, 4, 5]


class TestCircuits:
    def test_f7_circuits_match_brute_force(self):
        m = M("F7")
        assert sorted(oracle_circuits(m), key=lambda c: tuple(sorted(c))) == brute_circuits(m)

    def test_s8_circuits_match_brute_force(self):
        m = M("S8")
        assert sorted(oracle_circuits(m), key=lambda c: tuple(sorted(c))) == brute_circuits(m)

    def test_cocircuits_are_dual_circuits(self):
        for name in ("F7", "P9", "E4"):
            m = M(name)
            assert sorted(oracle_cocircuits(m), key=sorted) == sorted(
                oracle_circuits(dual(m)), key=sorted
            )

    def test_union_of_circuits_and_cocircuits(self):
        m = M("F7")
        # Any circuit is a union of circuits; the full ground set is both.
        c = min(oracle_circuits(m), key=sorted)
        assert is_union_of_circuits(m, c)
        full = m.ground_set()
        assert is_union_of_circuits(m, full) and is_union_of_cocircuits(m, full)
        # A single element of a simple matroid is neither.
        assert not is_union_of_circuits(m, {1}) and not is_union_of_cocircuits(m, {1})

    def test_union_predicates_match_circuit_and_cocircuit_lists(self):
        # The rank tests against unions of the enumerated (co)circuits
        # inside A, on seeded subsets plus the empty set and E.
        rng = random.Random(12)
        checked = 0
        for name in list_names():
            m = M(name)
            if m.size > 12:
                continue
            labels = sorted(m.ground_set())
            subsets = [frozenset(), m.ground_set()] + [
                frozenset(rng.sample(labels, rng.randint(1, m.size - 1))) for _ in range(200)
            ]
            fams = oracle_circuits(m), oracle_cocircuits(m)
            for a in subsets:
                expected = tuple(
                    frozenset().union(*(c for c in fam if c <= a)) == a for fam in fams
                )
                assert (is_union_of_circuits(m, a), is_union_of_cocircuits(m, a)) == expected, (name, a)
                checked += 1
        assert checked > 7000

    def test_rank_predicates_match_the_lists_on_every_subset_of_random_matroids(self):
        # Loops, coloops and parallel pairs are where a test that leans on
        # simplicity would go wrong.
        seen = Counter()
        for m in random_matroids(seed=21, count=48):
            circs, cocircs = set(oracle_circuits(m)), set(oracle_cocircuits(m))
            seen.update(
                loop=any(len(c) == 1 for c in circs),
                coloop=any(len(c) == 1 for c in cocircs),
                parallel=any(len(c) == 2 for c in circs),
            )
            labels = sorted(m.ground_set())
            for size in range(m.size + 1):
                for s in map(frozenset, combinations(labels, size)):
                    assert is_circuit(m, s) == (s in circs), (m, sorted(s))
                    assert is_cocircuit(m, s) == (s in cocircs), (m, sorted(s))
        assert min(seen["loop"], seen["coloop"], seen["parallel"]) >= 10

    def test_rank_predicates_match_the_lists_on_the_catalog(self):
        # Every listed circuit and cocircuit, every set of at most 4
        # elements, and a seeded sample of larger sets, on all 42 entries.
        rng = random.Random(9)
        names = list_names()
        assert len(names) == 42
        for name in names:
            m = fresh(name)
            circs, cocircs = set(oracle_circuits(m)), set(oracle_cocircuits(m))
            labels = sorted(m.ground_set())
            small = [frozenset(c) for size in range(5) for c in combinations(labels, size)]
            large = [frozenset(rng.sample(labels, rng.randint(5, m.size))) for _ in range(200)]
            for s in [*circs, *cocircs, *small, *large]:
                assert is_circuit(m, s) == (s in circs), (name, sorted(s))
                assert is_cocircuit(m, s) == (s in cocircs), (name, sorted(s))

    def test_simplicity_flags(self):
        m = M("S10")
        simple, cosimple = simplicity(m)
        assert simple and cosimple
        # A matroid with a repeated column is not simple.
        mm = make_matroid(BitMatrix.from_rows(["1011", "0111"]))
        assert not simplicity(mm)[0]


class TestDuality:
    def test_dual_involution_on_all_catalog_entries(self):
        for name in list_names():
            m = M(name)
            assert dual(dual(m)) == m

    def test_dual_exchanges_rank_and_corank(self):
        m = M("P9")
        d = dual(m)
        assert d.rank == m.size - m.rank
        assert d.ground_set() == m.ground_set()

    def test_dual_rank_function(self):
        # r*(X) = |X| + r(E - X) - r(M).
        m = M("S8")
        d = dual(m)
        for combo in combinations(sorted(m.ground_set()), 3):
            x = frozenset(combo)
            expected = len(x) + m.rank_of(m.ground_set() - x) - m.rank
            assert d.rank_of(x) == expected


class TestRemove:
    def test_deletion_keeps_contained_circuits(self):
        m = M("P9")
        mm = remove(m, deletions={9})
        kept = {c for c in oracle_circuits(m) if 9 not in c}
        assert set(oracle_circuits(mm)) == kept
        assert mm.ground_set() == m.ground_set() - {9}

    def test_contraction_rank_formula(self):
        m = M("P9")
        for lab in sorted(m.ground_set())[:4]:
            mm = remove(m, contractions={lab})
            assert mm.rank == m.rank - m.rank_of({lab})
            assert mm.ground_set() == m.ground_set() - {lab}

    def test_contraction_rank_function(self):
        # r_{M/C}(X) = r(X u C) - r(C).
        m = M("S8")
        c = {1, 5}
        mm = remove(m, contractions=c)
        for combo in combinations(sorted(mm.ground_set()), 2):
            x = frozenset(combo)
            assert mm.rank_of(x) == m.rank_of(x | c) - m.rank_of(c)

    def test_deletion_contraction_commute(self):
        m = M("E4")
        a = remove(remove(m, deletions={10}), contractions={3})
        b = remove(remove(m, contractions={3}), deletions={10})
        c = remove(m, deletions={10}, contractions={3})
        assert a == b == c

    def test_duality_swaps_deletion_and_contraction(self):
        m = M("P9")
        assert dual(remove(m, deletions={2})) == remove(dual(m), contractions={2})

    def test_remove_nothing_is_identity(self):
        m = M("S8")
        assert remove(m) == m

    def test_removing_every_element_gives_the_empty_matroid(self):
        m = M("S10")
        for dels, cons in ((m.labels, ()), ((), m.labels), ({1, 2, 3}, set(range(4, 11)))):
            mm = remove(m, dels, cons)
            assert (mm.rank, mm.size, mm.labels) == (0, 0, ())
            assert mm.matrix == BitMatrix(0, 0, ())

    def test_unknown_label_rejected(self):
        with pytest.raises((KeyError, ValueError)):
            remove(M("S8"), deletions={99})

    def test_overlapping_deletions_and_contractions_rejected(self):
        with pytest.raises(ValueError, match="^deletions and contractions overlap$"):
            remove(M("S8"), deletions={1, 2}, contractions={2, 3})


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["F7", "S8", "P9", "Z4", "M(K3,3)"]),
    st.booleans(),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_remove_rank_matches_oracle(name, contract_circuit, delete_cocircuit, rng):
    """Every rank of M \\ D / C is r(X u C) - r(C) by brute force, for a
    contraction set that may be a circuit and a deletion set that may
    hold a cocircuit, and the minor is in the standard form that
    make_matroid gives its own columns in survivor order."""
    m = M(name)
    labels = sorted(m.ground_set())
    if contract_circuit:
        smallest = min(len(c) for c in oracle_circuits(m))
        cons = rng.choice([c for c in oracle_circuits(m) if len(c) == smallest])
    else:
        cons = frozenset(rng.sample(labels, rng.randint(0, 3)))
    rest = [e for e in labels if e not in cons]
    cocircs = [c for c in oracle_cocircuits(m) if not c & cons and len(c) < len(rest)]
    if delete_cocircuit and cocircs:
        dels = rng.choice(cocircs)
    else:
        dels = frozenset(rng.sample(rest, rng.randint(0, 3)))
    mm = remove(m, dels, cons)
    survivors = [e for e in m.labels if e not in dels and e not in cons]
    assert sorted(mm.ground_set()) == sorted(survivors)
    base = oracle_rank(m, cons)
    for size in range(len(survivors) + 1):
        for x in combinations(survivors, size):
            assert mm.rank_of(x) == oracle_rank(m, set(x) | cons) - base

    cols = [mm.column_of(e) for e in survivors]
    rows = tuple(sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(mm.rank))
    rebuilt = make_matroid(BitMatrix(mm.rank, len(cols), rows), survivors)
    assert (mm.matrix, mm.labels) == (rebuilt.matrix, rebuilt.labels)


def _presentation(m):
    return (m.matrix.nrows, m.matrix.ncols, m.matrix.rows, m.labels)


def _small_splits(labels):
    """Every (deletions, contractions) pair of at most two elements."""
    yield (), ()
    for e in labels:
        yield (e,), ()
        yield (), (e,)
    for a, b in combinations(labels, 2):
        yield (a, b), ()
        yield (a,), (b,)
        yield (b,), (a,)
        yield (), (a, b)


def test_presentations_are_pinned():
    """The exact [I_r | D] rows and label order of every catalog matroid
    and of every minor `remove` gives over splits of at most 2 elements.
    Canonical keys, witnesses and the report all read these presentations,
    so a refactor of the row reduction must leave them byte-identical."""
    names = list_names()
    catalog = [(name, _presentation(M(name))) for name in names]
    minors = [
        _presentation(remove(M(name), d, c))
        for name in names
        for d, c in _small_splits(sorted(M(name).labels))
    ]
    assert len(catalog) == 42 and len(minors) == 8566
    assert hashlib.sha256(repr(catalog).encode()).hexdigest() == (
        "baa11a7592e2e3ae1d04856e403046c3285c92cd2ea00231c149fe949a6bf931"
    )
    assert hashlib.sha256(repr(minors).encode()).hexdigest() == (
        "3c395a97a2d2a2b91eb187087906cb0ace73923cb35ec63334fdf5b0b8a178ff"
    )
