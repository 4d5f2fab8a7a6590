"""Unit and property tests for canonical forms and isomorphism testing."""

import hashlib
import random
from itertools import combinations, permutations
from math import comb

import pytest

from binmat import iso
from binmat.catalog import get, list_names
from binmat.gf2 import BitMatrix, span
from binmat.iso import (
    are_isomorphic,
    canonical_form,
    canonical_key,
    cocycle_index,
    element_colours,
    isomorphism,
    weight_profile,
)
from binmat.matroid import Matroid, dual, make_matroid, rank_tables

from conftest import (
    fresh,
    oracle_cocycle_masks,
    oracle_cycle_masks,
    oracle_rank,
    oracle_weight_profile,
    random_matroids,
    relabeled_copy,
)


def M(name):
    return get(name).matroid


def brute_isomorphic(a, b):
    """Permutation-search isomorphism oracle for small ground sets."""
    if (a.rank, a.size) != (b.rank, b.size):
        return False
    amasks = frozenset(oracle_cycle_masks(a))
    bmasks = frozenset(oracle_cycle_masks(b))
    for perm in permutations(range(a.size)):
        mapped = set()
        for mask in amasks:
            out = 0
            p = 0
            while mask:
                if mask & 1:
                    out |= 1 << perm[p]
                mask >>= 1
                p += 1
            mapped.add(out)
        if mapped == bmasks:
            return True
    return False


KEYS = {
    "PG(3,2)": b"4|15|3,5,6,7,9,10,11,12,13,14,15",
    "PG(3,2)*": b"d4|15|3,5,6,7,9,10,11,12,13,14,15",
    "T12": b"6|12|7,11,21,41,49,62",
    "T12*": b"6|12|7,11,21,41,49,62",
    "S10": b"4|10|3,5,6,9,10,13",
    "S10*": b"d4|10|3,5,6,9,10,13",
    "E7*": b"5|10|3,12,21,26,31",
    "F7": b"3|7|3,5,6,7",
}


class TestCanonicalKey:
    def test_invariant_under_relabeling(self):
        rng = random.Random(11)
        for name in ("F7", "S8", "P9", "E4", "S10"):
            m = fresh(name)
            key = canonical_key(m)
            for _ in range(5):
                assert canonical_key(relabeled_copy(m, rng)) == key

    def test_invariant_under_change_of_basis(self):
        # Standardizing on a different basis is a row-equivalent
        # presentation of the same matroid.
        m = fresh("P9")
        alt = make_matroid(
            BitMatrix(m.rank, m.size, tuple(m.matrix.rows[::-1])), m.labels
        )
        assert canonical_key(alt) == canonical_key(m)

    def test_distinguishes_nonisomorphic_pairs(self):
        assert canonical_key(M("S8")) != canonical_key(M("AG(3,2)"))
        assert canonical_key(M("F7")) != canonical_key(M("F7*"))
        assert canonical_key(M("S10")) != canonical_key(M("S10*"))

    def test_dual_pairs_share_keys_when_self_dual(self):
        for name in ("S8", "P9", "E4", "E5", "T12"):
            m = M(name)
            self_dual = are_isomorphic(m, dual(m))
            assert self_dual == (canonical_key(m) == canonical_key(dual(m)))


    def test_keys_are_pinned(self):
        # Recorded before the basis search was pruned by automorphisms; the
        # pruning must not change a byte.  PG(3,2)* and S10* take the dual
        # branch, the others the plain one.
        assert {name: canonical_key(fresh(name)) for name in KEYS} == KEYS

    def test_every_catalog_key_is_pinned(self):
        # sha256 of b"name=key" lines over the sorted catalog names, recorded
        # before the row-order search compared search nodes only at their new
        # depth and before redundant automorphisms were dropped.
        lines = [name.encode() + b"=" + canonical_key(fresh(name)) for name in sorted(list_names())]
        assert len(lines) == 42
        digest = hashlib.sha256(b"\n".join(lines)).hexdigest()
        assert digest == "8b25c2c96358a2a25acdcf71a7ec72ae14c1ad69331c717e4bb418f69580f8a7"


def brute_canonical_form(m):
    """The definition of the canonical form, with no pruning: over every
    basis and every row order, the D block with its columns sorted, the
    least read row by row with the first row most significant."""
    r, n = m.rank, m.size
    best = None
    for basis in combinations(range(n), r):
        if m.rank_of_mask(sum(1 << p for p in basis)) < r:
            continue
        nonbasis = [j for j in range(n) if j not in basis]
        # Bit i of coords[p] says whether basis[p] is in the fundamental
        # circuit of nonbasis[i]: row p of the reduced D block.
        coords = []
        for p in range(r):
            rest = sum(1 << q for q in basis if q != basis[p])
            coords.append(
                sum(1 << i for i, j in enumerate(nonbasis) if m.rank_of_mask(rest | 1 << j) == r)
            )
        for order in permutations(range(r)):
            cols = sorted(
                sum(((coords[p] >> i) & 1) << (r - 1 - d) for d, p in enumerate(order))
                for i in range(n - r)
            )
            rows = tuple(tuple((c >> (r - 1 - d)) & 1 for c in cols) for d in range(r))
            if best is None or rows < best[0]:
                best = (rows, tuple(cols))
    return (r, n, best[1])


def _with_loops_coloops_and_parallels(rng, n, r):
    """A seeded [I_r | D] whose D columns come from a pool of at most three
    values, with 0 and unit vectors likely, and whose D rows may be zero."""
    pool = rng.sample([0] + [1 << i for i in range(r)] + [rng.randrange(1 << r) for _ in range(4)], 3)
    cols = [rng.choice(pool) for _ in range(n - r)]
    zero = rng.randrange(r + 1)  # row `zero` of D, if any, is cleared: a coloop
    cols = [c & ~(1 << zero) for c in cols]
    rows = tuple((1 << i) | sum(((c >> i) & 1) << (r + j) for j, c in enumerate(cols)) for i in range(r))
    return Matroid(BitMatrix(r, n, rows), tuple(range(1, n + 1)))


def _kinds(m):
    """Which of a loop, a coloop and a parallel pair m has."""
    cols = [m.column_of(lab) for lab in m.labels]
    return {
        "loop": 0 in cols,
        "coloop": any(m.rank_of_mask(m.full_mask & ~(1 << p)) < m.rank for p in range(m.size)),
        "parallel pair": len(set(c for c in cols if c)) < len([c for c in cols if c]),
    }


class TestCanonicalFormOracle:
    def test_random_matroids_match_the_definition(self):
        rng = random.Random(8)
        seen = set()
        for n in [rng.randint(1, 9) for _ in range(40)] + [1, 3, 5, 4, 5]:
            r = rng.randint(0, min(n, 5))
            m = _with_loops_coloops_and_parallels(rng, n, r)
            seen.add("rank 0" if r == 0 else "corank 0" if r == n else "other")
            seen.update(k for k, on in _kinds(m).items() if on)
            for copy in (m, relabeled_copy(m, rng), _scrambled(m, rng)):
                assert canonical_form(copy) == brute_canonical_form(m), (m.matrix.rows, r, n)
        assert seen == {"rank 0", "corank 0", "other", "loop", "coloop", "parallel pair"}

    # S10 and M(K3,3) and its dual have large automorphism groups, so the
    # search drops automorphisms that add nothing to the skipped bases.
    @pytest.mark.parametrize(
        "name", ["F7", "S8", "AG(3,2)", "P9", "PG(3,2)", "S10", "M(K3,3)", "M*(K3,3)"]
    )
    def test_catalog_matroids_match_the_definition(self, name):
        m = M(name)
        expected = brute_canonical_form(m)
        rng = random.Random(len(name))
        for copy in (fresh(name), relabeled_copy(m, rng), _scrambled(m, rng)):
            assert canonical_form(copy) == expected


def _image(perm, mask):
    """The position mask ``mask`` carried through the position map ``perm``."""
    return sum(1 << perm[p] for p in range(len(perm)) if (mask >> p) & 1)


def _pruning_cases():
    """20 seeded matroids with loops, coloops and parallel pairs."""
    rng = random.Random(16)
    return [_with_loops_coloops_and_parallels(rng, rng.randint(4, 9), rng.randint(1, 4)) for _ in range(20)]


class TestAutomorphismPruning:
    def test_reported_maps_are_automorphisms(self, monkeypatch):
        # Skipping a basis is sound only if every position map the row-order
        # search reports carries the cocycle space onto itself.  The spy
        # sees every reported map, kept as a generator or dropped.
        maps = []
        real = iso._min_key_for_basis

        def spy(basis, coords, best, automorphisms):
            before = len(automorphisms)
            best = real(basis, coords, best, automorphisms)
            maps.extend(automorphisms[before:])
            return best

        monkeypatch.setattr(iso, "_min_key_for_basis", spy)
        cases = [fresh(name) for name in ("PG(3,2)", "T12", "S10", "M(K3,3)")] + _pruning_cases()
        reported = []
        for m in cases:
            maps.clear()
            canonical_form(m)
            reported.append(len(maps))
            cocycles = set(oracle_cocycle_masks(m))
            for perm in maps:
                assert sorted(perm) == list(range(m.size))
                assert {_image(perm, c) for c in cocycles} == cocycles, (m.matrix.rows, perm)
        assert all(reported[:4]) and sum(map(bool, reported[4:])) >= 10, reported

    def test_only_bases_reach_the_row_order_search(self, monkeypatch):
        # The basis loop reads independence off the rank tables, so every
        # set it hands to `_reduced_coords` is a basis.
        seen = []
        real = iso._reduced_coords

        def spy(m, basis):
            seen.append(oracle_rank(m, [m.labels[p] for p in basis]) == m.rank)
            return real(m, basis)

        monkeypatch.setattr(iso, "_reduced_coords", spy)
        for m in [fresh(name) for name in list_names()]:
            canonical_key(m)
        for m in _pruning_cases():
            canonical_form(m)
        assert seen and all(seen), seen.count(False)

    def test_keys_past_the_rank_tables_bound(self):
        # 17 elements: `rank_of_mask` eliminates once per position set
        # instead of reading tables.
        rng = random.Random(17)
        m = _random_matroid(rng, 17, 4)
        assert rank_tables(m) is None
        key = canonical_key(m)
        assert key.startswith(b"4|17|")
        assert [canonical_key(relabeled_copy(m, rng)) for _ in range(2)] == [key, key]


class TestAreIsomorphic:
    def test_agrees_with_permutation_oracle(self):
        # Same-size pairs, both positive and negative cases.
        pairs = [
            ("F7", "F7"),
            ("F7", "F7*"),
            ("S8", "AG(3,2)"),
            ("S8", "S8*"),
            ("Z4", "Z4*"),
        ]
        rng = random.Random(5)
        for a_name, b_name in pairs:
            a, b = M(a_name), M(b_name)
            expected = brute_isomorphic(a, b)
            assert are_isomorphic(a, b) is expected, (a_name, b_name)
            # Relabeling must not change the verdict.
            assert are_isomorphic(relabeled_copy(a, rng), b) is expected

    def test_relabeled_copy_is_isomorphic(self):
        rng = random.Random(23)
        for name in ("P9", "E5", "T12"):
            m = M(name)
            assert are_isomorphic(m, relabeled_copy(m, rng))

    def test_different_sizes_are_not_isomorphic(self):
        assert not are_isomorphic(M("F7"), M("S8"))


def _krawtchouk_transform(profile):
    """The cycle enumerator that a cocycle enumerator fixes, by the
    MacWilliams identity in exact integers: B_j = 2^-r sum_i A_i K_j(i),
    with K_j(i) = sum_s (-1)^s C(i, s) C(n - i, j - s)."""
    n, size = len(profile) - 1, sum(profile)
    out = []
    for j in range(n + 1):
        total = sum(
            a * sum((-1) ** s * comb(i, s) * comb(n - i, j - s) for s in range(j + 1))
            for i, a in enumerate(profile)
        )
        assert total % size == 0
        out.append(total // size)
    return tuple(out)


class TestWeightProfile:
    def test_profile_counts_sum_to_space_sizes(self):
        m = M("S8")
        coc = weight_profile(m)
        assert len(coc) == m.size + 1
        assert sum(coc) == 1 << m.rank
        assert coc[0] == 1

    def test_profile_is_invariant_but_weaker_than_key(self):
        rng = random.Random(2)
        m = M("E4")
        assert weight_profile(m) == weight_profile(relabeled_copy(m, rng))
        # The cocycle enumerator fixes the cycle enumerator, which is the
        # dual's cocycle enumerator.
        cases = [M(name) for name in ("E4", "T12", "PG(3,2)")]
        seen = set()
        for n in [rng.randint(1, 9) for _ in range(40)]:
            r = rng.randint(0, n)
            make = _random_matroid if rng.random() < 0.5 else _with_loops_coloops_and_parallels
            cases.append(make(rng, n, r))
            seen.add("rank 0" if r == 0 else "corank 0" if r == n else "other")
            seen.update(k for k, on in _kinds(cases[-1]).items() if on)
        assert seen == {"rank 0", "corank 0", "other", "loop", "coloop", "parallel pair"}
        for m in cases:
            cycles = [0] * (m.size + 1)
            for mask in oracle_cycle_masks(m):
                cycles[mask.bit_count()] += 1
            expected = _krawtchouk_transform(weight_profile(m))
            assert tuple(cycles) == expected, (m.matrix.rows, m.rank, m.size)
            assert weight_profile(dual(m)) == expected


class TestPartition:
    def test_partition_groups_by_isomorphism(self):
        from binmat.extension import enumerate_growth_classes, extend

        m = M("F7*")
        classes = enumerate_growth_classes(m, "extension")
        assert sorted(len(c.members) for c in classes) == [1, 7]
        for cls in classes:
            for v in cls.members:
                assert are_isomorphic(extend(m, v), cls.representative)
        # Members across classes are never isomorphic.
        a, b = classes
        assert not are_isomorphic(a.representative, b.representative)


def _random_matroid(rng, n, r, labels=None):
    """A seeded [I_r | D] with arbitrary D: loops and parallel pairs allowed."""
    rows = tuple((1 << i) | (rng.randrange(1 << (n - r)) << r) for i in range(r))
    return Matroid(BitMatrix(r, n, rows), tuple(labels or range(1, n + 1)))


def _is_simple_cosimple(m):
    cols, d_rows = m._cols[m.rank :], [row >> m.rank for row in m.matrix.rows]
    return all(
        len(set(vs)) == len(vs) and all(v.bit_count() >= 2 for v in vs) for vs in (cols, d_rows)
    )


def _random_simple_cosimple(rng, n, r):
    """A seeded [I_r | D] whose D columns and rows are distinct, of weight >= 2."""
    while True:
        m = _random_matroid(rng, n, r)
        if _is_simple_cosimple(m):
            return m


def _one_entry_flipped(m, rng):
    """m with one entry of D flipped, kept simple and cosimple: a near miss."""
    while True:
        rows = list(m.matrix.rows)
        rows[rng.randrange(m.rank)] ^= 1 << rng.randrange(m.rank, m.size)
        flipped = Matroid(BitMatrix(m.rank, m.size, tuple(rows)), m.labels)
        if _is_simple_cosimple(flipped):
            return flipped


def _scrambled(m, rng):
    """The same matroid on labels 101.., under a random row operation
    sequence and column order, re-standardized."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    rows = list(m.matrix.rows)
    for _ in range(3 * m.rank if m.rank > 1 else 0):
        i, j = rng.sample(range(m.rank), 2)
        rows[i] ^= rows[j]
    rows = [sum(((row >> p) & 1) << q for q, p in enumerate(perm)) for row in rows]
    labels = list(range(101, 101 + m.size))
    rng.shuffle(labels)
    return make_matroid(BitMatrix(m.rank, m.size, tuple(rows)), labels)


def _assert_carries_cycles(m, t, f):
    """Replay f: the images of m's cycles must be exactly t's cycles, and
    every element must keep its colour."""
    assert sorted(f) == sorted(m.labels) and sorted(f.values()) == sorted(t.labels)
    m_colour = dict(zip(m.labels, element_colours(m)))
    t_colour = dict(zip(t.labels, element_colours(t)))
    assert all(m_colour[e] == t_colour[f[e]] for e in f)
    t_pos = {lab: p for p, lab in enumerate(t.labels)}
    images = set()
    for mask in oracle_cycle_masks(m):
        image = 0
        for p, lab in enumerate(m.labels):
            if (mask >> p) & 1:
                image |= 1 << t_pos[f[lab]]
        images.add(image)
    assert images == set(oracle_cycle_masks(t))


# First-match maps recorded before the search was pruned by element
# colours; the pruning cuts only branches that cannot succeed, so the
# first match must not move.
FIRST_MATCHES = {
    "F7": {101: 5, 102: 1, 103: 7, 104: 2, 105: 4, 106: 6, 107: 3},
    "S8*": {1: 5, 2: 6, 3: 7, 4: 8, 5: 1, 6: 2, 7: 3, 8: 4},
    "P9": {101: 7, 102: 9, 103: 5, 104: 1, 105: 8, 106: 6, 107: 3, 108: 4, 109: 2},
    "E4*": {1: 2, 2: 1, 3: 10, 4: 6, 5: 9, 6: 4, 7: 8, 8: 7, 9: 5, 10: 3},
    "E5": {101: 10, 102: 6, 103: 5, 104: 8, 105: 1, 106: 3, 107: 9, 108: 7, 109: 2, 110: 4},
    "T12*": {1: 7, 2: 8, 3: 9, 4: 10, 5: 11, 6: 12, 7: 1, 8: 2, 9: 3, 10: 4, 11: 5, 12: 6},
    "S10": {101: 9, 102: 10, 103: 7, 104: 2, 105: 1, 106: 3, 107: 5, 108: 8, 109: 4, 110: 6},
    "AG(3,2)": {101: 6, 102: 5, 103: 2, 104: 3, 105: 8, 106: 4, 107: 7, 108: 1},
}


def _first_match_pairs():
    return {
        "F7": (_scrambled(M("F7"), random.Random(1)), M("F7")),
        "S8*": (M("S8"), dual(M("S8"))),
        "P9": (_scrambled(M("P9"), random.Random(2)), M("P9")),
        "E4*": (M("E4"), dual(M("E4"))),
        "E5": (_scrambled(M("E5"), random.Random(3)), M("E5")),
        "T12*": (M("T12"), M("T12*")),
        "S10": (_scrambled(M("S10"), random.Random(4)), M("S10")),
        "AG(3,2)": (_scrambled(M("AG(3,2)"), random.Random(5)), M("AG(3,2)")),
    }


class TestIsomorphism:
    def test_first_matches_are_pinned(self):
        pairs = _first_match_pairs()
        assert {name: isomorphism(m, t) for name, (m, t) in pairs.items()} == FIRST_MATCHES

    def test_agrees_with_permutation_oracle(self):
        # The oracle maps every cycle under each of the n! bijections, so
        # 8-element pairs are few and have at most 2^4 cycles.
        rng = random.Random(7)
        verdicts = []
        for n in [rng.randint(3, 7) for _ in range(60)] + [8] * 6:
            r = rng.randint(1 if n < 8 else 4, n - 1)
            a = _random_matroid(rng, n, r)
            b = _scrambled(a, rng) if rng.random() < 0.4 else _random_matroid(rng, n, r)
            f = isomorphism(a, b)
            assert (f is not None) is brute_isomorphic(a, b), (a.matrix.rows, b.matrix.rows)
            if f is not None:
                _assert_carries_cycles(a, b, f)
            verdicts.append(f is not None)
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n,r", [(9, 4), (10, 4), (10, 5), (11, 5)])
    def test_agrees_with_canonical_keys(self, n, r):
        rng = random.Random(1000 * n + r)
        verdicts = []
        for _ in range(12):
            a = _random_simple_cosimple(rng, n, r)
            b = rng.choice([a, _one_entry_flipped(a, rng), _random_simple_cosimple(rng, n, r)])
            b = _scrambled(b, rng)
            f = isomorphism(a, b)
            assert (f is not None) is (canonical_key(a) == canonical_key(b)), (a.matrix.rows, b.matrix.rows)
            if f is not None:
                _assert_carries_cycles(a, b, f)
            verdicts.append(f is not None)
        assert any(verdicts) and not all(verdicts)

    def test_every_catalog_entry_matches_a_relabeled_copy(self):
        rng = random.Random(31)
        for name in list_names():
            m = M(name)
            copy = _scrambled(m, rng)
            f = isomorphism(copy, m)
            assert f is not None, name
            _assert_carries_cycles(copy, m, f)

    def test_colours_cut_only_failing_branches(self, monkeypatch):
        # With one colour for every element the search is unguided; its
        # first match must be the one the colour-guided search returns.
        rng = random.Random(41)
        names = [name for name in list_names() if M(name).size <= 12]
        pairs = [(_scrambled(M(name), rng), M(name)) for name in names for _ in range(3)]
        guided = [isomorphism(m, t) for m, t in pairs]
        monkeypatch.setattr(iso, "element_colours", lambda m: ((0,),) * m.size)
        assert [isomorphism(m, t) for m, t in pairs] == guided

    def test_unguided_search_that_fails_returns_none(self, monkeypatch):
        # Pairs with one weight profile whose colour multisets differ are
        # not isomorphic.  With the colours hidden, the search must try
        # every basis and fail.
        rng = random.Random(5)
        by_profile: dict[tuple, list] = {}
        pairs = []
        while len(pairs) < 6:
            n = rng.randint(8, 10)
            m = _random_simple_cosimple(rng, n, n // 2)
            bucket = by_profile.setdefault(weight_profile(m), [])
            colours = sorted(element_colours(m))
            other = next((o for o in bucket if sorted(element_colours(o)) != colours), None)
            if other is not None:
                pairs.append((_scrambled(m, rng), other))
            bucket.append(m)
        monkeypatch.setattr(iso, "element_colours", lambda m: ((0,),) * m.size)
        assert [isomorphism(m, t) for m, t in pairs] == [None] * 6

    def test_rank_zero_and_corank_zero(self):
        loops = Matroid(BitMatrix(0, 3, ()), (1, 2, 3))
        f = isomorphism(loops, Matroid(BitMatrix(0, 3, ()), (7, 8, 9)))
        assert f is not None and sorted(f.values()) == [7, 8, 9]
        free = Matroid(BitMatrix(3, 3, (1, 2, 4)), (1, 2, 3))
        f = isomorphism(free, _scrambled(free, random.Random(3)))
        assert f is not None and sorted(f.values()) == [101, 102, 103]
        assert isomorphism(loops, free) is None

    def test_loops_and_parallel_pairs_map_to_their_kind(self):
        # Rank 2 on 4 elements over a triangle {1, 2, 3}: 4 is a loop in
        # `looped` and parallel to 3 in `parallel`.
        looped = Matroid(BitMatrix(2, 4, (0b0101, 0b0110)), (1, 2, 3, 4))
        parallel = Matroid(BitMatrix(2, 4, (0b1101, 0b1110)), (1, 2, 3, 4))
        rng = random.Random(4)
        copy = _scrambled(looped, rng)
        f = isomorphism(looped, copy)
        _assert_carries_cycles(looped, copy, f)
        assert copy.column_of(f[4]) == 0
        copy = _scrambled(parallel, rng)
        f = isomorphism(parallel, copy)
        _assert_carries_cycles(parallel, copy, f)
        assert copy.column_of(f[3]) == copy.column_of(f[4]) != 0
        assert isomorphism(looped, parallel) is None

    def test_rank_or_size_mismatch_gives_none(self):
        assert isomorphism(M("F7"), M("F7*")) is None  # rank 3 vs 4 on 7 elements
        assert isomorphism(M("F7*"), M("S8")) is None  # rank 4 on 7 vs 8 elements
        assert isomorphism(M("S8"), M("AG(3,2)")) is None  # same rank and size


def _random_colouring(rng, n):
    """n seeded colours from a palette of one to four."""
    palette = rng.randint(1, 4)
    return [rng.randrange(palette) for _ in range(n)]


class TestIsoIndex:
    def test_kept_matroid_is_found_by_identity(self, monkeypatch):
        # Two classes share one weight-profile bucket.  Each kept matroid
        # finds its own value with map None and no isomorphism call, the
        # second too, behind the first; a relabeled copy gets a map.
        rng = random.Random(5)
        first: dict[tuple, Matroid] = {}
        while True:
            m = _random_simple_cosimple(rng, 10, 5)
            other = first.setdefault(weight_profile(m), m)
            if other is not m and not are_isomorphic(m, other):
                break
        index = iso.IsoIndex()
        assert index.find(other, lambda: "A") == ("A", None)
        assert index.find(m, lambda: "B") == ("B", None)
        value, sigma = index.find(relabeled_copy(m, rng), lambda: "C")
        assert value == "B" and sigma is not None
        calls = []
        monkeypatch.setattr(iso, "isomorphism", lambda a, b: calls.append(a))
        assert [index.find(k, lambda: "C") for k in (other, m)] == [("A", None), ("B", None)]
        assert calls == []


class TestReducedCoords:
    @pytest.mark.parametrize("name", ["F7", "P9", "T12"])
    def test_coords_rebuild_every_column_over_every_basis(self, name):
        # None exactly on the dependent r-subsets; otherwise each non-basis
        # column, in position order, is the XOR of the basis columns that
        # its coordinate bits name (bit k = the k-th basis position).
        m = M(name)
        bases = 0
        for basis in combinations(range(m.size), m.rank):
            coords = iso._reduced_coords(m, basis)
            independent = oracle_rank(m, [m.labels[p] for p in basis]) == m.rank
            assert (coords is not None) == independent, (name, basis)
            if coords is None:
                continue
            bases += 1
            nonbasis = [j for j in range(m.size) if j not in basis]
            assert len(coords) == len(nonbasis), (name, basis)
            for j, c in zip(nonbasis, coords):
                assert c >> m.rank == 0, (name, basis, j)
                rebuilt = 0
                for k, p in enumerate(basis):
                    if (c >> k) & 1:
                        rebuilt ^= m._cols[p]
                assert rebuilt == m._cols[j], (name, basis, j)
        assert 0 < bases < comb(m.size, m.rank)


class TestColourBases:
    def test_walk_matches_filtered_combinations(self):
        # Same tuples in the same order as filtering every r-subset, for
        # targets drawn from the colouring and for arbitrary ones, some of
        # which no subset meets.
        rng = random.Random(17)
        met = unmet = one_colour = 0
        for _ in range(150):
            n = rng.randint(0, 13)
            colours = _random_colouring(rng, n)
            one_colour += len(set(colours)) == 1
            r = rng.randint(0, n)
            for target in (rng.sample(colours, r), [rng.randrange(5) for _ in range(r)]):
                expected = [b for b in combinations(range(n), r) if sorted(colours[p] for p in b) == sorted(target)]
                assert list(iso._colour_bases(colours, target)) == expected, (colours, target)
                met += bool(expected)
                unmet += not expected
        assert met > 100 and unmet > 20 and one_colour > 20

    def test_targets_that_cannot_be_met(self):
        assert list(iso._colour_bases([0, 0, 1], [1, 1])) == []
        assert list(iso._colour_bases([0, 0, 1], [2])) == []
        assert list(iso._colour_bases([0, 1], [0, 1, 1])) == []
        assert list(iso._colour_bases([], [])) == [()]


def _oracle_colours(m):
    """Element colours by definition: over every subset of the ground set,
    a cycle iff its columns sum to zero, and a cocycle iff it meets every
    cycle in an even number of elements."""
    n = m.size
    cols = [m.column_of(lab) for lab in m.labels]
    cycles = []
    for s in range(1 << n):
        acc = 0
        for p in range(n):
            if (s >> p) & 1:
                acc ^= cols[p]
        if acc == 0:
            cycles.append(s)
    cocycles = [
        s for s in range(1 << n) if all((s & c).bit_count() % 2 == 0 for c in cycles)
    ]
    return tuple(
        tuple(
            tuple(sum(1 for s in space if (s >> p) & 1 and s.bit_count() == w) for w in range(n + 1))
            for space in (cycles, cocycles)
        )
        for p in range(n)
    )


def _colour_cases():
    """Thirty seeded matroids, loops, coloops and parallel pairs allowed."""
    rng = random.Random(9)
    cases = []
    for n in [rng.randint(1, 8) for _ in range(30)]:
        r = rng.randint(0, n)
        make = _random_matroid if rng.random() < 0.5 else _with_loops_coloops_and_parallels
        cases.append(make(rng, n, r))
    return cases


class TestElementColours:
    def test_random_matroids_match_the_definition(self):
        # Rank 0 has one cocycle, the empty set; PG(3,2)* has rank 11, so its
        # cocycle indices run past one byte.
        cases = _colour_cases() + [Matroid(BitMatrix(0, 4, ()), (1, 2, 3, 4)), fresh("PG(3,2)*")]
        assert min(m.rank for m in cases) == 0 and max(m.rank for m in cases) >= 8
        for m in cases:
            expected = tuple(coc for _, coc in _oracle_colours(m))
            assert element_colours(m) == expected, (m.matrix.rows, m.rank, m.size)

    def test_cocycle_masks_follow_the_span_order(self):
        # Colours and `cocycle_index` read mask i of `gf2.span` over the rows
        # as the sum of the rows k with bit k of i set, the order
        # `oracle_cocycle_masks` lists them in.
        rng = random.Random(12)
        cases = [fresh(name) for name in list_names()]
        for n in [rng.randint(0, 12) for _ in range(40)]:
            cases.append(_random_matroid(rng, n, rng.randint(0, n)))
        assert min(m.rank for m in cases) == 0 and max(m.rank for m in cases) >= 8
        for m in cases:
            masks = span(m.matrix.rows)
            assert len(masks) == 1 << m.rank and masks == oracle_cocycle_masks(m), m.matrix.rows

    def test_catalog_matroids_match_the_definition(self):
        for name in ("F7", "F7*", "S8", "AG(3,2)"):
            expected = tuple(coc for _, coc in _oracle_colours(M(name)))
            assert element_colours(fresh(name)) == expected, name

    def test_cocycle_colour_fixes_cycle_colour(self):
        # Why `isomorphism` may prune on cocycle colours alone: two
        # elements, of one matroid or of two with equal size and cocycle
        # enumerator, with equal cocycle colours have equal cycle colours.
        cycle_colours: dict[tuple, set] = {}
        owners: dict[tuple, list] = {}
        for i, m in enumerate(_colour_cases() + [M(name) for name in ("F7", "F7*", "S8", "AG(3,2)")]):
            for cyc, coc in _oracle_colours(m):
                key = (m.size, weight_profile(m), coc)
                cycle_colours.setdefault(key, set()).add(cyc)
                owners.setdefault(key, []).append(i)
        assert all(len(cycs) == 1 for cycs in cycle_colours.values())
        # Both kinds of pair occur: within one matroid and across two.
        assert any(len(o) > len(set(o)) for o in owners.values())
        assert any(len(set(o)) > 1 for o in owners.values())

    def test_colours_are_cached_on_the_matroid(self):
        m = fresh("P9")
        assert element_colours(m) is element_colours(m)


class TestCocycleIndex:
    def test_index_matches_the_masks_bit_by_bit(self):
        # Every catalog entry (PG(3,2)* has rank 11, so index masks run to
        # 2048 bits), a rank-0 matroid and 40 seeded random matroids with
        # loops, coloops and parallel pairs.
        cases = [fresh(name) for name in list_names()] + [Matroid(BitMatrix(0, 3, ()), (1, 2, 3))]
        cases += random_matroids(seed=14, count=40, max_size=12)
        assert len(cases) == 42 + 1 + 40
        assert min(m.rank for m in cases) == 0 and max(m.rank for m in cases) == 11
        for m in cases:
            masks = oracle_cocycle_masks(m)
            of_weight = [0] * (m.size + 1)
            contains = [0] * m.size
            for i, mask in enumerate(masks):
                of_weight[mask.bit_count()] |= 1 << i
                for p in range(m.size):
                    if (mask >> p) & 1:
                        contains[p] |= 1 << i
            assert cocycle_index(m) == (tuple(of_weight), tuple(contains)), (m.matrix.rows, m.labels)
            assert weight_profile(m) == oracle_weight_profile(m), (m.matrix.rows, m.labels)

    def test_index_is_cached_on_the_matroid(self):
        m = fresh("P9")
        assert cocycle_index(m) is cocycle_index(m)
