"""Unit and property tests for the connectivity function and separations."""

import random
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from binmat import matroid
from binmat.catalog import get, list_names
from binmat.connectivity import (
    bridging_value,
    is_internally_4_connected,
    is_n_connected,
    lam,
    nonminimal_exact_3seps,
)
from binmat.gf2 import BitMatrix
from binmat.matroid import Matroid, dual, make_matroid, remove, simplicity
from binmat.structure import HypothesisError, theorem21_check

from conftest import fresh, label_rank, oracle_circuits, oracle_cocircuits, oracle_lam, oracle_rank, random_matroids, relabeled_copy


def M(name):
    return get(name).matroid


def random_subset(m, rng, lo=1):
    labels = sorted(m.ground_set())
    size = rng.randint(lo, m.size - lo)
    return frozenset(rng.sample(labels, size))


class TestLambda:
    def test_matches_definition_on_all_catalog_matroids(self):
        # lambda(X) = r(X) + r(E - X) - r(M), with ranks from the span oracle.
        import random

        rng = random.Random(7)
        for name in list_names():
            m = M(name)
            for _ in range(12):
                x = random_subset(m, rng)
                assert lam(m, x) == oracle_lam(m, x)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["F7", "S8", "P9", "E4", "S10", "T12"]),
        st.randoms(use_true_random=False),
    )
    def test_symmetry(self, name, rng):
        m = M(name)
        x = random_subset(m, rng)
        assert lam(m, x) == lam(m, m.ground_set() - x)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["F7", "S8", "P9", "E4", "S10", "T12"]),
        st.randoms(use_true_random=False),
    )
    def test_submodularity(self, name, rng):
        m = M(name)
        x = random_subset(m, rng)
        y = random_subset(m, rng)
        assert lam(m, x) + lam(m, y) >= lam(m, x | y) + lam(m, x & y)

    def test_invariant_under_duality(self):
        import random

        rng = random.Random(3)
        for name in ("S8", "P9", "E5", "T12"):
            m = M(name)
            d = dual(m)
            for _ in range(10):
                x = random_subset(m, rng)
                assert lam(m, x) == lam(d, x)

    def test_extremes(self):
        m = M("S8")
        assert lam(m, frozenset()) == 0
        assert lam(m, m.ground_set()) == 0
        assert lam(m, {1}) == 1  # no loops or coloops

    def test_minor_lambda_matches_the_built_minor(self):
        # lambda in M \ D / C read off M's ranks equals lambda in the
        # minor `remove` builds.  Contracting a spanning set leaves rank 0,
        # and elements spanned by C become loops; both kinds are drawn.
        rng = random.Random(5)
        seen_rank0 = seen_loops = 0
        for name in ("F7", "S8", "P9", "E4", "M(K3,3)", "T12"):
            m = M(name)
            labels = sorted(m.ground_set())
            for _ in range(40):
                cons = frozenset(rng.sample(labels, rng.randint(0, m.rank + 1)))
                rest = [e for e in labels if e not in cons]
                dels = frozenset(rng.sample(rest, rng.randint(0, len(rest) - 1)))
                survivors = [e for e in rest if e not in dels]
                minor = remove(m, dels, cons)
                seen_rank0 += minor.rank == 0
                seen_loops += any(label_rank(minor, {e}) == 0 for e in survivors)
                for _ in range(4):
                    x = frozenset(rng.sample(survivors, rng.randint(0, len(survivors))))
                    assert lam(m, x, dels, cons) == lam(minor, x), (name, x, dels, cons)
        assert seen_rank0 and seen_loops

    def test_minor_lambda_rejects_overlaps(self):
        m = M("S8")
        with pytest.raises(ValueError):
            lam(m, {1, 2}, deletions={2})
        with pytest.raises(ValueError):
            lam(m, {1, 2}, contractions={1})
        with pytest.raises(ValueError):
            lam(m, {1}, deletions={3}, contractions={3})


def oracle_3seps(m, qualifies=lambda side: True):
    """The reported side of every non-minimal exact 3-separation, by
    definition: the smaller qualifying side (as a sorted label tuple) of
    each partition with a qualifying side, in sorted order."""
    ground = m.ground_set()
    reported = set()
    for size in range(4, m.size - 3):
        for combo in combinations(sorted(ground), size):
            x = frozenset(combo)
            if oracle_lam(m, x) == 2:
                sides = [s for s in (x, ground - x) if qualifies(s)]
                if sides:
                    reported.add(min(tuple(sorted(s)) for s in sides))
    return sorted(reported)


def covered_by(side, sets) -> bool:
    """Whether `side` is the union of the members of `sets` inside it."""
    return frozenset().union(*(s for s in sets if s <= side)) == side


def random_simple_matroids(seed, count):
    """`count` seeded simple matroids of 10 to 12 elements and rank 4 to 6:
    distinct nonzero columns holding the unit vectors, shuffled, on
    shuffled labels."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n, r = rng.randint(10, 12), rng.randint(4, 6)
        units = [1 << k for k in range(r)]
        cols = units + rng.sample([c for c in range(1, 1 << r) if c not in units], n - r)
        rng.shuffle(cols)
        rows = tuple(sum(((c >> k) & 1) << j for j, c in enumerate(cols)) for k in range(r))
        out.append(make_matroid(BitMatrix(r, n, rows), labels=rng.sample(range(1, n + 1), n)))
    return out


class TestSeparations:
    def test_small_side_rejected(self):
        # Either side below k elements is an input error, not a failed
        # hypothesis: the CLI reports it and exits 2.
        m = M("S8")
        for side in ({1, 2}, {1, 2, 3, 4, 5, 6}):
            with pytest.raises(ValueError, match="^both sides must have at least 3 elements$") as exc:
                theorem21_check(m, side, 3, [M("P9"), M("P9*")])
            assert not isinstance(exc.value, HypothesisError)

    def test_nonminimal_3seps_match_exhaustive_oracle(self):
        for name in ("S8", "P9", "E4", "AG(3,2)"):
            m = M(name)
            got = nonminimal_exact_3seps(m)
            assert all(isinstance(s, frozenset) for s in got)
            assert [tuple(sorted(s)) for s in got] == oracle_3seps(m), name

    def test_nonminimal_3seps_match_exhaustive_oracle_on_random_simple_matroids(self):
        # Sides are read off the rank tables in one sweep; the oracle takes
        # lambda by span on every candidate side.
        cases = random_simple_matroids(seed=41, count=6)
        assert all(simplicity(m)[0] for m in cases) and {m.size for m in cases} == {10, 11, 12}
        found = 0
        for m in cases:
            got = nonminimal_exact_3seps(m)
            assert [tuple(sorted(s)) for s in got] == oracle_3seps(m), (m.matrix.rows, m.labels)
            found += len(got)
        assert found

    def test_require_unions_filters(self):
        # A side qualifies when it is the union of the circuits it
        # contains and of the cocircuits it contains.  In S8 and Z4 some
        # partitions qualify on their larger side only.
        for name in ("S8", "P9", "E4", "Z4"):
            m = M(name)
            circ, cocirc = oracle_circuits(m), oracle_cocircuits(m)
            got = nonminimal_exact_3seps(m, require_unions=True)
            expected = oracle_3seps(m, lambda s: covered_by(s, circ) and covered_by(s, cocirc))
            assert [tuple(sorted(s)) for s in got] == expected, name

    def test_nonminimal_3seps_match_exhaustive_oracle_by_elimination(self, monkeypatch):
        # With no matroid tabulated, every row is eliminated entry by entry.
        monkeypatch.setattr(matroid, "TABLE_MAX_SIZE", 0)
        cases = [fresh(name) for name in ("S8", "P9", "E4", "AG(3,2)")] + random_simple_matroids(seed=41, count=6)
        found = 0
        for m in cases:
            got = nonminimal_exact_3seps(m)
            assert [tuple(sorted(s)) for s in got] == oracle_3seps(m), (m.matrix.rows, m.labels)
            found += len(got)
        assert found and all(m._rank_tables is None for m in cases)

    @pytest.mark.parametrize("name", ["S8", "P9", "E4", "E5"])
    def test_nonminimal_3seps_are_invariant_under_presentation(self, name):
        # Separations are label sets, so the same labeled matroid on
        # other bases, with other labels in front, gives the same sides.
        expected = {u: nonminimal_exact_3seps(M(name), require_unions=u) for u in (False, True)}
        rng = random.Random(8)
        for _ in range(10):
            m = relabeled_copy(M(name), rng)
            for u in (False, True):
                assert nonminimal_exact_3seps(m, require_unions=u) == expected[u], (m.labels, u)


def random_matroid(rng, n):
    """A random [I_r | D] on labels 1..n, any rank from 0 to n."""
    r = rng.randint(0, n)
    density = rng.random()
    rows = tuple(
        (1 << i) | sum(1 << j for j in range(r, n) if rng.random() < density) for i in range(r)
    )
    return Matroid(BitMatrix(r, n, rows), tuple(range(1, n + 1)))


def oracle_connectivity(m):
    """({n: m is n-connected} for n = 2..5, m is internally 4-connected),
    by the definitions: (X, E - X) is a k-separation when both sides have
    at least k elements and lambda(X) < k; m is n-connected when it has no
    k-separation for k < n, and internally 4-connected when it is
    3-connected and no 3-separation has both sides of at least 4 elements."""
    parts = [
        (size, m.size - size, oracle_lam(m, x))
        for size in range(m.size + 1)
        for x in combinations(sorted(m.ground_set()), size)
    ]

    def separated(k, least):
        return any(a >= least and b >= least and lv < k for a, b, lv in parts)

    connected = {n: not any(separated(k, k) for k in range(1, n)) for n in range(2, 6)}
    return connected, connected[3] and not separated(3, 4)


def structure_flags(m):
    """Which of loops, coloops, parallel pairs, rank 0 and full rank m shows."""
    ground = m.ground_set()
    cols = [m.column_of(e) for e in sorted(ground)]
    nonzero = [c for c in cols if c]
    return {
        "loop": 0 in cols,
        "coloop": any(oracle_rank(m, ground - {e}) < m.rank for e in ground),
        "parallel": len(set(nonzero)) < len(nonzero),
        "rank 0": m.size > 0 and m.rank == 0,
        "full rank": m.size > 0 and m.rank == m.size,
    }


def connectivity_cases():
    """Seeded random matroids with at most 9 elements, every catalog
    matroid that small, and T12: 4-connected, but with 4|8 splits of
    lambda 3, it tells 5-connectivity apart from 4-connectivity.  Each is
    a fresh object carrying no cached state."""
    rng = random.Random(13)
    matroids = [fresh(name) for name in list_names() if M(name).size <= 9] + [fresh("T12")]
    return matroids + [random_matroid(rng, rng.randint(0, 9)) for _ in range(312)]


def assert_predicates_match_definitions(matroids):
    seen = set()
    for m in matroids:
        connected, i4c = oracle_connectivity(m)
        for n, flag in connected.items():
            assert is_n_connected(m, n) is flag, (m.matrix, m.labels, n)
            seen.add((n, flag))
        assert is_internally_4_connected(m) is i4c, (m.matrix, m.labels)
        seen.add(("i4c", i4c))
        seen.update(key for key, shown in structure_flags(m).items() if shown)
    assert {(q, flag) for q in (2, 3, 4, 5, "i4c") for flag in (True, False)} <= seen
    assert {"loop", "coloop", "parallel", "rank 0", "full rank"} <= seen


class TestConnectivityPredicates:
    def test_predicates_match_definitions(self):
        assert_predicates_match_definitions(connectivity_cases())

    def test_predicates_match_definitions_by_elimination(self, monkeypatch):
        # With no matroid tabulated (the empty one aside), every row is
        # eliminated entry by entry.
        monkeypatch.setattr(matroid, "TABLE_MAX_SIZE", 0)
        cases = connectivity_cases()
        assert_predicates_match_definitions(cases)
        assert all(m._rank_tables is None for m in cases if m.size)

    def test_sweeps_past_the_rank_bound_hold_one_row_pair(self, monkeypatch):
        # The circuit [I_13 | 1] has r = 13 > TABLE_MAX_RANK: no table is
        # built, and a sweep holds two rows of 2^7 ranks at a time, where
        # a list of all 2^14 ranks would take over 128 KB.
        rows = tuple(1 << i | 1 << 13 for i in range(13))
        m = Matroid(BitMatrix(13, 14, rows), tuple(range(1, 15)))
        monkeypatch.setattr(matroid, "_avoiding", None)  # any table build would raise
        tracemalloc.start()
        try:
            assert is_n_connected(m, 2) and not is_internally_4_connected(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert m._rank_tables is None

    def test_three_connected_catalog_members(self):
        for name in ("F7", "S8", "P9", "S10", "E4", "E5", "T12"):
            assert is_n_connected(M(name), 3), name

    def test_t12_is_4_connected(self):
        assert is_n_connected(M("T12"), 4)

    def test_s8_is_not_4_connected(self):
        assert not is_n_connected(M("S8"), 4)

    def test_internal_4_connectivity_flags(self):
        for name, flag in [
            ("S10", True),
            ("E5", True),
            ("T12", True),
            ("S8", False),
            ("P9", False),
            ("E4", False),
        ]:
            assert is_internally_4_connected(M(name)) is flag, name

    def test_i4c_invariant_under_duality(self):
        for name in ("S10", "E4", "E5", "T12", "P9"):
            m = M(name)
            assert is_internally_4_connected(m) == is_internally_4_connected(dual(m))

    def test_n_parameter_validation(self):
        with pytest.raises(ValueError):
            is_n_connected(M("S8"), 1)


class TestBridging:
    def test_matches_exhaustive_oracle(self):
        # Every X with A <= X <= E - B, on P9 and on seeded random matroids
        # with loops, coloops and parallel pairs and random disjoint sides.
        # The sample must hold sides whose only minimum is X = A itself.
        rng = random.Random(71)
        cases = [(M("P9"), frozenset({1, 2, 5}), frozenset({3, 4, 9}))]
        for m in random_matroids(71, 80, max_size=8):
            labels = rng.sample(m.labels, m.size)
            cut_a, cut_b = sorted(rng.randint(0, m.size) for _ in range(2))
            cases.append((m, frozenset(labels[:cut_a]), frozenset(labels[cut_b:])))
        only_at_a = 0
        for m, a, b in cases:
            rest = sorted(m.ground_set() - a - b)
            values = [oracle_lam(m, a | set(y)) for j in range(len(rest) + 1) for y in combinations(rest, j)]
            assert bridging_value(m, a, b) == min(values), (m.matrix.rows, m.labels, a, b)
            only_at_a += values.count(values[0]) == 1 and values[0] == min(values)
        assert only_at_a

    def test_matches_exhaustive_oracle_on_random_simple_matroids(self):
        # Random disjoint sides of two to four elements each, so at most
        # eight elements are free.  The sample must hold a minimum at
        # neither X = A nor X = E - B.
        rng = random.Random(44)
        inner = 0
        for m in random_simple_matroids(seed=44, count=30):
            labels = rng.sample(m.labels, m.size)
            ka, kb = rng.randint(2, 4), rng.randint(2, 4)
            a, b = frozenset(labels[:ka]), frozenset(labels[ka : ka + kb])
            rest = labels[ka + kb :]
            values = [oracle_lam(m, a | set(y)) for j in range(len(rest) + 1) for y in combinations(rest, j)]
            assert bridging_value(m, a, b) == min(values), (m.matrix.rows, m.labels, a, b)
            inner += min(values) < min(values[0], values[-1])
        assert inner

    def test_bounded_by_lambda_of_either_side(self):
        m = M("E4")
        a, b = frozenset({1, 2, 5}), frozenset({3, 4, 9})
        k = bridging_value(m, a, b)
        assert k <= lam(m, a) and k <= lam(m, m.ground_set() - b)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            bridging_value(M("S8"), {1, 2}, {2, 3})
