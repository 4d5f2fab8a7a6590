"""Unit and property tests for the connectivity function and separations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from binmat.catalog import get, list_names
from binmat.connectivity import (
    bridging_value,
    classify_separation,
    is_internally_4_connected,
    is_n_connected,
    lam,
    nonminimal_exact_3seps,
)
from binmat.matroid import dual, remove

from conftest import oracle_lam


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
                seen_loops += any(minor.rank_of({e}) == 0 for e in survivors)
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


class TestSeparations:
    def test_classify_separation_fields(self):
        m = M("S8")
        sep = classify_separation(m, {1, 2, 5, 6}, 3)
        assert sep.side_a == frozenset({1, 2, 5, 6})
        assert sep.side_b == m.ground_set() - sep.side_a
        assert sep.lambda_value == 2
        assert sep.exact

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            classify_separation(M("S8"), {1, 2}, 3)

    def test_nonminimal_3seps_match_exhaustive_oracle(self):
        from itertools import combinations

        m = M("S8")
        expected = set()
        labels = sorted(m.ground_set())
        for size in range(4, m.size - 3):
            for combo in combinations(labels, size):
                x = frozenset(combo)
                if oracle_lam(m, x) == 2:
                    a = tuple(sorted(x))
                    b = tuple(sorted(m.ground_set() - x))
                    expected.add(min(a, b))
        got = {tuple(sorted(s.side_a)) for s in nonminimal_exact_3seps(m)}
        assert got == expected
        assert all(s.exact for s in nonminimal_exact_3seps(m))

    def test_require_unions_filters(self):
        m = M("P9")
        allseps = nonminimal_exact_3seps(m)
        unions = nonminimal_exact_3seps(m, require_unions=True)
        assert {tuple(sorted(s.side_a)) + tuple(sorted(s.side_b)) for s in unions} <= {
            tuple(sorted(s.side_a)) + tuple(sorted(s.side_b)) for s in allseps
        } | {tuple(sorted(s.side_b)) + tuple(sorted(s.side_a)) for s in allseps}


class TestConnectivityPredicates:
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
        m = M("P9")
        a, b = frozenset({1, 2, 5}), frozenset({3, 4, 9})
        rest = sorted(m.ground_set() - a - b)
        best = None
        for sub in range(1 << len(rest)):
            x = set(a)
            for i, lab in enumerate(rest):
                if (sub >> i) & 1:
                    x.add(lab)
            lv = oracle_lam(m, x)
            best = lv if best is None else min(best, lv)
        assert bridging_value(m, a, b) == best

    def test_bounded_by_lambda_of_either_side(self):
        m = M("E4")
        a, b = frozenset({1, 2, 5}), frozenset({3, 4, 9})
        k = bridging_value(m, a, b)
        assert k <= lam(m, a) and k <= lam(m, m.ground_set() - b)

    def test_overlapping_sides_rejected(self):
        with pytest.raises(ValueError):
            bridging_value(M("S8"), {1, 2}, {2, 3})
