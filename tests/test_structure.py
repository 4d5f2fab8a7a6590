"""Tests for minor search, splitter testing, and the decomposer engine."""

from collections import Counter

import pytest

from binmat.catalog import get
from binmat.iso import are_isomorphic
from binmat.matroid import dual, remove
from binmat.structure import (
    HypothesisError,
    Verdict,
    corollary22_check,
    has_any_minor,
    has_minor,
    in_class,
    is_splitter,
    theorem21_check,
)

from conftest import fresh


def M(name):
    return get(name).matroid


# E4's two candidate 3-separation sides.
SIDE_A1 = frozenset({1, 2, 5, 6, 7, 10})
SIDE_A2 = frozenset({1, 2, 3, 4, 8, 9})


class TestHasMinor:
    def test_positive_cases_with_witness_replay(self):
        cases = [("S10", "P9"), ("S10", "F7"), ("P9", "F7"), ("T12", "P9")]
        for big, small in cases:
            flag, witness = has_minor(M(big), M(small))
            assert flag, (big, small)
            dels, cons = witness
            assert are_isomorphic(remove(M(big), dels, cons), M(small)), (big, small)

    def test_negative_cases(self):
        # E4, E5, and T12 all live in EX[S10, S10*].
        assert has_minor(M("E4"), M("S10")) == (False, None)
        assert has_minor(M("E4"), M("S10*")) == (False, None)
        assert has_minor(M("E5"), M("S10")) == (False, None)
        assert has_minor(M("T12"), M("S10")) == (False, None)
        assert has_minor(M("S8"), M("P9")) == (False, None)  # size rules it out
        assert has_minor(M("M(K5)"), M("F7"))[0] is False  # graphic, Fano-free

    def test_self_minor(self):
        flag, (dels, cons) = has_minor(M("P9"), M("P9"))
        assert flag and dels == frozenset() and cons == frozenset()

    def test_duality(self):
        # N is a minor of M iff N* is a minor of M*.
        for big, small in [("S10", "P9"), ("T12", "F7")]:
            assert has_minor(M(big), M(small))[0]
            assert has_minor(dual(M(big)), dual(M(small)))[0]

    def test_has_any_minor_returns_first_matching_target(self):
        hit = has_any_minor(M("S10"), [M("T12"), M("P9"), M("F7")])
        assert hit is not None
        idx, dels, cons = hit
        assert idx in (1, 2)
        assert has_any_minor(M("P9"), [M("S10"), M("T12")]) is None


class TestInClass:
    def test_membership(self):
        ex = [M("S10"), M("S10*")]
        assert in_class(M("E4"), ex)
        assert in_class(M("E5"), ex)
        assert in_class(M("T12"), ex)
        assert not in_class(M("S10"), ex)
        assert in_class(M("S8"), [M("P9"), M("P9*")])

    def test_memoized_verdicts_are_consistent(self):
        m = fresh("E4")
        ex = [M("S10"), M("S10*")]
        assert in_class(m, ex) == in_class(m, ex)


class TestIsSplitter:
    def test_s8_is_not_a_splitter_for_ex_p9(self):
        ok, counterexamples = is_splitter(M("S8"), [M("P9"), M("P9*")])
        assert not ok
        kinds = {(kind, str(v)) for kind, v, _ in counterexamples}
        assert kinds == {("extension", "[1110]"), ("coextension", "[1110]")}
        for kind, v, child in counterexamples:
            assert child.size == 9
            assert in_class(child, [M("P9"), M("P9*")])

    def test_requires_three_connectivity(self):
        # A matroid with a 2-separation is rejected outright.
        from binmat.catalog import graphic_matroid

        path = graphic_matroid([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)], 5)
        with pytest.raises(ValueError):
            is_splitter(path, [M("S10")])

    def test_requires_class_membership(self):
        # S10 itself is excluded from EX[S10, S10*].
        with pytest.raises(ValueError):
            is_splitter(M("S10"), [M("S10"), M("S10*")])


class TestTheorem21:
    def test_s8_separation_is_induced(self):
        report = theorem21_check(
            M("S8"), frozenset({1, 2, 5, 6}), 3, [M("P9"), M("P9*")]
        )
        assert report.overall == "induced"
        in_cls = [(r.kind, str(r.vector)) for r in report.one_step if r.in_class]
        assert set(in_cls) == {("extension", "[1110]"), ("coextension", "[1110]")}
        # Every in-class one-step child satisfies a side condition.
        for rec in report.one_step:
            if rec.in_class and not rec.deferred:
                assert any(s.satisfied for s in rec.sides)
        assert report.dual_report is not None

    def test_hypothesis_errors_carry_reasons(self):
        from binmat.catalog import graphic_matroid

        not_cosimple = graphic_matroid([(0, 1), (0, 1), (1, 2), (0, 2)], 3)
        with pytest.raises(HypothesisError) as exc:
            theorem21_check(not_cosimple, frozenset({1, 2}), 2, [M("S10")])
        assert exc.value.reason

    def test_separation_must_be_exact(self):
        # lambda({1,2,3,4}) = 3 in S10, not k - 1 = 2.
        with pytest.raises(HypothesisError):
            theorem21_check(M("S10"), frozenset({1, 2, 3, 4}), 3, [M("T12")])

    def test_one_step_failure_skips_the_two_step_phase(self):
        # In EX[S10, S10*] some one-step growth of S8 keeps neither
        # lambda(A) nor lambda(A u x) at k-1, so the check stops there.
        report = theorem21_check(
            M("S8"), frozenset({1, 2, 5, 6}), 3, [M("S10"), M("S10*")], check_dual=False
        )
        assert report.overall == "failed"
        assert report.two_step == []

    def test_two_step_failure_on_one_e4_side(self):
        # The A1 side of E4 alone is not induced: 12 in-class rows are bad.
        report = theorem21_check(
            M("E4"),
            SIDE_A1,
            3,
            [M("S10"), M("S10*")],
            defer=[M("T12/e"), M("T12\\e")],
            check_dual=False,
        )
        assert report.overall == "failed"
        verdicts = Counter(rec.sides[0].verdict for rec in report.two_step)
        assert verdicts == {Verdict.EXCLUDED_MINOR: 192, Verdict.GOOD: 56, Verdict.BAD: 12}


class TestCorollary22:
    def test_requires_self_dual_base(self):
        with pytest.raises(HypothesisError) as exc:
            corollary22_check(
                M("P9"),
                frozenset({1, 2, 5, 6}),
                frozenset({1, 2, 6, 7}),
                3,
                [M("S10"), M("S10*")],
            )
        assert exc.value.reason == "not-self-dual"

    def test_undeferred_t12_branches_fail_both_sides(self):
        # Without `defer`, the growths towards T12 must keep a separation
        # themselves, and neither side is kept by them.
        report = corollary22_check(
            M("E4"), SIDE_A1, SIDE_A2, 3, [M("S10"), M("S10*")], check_dual=False
        )
        assert report.overall == "failed"
        assert report.notes == [
            f"one-step {kind} {vec} fails condition (i)/(ii) on side {side}"
            for kind, vec in (("extension", "[11011]"), ("coextension", "[01010]"))
            for side in (1, 2)
        ]

    def test_bad_rows_reported_by_side(self):
        report = corollary22_check(
            M("E4"),
            SIDE_A1,
            SIDE_A2,
            3,
            [M("S10"), M("S10*")],
            defer=[M("T12/e"), M("T12\\e")],
        )
        bad0 = report.bad_rows(0)
        bad1 = report.bad_rows(1)
        # Both separations are induced once bad rows for one are good for
        # the other: the bad sets must be disjoint.
        assert bad0 & bad1 == set()
        assert report.overall in ("induced", "induced-one-of-two")
