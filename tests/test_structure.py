"""Tests for minor search, splitter testing, and the decomposer engine."""

import random
from collections import Counter
from itertools import combinations

import pytest

from binmat import iso, structure
from binmat.catalog import get
from binmat.extension import (
    carrier,
    coextend,
    enumerate_growth_classes,
    extend,
    grow,
    growth_candidates,
    growth_labels,
)
from binmat.gf2 import BitMatrix, BitVector
from binmat.iso import are_isomorphic, canonical_key, cocycle_index, isomorphism, weight_profile
from binmat.matroid import Matroid, dual, remove
from binmat.structure import (
    ExcludedClass,
    HypothesisError,
    Verdict,
    _classify_built,
    _triangle_escape,
    corollary22_check,
    has_any_minor,
    in_class,
    is_splitter,
    theorem21_check,
)
from binmat.verify import SIDE_S8, report_to_json, run_verification

from conftest import (
    fresh,
    oracle_circuits,
    oracle_cocircuits,
    oracle_cocycle_masks,
    oracle_lam,
    oracle_shift_label,
    oracle_shift_labels,
    oracle_weight_profile,
    random_matroids,
    relabeled_copy,
    small_target,
)


def M(name):
    return get(name).matroid


# E4's two candidate 3-separation sides.
SIDE_A1 = frozenset({1, 2, 5, 6, 7, 10})
SIDE_A2 = frozenset({1, 2, 3, 4, 8, 9})


class TestHasMinor:
    def test_positive_cases_with_witness_replay(self):
        # Every witness contracts exactly r(M) - r(N) elements, and its
        # minor maps onto the target and has its canonical key; the cases
        # contract 0 to 3 elements.
        cases = [("S10", "P9"), ("S10", "F7"), ("P9", "F7"), ("T12", "P9")]
        cases += [("T12", "F7"), ("T12", "M(K5)"), ("T12", "E4"), ("P9*", "F7"), ("P9*", "S8")]
        for big, small in cases:
            hit = has_any_minor(M(big), [M(small)])
            assert hit is not None, (big, small)
            _, dels, cons = hit
            minor = remove(M(big), dels, cons)
            assert len(cons) == M(big).rank - M(small).rank, (big, small)
            assert isomorphism(minor, M(small)) is not None, (big, small)
            assert canonical_key(minor) == canonical_key(M(small)), (big, small)

    def test_negative_cases(self):
        # E4, E5, and T12 all live in EX[S10, S10*].
        assert has_any_minor(M("E4"), [M("S10")]) is None
        assert has_any_minor(M("E4"), [M("S10*")]) is None
        assert has_any_minor(M("E5"), [M("S10")]) is None
        assert has_any_minor(M("T12"), [M("S10")]) is None
        assert has_any_minor(M("S8"), [M("P9")]) is None  # size rules it out
        assert has_any_minor(M("M(K5)"), [M("F7")]) is None  # graphic, Fano-free

    def test_empty_matroid_is_a_minor_of_everything(self):
        empty = Matroid(BitMatrix(0, 0, ()), ())
        # r(S10) = 4, so the witness contracts four elements, the first four.
        assert has_any_minor(M("S10"), [empty]) == (0, frozenset(range(5, 11)), frozenset(range(1, 5)))

    def test_self_minor(self):
        assert has_any_minor(M("P9"), [M("P9")]) == (0, frozenset(), frozenset())

    def test_duality(self):
        # N is a minor of M iff N* is a minor of M*.
        for big, small in [("S10", "P9"), ("T12", "F7")]:
            assert has_any_minor(M(big), [M(small)]) is not None
            assert has_any_minor(dual(M(big)), [dual(M(small))]) is not None

    def test_has_any_minor_returns_first_matching_target(self):
        hit = has_any_minor(M("S10"), [M("T12"), M("P9"), M("F7")])
        assert hit is not None
        idx, dels, cons = hit
        assert idx in (1, 2)
        assert has_any_minor(M("P9"), [M("S10"), M("T12")]) is None

    def test_witnesses_are_pinned(self):
        # The split order (gap, removed set, contraction count) and the
        # target order decide which witness comes first; these must not drift.
        cases = [
            ("S10", ["P9"], (0, {1}, set())),
            ("S10", ["F7"], (0, {1, 7}, {4})),
            ("S10", ["F7*"], (0, {1, 6, 7}, set())),
            ("T12", ["P9"], (0, {2}, {1, 3})),
            ("T12", ["P9*"], (0, {2, 4}, {1})),
            ("T12", ["F7"], (0, {2, 4}, {1, 3, 11})),
            ("S10", ["S10", "T12", "P9", "F7"], (0, set(), set())),
            ("S10", ["T12", "P9", "F7"], (1, {1}, set())),
        ]
        for big, smalls, witness in cases:
            assert has_any_minor(M(big), [M(s) for s in smalls]) == witness, (big, smalls)


def _random_simple_cosimple(rng, n, r):
    """A seeded [I_r | D] whose D columns and rows are distinct, of weight >= 2."""
    while True:
        cols = [rng.randrange(1 << r) for _ in range(n - r)]
        d_rows = [sum(((c >> i) & 1) << j for j, c in enumerate(cols)) for i in range(r)]
        if all(
            len(set(vs)) == len(vs) and all(v.bit_count() >= 2 for v in vs)
            for vs in (cols, d_rows)
        ):
            rows = tuple((1 << i) | (d << r) for i, d in enumerate(d_rows))
            return Matroid(BitMatrix(r, n, rows), tuple(range(1, n + 1)))


def _label_mask(m, positions_mask):
    return sum(1 << lab for p, lab in enumerate(m.labels) if (positions_mask >> p) & 1)


def _oracle_cycles(m):
    """Label masks (bit l = label l) of the sets whose columns sum to zero."""
    out = []
    for mask in range(1 << m.size):
        acc = 0
        for p, lab in enumerate(m.labels):
            if (mask >> p) & 1:
                acc ^= m.column_of(lab)
        if acc == 0:
            out.append(_label_mask(m, mask))
    return out


def _oracle_cocycles(m):
    """Label masks of the row span."""
    span = {0}
    for row in m.matrix.rows:
        span |= {s ^ _label_mask(m, row) for s in span}
    return list(span)


def _fano_kinds(cycles, cocycles):
    """Which of F7 (0) and F7* (1) a 7-element binary matroid with these
    cycle and cocycle spaces is: F7 is the simple rank-3 one, F7* the
    cosimple rank-4 one."""
    kinds = set()
    for kind, space in enumerate((cycles, cocycles)):
        if len(space) == 16 and all(v == 0 or v.bit_count() >= 3 for v in space):
            kinds.add(kind)
    return kinds


def test_has_any_minor_matches_f7_oracle():
    # M\D/C has cycle space {c - C : c cycle, c & D = 0} and cocycle space
    # {c - D : c cocycle, c & C = 0}; brute force over every 7-element
    # split decides F7 and F7* minors without the minor search or iso.
    rng = random.Random(20140)
    targets = [M("F7"), M("F7*")]
    verdicts = Counter()
    for n, r in [(8, 4), (9, 4), (9, 5), (10, 4), (10, 5), (10, 6)]:
        for _ in range(5):
            m = _random_simple_cosimple(rng, n, r)
            cycles, cocycles = _oracle_cycles(m), _oracle_cocycles(m)
            expected = set()
            for removed in combinations(m.labels, n - 7):
                gone = sum(1 << lab for lab in removed)
                for c in range(len(removed) + 1):
                    for cons in combinations(removed, c):
                        cmask = sum(1 << lab for lab in cons)
                        dmask = gone & ~cmask
                        expected |= _fano_kinds(
                            {z & ~cmask for z in cycles if not z & dmask},
                            {y & ~dmask for y in cocycles if not y & cmask},
                        )
            for idx, target in enumerate(targets):
                hit = has_any_minor(m, [target])
                assert (hit is not None) == (idx in expected), (m.matrix.rows, idx)
                verdicts[hit is not None] += 1
                if hit is not None:
                    _, dels, cons = hit
                    minor = remove(m, dels, cons)
                    assert minor.size == 7
                    assert idx in _fano_kinds(_oracle_cycles(minor), _oracle_cocycles(minor))
    assert verdicts[True] and verdicts[False], verdicts


def _brute_force_search(m, targets):
    """(first witness, indices of the targets found, splits to build) from
    every split of m built with `remove` and compared by `canonical_key`:
    no filter, no colours and no `isomorphism`.  `found` reads every split,
    whatever it contracts.  The search visits, per removed set, only the
    splits that contract r(m) - r(t) elements for a target t of the gap,
    fewest first, so `first` and `passed` follow that order: by gap, then
    removed labels in `combinations` order over the sorted labels, then by
    the number contracted.  The first witness names the first target of
    that rank whose key its minor has; the splits to build are those up to
    it whose minor has the profile of a target of that rank."""
    by_gap: dict[int, dict] = {}
    for idx, t in enumerate(targets):
        if t.size <= m.size:
            by_gap.setdefault(m.size - t.size, {}).setdefault(canonical_key(t), []).append(idx)
    first, found, passed = None, set(), []
    for gap, keys in sorted(by_gap.items()):
        profiles = {}  # the number contracted, r(m) - r(t) -> profiles of those t
        for idx in keys.values():
            t = targets[idx[0]]
            profiles.setdefault(m.rank - t.rank, set()).add(weight_profile(t))
        for removed in combinations(sorted(m.labels), gap):
            for c in range(gap + 1):
                for cons in combinations(removed, c):
                    dels = frozenset(removed) - frozenset(cons)
                    minor = remove(m, dels, cons)
                    hits = keys.get(canonical_key(minor), [])
                    found.update(hits)
                    if first is None and weight_profile(minor) in profiles.get(c, ()):
                        passed.append((dels, frozenset(cons)))
                    if hits and first is None and minor.rank == m.rank - c:
                        first = (hits[0], dels, frozenset(cons))
    return first, found, passed


def test_has_any_minor_matches_a_brute_force_decider(monkeypatch):
    # Seeded random matroids of at most 9 elements (loops, coloops and
    # parallel pairs in turn) against random targets of at most 7 with
    # gaps 0-3, and a re-presented minor of each so that hits occur.  The
    # verdicts and first witnesses agree, and the filter passes exactly
    # the splits whose minors have a target's profile.
    built = []
    real_remove = structure.remove

    def recording_remove(m, dels, cons):
        built.append((frozenset(dels), frozenset(cons)))
        return real_remove(m, dels, cons)

    monkeypatch.setattr(structure, "remove", recording_remove)
    rng = random.Random(20142)
    pool = random_matroids(seed=32, count=90, max_size=7)
    verdicts = Counter()
    for m in random_matroids(seed=31, count=60):
        if m.size < 2:
            continue
        targets = rng.sample([t for t in pool if 0 <= m.size - t.size <= 3], 2)
        removed = rng.sample(sorted(m.labels), rng.randint(max(0, m.size - 7), min(3, m.size - 1)))
        cons = removed[: rng.randint(0, len(removed))]
        targets.append(relabeled_copy(remove(m, set(removed) - set(cons), cons), rng))
        first, found, passed = _brute_force_search(m, targets)
        built.clear()
        assert has_any_minor(m, targets) == first, (m.matrix.rows, m.labels)
        assert built == passed, (m.matrix.rows, m.labels)
        for idx, t in enumerate(targets):
            hit = has_any_minor(m, [t])
            assert (hit is not None) == (idx in found), (m.matrix.rows, m.labels, idx)
            if hit is not None:
                assert canonical_key(remove(m, hit[1], hit[2])) == canonical_key(t)
            verdicts[m.size - t.size, hit is not None] += 1
    # Both verdicts occur at every gap.
    assert all(verdicts[gap, hit] for gap in range(4) for hit in (False, True)), verdicts


def test_minor_filter_builds_only_splits_with_a_targets_rank_and_profile(monkeypatch):
    # Every minor the search builds contracts r(m) - r(t) elements for a
    # target t and has t's cocycle weight enumerator (`oracle_weight_profile`
    # here, not the filter's masks): the rank test and every weight the
    # filter compares keep out the rest, whatever the verdict.
    built = []
    real_remove = structure.remove

    def recording_remove(m, dels, cons):
        minor = real_remove(m, dels, cons)
        built.append((len(cons), minor))
        return minor

    monkeypatch.setattr(structure, "remove", recording_remove)
    # Targets of at most 5 elements have short enumerators, so splits that
    # differ from one only in its last compared weight occur.
    rng = random.Random(20143)
    pool = random_matroids(seed=34, count=90, max_size=5)
    builds = 0
    for m in random_matroids(seed=33, count=60, max_size=8):
        targets = [t for t in pool if 0 <= m.size - t.size <= 3]
        targets = rng.sample(targets, min(3, len(targets)))
        wanted = {(m.rank - t.rank, oracle_weight_profile(t)) for t in targets}
        built.clear()
        has_any_minor(m, targets)
        for c, minor in built:
            assert (c, oracle_weight_profile(minor)) in wanted, (m.matrix.rows, m.labels, c)
        builds += len(built)
    assert builds


def test_split_profile_matches_built_minors():
    # Random [I_r | D] with loops, parallel pairs, rank 0 and corank 0
    # allowed, and shuffled labels so positions and labels differ.  For
    # every split, the search's own per-removed-set masks, intersected
    # with the cocycles that avoid the contracted positions, count the
    # built minor's profile at every weight, times the kernel, and the
    # cocycles avoiding them number the kernel times 2^rank.
    rng = random.Random(20141)
    kernels = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        r = rng.randint(0, n)
        rows = tuple((1 << i) | (rng.getrandbits(n - r) << r) for i in range(r))
        m = Matroid(BitMatrix(r, n, rows), tuple(rng.sample(range(1, 20), n)))
        masks = oracle_cocycle_masks(m)
        for k in range(1, min(3, n - 1) + 1):
            for removed in combinations(range(n), k):
                kept = structure._KeptWeights(cocycle_index(m), removed)
                for c in range(k + 1):
                    for cons in combinations(removed, c):
                        cmask = sum(1 << p for p in cons)
                        dels = m.labels_of(sum(1 << p for p in removed) ^ cmask)
                        minor = remove(m, dels, m.labels_of(cmask))
                        profile = weight_profile(minor)
                        avoid = sum(1 << i for i, mk in enumerate(masks) if not mk & cmask)
                        counts = [(kept[w] & avoid).bit_count() for w in range(n - k + 1)]
                        kernel = counts[0]
                        assert counts == [kernel * x for x in profile], (rows, removed, cons)
                        assert avoid.bit_count() == kernel << minor.rank  # the search's rank test
                        kernels += kernel > 1
    # The cocycle kernel is nontrivial on some splits, so the division is exercised.
    assert kernels


def test_one_search_builds_the_index_once(monkeypatch):
    # The cocycle index of the searched matroid is built once for the
    # whole search, never per split; the only other builds are the
    # targets' and one per minor that the filter passes.
    builds = Counter()
    made = []
    real_index, real_remove = iso.cocycle_index, structure.remove

    def counting_index(m):
        builds[id(m)] += m._cocycle_index is None
        return real_index(m)

    def counting_remove(*args):
        made.append(real_remove(*args))
        return made[-1]

    # The first E4 two-step child in EX[S10, S10*], so every split is visited.
    child = next(
        Matroid(child.matrix, child.labels)
        for type_i in (extend(M("E4"), u) for u in growth_candidates(M("E4"), "extension"))
        for child in (coextend(type_i, v) for v in growth_candidates(type_i, "coextension"))
        if has_any_minor(child, [M("S10"), M("S10*")]) is None
    )
    monkeypatch.setattr(iso, "cocycle_index", counting_index)
    monkeypatch.setattr(structure, "cocycle_index", counting_index)
    monkeypatch.setattr(structure, "remove", counting_remove)
    targets = [fresh("S10"), fresh("S10*")]
    assert child.size == 12 and has_any_minor(child, targets) is None
    assert builds[id(child)] == 1
    assert sum(builds.values()) <= 1 + len(targets) + len(made)
    assert all(n <= 1 for n in builds.values())
    builds.clear()
    m = fresh("E4")
    assert has_any_minor(m, []) is None
    assert not builds and m._cocycle_index is None


def test_decisions_compute_no_canonical_form(monkeypatch):
    # Fresh matroids carry no cached key, so any canonical key asked for
    # below would have to compute a canonical form.
    def refuse(m):
        raise AssertionError("canonical_form called")

    monkeypatch.setattr(iso, "canonical_form", refuse)
    hit = has_any_minor(fresh("S10"), [fresh("P9")])
    assert hit is not None
    assert are_isomorphic(remove(fresh("S10"), hit[1], hit[2]), fresh("P9"))
    assert has_any_minor(fresh("E4"), [fresh("S10")]) is None
    assert are_isomorphic(fresh("S8"), dual(fresh("S8")))
    assert not are_isomorphic(fresh("S10"), dual(fresh("S10")))
    classes = enumerate_growth_classes(fresh("F7*"), "extension")
    assert sorted(len(c.members) for c in classes) == [1, 7]


class TestInClass:
    def test_membership(self):
        ex = [M("S10"), M("S10*")]
        assert in_class(M("E4"), ex)
        assert in_class(M("E5"), ex)
        assert in_class(M("T12"), ex)
        assert not in_class(M("S10"), ex)
        assert in_class(M("S8"), [M("P9"), M("P9*")])
        cls = ExcludedClass(ex)
        for name in ("E4", "E5", "T12", "S10", "S10*", "T12", "S10"):  # repeats reuse answers
            assert (M(name) in cls) == in_class(M(name), ex), name

    def test_dual_class_is_itself_only_when_the_family_is_dual_closed(self):
        closed = ExcludedClass([M("S10"), M("S10*")])
        assert closed.dual() is closed
        s10 = ExcludedClass([M("S10")])
        assert s10.dual() is not s10
        assert M("S10*") in s10 and M("S10*") not in s10.dual()

    @pytest.mark.parametrize("defer", [(), ("T12/e", "T12\\e")], ids=["undeferred", "deferred"])
    def test_decomposer_membership_per_class_matches_fresh_searches(self, monkeypatch, defer):
        # The engine searches once per isomorphism class of children, and
        # the dual orientation shares the class's answers.  Every record of
        # both orientations must still carry what a fresh search on the
        # child, rebuilt from its generators, gives against that
        # orientation's families.  Undeferred, E4 stops after the one-step
        # phase (as in test_undeferred_t12_branches_fail_both_sides); with
        # the T12 branches deferred it runs the two-step phase too.
        excluded = [M("S10"), M("S10*")]
        defer = [M(name) for name in defer]
        searched = []

        def counting(m, targets):
            searched.append(m)
            return has_any_minor(m, targets)

        monkeypatch.setattr(structure, "has_any_minor", counting)
        report = corollary22_check(fresh("E4"), SIDE_A1, SIDE_A2, 3, excluded, defer=defer)
        monkeypatch.undo()

        _assert_records_match_fresh_searches(report, M("E4"), excluded, defer)
        _assert_records_match_fresh_searches(
            report.dual_report,
            dual(M("E4")),
            [dual(x) for x in excluded],
            [dual(x) for x in defer],
        )
        assert bool(report.two_step) == bool(defer)
        reports = (report, report.dual_report)
        assert len(searched) < sum(len(r.one_step) + len(r.two_step) for r in reports)

    def test_decomposer_membership_in_a_class_that_is_not_its_own_dual(self):
        # EX[S10] contains S10*, so its dual orientation must ask EX[S10*].
        report = theorem21_check(fresh("E4"), SIDE_A1, 3, [M("S10")])
        _assert_records_match_fresh_searches(report, M("E4"), [M("S10")], [])
        _assert_records_match_fresh_searches(
            report.dual_report, dual(M("E4")), [dual(M("S10"))], []
        )

    def test_decomposer_deferral_in_a_class_that_is_not_its_own_dual(self):
        # EX[T12/e] contains T12\e, the dual of T12/e, so the dual
        # orientation must defer to EX[(T12/e)*].
        excluded, defer = [M("S10"), M("S10*")], [M("T12/e")]
        report = theorem21_check(fresh("E4"), SIDE_A1, 3, excluded, defer=defer)
        _assert_records_match_fresh_searches(report, M("E4"), excluded, defer)
        _assert_records_match_fresh_searches(
            report.dual_report, dual(M("E4")), [dual(x) for x in excluded], [dual(x) for x in defer]
        )


def _fresh_membership(child, excluded, defer):
    """(in the class, deferred) by a fresh `in_class` search per family."""
    if not in_class(child, excluded):
        return False, False
    return True, bool(defer) and not in_class(child, defer)


def _assert_records_match_fresh_searches(report, n, excluded, defer):
    for rec in report.one_step:
        child = (extend if rec.kind == "extension" else coextend)(n, rec.vector)
        assert (rec.in_class, rec.deferred) == _fresh_membership(child, excluded, defer), (rec.kind, str(rec.vector))
    for rec in report.two_step:
        child = coextend(extend(n, rec.parent_vector), rec.row)
        where = (str(rec.parent_vector), str(rec.row))
        assert (rec.in_class, rec.deferred) == _fresh_membership(child, excluded, defer), where


class TestIsSplitter:
    def test_s8_is_not_a_splitter_for_ex_p9(self):
        ok, counterexamples = is_splitter(M("S8"), [M("P9"), M("P9*")])
        assert not ok
        kinds = {(kind, str(v)) for kind, v in counterexamples}
        assert kinds == {("extension", "[1110]"), ("coextension", "[1110]")}
        for kind, v in counterexamples:
            child = (extend if kind == "extension" else coextend)(M("S8"), v)
            assert child.size == 9
            assert in_class(child, [M("P9"), M("P9*")])

    def test_p9_census_matches_a_search_per_growth(self):
        # One question per growth class, and every member of an in-class
        # class listed: the pairs are those a fresh search of each growth
        # keeps, E4 among them as 8 coextension rows of one class.
        p9, family = M("P9"), [M("S10"), M("S10*")]
        ok, counterexamples = is_splitter(p9, family)
        oracle = {
            (kind, v)
            for kind in ("extension", "coextension")
            for v in growth_candidates(p9, kind)
            if in_class(grow(p9, kind, v), family)
        }
        assert not ok and len(counterexamples) == len(set(counterexamples)) == 24
        assert set(counterexamples) == oracle
        rows = [v for kind, v in counterexamples if kind == "coextension"]
        assert sum(are_isomorphic(coextend(p9, v), M("E4")) for v in rows) == 8

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

        # Elements 1 and 2 of the first graph are parallel edges; the
        # second graph, K4 minus an edge, has two vertices of degree 2,
        # each a series pair.  {1, 2, 3} is a triad of F7* and {2, 3, 4} a
        # triangle of F7, each with lambda 2; neither is the other kind.
        cases = [
            (graphic_matroid([(0, 1), (0, 1), (1, 2), (0, 2)], 3), {1, 2}, 2, "not-simple"),
            (graphic_matroid([(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], 4), {1, 2}, 2, "not-cosimple"),
            (M("F7*"), {1, 2, 3}, 3, "not-union-of-circuits"),
            (M("F7"), {2, 3, 4}, 3, "not-union-of-cocircuits"),
        ]
        for base, side, k, reason in cases:
            with pytest.raises(HypothesisError) as exc:
                theorem21_check(base, frozenset(side), k, [M("S10")])
            assert exc.value.reason == reason

    def test_separation_must_be_exact(self):
        # lambda({1,2,3,4}) = 4 in S10, not k - 1 = 2.
        with pytest.raises(HypothesisError, match=r"^lambda\(\[1, 2, 3, 4\]\) = 4, not 2$") as exc:
            theorem21_check(M("S10"), frozenset({1, 2, 3, 4}), 3, [M("T12")])
        assert exc.value.reason == "not-exact"

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
        assert sum(not rec.in_class for rec in report.two_step) == 192
        assert not any(rec.deferred for rec in report.two_step)
        verdicts = Counter(rec.sides[0].verdict for rec in report.two_step if rec.in_class)
        assert verdicts == {Verdict.GOOD: 56, Verdict.BAD: 12}

    def test_bridging_candidates_are_noted_on_an_extension_of_d1star(self):
        # Theorem 2.1's hypotheses let a bridging candidate lie in the
        # class: 6 of the 72 active two-step records of this input are
        # bridging (so noted, not as good for no side), and 18 are bad.
        report = theorem21_check(
            _base("D1*+[000110]"), _D1_BRIDGING[1][0], 3, [M("S10"), M("S10*")], check_dual=False
        )
        assert report.overall == "failed"
        assert sum(rec.active for rec in report.two_step) == 72
        assert report.notes == [
            "bridging candidate [001001]/[000011]",
            "candidate [001001]/[001101] is good for no side",
            "candidate [001001]/[110001] is good for no side",
            "candidate [001001]/[111101] is good for no side",
            "bridging candidate [001111]/[000011]",
            "candidate [001111]/[001101] is good for no side",
            "candidate [001111]/[110000] is good for no side",
            "candidate [001111]/[111100] is good for no side",
            "candidate [110000]/[001101] is good for no side",
            "candidate [110000]/[110001] is good for no side",
            "candidate [110000]/[111101] is good for no side",
            "bridging candidate [110000]/[111111]",
            "candidate [110100]/[001100] is good for no side",
            "candidate [110100]/[110001] is good for no side",
            "candidate [110100]/[111100] is good for no side",
            "bridging candidate [110100]/[111110]",
            "candidate [111101]/[001100] is good for no side",
            "candidate [111101]/[110001] is good for no side",
            "bridging candidate [111101]/[110011]",
            "candidate [111101]/[111100] is good for no side",
            "candidate [111111]/[001101] is good for no side",
            "candidate [111111]/[110000] is good for no side",
            "bridging candidate [111111]/[110010]",
            "candidate [111111]/[111100] is good for no side",
        ]


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

    def test_coupling_violations_are_noted_on_e3(self):
        # On each of these one-step growths of E3, side 1 keeps neither
        # lambda(A) nor lambda(A u x) at k-1, and side 2 keeps only
        # lambda(A u x), which the coupling forbids while side 1 is not
        # direct.  The dual orientation swaps the two kinds' generators.
        report = corollary22_check(
            M("E3"), {1, 2, 3, 4, 8, 9}, {1, 2, 5, 6, 7, 10}, 3, [M("S10"), M("S10*")]
        )

        def notes(extensions, coextensions):
            return [
                f"one-step {kind} [{v}] {note}"
                for kind, vectors in (("extension", extensions), ("coextension", coextensions))
                for v in vectors
                for note in ("fails condition (i)/(ii) on side 1", "violates the coupling on side 2")
            ]

        first, second = ["00111", "01001", "10001", "11111"], ["00111", "01110", "10110", "11111"]
        assert report.overall == report.dual_report.overall == "failed"
        assert report.notes == notes(first, second) + ["dual-orientation check performed explicitly"]
        assert report.dual_report.notes == notes(second, first)

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

    def test_runs_on_ranks_alone(self, monkeypatch):
        # Hypotheses, membership and every classification read ranks and
        # cocycle masks only: no cycle space is built.
        def no_cycle_space(self):
            raise AssertionError("cycle space built")

        monkeypatch.setattr(Matroid, "cycle_masks", no_cycle_space)
        report = corollary22_check(
            M("E4"),
            SIDE_A1,
            SIDE_A2,
            3,
            [M("S10"), M("S10*")],
            defer=[M("T12/e"), M("T12\\e")],
        )
        assert report.overall == "induced-one-of-two"
        assert report.dual_report.overall == "induced-one-of-two"

    def test_verification_run_builds_no_cycle_space(self, monkeypatch, verification):
        # Every claim, the circuit and cocircuit claims included, reads
        # ranks and cocycle masks only, and the report does not change.
        def no_cycle_space(self):
            raise AssertionError("cycle space built")

        monkeypatch.setattr(Matroid, "cycle_masks", no_cycle_space)
        assert report_to_json(run_verification()) == report_to_json(verification[0])


def _triangle_escape_by_circuit_lists(child, e, f, side_s):
    """The first 3-circuit, else 3-cocircuit, {e, f, g} with g in the side."""
    for fam in (oracle_circuits(child), oracle_cocircuits(child)):
        for c in fam:
            if len(c) == 3 and e in c and f in c and next(iter(c - {e, f})) in side_s:
                return c
    return None


def test_triangle_escape_on_k4():
    # In M(K4) the edges 1, 2 and 4 form the only triangle through 1 and 2,
    # and the edges 1, 2 and 3 meet at vertex 1: the only such triad.  The
    # E4 children give triads alone.
    from binmat.catalog import graphic_matroid

    k4 = graphic_matroid([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], 4)
    tri = _triangle_escape(k4, 1, 2, {4, 5})
    assert tri == {1, 2, 4} and tri in oracle_circuits(k4)
    tri = _triangle_escape(k4, 1, 2, {3, 5})
    assert tri == {1, 2, 3} and tri in oracle_cocircuits(k4)
    for side in ({4, 5}, {3, 5}, {5, 6}):
        assert _triangle_escape(k4, 1, 2, side) == _triangle_escape_by_circuit_lists(k4, 1, 2, side)
    assert _triangle_escape(k4, 1, 2, {5, 6}) is None


def test_triangle_escape_matches_circuit_lists_on_e4_children():
    # Every in-class, non-deferred two-step child of the E4 check, in both
    # orientations and for both sides.
    report = corollary22_check(
        M("E4"),
        SIDE_A1,
        SIDE_A2,
        3,
        [M("S10"), M("S10*")],
        defer=[M("T12/e"), M("T12\\e")],
    )
    found = 0
    for n, rep in ((M("E4"), report), (dual(M("E4")), report.dual_report)):
        r = n.rank
        for rec in rep.two_step:
            if not rec.in_class or rec.deferred:
                continue
            type_i = extend(n, rec.parent_vector)
            child = coextend(type_i, rec.row)
            e, f = oracle_shift_label(type_i.labels[-1], r), r + 1
            for side in (SIDE_A1, SIDE_A2):
                side_s = oracle_shift_labels(side, r)
                tri = _triangle_escape(child, e, f, side_s)
                assert tri == _triangle_escape_by_circuit_lists(child, e, f, side_s)
                found += tri is not None
    assert found


def _oracle_classify(child, e, f, side_s, k):
    """`_classify_built`'s rule from the definitions, as (verdict,
    witness_set, triangle_witness).  child/f and child\\e are built with
    `remove`, every lambda is `oracle_lam`, and triangles and triads are
    read off the circuit and cocircuit lists; no `structure` code is used.

    With t = k - 1 the child is GOOD by (a) lambda(S) = t in child/f and
    in child\\e (witness S); (b) lambda(S) = t in child/f, lambda(S u f)
    = t in child\\e, and lambda(S u f) = t in the child (witness S u f)
    or a triangle; (c) the same with e and f swapped (witness S u e); or
    (d) lambda(S u e) = t in child/f, lambda(S u f) = t in child\\e and a
    triangle.  A triangle is a 3-circuit, else a 3-cocircuit, {e, f, g}
    with g in S, least g first, and a set witness comes before it.  A
    child that is not GOOD is BRIDGING if lambda(X) >= k for every X with
    S <= X <= E - B, where B = E - S - {e, f}, and BAD otherwise.
    """
    t = k - 1
    over_f, under_e = remove(child, contractions={f}), remove(child, deletions={e})
    pa, qa = (oracle_lam(over_f, x) == t for x in (side_s, side_s | {e}))
    pb, qb = (oracle_lam(under_e, x) == t for x in (side_s, side_s | {f}))
    triangle = None
    for family in (oracle_circuits(child), oracle_cocircuits(child)):
        through = [c for c in family if len(c) == 3 and {e, f} < c and c - {e, f} <= side_s]
        if through:
            triangle = min(through, key=lambda c: min(c - {e, f}))
            break
    good = []
    if pa and pb:
        good.append((side_s, None))
    if pa and qb and oracle_lam(child, side_s | {f}) == t:
        good.append((side_s | {f}, None))
    if qa and pb and oracle_lam(child, side_s | {e}) == t:
        good.append((side_s | {e}, None))
    if triangle and ((pa and qb) or (qa and pb) or (qa and qb)):
        good.append((None, triangle))
    if good:
        return (Verdict.GOOD, *good[0])
    b_side = child.ground_set() - side_s - {e, f}
    free = sorted(child.ground_set() - b_side - side_s)
    sandwiched = [side_s | set(y) for j in range(len(free) + 1) for y in combinations(free, j)]
    if all(oracle_lam(child, x) >= k for x in sandwiched):
        return Verdict.BRIDGING, None, None
    return Verdict.BAD, None, None


def test_classify_built_matches_a_literal_oracle():
    # Seeded random two-step children: a simple, cosimple base on 1..n with
    # n <= 8, a simple extension by e = n + 1 (moved to n + 2), then a
    # coextension by f = r + 1, cosimple since the extension is; a random
    # side S avoiding e and f, and k in {2, 3}.  Each verdict and each
    # kind of GOOD witness must occur in the sample.
    rng = random.Random(2014)
    seen = Counter()
    for _ in range(600):
        n, r = rng.choice([(6, 3), (7, 4), (8, 4)])
        base = _random_simple_cosimple(rng, n, r)
        ext = extend(base, rng.choice(growth_candidates(base, "extension")))
        child = coextend(ext, rng.choice(growth_candidates(ext, "coextension")))
        e, f = oracle_shift_label(n + 1, r), r + 1
        side_s = frozenset(x for x in child.labels if x not in (e, f) and rng.random() < 0.5)
        k = rng.choice((2, 3))
        out = _classify_built(child, e, f, side_s, k)
        expected = _oracle_classify(child, e, f, side_s, k)
        assert (out.verdict, out.witness_set, out.triangle_witness) == expected, (child.matrix.rows, side_s, k)
        if out.verdict is not Verdict.GOOD:
            seen[out.verdict.value] += 1
        elif out.triangle_witness:
            seen["triangle"] += 1
        else:
            seen[{side_s: "S", side_s | {e}: "S u e", side_s | {f}: "S u f"}[out.witness_set]] += 1
    assert set(seen) == {"bridging", "bad", "S", "S u e", "S u f", "triangle"}, seen


def _oracle_decompose(n, sides, k, excluded, defer, check_dual):
    """The decomposer's result from the definitions, as nested plain
    values: (overall, notes, one-step records, two-step records, the dual
    orientation's result or None).  Every child is built by `extend` and
    `coextend` on labels 1..n, its membership is a fresh `in_class`, its
    lambdas are `oracle_lam` and its two-step verdicts `_oracle_classify`;
    no `structure` code is used.

    The acceptance rule, as `_decompose` states it: every side of every
    active (in-class, not deferred) one-step candidate is satisfied, by
    lambda(A) = k-1 (direct) or lambda(A u x) = k-1; a side that is not
    direct needs every other side to be direct; and every active two-step
    candidate is good for at least one side and bridging for none.  The
    two-step candidates are the cosimple coextensions of the active
    extensions, classified only when the one-step rule holds and some
    side is not direct; when every side is direct, the one-element check
    is noted instead.  With `check_dual` the same runs on the duals of n
    and of both families, and fails the whole if it fails."""
    t, r = k - 1, n.rank
    notes, failures = [], 0
    one, two = [], []
    for kind, grow, x, moved in (
        ("extension", extend, n.size + 1, sides),
        ("coextension", coextend, r + 1, [oracle_shift_labels(a, r) for a in sides]),
    ):
        for v in growth_candidates(n, kind):
            child = grow(n, v)
            in_cls, deferred = _fresh_membership(child, excluded, defer)
            active = in_cls and not deferred
            lams = [(oracle_lam(child, a), oracle_lam(child, a | {x})) for a in moved if active]
            one.append((kind, v, in_cls, deferred, lams))
    for kind, v, _, _, lams in one:
        direct = [la == t for la, _ in lams]
        for i, (la, lax) in enumerate(lams):
            if t not in (la, lax):
                notes.append(f"one-step {kind} {v} fails condition (i)/(ii) on side {i + 1}")
            elif not direct[i] and not all(direct[:i] + direct[i + 1 :]):
                notes.append(f"one-step {kind} {v} violates the coupling on side {i + 1}")
            else:
                continue
            failures += 1
    if all(la == t for *_, lams in one for la, _ in lams):
        notes.append("one-element check: every one-step candidate keeps lambda = k-1")
    elif not failures:
        e, f = oracle_shift_label(n.size + 1, r), r + 1
        moved = [oracle_shift_labels(a, r) for a in sides]
        for kind, v, *_, lams in one:
            if kind != "extension" or not lams:
                continue
            type_i = extend(n, v)
            for row in growth_candidates(type_i, "coextension"):
                child = coextend(type_i, row)
                in_cls, deferred = _fresh_membership(child, excluded, defer)
                active = in_cls and not deferred
                outcomes = [_oracle_classify(child, e, f, a, k) for a in moved if active]
                two.append((v, row, in_cls, deferred, outcomes))
                verdicts = [verdict for verdict, _, _ in outcomes]
                if Verdict.BRIDGING in verdicts:
                    notes.append(f"bridging candidate {v}/{row}")
                elif outcomes and Verdict.GOOD not in verdicts:
                    notes.append(f"candidate {v}/{row} is good for no side")
                else:
                    continue
                failures += 1
    dual_result = None
    if check_dual:
        duals = [dual(x) for x in excluded], [dual(x) for x in defer]
        dual_result = _oracle_decompose(dual(n), sides, k, *duals, check_dual=False)
        notes.append("dual-orientation check performed explicitly")
        failures += dual_result[0] == "failed"
    overall = "failed" if failures else ("induced", "induced-one-of-two")[len(sides) - 1]
    return overall, notes, one, two, dual_result


def _engine_result(report):
    """A `DecomposerReport` in `_oracle_decompose`'s shape."""
    if report is None:
        return None
    one = [
        (rec.kind, rec.vector, rec.in_class, rec.deferred, [(s.lam_a, s.lam_ax) for s in rec.sides])
        for rec in report.one_step
    ]
    two = [
        (
            rec.parent_vector,
            rec.row,
            rec.in_class,
            rec.deferred,
            [(o.verdict, o.witness_set, o.triangle_witness) for o in rec.sides],
        )
        for rec in report.two_step
    ]
    return report.overall, report.notes, one, two, _engine_result(report.dual_report)


_E3_COUPLING = ("E3", [{1, 2, 3, 4, 8, 9}, {1, 2, 5, 6, 7, 10}], ["S10", "S10*"], [], True)
_E4_DEFERRED = ("E4", [SIDE_A1, SIDE_A2], ["S10", "S10*"], ["T12/e", "T12\\e"], True)
# A base whose Theorem 2.1 check has bridging candidates in the class.
_D1_BRIDGING = ("D1*+[000110]", [{1, 2, 3, 4, 5, 6, 7, 10}], ["S10", "S10*"], [], False)


def _base(name):
    """A catalog matroid by name, or ``"name+[column]"``: its extension by
    that column."""
    name, _, column = name.partition("+")
    return extend(M(name), BitVector.parse(column)) if column else M(name)


@pytest.mark.parametrize(
    "n, sides, family, defer, check_dual, seeded",
    [
        (*_E3_COUPLING, None),
        ("E4", [SIDE_A1], ["S10", "S10*"], ["T12/e", "T12\\e"], False, None),
        (*_E4_DEFERRED, None),
        (*_E3_COUPLING, "fresh"),
        (*_E3_COUPLING, "shared"),
        (*_E4_DEFERRED, "fresh"),
        (*_E4_DEFERRED, "shared"),
        (*_D1_BRIDGING, None),
    ],
    ids=[
        "E3-coupling",
        "E4-A1-alone",
        "E4-deferred",
        "E3-coupling-seeded-fresh",
        "E3-coupling-seeded-shared",
        "E4-deferred-seeded-fresh",
        "E4-deferred-seeded-shared",
        "D1star-bridging",
    ],
)
def test_decompose_matches_a_literal_oracle(n, sides, family, defer, check_dual, seeded):
    # Every one-step record (membership, lambda pair), every two-step
    # record (membership, verdict and witness per side), the notes and
    # the overall result, in both orientations where the check runs both.
    # A seeded case runs on two seeded presentations of n (relabeled_copy
    # keeps labels, so the sides still apply), with fresh families or with
    # one ExcludedClass per family shared across both, so the second
    # presentation's records carry the first's growth-class answers while
    # the oracle searches every child afresh.
    sides = [frozenset(a) for a in sides]
    family, defer = [M(x) for x in family], [M(x) for x in defer]
    entry = theorem21_check if len(sides) == 1 else corollary22_check
    bases = [_base(n)]
    if seeded:
        rng = random.Random(30)
        bases = [relabeled_copy(M(n), rng) for _ in range(2)]
        assert all(base.labels != M(n).labels for base in bases)
    classes = family, defer
    if seeded == "shared":
        classes = ExcludedClass(family), (ExcludedClass(defer) if defer else defer)
    for base in bases:
        report = entry(base, *sides, 3, classes[0], defer=classes[1], check_dual=check_dual)
        expected = _oracle_decompose(base, sides, 3, family, defer, check_dual)
        assert _engine_result(report) == expected
        assert expected[0] == ("failed" if n == "E3" or len(sides) == 1 else "induced-one-of-two")


def _e4_check(n):
    # E4's Corollary 2.2 check with the T12 branches deferred, so the
    # two-step phase runs in both orientations.
    return corollary22_check(
        n, SIDE_A1, SIDE_A2, 3, [M("S10"), M("S10*")], defer=[M("T12/e"), M("T12\\e")]
    )


def _repeat_parents(n, report):
    """(p2, p1) for each active extension parent p2 isomorphic to an
    earlier active parent, p1 the first such."""
    firsts, out = [], []
    for rec in report.one_step:
        if rec.kind == "extension" and rec.active:
            p = extend(n, rec.vector)
            p1 = next((q for q in firsts if are_isomorphic(p, q)), None)
            if p1 is None:
                firsts.append(p)
            else:
                out.append((p, p1))
    return out


def _assert_carried_growths_map_children(p2, p1, kind):
    # Every generator v of p2 of `kind`: v' = carrier(p2, p1, kind,
    # sigma)(v) (carried in the parents for a column, in their duals for a
    # row) is a generator of p1, and sigma on the moved parent labels with
    # the new element to itself relabels the growth of p2 by v into p1's
    # growth by v' exactly (GF(2) columns compared through
    # Matroid.__eq__).  p1 and p2 share their labels.
    sigma = isomorphism(p2, p1)
    move, new = growth_labels(p2, kind)
    child_map = {move(x): move(sigma[x]) for x in p2.labels} | {new: new}
    grow = coextend if kind == "coextension" else extend
    carry = carrier(p2, p1, kind, sigma)
    generators = {v.bits: v for v in growth_candidates(p1, kind)}
    candidates = growth_candidates(p2, kind)
    for v in candidates:
        carried = carry(v.bits)
        assert carried in generators, (p2.matrix.rows, kind, v.bits)
        child = grow(p2, v)
        relabeled = Matroid(child.matrix, tuple(child_map[x] for x in child.labels))
        assert relabeled == grow(p1, generators[carried]), (p2.matrix.rows, kind, v.bits)
    return len(candidates), any(x != y for x, y in sigma.items())


def test_carried_rows_map_e4_children_onto_the_first_parents_children():
    for n in (M("E4"), dual(M("E4"))):
        pairs = _repeat_parents(n, _e4_check(n))
        assert pairs
        for p2, p1 in pairs:
            _assert_carried_growths_map_children(p2, p1, "coextension")


@pytest.mark.parametrize("name", ["E4", "S8"])
@pytest.mark.parametrize("kind", ["extension", "coextension"])
def test_carried_generators_map_children_across_duality(name, kind):
    # The dual orientation of a self-dual base carries its one-step
    # growths onto the base's, in both directions.
    n = M(name)
    for p2, p1 in ((n, dual(n)), (dual(n), n)):
        _assert_carried_growths_map_children(p2, p1, kind)


def _random_presentation_pairs(rng, bases):
    """(p2, p1) over seeded random simple, cosimple bases with n <= 9: p1
    is the first extension of a growth class, and p2 a fresh presentation
    of p1 or of another member, so sigma is an automorphism or a true
    relabeling and the two parents' bases differ."""
    for _ in range(bases):
        n, r = rng.choice([(6, 3), (7, 3), (7, 4), (8, 4), (9, 4), (9, 5)])
        base = _random_simple_cosimple(rng, n, r)
        for cls in enumerate_growth_classes(base, "extension"):
            p1 = extend(base, cls.members[0])
            for v in cls.members:
                yield relabeled_copy(extend(base, v), rng), p1, v != cls.members[0]


def _assert_carried_generators_of_random_presentations(kind, bases):
    rng = random.Random(24)
    seen = Counter()
    for p2, p1, other in _random_presentation_pairs(rng, bases):
        count, moved = _assert_carried_growths_map_children(p2, p1, kind)
        seen["generators"] += count
        seen["moved"] += moved
        seen["other member"] += other
    assert min(seen.values()) >= 100, seen


def test_carried_rows_map_children_of_random_presentations():
    _assert_carried_generators_of_random_presentations("coextension", 30)


def test_carried_columns_map_children_of_random_presentations():
    _assert_carried_generators_of_random_presentations("extension", 24)


@pytest.mark.parametrize("name", ["F7", "F7*", "M(K4)"])
def test_growth_membership_matches_fresh_searches(name):
    # One class shared by a parent and 3 fresh presentations of it: the
    # first parent asks, the copies carry, and every answer must equal a
    # fresh search of the copy's own child.  A simple, cosimple base with
    # no M(K4) minor is trivial, so EX[M(K4)] holds no growth here.
    family = [small_target(name)]
    cls = ExcludedClass(family)
    rng = random.Random(25)
    seen = Counter()
    for _ in range(4):
        n, r = rng.choice([(7, 3), (7, 4), (8, 4), (9, 4), (9, 5)])
        base = _random_simple_cosimple(rng, n, r)
        for p in [base] + [relabeled_copy(base, rng) for _ in range(3)]:
            ask = cls.growth_membership(p)
            for kind in ("extension", "coextension"):
                for v in growth_candidates(p, kind):
                    answer = ask(kind, v)
                    assert answer == in_class(grow(p, kind, v), family), (p.matrix.rows, kind, v.bits)
                    seen[answer] += 1
    assert seen[False] >= 20 and (seen[True] >= 20 or name == "M(K4)"), seen


def test_growth_membership_of_a_kept_parent_builds_no_frames(monkeypatch):
    # The class finds the parent it keeps by identity, so asking that
    # object again carries nothing; a relabeled copy builds one carrier
    # for the kind it is asked about, not one per generator.
    made, built = structure.carrier, []
    monkeypatch.setattr(structure, "carrier", lambda p2, p1, kind, sigma: built.append(p2) or made(p2, p1, kind, sigma))
    cls, s8 = ExcludedClass([M("P9"), M("P9*")]), fresh("S8")
    for p in (s8, s8):
        ask = cls.growth_membership(p)
        assert [v for v in growth_candidates(p, "extension") if ask("extension", v)] == [BitVector.parse("1110")]
    assert built == []
    copy = relabeled_copy(s8, random.Random(26))
    ask = cls.growth_membership(copy)
    assert built == []
    assert sum(ask("extension", v) for v in growth_candidates(copy, "extension")) == 1
    assert built == [copy]


def test_growth_membership_asks_once_per_growth_class(monkeypatch):
    # Every generator of both kinds of a fresh T12, asked through one
    # growth_membership: the class is asked once per growth class of each
    # kind, about that class's representative, in class order.
    asked = []
    contains = ExcludedClass.__contains__
    monkeypatch.setattr(ExcludedClass, "__contains__", lambda self, m: asked.append(m) or contains(self, m))
    t12, kinds = fresh("T12"), ("extension", "coextension")
    ask = ExcludedClass([M("S10"), M("S10*")]).growth_membership(t12)
    answers = {(kind, v): ask(kind, v) for kind in kinds for v in growth_candidates(t12, kind)}
    classes = [c for kind in kinds for c in enumerate_growth_classes(t12, kind)]
    assert len(answers) == 102 and len(classes) < len(answers)
    assert len(asked) == len(classes)
    assert all(m is c.representative for m, c in zip(asked, classes))
    for kind in kinds:
        for c in enumerate_growth_classes(t12, kind):
            assert len({answers[kind, v] for v in c.members}) == 1


def test_decomposer_builds_a_growth_only_for_an_active_record(monkeypatch):
    # Membership is read off growth classes, so in both orientations the
    # one-step phase builds the growth of each active record alone, once
    # (`grow`), and the two-step phase builds each active extension
    # (`extend`) and then the coextension of each of its active rows alone.
    built = []  # one list of builds per orientation
    decompose = structure._decompose

    def per_orientation(*args):
        built.append([])
        return decompose(*args)

    def recording(name, build):
        def recorded(m, *args):
            built[-1].append((name, *args))
            return build(m, *args)

        return recorded

    monkeypatch.setattr(structure, "_decompose", per_orientation)
    for name in ("grow", "extend", "coextend"):
        monkeypatch.setattr(structure, name, recording(name, getattr(structure, name)))
    report = _e4_check(fresh("E4"))
    monkeypatch.undo()
    for rep, made in zip((report, report.dual_report), built, strict=True):
        assert any(not r.active for r in rep.one_step) and any(not r.active for r in rep.two_step)
        expected = [("grow", r.kind, r.vector) for r in rep.one_step if r.active]
        for r in rep.one_step:
            if r.kind == "extension" and r.active:
                expected.append(("extend", r.vector))
                expected += [("coextend", t.row) for t in rep.two_step if t.active and t.parent_vector == r.vector]
        assert made == expected


def test_two_step_phase_asks_nothing_of_a_repeat_parents_children(monkeypatch):
    # With the T12 branches deferred, every child of a parent isomorphic to
    # an earlier one takes its membership along the parents' map: neither
    # the excluded class nor the deferred one is asked about it.  The dual
    # orientation shares both classes, and E4* is isomorphic to E4, so it
    # asks nothing at all, in its one-step phase or its two-step phase.
    asked = []  # one list per orientation
    contains = ExcludedClass.__contains__
    decompose = structure._decompose

    def recording(self, m):
        asked[-1].append(m)
        return contains(self, m)

    def per_orientation(*args):
        asked.append([])
        return decompose(*args)

    monkeypatch.setattr(ExcludedClass, "__contains__", recording)
    monkeypatch.setattr(structure, "_decompose", per_orientation)
    report = _e4_check(fresh("E4"))
    monkeypatch.undo()
    first, second = asked
    assert report.dual_report.two_step and _repeat_parents(dual(M("E4")), report.dual_report)
    assert first and not second
    first = set(first)
    pairs = _repeat_parents(M("E4"), report)
    assert pairs
    for p2, p1 in pairs:
        assert first.isdisjoint(coextend(p2, v) for v in growth_candidates(p2, "coextension"))
        assert not first.isdisjoint(coextend(p1, v) for v in growth_candidates(p1, "coextension"))


def _d1_bridging_check(n):
    return theorem21_check(n, _D1_BRIDGING[1][0], 3, [M("S10"), M("S10*")], check_dual=False)


@pytest.mark.parametrize(
    "base, check, families, deduced",
    [
        (lambda: fresh("E4"), _e4_check, _E4_DEFERRED[2:4], [150, 150]),
        (lambda: _base("D1*+[000110]"), _d1_bridging_check, _D1_BRIDGING[2:4], [192]),
        (lambda: relabeled_copy(M("E4"), random.Random(32)), _e4_check, _E4_DEFERRED[2:4], [150, 150]),
        (lambda: relabeled_copy(M("E4"), random.Random(33)), _e4_check, _E4_DEFERRED[2:4], [150, 150]),
    ],
    ids=["E4", "D1star-bridging", "E4-seeded-32", "E4-seeded-33"],
)
def test_two_step_records_with_a_one_step_minor_outside_ask_nothing(monkeypatch, base, check, families, deduced):
    # A two-step child of n deletes its e to a one-step coextension of n:
    # the row's bits below e's (bit n - r, as `extend` appends e as the
    # last D column).  When a fresh search puts that coextension outside
    # the class, the record is outside too, and no `ask` of any
    # growth_membership names it.  The classes are asked only from inside
    # an `ask`, so nothing else asks about it either (its child may still
    # be asked as the representative of a growth class another row asks).
    asked_growths, outside_any_ask = set(), []
    contains, growth_membership = ExcludedClass.__contains__, ExcludedClass.growth_membership
    depth = 0  # asks in progress

    def recording(self, m):
        if not depth:
            outside_any_ask.append(m)
        return contains(self, m)

    def recording_growths(self, parent):
        ask = growth_membership(self, parent)

        def recorded(kind, v):
            nonlocal depth
            asked_growths.add((parent.matrix.rows, parent.labels, kind, v.bits))
            depth += 1
            try:
                return ask(kind, v)
            finally:
                depth -= 1

        return recorded

    monkeypatch.setattr(ExcludedClass, "__contains__", recording)
    monkeypatch.setattr(ExcludedClass, "growth_membership", recording_growths)
    n = base()
    report = check(n)
    monkeypatch.undo()
    assert asked_growths and not outside_any_ask
    excluded, defer = ([M(x) for x in names] for names in families)
    orientations = [(report, n, excluded, defer)]
    if report.dual_report:
        orientations.append((report.dual_report, dual(n), [dual(x) for x in excluded], [dual(x) for x in defer]))
    counts = []  # deduced records per orientation
    for rep, n, excluded, defer in orientations:
        mask = (1 << (n.size - n.rank)) - 1
        outside = {v.bits for v in growth_candidates(n, "coextension") if not in_class(coextend(n, v), excluded)}
        _, x = growth_labels(n, "extension")
        seen = 0
        for rec in rep.two_step:
            if (rec.row.bits & mask) not in outside:
                continue
            seen += 1
            type_i = extend(n, rec.parent_vector)
            child = coextend(type_i, rec.row)
            move, _ = growth_labels(type_i, "coextension")
            assert (type_i.matrix.rows, type_i.labels, "coextension", rec.row.bits) not in asked_growths
            minor = coextend(n, BitVector(n.size - n.rank, rec.row.bits & mask))
            assert are_isomorphic(remove(child, {move(x)}), minor)
            assert (rec.in_class, rec.deferred) == _fresh_membership(child, excluded, defer) == (False, False)
        counts.append(seen)
    assert counts == deduced


def _summary(report):
    """A decomposer report without its generators: the overall result, the
    multiset of one-step (kind, in_class, deferred, per-side lambda pairs)
    and of two-step (in_class, deferred, verdicts), for both orientations."""
    out = []
    for rep in (report, report.dual_report):
        one = Counter(
            (r.kind, r.in_class, r.deferred, tuple((s.lam_a, s.lam_ax) for s in r.sides))
            for r in rep.one_step
        )
        two = Counter(
            (r.in_class, r.deferred, tuple(s.verdict for s in r.sides)) for r in rep.two_step
        )
        out.append((rep.overall, one, two))
    return out


def test_e4_decomposer_is_invariant_under_presentation():
    # The same labeled E4 presented on other bases orders its generators,
    # and so its first parent of each class, differently; the records must
    # agree up to generators.
    expected = _summary(_e4_check(fresh("E4")))
    rng = random.Random(8)
    for _ in range(5):
        assert _summary(_e4_check(relabeled_copy(M("E4"), rng))) == expected


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize(
    "name, family", [("S8", ["P9", "P9*"]), ("P9", ["S10", "S10*", "E4", "E5"])], ids=["S8", "P9"]
)
def test_theorem21_check_is_invariant_under_presentation(monkeypatch, name, family, shared):
    # S8's check against [P9, P9*] and P9's against its decomposer family
    # (verify's claims), on 5 seeded presentations.  With one class shared
    # across the 5, the first presentation asks and the later 4 are
    # carried in full: they ask no class anything, in either orientation.
    family = [M(x) for x in family]
    expected = _summary(theorem21_check(fresh(name), SIDE_S8, 3, family))
    excluded = ExcludedClass(family) if shared else family
    asked = []
    contains = ExcludedClass.__contains__

    def recording(self, m):
        asked.append(m)
        return contains(self, m)

    monkeypatch.setattr(ExcludedClass, "__contains__", recording)
    rng = random.Random(21)
    for i in range(5):
        asked.clear()
        assert _summary(theorem21_check(relabeled_copy(M(name), rng), SIDE_S8, 3, excluded)) == expected
        assert bool(asked) == (i == 0 or not shared), (i, len(asked))
