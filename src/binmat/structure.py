"""Minor detection, excluded-minor classes, splitters, and the
decomposer verification engine.

`in_class` is one `has_any_minor` search.  It visits only the splits
that contract r(M) - r(N) elements for a target N (any other split
contracts a loop or deletes a coloop of the rest, and moving that
element across keeps the minor), filters each on its rank and cocycle
weight enumerator, read off the parent's `cocycle_index` after one count
per removed set (`_KeptWeights`), and builds only the minors that pass.
Every other membership question goes through an `ExcludedClass`, which
runs `in_class` once per isomorphism class of the matroids it is asked
about.  One object serves the splitter test, both decomposer
orientations, and every caller that keeps it, such as one verification
run.  Every growth question, from `growth_classes_in` (the claims' and
the splitter test's) and both decomposer phases, is a growth-class
question (`ExcludedClass.growth_membership`): a parent isomorphic to one
the class has met carries its generators along the parents' map, by the
one carry rule, `extension.carrier` (orbit reuse, after B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998), and the
first parent's growth class asks once.  That covers a repeat one-step
extension in the two-step phase, and the whole dual orientation of a
base isomorphic to its dual, whose class is the same object.  Only
active records (in the class, no deferred minor) build their growth.

One engine, `_decompose`, checks one orientation of the decomposer
argument for a list of one or two separation sides; `theorem21_check`
(one side) and `corollary22_check` (two sides) are its entry points,
and each re-runs itself on the dual for the other orientation.  First
every in-class one-step extension and coextension must move or keep
each separation (lambda(A) = k-1 directly, or after adding the new
element, then with every other side direct): the one-step rule, stated
once, in `OneStepRecord.failures`, which the engine and the
`claim4.coupling` claim both read.  If every one-step check succeeds
directly, the one-element check suffices and the two-step phase is
skipped.  Otherwise every in-class two-step matroid (a cosimple
coextension of a one-step extension) is classified good, bad, or
bridging per side.  An excluded-minor class is minor-closed, and a
two-step matroid M by row w deletes its e to the coextension of the
base by w without e's bit (bit n - r: `extend` appends e as the last D
column).  So when the one-step phase found that coextension outside
the class, M is outside too, and nothing is asked about it.

The engine reads every structural fact off one source, the rank
function: the hypotheses (exactness, unions of circuits and of
cocircuits), the lambda values of conditions (a)-(d) in the child's
minors (`lam` with deletions and contractions), and the triangle or
triad through the two new elements (`matroid.is_circuit` and
`is_cocircuit`).  It builds no minor and no cycle space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import combinations

from .connectivity import bridging_value, is_n_connected, lam
from .extension import carrier, coextend, enumerate_growth_classes, extend, grow, growth_candidates, growth_labels
from .gf2 import BitVector
from .iso import IsoIndex, are_isomorphic, isomorphism, weight_profile
from .iso import canonical_key  # noqa: F401  unused; perfbench/test_perfbench.py checks the tracer rebinds it
from .matroid import Matroid, cocycle_index, dual, is_circuit, is_cocircuit, is_union_of_circuits
from .matroid import is_union_of_cocircuits, remove, simplicity


class HypothesisError(ValueError):
    """A decomposer-engine hypothesis failed; `reason` names which one."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class Verdict(enum.Enum):
    GOOD = "good"
    BAD = "bad"
    BRIDGING = "bridging"


# ---------------------------------------------------------------------------
# Minor search


class _KeptWeights(dict):
    """m's cocycles seen from one removed set R of positions: w -> the
    index mask (see `cocycle_index`) of the cocycles of m that meet
    E - R in exactly w positions, built on first lookup.

    A split of R contracts C and deletes R - C.  The minor's cocycles are
    the sets c - R for the cocycles c of m that avoid C, each reached by
    as many c as m has cocycles inside R - C, the kernel.  So with
    ``avoid`` the cocycles that avoid C, ``(kept[w] & avoid).bit_count()``
    is the minor's count at weight w times the kernel, its count at 0.
    ``exactly[j]`` holds the cocycles that meet R in j positions, counted
    once per removed set, and ``kept[w]`` ORs ``of_weight[w + j] &
    exactly[j]`` over j.
    """

    __slots__ = ("_of_weight", "_exactly")

    def __init__(self, index, removed: tuple[int, ...]):
        of_weight, contains = index
        exactly = [-1]  # every cocycle meets no position yet; -1 is all ones
        for p in removed:
            c = contains[p]
            prev, step = 0, []
            for e in exactly:  # meeting j positions so far: without p, or j - 1 and p
                step.append((e & ~c) | (prev & c))
                prev = e
            exactly = step + [prev & c]
        self._of_weight = of_weight
        self._exactly = exactly

    def __missing__(self, w: int) -> int:
        kept = 0
        for j, e in enumerate(self._exactly):
            kept |= self._of_weight[w + j] & e
        self[w] = kept
        return kept


def has_any_minor(m: Matroid, targets):
    """First target of which m has a minor, with a deletion/contraction
    witness: (target index, deletions, contractions), or None.

    Targets of equal size share one traversal of the removal splits.
    Removed sets are visited by size, smallest first (gap 0's only one is
    empty), as position sets taken in label order, and in each only the
    splits that contract c = r(m) - r(N) elements for a target N, c
    ascending.  No minor is lost: a split that contracts more contracts a
    loop of the rest, one that contracts fewer deletes a coloop of it, and
    moving that element across keeps the minor (Oxley, *Matroid Theory*,
    3.3).  Each split is filtered on its cocycle weight enumerator, read
    off m's `cocycle_index` through `_KeptWeights`, built once per removed
    set: first its rank r(m) - c (log2 of the cocycles that avoid the
    contracted positions over the kernel), then its weights from 1 up,
    stopping at the first that differs from the target's.  Weight 0 is the
    kernel, and the last follows from the total.  Equal sizes and cocycle
    enumerators mean equal cycle enumerators (see `iso`).  Only a split
    matching a target's `weight_profile` is built (`remove`) for a
    first-match isomorphism search onto the target's fixed presentation.
    """
    by_gap: dict[int, dict] = {}  # gap -> number contracted, r(m) - r(target) -> profile -> targets
    for idx, target in enumerate(targets):
        gap, c = m.size - target.size, m.rank - target.rank
        if not 0 <= c <= gap:  # rank and corank at most m's
            continue
        of_count = by_gap.setdefault(gap, {}).setdefault(c, {})
        of_count.setdefault(weight_profile(target), []).append((idx, target))

    order = sorted(range(m.size), key=m.labels.__getitem__)
    for gap, wanted in sorted(by_gap.items()):
        of_weight, contains = index = cocycle_index(m)
        every = sum(of_weight)  # the weight classes partition the cocycles
        counts = sorted(wanted.items())
        for removed in combinations(order, gap):
            kept = _KeptWeights(index, removed)
            inside = kept[0]
            for c, of_count in counts:
                for cons in combinations(removed, c):
                    avoid = every
                    for p in cons:
                        avoid &= ~contains[p]
                    kernel = (inside & avoid).bit_count()
                    if avoid.bit_count() // kernel != 1 << (m.rank - c):
                        continue
                    for profile, hits in of_count.items():
                        for w in range(1, len(profile) - 1):
                            if (kept[w] & avoid).bit_count() != profile[w] * kernel:
                                break
                        else:
                            cons_set = frozenset(m.labels[p] for p in cons)
                            dels = frozenset(m.labels[p] for p in removed) - cons_set
                            minor = remove(m, dels, cons_set)
                            for idx, target in hits:
                                if isomorphism(minor, target) is not None:
                                    return idx, dels, cons_set
    return None


def in_class(m: Matroid, excluded) -> bool:
    """True iff m has no minor isomorphic to any matroid in `excluded`:
    one uncached search, the reference for `ExcludedClass`."""
    return has_any_minor(m, list(excluded)) is None


class ExcludedClass:
    """EX[family]: the binary matroids with no minor isomorphic to a
    member of `family`.  Membership is an isomorphism invariant, so
    ``m in cls`` searches (`in_class`) once per isomorphism class.

    Growths are asked through `growth_membership`, once per growth class
    of the first parent met of each isomorphism class, kept in a second
    `IsoIndex`.  A parent isomorphic by sigma to an earlier one carries
    each generator along sigma to the earlier parent's
    (`extension.carrier`), whose growth is isomorphic, so a repeat parent
    asks nothing about growth classes asked of its first."""

    def __init__(self, family):
        self.family = list(family)
        self._answers = IsoIndex()
        self._growths = IsoIndex()  # parent -> (first parent, {(kind, least generator bits): answer})

    def __contains__(self, m: Matroid) -> bool:
        return self._answers.find(m, lambda: in_class(m, self.family))[0]

    def growth_membership(self, parent: Matroid):
        """``ask(kind, generator) -> bool``: is `parent`'s growth of `kind`
        by `generator` in the class?  The generator is carried to the first
        parent p1 of `parent`'s isomorphism class, and p1's growth class
        that holds it (`enumerate_growth_classes`) asks its representative
        once, the answer kept under the class's least generator."""
        (p1, answers), sigma = self._growths.find(parent, lambda: (parent, {}))
        class_of = {}  # kind -> (carrier or None, {generator bits of p1: its growth class})

        def ask(kind, v: BitVector) -> bool:
            if kind not in class_of:
                carry = None if sigma is None else carrier(parent, p1, kind, sigma)
                class_of[kind] = carry, {u.bits: c for c in enumerate_growth_classes(p1, kind) for u in c.members}
            carry, classes = class_of[kind]
            c = classes[v.bits if carry is None else carry(v.bits)]
            key = kind, c.members[0].bits
            if key not in answers:
                answers[key] = c.representative in self
            return answers[key]

        return ask

    def dual(self) -> ExcludedClass:
        """EX[duals of the family]: M is in EX[F] iff M* is in EX[F*].
        EX[F] depends only on F's isomorphism classes, and duality is a
        bijection on those when it maps each into F, so then the class is
        its own dual and keeps its answers."""
        duals = [dual(x) for x in self.family]
        if all(any(are_isomorphic(d, x) for x in self.family) for d in duals):
            return self
        return ExcludedClass(duals)


def _as_class(family) -> ExcludedClass:
    """EX[family], or `family` if it is one: a list must never reach ``in``."""
    return family if isinstance(family, ExcludedClass) else ExcludedClass(family)


def growth_classes_in(parent: Matroid, kind: str, excluded):
    """The growth classes of `parent` of `kind` (`enumerate_growth_classes`,
    which enumerates them once per parent) that lie in `excluded`, an
    `ExcludedClass` or a list of excluded minors, each asked through
    `growth_membership` by its least generator."""
    ask = _as_class(excluded).growth_membership(parent)
    return [c for c in enumerate_growth_classes(parent, kind) if ask(kind, c.members[0])]


def is_splitter(n: Matroid, excluded):
    """Splitter test by Seymour's finite criterion (P. D. Seymour, J.
    Combin. Theory Ser. B 1980), which needs one growth per isomorphism
    class.  Requires n 3-connected and in the class (`excluded`: an
    `ExcludedClass` or a list of excluded minors).  Returns (flag,
    counterexamples): every member of each `growth_classes_in` class of
    each kind, extensions first, as a (kind, generator) pair."""
    excluded = _as_class(excluded)
    if not is_n_connected(n, 3):
        raise ValueError("splitter candidate must be 3-connected")
    if n not in excluded:
        raise ValueError("splitter candidate must belong to the class")
    counterexamples = [
        (kind, v)
        for kind in ("extension", "coextension")
        for c in growth_classes_in(n, kind, excluded)
        for v in c.members
    ]
    return (not counterexamples, counterexamples)


# ---------------------------------------------------------------------------
# Decomposer engine records


@dataclass
class OneStepSide:
    lam_a: int
    lam_ax: int
    satisfied: bool  # lambda(A) = k-1 or lambda(A u x) = k-1
    direct: bool  # lambda(A) = k-1 without the new element


class _Active:
    @property
    def active(self) -> bool:
        """In the class and not deferred: the records with per-side outcomes."""
        return self.in_class and not self.deferred


@dataclass
class OneStepRecord(_Active):
    kind: str  # "extension" or "coextension"
    vector: BitVector
    in_class: bool
    deferred: bool  # in the class, but left to the `defer` splitter argument
    sides: list[OneStepSide] = field(default_factory=list)

    def failures(self):
        """The notes of the one-step rule, the one statement of it: every
        side is satisfied, and a side that relies on lambda(A u x) = k-1
        needs every other side direct.  A record that is not active has
        no sides and no notes."""
        for i, side in enumerate(self.sides):
            if not side.satisfied:
                yield f"one-step {self.kind} {self.vector} fails condition (i)/(ii) on side {i + 1}"
            elif not side.direct and any(not o.direct for j, o in enumerate(self.sides) if j != i):
                yield f"one-step {self.kind} {self.vector} violates the coupling on side {i + 1}"


@dataclass
class SideOutcome:
    verdict: Verdict
    witness_set: frozenset[int] | None = None  # the set with lambda = k-1
    triangle_witness: frozenset[int] | None = None


@dataclass
class TwoStepRecord(_Active):
    parent_vector: BitVector  # generator of the one-step extension
    row: BitVector
    in_class: bool
    deferred: bool  # in the class, but left to the `defer` splitter argument
    sides: list[SideOutcome] = field(default_factory=list)


@dataclass
class DecomposerReport:
    overall: str  # "induced", "induced-one-of-two", or "failed"
    one_step: list[OneStepRecord] = field(default_factory=list)
    two_step: list[TwoStepRecord] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    dual_report: "DecomposerReport | None" = None

    def bad_rows(self, side_index: int) -> set[tuple[BitVector, BitVector]]:
        """Bad (parent generator, row) pairs for the given side."""
        return {
            (rec.parent_vector, rec.row)
            for rec in self.two_step
            if rec.active and rec.sides[side_index].verdict is Verdict.BAD
        }


# ---------------------------------------------------------------------------
# Hypothesis checks


def _check_hypotheses(n: Matroid, sides, k: int, require_self_dual: bool):
    if k < 1:
        raise ValueError(f"separation order k must be at least 1, not {k}")
    simple, cosimple = simplicity(n)
    if not simple:
        raise HypothesisError("not-simple", "base matroid must be simple")
    if not cosimple:
        raise HypothesisError("not-cosimple", "base matroid must be cosimple")
    if require_self_dual and not are_isomorphic(n, dual(n)):
        raise HypothesisError("not-self-dual", "base matroid must be self-dual")
    for a in sides:
        lv = lam(n, a)  # rejects unknown labels first
        if min(len(a), n.size - len(a)) < k:
            raise ValueError(f"both sides must have at least {k} elements")
        if lv != k - 1:
            raise HypothesisError("not-exact", f"lambda({sorted(a)}) = {lv}, not {k - 1}")
        if not is_union_of_circuits(n, a):
            raise HypothesisError(
                "not-union-of-circuits", f"{sorted(a)} is not a union of circuits"
            )
        if not is_union_of_cocircuits(n, a):
            raise HypothesisError(
                "not-union-of-cocircuits", f"{sorted(a)} is not a union of cocircuits"
            )


# ---------------------------------------------------------------------------
# Phase 1: one-step extensions and coextensions


def _one_step_phase(n: Matroid, sides, k, excluded, defer):
    """Records checking conditions (i)/(ii); only active ones build their growth."""
    records = []
    membership = _membership(n, excluded, defer)
    for kind in ("extension", "coextension"):
        move, x = growth_labels(n, kind)
        moved = [frozenset(map(move, a)) for a in sides]
        for v in growth_candidates(n, kind):
            rec = OneStepRecord(kind, v, *membership(kind, v))
            if rec.active:
                child = grow(n, kind, v)
                for a in moved:
                    la, lax = lam(child, a), lam(child, a | {x})
                    rec.sides.append(OneStepSide(la, lax, satisfied=(la == k - 1 or lax == k - 1), direct=la == k - 1))
            records.append(rec)
    return records


def _membership(parent, excluded, defer):
    """``ask(kind, generator) -> (in the class, deferred)`` for the growths
    of `parent`, through each class's `growth_membership`: `defer` (None:
    no deferral) is asked only about growths in the class, and one with a
    minor in it is deferred, left to a separate splitter argument."""
    in_excluded = excluded.growth_membership(parent)
    in_defer = None if defer is None else defer.growth_membership(parent)

    def ask(kind, v) -> tuple[bool, bool]:
        if not in_excluded(kind, v):
            return False, False
        return True, in_defer is not None and not in_defer(kind, v)

    return ask


# ---------------------------------------------------------------------------
# Phase 2: two-step matroids (coextensions of one-step extensions)


def _classify_built(child, e, f, side_s, k):
    """Classify `child`, an in-class cosimple coextension by f of a simple
    extension by e, for one side; everything is in the child's labels.

    child/f is that extension, so every lambda below is read off the
    child's ranks (`lam` of a minor).  The GOOD branches below are
    conditions (a)-(d); (b), (c) and (d) share the triangle escape, which
    is tried last.  Each value is computed only where a branch reads it.
    """
    target = k - 1
    pa = lam(child, side_s, contractions={f}) == target
    pb = lam(child, side_s, deletions={e}) == target
    if pa and pb:
        return SideOutcome(Verdict.GOOD, witness_set=side_s)
    qa = lam(child, side_s | {e}, contractions={f}) == target
    qb = lam(child, side_s | {f}, deletions={e}) == target
    # pa and pb are not both true, so at most one of these two applies.
    if pa and qb and lam(child, side_s | {f}) == target:
        return SideOutcome(Verdict.GOOD, witness_set=side_s | {f})
    if qa and pb and lam(child, side_s | {e}) == target:
        return SideOutcome(Verdict.GOOD, witness_set=side_s | {e})
    if (pa or qa) and (pb or qb):
        tri = _triangle_escape(child, e, f, side_s)
        if tri:
            return SideOutcome(Verdict.GOOD, triangle_witness=tri)

    # Not good: bridging if no sandwiched set has lambda < k.
    b_side = child.ground_set() - side_s - {e, f}
    if bridging_value(child, side_s, b_side) >= k:
        return SideOutcome(Verdict.BRIDGING)
    return SideOutcome(Verdict.BAD)


def _triangle_escape(child, e, f, side_s):
    """The first triangle {e, f, g} with g in the side, in ascending g,
    else the first such triad, else None."""
    candidates = [frozenset({e, f, g}) for g in sorted(side_s)]
    for test in (is_circuit, is_cocircuit):
        for t in candidates:
            if test(child, t):
                return t
    return None


def _two_step_phase(n: Matroid, sides, k, excluded, defer, one_step):
    """Classify every coextension row over every active extension; only
    active rows build their child and get per-side outcomes.  Membership
    is asked through `_membership`, so a parent isomorphic to one asked
    before takes its growth classes' answers along the parents' map.

    A row whose child has a minor outside the class is outside it with no
    question asked.  `extend` appends e as the last D column, so bit
    n - r of a row of type I marks e, and the bits below it are a
    coextension row of n: deleting e from the child leaves the
    coextension of n by ``row & mask`` (labels aside).  When the one-step
    phase found that coextension outside the class, the child, which has
    it as a minor, is outside too."""
    records = []
    _, x = growth_labels(n, "extension")
    mask = (1 << (n.size - n.rank)) - 1
    outside = {rec.vector.bits for rec in one_step if rec.kind == "coextension" and not rec.in_class}
    for ext in one_step:
        if ext.kind != "extension" or not ext.active:
            continue
        type_i = extend(n, ext.vector)
        membership = _membership(type_i, excluded, defer)
        move, f = growth_labels(type_i, "coextension")
        e = move(x)
        moved = [frozenset(map(move, a)) for a in sides]
        for row in growth_candidates(type_i, "coextension"):
            minor_outside = (row.bits & mask) in outside
            rec = TwoStepRecord(ext.vector, row, *((False, False) if minor_outside else membership("coextension", row)))
            if rec.active:
                child = coextend(type_i, row)
                rec.sides = [_classify_built(child, e, f, a, k) for a in moved]
            records.append(rec)
    return records


# ---------------------------------------------------------------------------
# The engine and its two entry points


def _decompose(n: Matroid, sides, k: int, excluded, defer) -> DecomposerReport:
    """One orientation of the decomposer argument for one or two sides.

    One acceptance rule serves both statements: no active one-step
    candidate yields a note of the one-step rule, whose one home is
    `OneStepRecord.failures`; and every in-class, non-deferred two-step
    candidate is good for at least one side and bridging for none.  With
    a single side this is exactly Theorem 2.1; with two it is Corollary
    2.2, whose base must also be self-dual.
    """
    _check_hypotheses(n, sides, k, require_self_dual=len(sides) > 1)
    success = "induced" if len(sides) == 1 else "induced-one-of-two"
    report = DecomposerReport(overall=success)

    def fail(note):
        report.overall = "failed"
        report.notes.append(note)

    report.one_step = _one_step_phase(n, sides, k, excluded, defer)
    for rec in report.one_step:
        for note in rec.failures():
            fail(note)

    if all(s.direct for rec in report.one_step for s in rec.sides):
        report.notes.append("one-element check: every one-step candidate keeps lambda = k-1")
    elif report.overall != "failed":
        report.two_step = _two_step_phase(n, sides, k, excluded, defer, report.one_step)
        for rec in report.two_step:
            if not rec.active:
                continue
            verdicts = [s.verdict for s in rec.sides]
            if Verdict.BRIDGING in verdicts:
                fail(f"bridging candidate {rec.parent_vector}/{rec.row}")
            elif Verdict.GOOD not in verdicts:
                fail(f"candidate {rec.parent_vector}/{rec.row} is good for no side")
    return report


def _check(entry, n: Matroid, seps, k: int, excluded, defer, check_dual: bool):
    """`_decompose` on n; with `check_dual`, `entry` re-runs itself on the
    dual of n and of both classes: the printed statement has no clause for
    extensions of one-step coextensions (its numbering stops at (iii))."""
    excluded, defer = _as_class(excluded), (_as_class(defer) if defer else None)
    report = _decompose(n, [frozenset(a) for a in seps], k, excluded, defer)
    if check_dual:
        duals = excluded.dual(), defer and defer.dual()
        report.dual_report = entry(dual(n), *seps, k, *duals, check_dual=False)
        report.notes.append("dual-orientation check performed explicitly")
        if report.dual_report.overall == "failed":
            report.overall = "failed"
    return report


def theorem21_check(n: Matroid, a, k: int, excluded, defer=(), check_dual: bool = True):
    """Verify that the exact k-separation (a, E - a) is induced in every
    in-class matroid with this minor, per the sufficient conditions.

    `excluded` and `defer` are each an `ExcludedClass` or a list of
    excluded minors.  Candidates with a minor in `defer` are left to a
    separate splitter argument and recorded as deferred.
    """
    return _check(theorem21_check, n, [a], k, excluded, defer, check_dual)


def corollary22_check(
    n: Matroid, a1, a2, k: int, excluded, defer=(), check_dual: bool = True
):
    """The two-separation variant: at least one of (a1, .) / (a2, .) is
    induced in every in-class matroid with this self-dual minor.

    Whenever a side relies on lambda(A_i u x) = k-1 the other side must
    satisfy lambda(A_j) = k-1, and a two-step candidate bad for one side
    must be good for the other, so per one-step extension the two sides'
    bad-row sets are disjoint.  `excluded` and `defer` as in `theorem21_check`.
    """
    return _check(corollary22_check, n, [a1, a2], k, excluded, defer, check_dual)
