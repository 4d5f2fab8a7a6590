"""Opt-in mutation sweep: hand-written source mutants, one at a time.

    python3 tools/mutation_sweep.py

Each entry of MUTANTS names a file under ``src/binmat``, a snippet that
must occur in it exactly once, its replacement, and the tests expected
to kill the mutant, or the reason it survives all of ``tests/``.  For
each mutant the sweep copies ``src/``, ``tests/`` and ``pyproject.toml``
into a fresh temporary directory, applies the replacement there and runs
pytest on the named tests.  The checkout itself is never written.  A
mutant is killed when pytest reports a failing test.  The unmutated copy
runs the same tests first and must pass.

The exit status is 0 when every outcome matches its entry (killed, or
surviving with a recorded reason), 1 when one does not, and 2 when a run
cannot be judged (the unmutated copy fails, a snippet does not occur
exactly once, or pytest errors).  It is not part of the test suite: it runs pytest
twice per mutant, on all of ``tests/`` for each survivor.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids expected to kill it; "tests" for all
    survives: str | None = None  # why no test kills it, if none does


MUTANTS = [
    Mutant(
        "bridging-strict",
        "src/binmat/structure.py",
        "if bridging_value(child, side_s, b_side) >= k:",
        "if bridging_value(child, side_s, b_side) > k:",
        ("tests/test_structure.py::test_classify_built_matches_a_literal_oracle",),
    ),
    # No `_classify_built` verdict can tell this one apart: if lambda(A) < k
    # is the only minimum, then lambda(A) = k - 1 and condition (a) holds.
    Mutant(
        "bridging-skips-a",
        "src/binmat/connectivity.py",
        "        sub = (sub - 1) & free\n        best = min(best, _lam_mask(m, amask | sub))\n",
        "        sub = (sub - 1) & free\n        if sub:\n            best = min(best, _lam_mask(m, amask | sub))\n",
        ("tests/test_connectivity.py::TestBridging::test_matches_exhaustive_oracle",),
    ),
    Mutant(
        "coupling-deleted",
        "src/binmat/structure.py",
        "            elif not side.direct and any(not o.direct for o in rec.sides if o is not side):\n"
        '                fail(f"one-step {rec.kind} {rec.vector} violates the coupling on side {i + 1}")\n',
        "",
        (
            "tests/test_structure.py::TestCorollary22::test_coupling_violations_are_noted_on_e3",
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle",
        ),
    ),
    Mutant(
        "one-step-lax-le",
        "src/binmat/structure.py",
        "satisfied=(la == k - 1 or lax == k - 1)",
        "satisfied=(la == k - 1 or lax <= k - 1)",
        ("tests",),
        survives="equivalent: the base is a minor of the child, so lambda(A u x) >= lambda_N(A) = k - 1",
    ),
    Mutant(
        "coextend-unit-at-r-1",
        "src/binmat/extension.py",
        "labels = tuple(map(move, m.labels[:r])) + (new,) + tuple(map(move, m.labels[r:]))",
        "labels = tuple(map(move, m.labels[: r - 1])) + (new,) + tuple(map(move, m.labels[r - 1 :]))",
        (
            "tests/test_extension.py::TestCoextend::test_coextend_presentation",
            "tests/test_extension.py::TestCoextend::test_new_element_is_in_a_cocircuit_with_marked_columns",
        ),
    ),
    # Carrying a coextension row as a column of the parents themselves,
    # not of their duals, reads the row's bits as basis labels.
    Mutant(
        "carry-frame-not-dualed",
        "src/binmat/extension.py",
        "p2, p1 = (dual(p1),) * 2 if p2 is p1 else (dual(p2), dual(p1))",
        "p2, p1 = p2, p1",
        (
            "tests/test_structure.py::test_carried_rows_map_children_of_random_presentations",
            "tests/test_structure.py::test_carried_generators_map_children_across_duality[coextension-E4]",
        ),
    ),
    Mutant(
        "carried-column-uses-p2-columns",
        "src/binmat/extension.py",
        "images = [p1.column_of(sigma[x]) for x in p2.labels[: p2.rank]]",
        "images = [p2.column_of(sigma[x]) for x in p2.labels[: p2.rank]]",
        (
            "tests/test_structure.py::test_carried_columns_map_children_of_random_presentations",
            "tests/test_structure.py::test_carried_generators_map_children_across_duality[extension-E4]",
        ),
    ),
    # A repeat parent's generator must be read in the first parent's
    # growth classes as the generator carried there, not as its own bits.
    Mutant(
        "class-map-reads-uncarried-bits",
        "src/binmat/structure.py",
        "c = classes[v.bits if carry is None else carry(v.bits)]",
        "c = classes[v.bits]",
        (
            "tests/test_structure.py::test_growth_membership_matches_fresh_searches[F7]",
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle[E4-deferred-seeded-shared]",
        ),
    ),
    # Carried generators are the first parent's; the asked parent's own
    # growth classes hold other bits.
    Mutant(
        "class-map-of-the-asked-parent",
        "src/binmat/structure.py",
        "enumerate_growth_classes(p1, kind) for u in c.members}",
        "enumerate_growth_classes(parent, kind) for u in c.members}",
        (
            "tests/test_structure.py::test_growth_membership_matches_fresh_searches[F7]",
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle[E4-deferred-seeded-shared]",
        ),
    ),
    # A two-step record is outside the class by its minor only when the
    # one-step coextension it deletes to is outside; one inside says nothing.
    Mutant(
        "two-step-deduces-from-in-class-records",
        "src/binmat/structure.py",
        'if rec.kind == "coextension" and not rec.in_class}',
        'if rec.kind == "coextension" and rec.in_class}',
        (
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle[E4-deferred]",
            "tests/test_structure.py::TestInClass::test_decomposer_membership_per_class_matches_fresh_searches",
        ),
    ),
    # A mask that keeps e's bit still deduces only true answers, from the
    # rows without it, so only the questions asked tell it apart.
    Mutant(
        "two-step-mask-keeps-e",
        "src/binmat/structure.py",
        "mask = (1 << (n.size - n.rank)) - 1",
        "mask = (1 << (n.size - n.rank + 1)) - 1",
        (
            "tests/test_structure.py::test_two_step_records_with_a_one_step_minor_outside_ask_nothing",
            "tests/test_verify.py::TestFullReport::test_growth_questions_and_isomorphism_calls_stay_carried",
        ),
    ),
    # The census asks one question per growth class, but must list every
    # member of an in-class class.
    Mutant(
        "splitter-lists-least-member-only",
        "src/binmat/structure.py",
        "for v in c.members\n",
        "for v in c.members[:1]\n",
        ("tests/test_structure.py::TestIsSplitter::test_p9_census_matches_a_search_per_growth",),
    ),
    Mutant(
        "good-for-no-side-deleted",
        "src/binmat/structure.py",
        "            elif Verdict.GOOD not in verdicts:\n"
        '                fail(f"candidate {rec.parent_vector}/{rec.row} is good for no side")\n',
        "",
        ("tests/test_structure.py::TestTheorem21::test_two_step_failure_on_one_e4_side",),
    ),
    # A bridging candidate that is good for no side still fails, so only
    # the notes, or the literal oracle, tell this one apart.
    Mutant(
        "bridging-branch-deleted",
        "src/binmat/structure.py",
        "            if Verdict.BRIDGING in verdicts:\n"
        '                fail(f"bridging candidate {rec.parent_vector}/{rec.row}")\n'
        "            elif Verdict.GOOD not in verdicts:\n",
        "            if Verdict.GOOD not in verdicts:\n",
        (
            "tests/test_structure.py::TestTheorem21::test_bridging_candidates_are_noted_on_an_extension_of_d1star",
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle[D1star-bridging]",
        ),
    ),
    # A map between two growths that moves the new element restricts to
    # no automorphism of the parent.
    Mutant(
        "orbit-without-new-element-test",
        "src/binmat/extension.py",
        "if phi is not None and phi[new] == new:",
        "if phi is not None:",
        ("tests/test_extension.py::TestGrowthClasses::test_classes_match_plain_iso_index_grouping",),
    ),
    # The registry's data never reaches these two differences, so the
    # report pin cannot see them; unit tests on synthetic records can.
    Mutant(
        "all-good-parents-without-rows",
        "src/binmat/verify.py",
        "if rows and all(",
        "if all(",
        ("tests/test_verify.py::test_all_good_parents_lists_only_parents_with_active_rows_all_good",),
    ),
    Mutant(
        "printed-witness-strictly-above-a",
        "src/binmat/verify.py",
        "return side_s <= w <= (side_s | {move(x), f})",
        "return side_s < w <= (side_s | {move(x), f})",
        ("tests/test_verify.py::test_printed_witness_equal_to_the_side_is_valid",),
    ),
    # Reporting the side that avoids the last column, not the smaller by
    # sorted labels, depends on the presentation.
    Mutant(
        "3sep-side-by-last-column",
        "src/binmat/connectivity.py",
        "sides = sorted((m.labels_of(mask), m.labels_of(m.full_mask & ~mask)), key=sorted)",
        "sides = [m.labels_of(mask), m.labels_of(m.full_mask & ~mask)]",
        ("tests/test_connectivity.py::TestSeparations::test_nonminimal_3seps_are_invariant_under_presentation",),
    ),
    # Read forwards, the complement's row pairs the side s | t << h with
    # r(s | (top ^ t) << h), not with the rank of its complement.
    Mutant(
        "lambda-row-not-reversed",
        "src/binmat/connectivity.py",
        "list(map(add, rank_row(m, t), reversed(rank_row(m, top ^ t))))",
        "list(map(add, rank_row(m, t), rank_row(m, top ^ t)))",
        (
            "tests/test_connectivity.py::TestConnectivityPredicates::test_predicates_match_definitions",
            "tests/test_connectivity.py::TestSeparations::test_nonminimal_3seps_match_exhaustive_oracle",
        ),
    ),
    # Half the high-half subsets that avoid position n - 1 never meet a sweep.
    Mutant(
        "sweep-skips-high-rows",
        "src/binmat/connectivity.py",
        "for t in range(top + 1 >> 1):",
        "for t in range(top + 1 >> 2):",
        (
            "tests/test_connectivity.py::TestConnectivityPredicates::test_predicates_match_definitions",
            "tests/test_connectivity.py::TestSeparations::test_nonminimal_3seps_match_exhaustive_oracle",
        ),
    ),
    # A parent keeps one tuple per kind; read by the parent alone, the
    # coextension classes of a parent asked for extensions first are its
    # extension classes.
    Mutant(
        "growth-classes-cache-ignores-kind",
        "src/binmat/extension.py",
        "classes = m._growth_classes.get(kind)",
        "classes = next(iter(m._growth_classes.values()), None)",
        ("tests/test_extension.py::TestGrowthClasses::test_classes_are_enumerated_once_per_matroid_and_kind",),
    ),
    # A high table one position short still answers every mask that
    # avoids the last position.
    Mutant(
        "rank-high-table-drops-last",
        "src/binmat/matroid.py",
        "_avoiding(contains[h:], full)",
        "_avoiding(contains[h:-1], full)",
        (
            "tests/test_matroid.py::TestRankTables::test_catalog_ranks_match_elimination_on_every_mask",
            "tests/test_matroid.py::TestRankTables::test_random_ranks_match_elimination_on_every_mask",
        ),
    ),
    # Tables built at h but read at h + 1 agree on every mask below 2^h.
    Mutant(
        "rank-lookup-split-at-h-plus-1",
        "src/binmat/matroid.py",
        "low[mask & (len(low) - 1)] & high[mask >> h]",
        "low[mask & (2 * len(low) - 1)] & high[mask >> (h + 1)]",
        (
            "tests/test_matroid.py::TestRankTables::test_catalog_ranks_match_elimination_on_every_mask",
            "tests/test_matroid.py::TestRankTables::test_random_ranks_match_elimination_on_every_mask",
        ),
    ),
    # Tables built at any size still give every rank right, but a large
    # input's first rank then builds 2^(n - n//2) masks of 2^r bits.
    Mutant(
        "rank-tables-unbounded",
        "src/binmat/matroid.py",
        "if m._rank_tables is None and m.size <= TABLE_MAX_SIZE and m.rank <= TABLE_MAX_RANK:",
        "if m._rank_tables is None:",
        (
            "tests/test_matroid.py::TestRankTables::test_large_matroids_are_eliminated_not_tabulated",
            "tests/test_cli.py::TestCommands::test_lambda_of_a_large_bmx_builds_no_tables",
        ),
    ),
    # In position order the form is the presentation itself, so two
    # presentations of one labelled matroid compare unequal.
    Mutant(
        "labelled-form-position-order",
        "src/binmat/matroid.py",
        "sorted(range(self.size), key=self.labels.__getitem__)",
        "range(self.size)",
        (
            "tests/test_matroid.py::TestRemove::test_duality_swaps_deletion_and_contraction",
            "tests/test_matroid.py::TestEquality::test_equality_and_hash_agree_with_the_cycle_space_oracle[5]",
        ),
    ),
    # `standard_form` and `remove` pivot in position order, where sorting
    # the pivots changes nothing; only the label-order pass behind
    # equality sees it.
    Mutant(
        "pivots-first-sorted-pivots",
        "src/binmat/gf2.py",
        "order = tuple(pivots) + tuple(j for j in columns if j not in pivot_set)",
        "order = tuple(sorted(pivots)) + tuple(j for j in columns if j not in pivot_set)",
        (
            "tests/test_matroid.py::TestRemove::test_duality_swaps_deletion_and_contraction",
            "tests/test_matroid.py::TestEquality::test_equality_and_hash_agree_with_the_cycle_space_oracle[5]",
        ),
    ),
]


def run_pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def fresh_tree(parent: Path) -> Path:
    tree = Path(tempfile.mkdtemp(dir=parent))
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, tree / name)
    return tree


def apply(tree: Path, mutant: Mutant) -> bool:
    """Write the mutant into `tree`; False if its snippet does not occur
    exactly once."""
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return False
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    return True


def main() -> int:
    status = 0
    with tempfile.TemporaryDirectory(prefix="binmat-mutants-") as tmp:
        for mutant in MUTANTS:
            tree = fresh_tree(Path(tmp))
            if run_pytest(tree, mutant.tests) != 0:
                print(f"{mutant.name}: the unmutated copy fails {' '.join(mutant.tests)}")
                return 2
            if not apply(tree, mutant):
                print(f"{mutant.name}: snippet must occur exactly once in {mutant.path}")
                return 2
            code = run_pytest(tree, mutant.tests)
            shutil.rmtree(tree)
            if code not in (0, 1):
                print(f"{mutant.name}: pytest exited {code}")
                return 2
            killed = code == 1
            if killed:
                print(f"{mutant.name}: killed")
            else:
                print(f"{mutant.name}: survived ({mutant.survives or 'no reason recorded'})")
            if killed == (mutant.survives is not None):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
