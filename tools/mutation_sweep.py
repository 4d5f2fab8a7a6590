"""Opt-in mutation sweep: hand-written source mutants, one at a time.

    python3 tools/mutation_sweep.py

Each entry of MUTANTS names a file under ``src/binmat``, a snippet that
must occur in it exactly once, its replacement, and the tests expected
to kill the mutant, or the reason it survives all of ``tests/``.  For
each mutant the sweep copies ``src/``, ``tests/``, ``perfbench/`` (whose
reads ``tests/test_dependencies.py`` counts) and ``pyproject.toml`` into a
fresh temporary directory, applies the replacement there and runs
pytest on the named tests.  The checkout itself is never written.  A
mutant is killed when pytest reports a failing test.  The unmutated copy
runs the same tests first and must pass.  ``tests/test_mutation_sweep.py``
is left out of every run: it checks this file's list against the
checkout's source, and a mutated copy lacks the mutant's snippet by
construction.

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
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


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
    # The engine and claim4.coupling both read the one statement of the
    # one-step rule, so the deletion shows in both.
    Mutant(
        "coupling-deleted",
        "src/binmat/structure.py",
        "            elif not side.direct and any(not o.direct for j, o in enumerate(self.sides) if j != i):\n"
        '                yield f"one-step {self.kind} {self.vector} violates the coupling on side {i + 1}"\n',
        "",
        (
            "tests/test_structure.py::TestCorollary22::test_coupling_violations_are_noted_on_e3",
            "tests/test_structure.py::test_decompose_matches_a_literal_oracle",
            "tests/test_verify.py::test_coupling_claim_reads_the_one_step_rule",
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
    # The dual orientation must ask the dual of each family.  EX[S10, S10*]
    # and the paper's deferral family {T12/e, T12\e} are their own duals,
    # so only a family that is not tells the two orientations apart.
    Mutant(
        "dual-orientation-keeps-excluded",
        "src/binmat/structure.py",
        "duals = excluded.dual(), defer and defer.dual()",
        "duals = excluded, defer and defer.dual()",
        ("tests/test_structure.py::TestInClass::test_decomposer_membership_in_a_class_that_is_not_its_own_dual",),
    ),
    Mutant(
        "dual-orientation-keeps-defer",
        "src/binmat/structure.py",
        "duals = excluded.dual(), defer and defer.dual()",
        "duals = excluded.dual(), defer",
        ("tests/test_structure.py::TestInClass::test_decomposer_deferral_in_a_class_that_is_not_its_own_dual",),
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
    # Row echelon form, not reduced: the rows above each pivot keep their
    # bit in its column, so no standard form is [I_r | D].
    Mutant(
        "reduce-rows-below-pivot-only",
        "src/binmat/gf2.py",
        "        for i in range(r):\n            if rows[i] & bit:",
        "        for i in range(k + 1, r):\n            if rows[i] & bit:",
        (
            "tests/test_gf2.py::TestStandardForm::test_identity_prefix_and_column_permutation",
            "tests/test_matroid.py::TestEquality::test_equality_and_hash_agree_with_the_cycle_space_oracle[5]",
        ),
    ),
    # Each row's bits land one row too high in every column, so no packed
    # matrix starts with the unit columns of [I_r | D].
    Mutant(
        "transpose-row-off-by-one",
        "src/binmat/gf2.py",
        "cols[low.bit_length() - 1] |= 1 << i",
        "cols[low.bit_length() - 1] |= 1 << (i + 1)",
        (
            "tests/test_gf2.py::TestBitMatrix::test_transpose_matches_the_entry_oracle",
            "tests/test_matroid.py::TestConstruction::test_columns_match_the_matrix",
        ),
    ),
    # The column order counted from 1 again: `make_matroid` would give
    # each column the next column's label, or index past the last.
    Mutant(
        "standard-form-one-based",
        "src/binmat/gf2.py",
        "return std, order",
        "return std, tuple(j + 1 for j in order)",
        (
            "tests/test_matroid.py::TestConstruction::test_make_matroid_standardizes",
            "tests/test_gf2.py::TestStandardForm::test_identity_prefix_and_column_permutation",
        ),
    ),
    # Stopping where exactly enough of a colour remain after a position
    # loses the bases that pass it over and take all the rest.
    Mutant(
        "colour-bases-pass-at-equal",
        "src/binmat/iso.py",
        "if later[p] < need[c]:",
        "if later[p] <= need[c]:",
        (
            "tests/test_iso.py::TestColourBases::test_walk_matches_filtered_combinations",
            "tests/test_iso.py::TestIsomorphism::test_agrees_with_permutation_oracle",
        ),
    ),
    # Without the projection test the first colour-matched row order
    # wins, whether or not it turns the columns into the target's.
    Mutant(
        "match-rows-without-projections",
        "src/binmat/iso.py",
        "            if sorted(nxt) != projections[depth + 1]:\n                continue\n",
        "",
        (
            "tests/test_iso.py::TestIsomorphism::test_first_matches_are_pinned",
            "tests/test_iso.py::TestIsomorphism::test_agrees_with_permutation_oracle",
        ),
    ),
    # A frame that lists the non-basis columns by position, not by value,
    # pairs columns of different values, so the maps that the row-order
    # search reports are not automorphisms and the basis loop skips bases
    # it must search.
    Mutant(
        "canonical-frame-unsorted",
        "src/binmat/iso.py",
        "return [basis[p] for p in order] + [nonbasis[j] for j in by_value]",
        "return [basis[p] for p in order] + [nonbasis[j] for j in range(nd)]",
        ("tests/test_iso.py::TestAutomorphismPruning::test_reported_maps_are_automorphisms",),
    ),
    # Letting sets of rank r - 1 through hands a dependent set to the
    # row-order search, which has no coordinates for it.
    Mutant(
        "canonical-visits-rank-r-minus-1",
        "src/binmat/iso.py",
        "m.rank_of_mask(mask) < r:",
        "m.rank_of_mask(mask) < r - 1:",
        ("tests/test_iso.py::TestAutomorphismPruning::test_only_bases_reach_the_row_order_search",),
    ),
    # The minor filter.  Contracting one element more than r(m) - r(target)
    # reaches the target's rank only through a dependent contraction set,
    # so minors go missing.
    Mutant(
        "minor-contractions-off-by-one",
        "src/binmat/structure.py",
        "for cons in combinations(removed, c):",
        "for cons in combinations(removed, c + 1):",
        (
            "tests/test_structure.py::TestHasMinor::test_positive_cases_with_witness_replay",
            "tests/test_structure.py::test_minor_filter_builds_only_splits_with_a_targets_rank_and_profile",
        ),
    ),
    # The next three only build more minors, and `isomorphism` keeps every
    # verdict, so only the two tests that watch what is built kill them.
    Mutant(
        "minor-weight-loop-one-short",
        "src/binmat/structure.py",
        "for w in range(d, len(profile) - 1):",
        "for w in range(d, len(profile) - 2):",
        (
            "tests/test_structure.py::test_minor_filter_builds_only_splits_with_a_targets_rank_and_profile",
            "tests/test_structure.py::test_has_any_minor_matches_a_brute_force_decider",
        ),
    ),
    # A window that stops at weight j + d - 2 leaves weight d - 1 to no test.
    Mutant(
        "minor-light-window-one-short",
        "src/binmat/structure.py",
        "sum(of_weight[j + 1 : j + d])",
        "sum(of_weight[j + 1 : j + d - 1])",
        (
            "tests/test_structure.py::test_minor_filter_builds_only_splits_with_a_targets_rank_and_profile",
            "tests/test_structure.py::test_has_any_minor_matches_a_brute_force_decider",
        ),
    ),
    Mutant(
        "minor-rank-test-dropped",
        "src/binmat/structure.py",
        "                    if avoid.bit_count() // kernel != 1 << (m.rank - c):\n                        continue\n",
        "",
        (
            "tests/test_structure.py::test_minor_filter_builds_only_splits_with_a_targets_rank_and_profile",
            "tests/test_structure.py::test_has_any_minor_matches_a_brute_force_decider",
        ),
    ),
    # A light cocycle that meets R avoids only the splits that contract
    # none of its positions in R, so skipping R on any light cocycle loses
    # minors.
    Mutant(
        "minor-light-skip-any-light",
        "src/binmat/structure.py",
        "if not light & kept.exactly[0]:",
        "if not light:",
        (
            "tests/test_structure.py::TestHasMinor::test_positive_cases_with_witness_replay",
            "tests/test_structure.py::TestHasMinor::test_witnesses_are_pinned",
        ),
    ),
    # Without the carry, a cocycle that meets R in j > 0 positions lands in
    # ``exactly[j]`` only when they are R's first j, so counts go missing.
    Mutant(
        "kept-weights-count-dropped",
        "src/binmat/structure.py",
        "step.append((e & ~c) | (prev & c))",
        "step.append(e & ~c)",
        ("tests/test_structure.py::test_split_profile_matches_built_minors",),
    ),
    # A split whose deletions hold a cocycle (kernel > 1) has its counts
    # scaled by the kernel and is dropped.  Its minor is also reached in the
    # same removed set with C independent and D coindependent, where the
    # kernel is 1, so every verdict stands and only the brute-force
    # decider's list of built splits sees the mutant.
    Mutant(
        "minor-kernel-ignored",
        "src/binmat/structure.py",
        "!= profile[w] * kernel:",
        "!= profile[w]:",
        ("tests/test_structure.py::test_has_any_minor_matches_a_brute_force_decider",),
    ),
    # Exit 1 means "verify-paper found failures"; bad input must exit 2.
    Mutant(
        "cli-input-error-exits-1",
        "src/binmat/cli.py",
        '        print(f"binmat: {exc}", file=sys.stderr)\n        return 2\n',
        '        print(f"binmat: {exc}", file=sys.stderr)\n        return 1\n',
        (
            "tests/test_cli.py::TestErrorHandling::test_unknown_catalog_name_exits_2",
            "tests/test_cli.py::TestErrorHandling::test_malformed_bmx_file_exits_2",
        ),
    ),
]


def run_pytest(tree: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--ignore=tests/test_mutation_sweep.py", *tests]
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
