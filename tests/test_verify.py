"""Tests for the claim registry and verification reporting."""

import ast
import hashlib
from pathlib import Path

import pytest

from binmat import iso, structure, verify
from binmat.catalog import get, list_names
from binmat.extension import coextend, enumerate_growth_classes, extend
from binmat.gf2 import BitVector
from binmat.structure import DecomposerReport, OneStepRecord, OneStepSide, SideOutcome, TwoStepRecord, Verdict
from binmat.tables import TABLE_1A, TABLE_1B, TABLE_2A, TABLE_2B, GrowthCell
from binmat.verify import report_to_json, report_to_text, run_verification

from conftest import oracle_lam


# Known disagreements between the printed values and recomputation; each
# is independently double-checked (see the claim detail payloads).
EXPECTED_DISCREPANCIES = [
    "f7star.s8-generators",
    "e4.separation-unions",
    "table2b.ab2.3'",
    "table2b.ab2.4'",
    "table2b.ab2.9'",
    "table2b.ab2.10'",
    "table2b.ab1.b'",
    "table2b.ab1.c",
    "table2b.ab1.c'",
    "table2b.c.a",
    "table2b.c.d",
    "claim4.a1-all-good-parents",
]


class TestRegistry:
    def test_claim_ids_are_unique_and_stable(self, verification):
        ids = [c["id"] for c in verification[0]["claims"]]
        assert len(ids) == 115
        assert len(set(ids)) == len(ids)

    def test_registry_refuses_a_duplicate_claim_id(self, monkeypatch):
        monkeypatch.setattr(verify, "TABLE_2A", verify.TABLE_2A + verify.TABLE_2A[:1])
        with pytest.raises(AssertionError, match="^duplicate claim ids in registry$"):
            verify._registry()

    def test_table_manifests_have_expected_shapes(self):
        assert len(TABLE_1A) == 10 and len(TABLE_1B) == 10
        assert len(TABLE_2A) == 22 and len(TABLE_2B) == 22

    def test_unknown_claim_id_raises(self):
        with pytest.raises(KeyError):
            run_verification(only=["no.such.claim"])

    def test_single_claim_subset(self):
        report = run_verification(only=["f7star.extension-class-count"])
        assert [c["id"] for c in report["claims"]] == ["f7star.extension-class-count"]
        assert report["claims"][0]["status"] == "pass"
        assert report["summary"] == {"pass": 1, "fail": 0, "discrepancy": 0}


class TestFullReport:
    def test_summary(self, verification):
        report, _ = verification
        assert report["summary"] == {"pass": 103, "fail": 0, "discrepancy": 12}
        assert len(report["claims"]) == 115

    def test_no_failures(self, verification):
        report, _ = verification
        assert [c["id"] for c in report["claims"] if c["status"] == "fail"] == []

    def test_discrepancy_set_is_exactly_the_known_one(self, verification):
        report, _ = verification
        disc = [c["id"] for c in report["claims"] if c["status"] == "discrepancy"]
        assert disc == EXPECTED_DISCREPANCIES

    def test_discrepancies_carry_both_values(self, verification):
        report, _ = verification
        for c in report["claims"]:
            if c["status"] == "discrepancy":
                assert "expected" in c and "computed" in c, c["id"]
                assert c["expected"] != c["computed"], c["id"]

    def test_every_claim_has_reference_and_status(self, verification):
        report, _ = verification
        for c in report["claims"]:
            assert c["status"] in ("pass", "fail", "discrepancy")
            assert c["paper_ref"]

    def test_json_rendering(self, verification):
        report, _ = verification
        text = report_to_json(report)
        assert text.endswith("\n")
        import json

        assert json.loads(text) == report

    def test_text_rendering_mentions_summary(self, verification):
        report, _ = verification
        text = report_to_text(report)
        assert "pass" in text and "discrepancy" in text

    def test_json_report_digest_is_pinned(self, verification):
        # Any verdict, value or ordering change in the report moves this.
        report, _ = verification
        digest = hashlib.sha256(report_to_json(report).encode()).hexdigest()
        assert digest == "af91f8ffc3487bea706df154a4893a42f47189d9eff3763830a504940a8e492a"

    def test_json_output_is_byte_stable_across_runs(self, verification):
        report, _ = verification
        again = run_verification()
        assert report_to_json(again) == report_to_json(report)

    def test_growth_questions_and_isomorphism_calls_stay_carried(self, monkeypatch):
        # Every growth question is a growth-class question: it is carried
        # along parent maps to the first isomorphic parent and asked once
        # per growth class of that parent (ExcludedClass.growth_membership),
        # so E4's dual orientation and every repeat parent ask nothing, the
        # decomposer builds no child to ask about, and each parent's classes
        # are enumerated once, by orbits of the automorphisms that class
        # lookups find, so a generator placed by an orbit makes no search.
        # A two-step record whose row, without e's bit, names a one-step
        # coextension outside the class is outside it with no question:
        # a run asks 157 ExcludedClass questions and makes 317 isomorphism
        # calls and 129 has_any_minor searches, one per isomorphism class
        # and family.  The 317 calls: 102 ExcludedClass index lookups (85
        # for answers, 17 for growth parents), 55 inside has_any_minor,
        # 111 in growth-class indexes and 49 through are_isomorphic (19 of
        # them in ExcludedClass.dual's closure test).  The catalog matroids
        # start without the classes earlier tests kept on them, as in a
        # fresh interpreter; a run after them also makes 129 searches.
        for name in list_names():
            monkeypatch.setattr(get(name).matroid, "_growth_classes", {})
        asked, calls, searches = [], [], []
        contains, isomorphism = structure.ExcludedClass.__contains__, iso.isomorphism
        has_any_minor = structure.has_any_minor

        def asking(self, m):
            asked.append(m)
            return contains(self, m)

        def counting(m, t):
            calls.append(m)
            return isomorphism(m, t)

        def searching(m, targets):
            searches.append(m)
            return has_any_minor(m, targets)

        monkeypatch.setattr(structure.ExcludedClass, "__contains__", asking)
        for module in (iso, structure):
            monkeypatch.setattr(module, "isomorphism", counting)
        monkeypatch.setattr(structure, "has_any_minor", searching)
        run_verification()
        assert len(asked) <= 157
        assert len(calls) <= 317
        assert len(searches) <= 129


class _RecordsOnly:
    """The catalog, a fixed table of E4 records and, if given, a fixed E4
    report: all that one table or Claim 4 claim reads from a run's context."""

    def __init__(self, records, report=None):
        self.e4_records = records
        self.e4_report = report

    def m(self, name):
        return get(name).matroid


@pytest.mark.parametrize("kind", ["extension", "coextension"])
def test_growth_cell_with_a_foreign_set_reads_no_value(kind):
    # A printed set that is neither the side A nor A u x matches no
    # recomputed value, so the cell is a discrepancy rather than a crash.
    cell = GrowthCell("A", "alpha", "11000", 0, frozenset({1, 2, 3}))
    side = OneStepSide(lam_a=2, lam_ax=2, satisfied=True, direct=True)
    rec = OneStepRecord(kind, BitVector.parse("11000"), True, False, [side, side])
    context = _RecordsOnly({(kind, rec.vector): rec})
    expected, computed = verify._growth_cell_claim(cell, kind)(context)
    assert expected == {"set": [1, 2, 3], "lambda": 2}
    assert computed == {"set": None, "lambda": None}


@pytest.mark.parametrize(
    "first, second, holds",
    [
        # Side 1 keeps neither lambda at k-1: the rule fails whatever side 2 does.
        ((3, 3, False, False), (2, 2, True, True), False),
        # Side 1 relies on lambda(A u x) while side 2 is direct.
        ((3, 2, True, False), (2, 3, True, True), True),
        # Both sides rely on lambda(A u x): neither has the other direct.
        ((3, 2, True, False), (3, 2, True, False), False),
    ],
)
def test_coupling_claim_reads_the_one_step_rule(first, second, holds):
    # Synthetic one active record: claim4.coupling holds exactly when the
    # decomposer's one-step rule writes no note for it.
    sides = [OneStepSide(*first), OneStepSide(*second)]
    rec = OneStepRecord("extension", BitVector.parse("00110"), True, False, sides)
    inactive = OneStepRecord("coextension", BitVector.parse("11011"), False, False)
    context = _RecordsOnly({}, DecomposerReport("failed", [rec, inactive]))
    assert verify._c_claim4_coupling(context) == (True, holds)


@pytest.mark.parametrize("claim", ["e4.extension-generators", "e4.coextension-generators"])
def test_an_in_class_class_without_a_printed_generator_fails_all_others(monkeypatch, claim):
    # An in-class growth class that holds no printed bullet is a growth the
    # print does not list and that has no S10 minor.
    classes_in = verify.growth_classes_in

    def with_an_unprinted_class(parent, kind, excluded):
        kept = classes_in(parent, kind, excluded)
        extra = next(c for c in enumerate_growth_classes(parent, kind) if all(c is not k for k in kept))
        return kept + [extra]

    monkeypatch.setattr(verify, "growth_classes_in", with_an_unprinted_class)
    (result,) = run_verification(only=[claim])["claims"]
    assert result["computed"]["all-others-have-s10-minor"] is False


def test_deferred_two_step_row_reads_deferred():
    rec = TwoStepRecord(BitVector.parse("11000"), BitVector.parse("110000"), True, True)
    assert verify._verdict_state(rec, 0) == {"s10-minor": False, "row": "deferred"}
    assert verify._verdict_state(rec, 1) == {"s10-minor": False, "row": "deferred"}


def test_all_good_parents_lists_only_parents_with_active_rows_all_good():
    # Synthetic records: a parent whose active rows are all good is listed;
    # one with a bad row, one whose rows are all out of the class or
    # deferred, and an inactive parent with good rows are not.
    good, bad = SideOutcome(Verdict.GOOD, witness_set=frozenset({1})), SideOutcome(Verdict.BAD)
    side = OneStepSide(lam_a=2, lam_ax=2, satisfied=True, direct=True)
    parents = [BitVector.parse(v) for v in ("00110", "01111", "10110", "11000")]
    one_step = [OneStepRecord("extension", v, True, False, [side]) for v in parents[:3]]
    one_step.append(OneStepRecord("extension", parents[3], False, False))
    row = BitVector.parse("110000")
    two_step = [
        TwoStepRecord(parents[0], row, True, False, [good]),
        TwoStepRecord(parents[0], BitVector.parse("001100"), False, False),
        TwoStepRecord(parents[1], row, True, False, [good]),
        TwoStepRecord(parents[1], BitVector.parse("001100"), True, False, [bad]),
        TwoStepRecord(parents[2], row, False, False),
        TwoStepRecord(parents[2], BitVector.parse("001100"), True, True),
        TwoStepRecord(parents[3], row, True, False, [good]),
    ]
    report = DecomposerReport("failed", one_step, two_step)
    assert verify._all_good_parents(report, 0) == ["[00110]"]


def test_printed_witness_equal_to_the_side_is_valid():
    # E4's A1 side in the two-step child [00110]/[000101] has lambda 2
    # (oracle_lam), so the printed witness A itself is valid; a set that
    # is not between A and A u {e, f} is not.
    side = sorted({1, 2, 5, 7, 8, 11})  # A1 = {1, 2, 5, 6, 7, 10} moved by the coextension
    child = coextend(extend(get("E4").matroid, BitVector.parse("00110")), BitVector.parse("000101"))
    assert oracle_lam(child, side) == 2
    context = _RecordsOnly({})
    assert verify._printed_witness_valid(context, "[00110]", "[000101]", 0, side)
    assert not verify._printed_witness_valid(context, "[00110]", "[000101]", 0, side[1:])


def _context_values_read_once(source: str) -> list[str]:
    """The `_Context` cached properties, other than `ExcludedClass`
    families, that fewer than two functions of `source` read as
    ``ctx.<name>`` or ``self.<name>``.  A read inside a nested function
    belongs to that function alone."""
    tree = ast.parse(source)
    context = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Context")
    values = []
    for node in context.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        if not any(isinstance(d, ast.Name) and d.id == "cached_property" for d in node.decorator_list):
            continue
        ret = node.body[-1]
        family = (
            isinstance(ret, ast.Return)
            and isinstance(ret.value, ast.Call)
            and isinstance(ret.value.func, ast.Name)
            and ret.value.func.id == "ExcludedClass"
        )
        if not family:
            values.append(node.name)
    assert values
    readers = dict.fromkeys(values, 0)
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        read, stack = set(), list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("ctx", "self")
            ):
                read.add(node.attr)
            stack.extend(ast.iter_child_nodes(node))
        for name in read & readers.keys():
            readers[name] += 1
    return sorted(name for name, count in readers.items() if count < 2)


def test_context_holds_only_families_and_shared_values():
    # A value that one claim reads belongs in that claim, not in the
    # run's shared context.
    source = Path(verify.__file__).read_text()
    assert _context_values_read_once(source) == []
