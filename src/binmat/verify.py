"""Verification driver for the published decomposition case analysis.

Every finite check in the source argument is recomputed from scratch
and compared against the printed value: the F7* extension classes, the
S8 and P9 decomposer claims, the P9 growth classification, the E5
splitter claim, E4's in-class growths and its two candidate
3-separations, every cell of Tables 1a/1b/2a/2b, the bad-row
disjointness and coupling conditions, the T12 splitter escalation, and
the connectivity and self-duality flags.

Each check is a claim with a fixed id.  A claim whose recomputation
matches the printed value passes.  When the recomputation is internally
consistent but contradicts a printed value (the source contains a few
typo-level slips), the claim is reported as a discrepancy rather than a
failure; failures are reserved for breakage of the mathematics itself.
"""

from __future__ import annotations

import json
from functools import cached_property

from . import __version__
from .catalog import get, standard_matrix
from .connectivity import (
    is_internally_4_connected,
    is_n_connected,
    lam,
    nonminimal_exact_3seps,
)
from .extension import coextend, enumerate_growth_classes, extend, grow, growth_candidates, growth_labels
from .gf2 import BitVector
from .iso import are_isomorphic
from .matroid import dual, is_circuit, is_cocircuit, is_union_of_circuits, is_union_of_cocircuits, make_matroid
from .structure import ExcludedClass, Verdict, corollary22_check, growth_classes_in, is_splitter, theorem21_check
from .tables import SIDE_1, SIDE_2, TABLE_1A, TABLE_1B, TABLE_2A, TABLE_2B


def _vs(bits: str) -> str:
    return f"[{bits}]"


# The working representation behind the E5 extension table: a pivoted
# copy of the displayed E5 matrix (the printed candidate lists treat its
# D columns, not the displayed ones, as already present).
_E5_WORKING_D_BLOCK = ["01111", "10111", "11001", "11101", "01011"]


class _Context:
    """The run's shared work, evaluated lazily and once: the four
    `ExcludedClass` families (EX[S10, S10*], EX[P9, P9*], P9's decomposer
    family, the T12 deferral), through which every claim asks membership,
    and the values several claims read, E5's working presentation (one
    object per run) and E4's report.  A value one claim reads is computed
    in that claim; growth classes are kept by their parent."""

    def m(self, name: str):
        return get(name).matroid

    @cached_property
    def ex_s10(self):
        return ExcludedClass([self.m("S10"), self.m("S10*")])

    @cached_property
    def ex_p9(self):
        return ExcludedClass([self.m("P9"), self.m("P9*")])

    @cached_property
    def ex_p9_decomposer(self):
        return ExcludedClass([self.m("S10"), self.m("S10*"), self.m("E4"), self.m("E5")])

    @cached_property
    def defer_t12(self):
        return ExcludedClass([self.m("T12/e"), self.m("T12\\e")])

    @cached_property
    def e5_working(self):
        return make_matroid(standard_matrix(_E5_WORKING_D_BLOCK))

    @cached_property
    def e4_report(self):
        return corollary22_check(self.m("E4"), SIDE_1, SIDE_2, 3, self.ex_s10, defer=self.defer_t12)

    @cached_property
    def e4_records(self):
        """The E4 report's one-step records by (kind, generator) and its
        two-step records by (parent generator, row)."""
        rep = self.e4_report
        return {(r.kind, r.vector): r for r in rep.one_step} | {
            (r.parent_vector, r.row): r for r in rep.two_step
        }


SIDE_S8 = frozenset({1, 2, 5, 6})


def _members(c) -> list[str] | None:
    return sorted(str(v) for v in c.members) if c else None


def _class_members(classes) -> list[list[str]]:
    return sorted(_members(c) for c in classes)


def _class_with(classes, bits: str):
    target = BitVector.parse(bits)
    return next((c for c in classes if target in c.members), None)


def _named_classes(ctx, classes, names: list[str], first_gens: list[str]) -> dict:
    """Map printed class names to computed member lists by a witness generator."""
    out = {}
    for name, bits in zip(names, first_gens):
        c = _class_with(classes, bits)
        iso = bool(c) and are_isomorphic(c.representative, ctx.m(name))
        out[name] = {"generators": _members(c), "isomorphic": iso}
    return out


def _bullet_classes(classes, bullets: dict[str, list[str]]) -> dict:
    """Each bullet name's computed members: the class holding its first bullet."""
    return {name: _members(_class_with(classes, gens[0])) for name, gens in bullets.items()}


# ---------------------------------------------------------------------------
# Claim implementations


def _c_f7star_class_count(ctx):
    return 2, len(enumerate_growth_classes(ctx.m("F7*"), "extension"))


def _c_f7star_growth(name, printed):
    """F7*'s extension class named `name`, found by its first printed generator."""

    def check(ctx):
        expected = {"generators": [_vs(b) for b in printed], "isomorphic": True}
        classes = enumerate_growth_classes(ctx.m("F7*"), "extension")
        return expected, _named_classes(ctx, classes, [name], printed[:1])[name]

    return check


def _c_claim1_sep_lambda(ctx):
    return 2, lam(ctx.m("S8"), SIDE_S8)


def _c_claim1_ext_classes(ctx):
    classes = enumerate_growth_classes(ctx.m("S8"), "extension")
    cands = {str(v) for v in growth_candidates(ctx.m("S8"), "extension")}
    named = _named_classes(ctx, classes, ["Z4", "P9"], ["1110", "0011"])
    p9_gens = named["P9"]["generators"] or []
    rest = sorted(cands - {"[1110]"})
    named["P9"]["generators"] = "all-other-candidates" if p9_gens == rest else p9_gens
    expected = {
        "class-count": 2,
        "Z4": {"generators": ["[1110]"], "isomorphic": True},
        "P9": {"generators": "all-other-candidates", "isomorphic": True},
    }
    return expected, {"class-count": len(classes), **named}


def _growth_lambdas(ctx, base: str, kind: str, gens) -> tuple[list[int], dict[str, int]]:
    """{1,2,5,6} moved into `base`'s growths of `kind`, and its lambda in
    the growth by each generator: (sorted moved side, {"[gen]": lambda})."""
    move, _ = growth_labels(ctx.m(base), kind)
    side = frozenset(map(move, SIDE_S8))
    return sorted(side), {_vs(g): lam(grow(ctx.m(base), kind, BitVector.parse(g)), side) for g in gens}


def _c_z4_lambda(kind, printed_set):
    def check(ctx):
        side, lams = _growth_lambdas(ctx, "S8", kind, ["1110"])
        return {"set": printed_set, "lambda": 2}, {"set": side, "lambda": lams["[1110]"]}

    return check


def _c_claim1_coext(ctx):
    classes = growth_classes_in(ctx.m("S8"), "coextension", ctx.ex_p9)
    computed = {
        "in-class-classes": _class_members(classes),
        "isomorphic-to-Z4*": len(classes) == 1
        and are_isomorphic(classes[0].representative, dual(ctx.m("Z4"))),
    }
    return {"in-class-classes": [["[1110]"]], "isomorphic-to-Z4*": True}, computed


def _c_claim1_decomposer(ctx):
    return "induced", theorem21_check(ctx.m("S8"), SIDE_S8, 3, ctx.ex_p9).overall


def _c_claim2_3seps(ctx):
    printed = [[1, 2, 5, 6], [3, 4, 7, 8], [3, 4, 7, 9]]
    ground = ctx.m("P9").ground_set()
    computed = [
        sorted(side if sorted(side) in printed else ground - side)
        for side in nonminimal_exact_3seps(ctx.m("P9"), require_unions=False)
    ]
    return printed, sorted(computed)


def _c_claim2_sep_unions(ctx):
    p9 = ctx.m("P9")
    ground = p9.ground_set()
    a = frozenset({1, 2, 5, 6})
    a1 = frozenset({3, 4, 7, 8})
    a2 = frozenset({3, 4, 7, 9})
    computed = {
        "A-is-circuit": is_circuit(p9, a),
        "A-is-cocircuit": is_cocircuit(p9, a),
        "B-union-of-cocircuits": is_union_of_cocircuits(p9, ground - a),
        "B1-union-of-cocircuits": is_union_of_cocircuits(p9, ground - a1),
        "B2-union-of-cocircuits": is_union_of_cocircuits(p9, ground - a2),
        "A1-union-of-circuits": is_union_of_circuits(p9, a1),
        "A2-union-of-circuits": is_union_of_circuits(p9, a2),
    }
    expected = {
        "A-is-circuit": True,
        "A-is-cocircuit": True,
        "B-union-of-cocircuits": False,
        "B1-union-of-cocircuits": False,
        "B2-union-of-cocircuits": False,
        "A1-union-of-circuits": False,
        "A2-union-of-circuits": False,
    }
    return expected, computed


def _c_claim2_ext_classes(ctx):
    expected = {
        "D1": {"generators": ["[1110]"], "isomorphic": True},
        "S10": {"generators": ["[0101]", "[0110]", "[1001]", "[1010]"], "isomorphic": True},
        "D3": {"generators": ["[0011]"], "isomorphic": True},
        "class-count": 3,
    }
    classes = enumerate_growth_classes(ctx.m("P9"), "extension")
    computed = _named_classes(ctx, classes, ["D1", "S10", "D3"], ["1110", "0101", "0011"])
    computed["class-count"] = len(classes)
    return expected, computed


def _c_claim2_ext_lambda(ctx):
    return {"[1110]": 2, "[0011]": 2}, _growth_lambdas(ctx, "P9", "extension", ["1110", "0011"])[1]


def _c_claim2_coext_count(ctx):
    return 8, len(enumerate_growth_classes(ctx.m("P9"), "coextension"))


_CLAIM2_COEXT_BULLETS = {
    "E1": ["11000", "11111"],
    "E2": ["11011", "11100"],
    "E3": ["11001", "11101"],
    "E4": ["01001", "01010", "01101", "01110", "10001", "10010", "10101", "10110"],
    "E5": ["01011", "01100", "10011", "10100"],
    "E6": ["00101", "00110"],
    "E6*": ["00111"],
    "E7": ["00011"],
}


def _c_claim2_coext_classes(ctx):
    expected = {
        name: {"generators": [_vs(b) for b in sorted(bullets)], "isomorphic": True}
        for name, bullets in _CLAIM2_COEXT_BULLETS.items()
    }
    computed = _named_classes(
        ctx,
        enumerate_growth_classes(ctx.m("P9"), "coextension"),
        list(_CLAIM2_COEXT_BULLETS),
        [bullets[0] for bullets in _CLAIM2_COEXT_BULLETS.values()],
    )
    return expected, computed


def _c_claim2_coext_lambda(ctx):
    rows = [
        b
        for name in ("E1", "E2", "E3", "E6", "E6*", "E7")
        for b in _CLAIM2_COEXT_BULLETS[name]
    ]
    side, lams = _growth_lambdas(ctx, "P9", "coextension", sorted(rows))
    expected = {"set": [1, 2, 6, 7], "lambda": {_vs(b): 2 for b in sorted(rows)}}
    return expected, {"set": side, "lambda": lams}


def _c_claim2_decomposer(ctx):
    return "induced", theorem21_check(ctx.m("P9"), SIDE_S8, 3, ctx.ex_p9_decomposer).overall


def _c_self_dual(name):
    def check(ctx):
        return True, are_isomorphic(ctx.m(name), dual(ctx.m(name)))

    return check


def _c_f7_dual(ctx):
    return True, are_isomorphic(dual(ctx.m("F7")), ctx.m("F7*"))


def _c_i4c(name, flag):
    def check(ctx):
        return flag, is_internally_4_connected(ctx.m(name))

    return check


def _c_t12_4connected(ctx):
    return True, is_n_connected(ctx.m("T12"), 4)


def _c_claim3_representation(ctx):
    return True, are_isomorphic(ctx.e5_working, ctx.m("E5"))


def _c_claim3_class_count(ctx):
    return 7, len(enumerate_growth_classes(ctx.e5_working, "extension"))


_CLAIM3_BULLETS = {
    "ext1": ["00011", "00101", "10010", "10100"],
    "ext2": ["00110", "10001"],
    "ext3": ["00111", "10011", "10101", "10110"],
    "ext4": ["01001", "01100", "01111", "11101"],
    "ext5": ["01010", "11000", "11011", "11110"],
    "ext6": ["01011", "11100"],
    "ext7": ["01101"],
}


def _c_claim3_classes(ctx):
    expected = {name: [_vs(b) for b in sorted(bullets)] for name, bullets in _CLAIM3_BULLETS.items()}
    return expected, _bullet_classes(enumerate_growth_classes(ctx.e5_working, "extension"), _CLAIM3_BULLETS)


def _c_claim3_s10_minor(ctx):
    return True, not growth_classes_in(ctx.e5_working, "extension", ctx.ex_s10)


def _c_splitter(base):
    def check(ctx):
        flag, counterexamples = is_splitter(base(ctx), ctx.ex_s10)
        return (
            {"splitter": True, "counterexamples": 0},
            {"splitter": flag, "counterexamples": len(counterexamples)},
        )

    return check


_E4_EXT_BULLETS = {
    "A": ["00110", "10110"],
    "B": ["01111", "11100"],
    "C": ["11000"],
    "T12/e": ["11011"],
}
_E4_COEXT_BULLETS = {
    "A*": ["00110", "10001"],
    "B*": ["11001", "11100"],
    "C*": ["11000"],
    "T12\\e": ["01010"],
}


def _c_e4_growth(kind, bullets, iso_name):
    """E4's in-class growth classes of one kind against the printed
    bullets.  Every growth outside the printed classes has an S10 minor
    when every in-class class holds a printed generator."""

    def check(ctx):
        classes = growth_classes_in(ctx.m("E4"), kind, ctx.ex_s10)
        expected = {name: [_vs(b) for b in sorted(gens)] for name, gens in bullets.items()}
        expected["escalation-isomorphic"] = True
        expected["all-others-have-s10-minor"] = True
        computed = _bullet_classes(classes, bullets)
        esc = _class_with(classes, bullets[iso_name][0])
        computed["escalation-isomorphic"] = bool(esc) and are_isomorphic(
            esc.representative, ctx.m(iso_name)
        )
        printed = {BitVector.parse(b) for gens in bullets.values() for b in gens}
        computed["all-others-have-s10-minor"] = all(printed.intersection(c.members) for c in classes)
        return expected, computed

    return check


def _c_e4_3seps(ctx):
    printed = sorted([sorted(SIDE_1), sorted(SIDE_2)])
    seps = nonminimal_exact_3seps(ctx.m("E4"), require_unions=True)
    return printed, sorted(sorted(s) for s in seps)


_E4_SEP_COVERS = [
    ("A1", [{6, 7, 10}, {1, 2, 5, 10}]),
    ("A1", [{5, 7, 10}, {1, 2, 6, 10}]),
    ("A2", [{3, 8, 9}, {1, 2, 4, 8}]),
    ("A2", [{3, 4, 8}, {1, 2, 3, 9}]),
]


def _c_e4_sep_unions(ctx):
    e4 = ctx.m("E4")
    sides = {"A1": SIDE_1, "A2": SIDE_2}
    expected, computed = [], []
    for name, pair in _E4_SEP_COVERS:
        members = [frozenset(s) for s in pair]
        union_ok = frozenset().union(*members) == sides[name]
        uniform = any(all(test(e4, s) for s in members) for test in (is_circuit, is_cocircuit))
        expected.append({"side": name, "covers": True, "uniform-kind": True})
        computed.append({"side": name, "covers": union_ok, "uniform-kind": uniform})
    return expected, computed


def _c_mk33star(ctx):
    classes = enumerate_growth_classes(ctx.m("M*(K3,3)"), "extension")
    computed = {
        "class-count": len(classes),
        "isomorphic-to-S10": len(classes) == 1
        and are_isomorphic(classes[0].representative, ctx.m("S10")),
    }
    return {"class-count": 1, "isomorphic-to-S10": True}, computed


# ---------------------------------------------------------------------------
# Table claims


def _growth_cell_claim(cell, kind):
    def check(ctx):
        rec = ctx.e4_records[kind, BitVector.parse(cell.vector)]
        move, x = growth_labels(ctx.m("E4"), kind)
        side = frozenset(map(move, (SIDE_1, SIDE_2)[cell.side]))
        expected = {"set": sorted(cell.printed_set), "lambda": cell.printed_value}
        if cell.printed_set == side:
            value = rec.sides[cell.side].lam_a if rec.sides else None
            computed_set = sorted(side)
        elif cell.printed_set == side | {x}:
            value = rec.sides[cell.side].lam_ax if rec.sides else None
            computed_set = sorted(side | {x})
        else:
            value, computed_set = None, None
        if cell.printed_value is None and value == 2:
            # The print omits this one value; the recomputation stands alone.
            expected = {"set": expected["set"], "lambda": value}
        return expected, {"set": computed_set, "lambda": value}

    return check


def _verdict_state(rec, side_index):
    if not rec.in_class:
        return {"s10-minor": True}
    if rec.deferred:
        return {"s10-minor": False, "row": "deferred"}
    outcome = rec.sides[side_index]
    state = {"s10-minor": False, "row": outcome.verdict.value}
    if outcome.verdict is Verdict.GOOD:
        if outcome.witness_set is not None:
            state["witness"] = sorted(outcome.witness_set)
        else:
            state["witness"] = {"triangle": sorted(outcome.triangle_witness)}
    return state


def _row_cell_claim(cell, side_index):
    def check(ctx):
        if cell.has_minor:
            exp_state = {"s10-minor": True}
        elif cell.outcome == "good":
            exp_state = {"s10-minor": False, "row": "good", "witness-valid": True}
        else:
            exp_state = {"s10-minor": False, "row": "bad"}
        expected, computed = {}, {}
        for parent in cell.parents:
            rec = ctx.e4_records.get((BitVector.parse(parent), BitVector.parse(cell.row)))
            expected[_vs(parent)] = exp_state
            if rec is None:
                # The literal row duplicates a D row of this parent, so it
                # is not a cosimple coextension of it at all.
                computed[_vs(parent)] = "not-a-candidate"
                continue
            state = _verdict_state(rec, side_index)
            if cell.outcome == "good" and not state["s10-minor"]:
                state.pop("witness", None)
                state["witness-valid"] = _printed_witness_valid(
                    ctx, parent, cell.row, side_index, cell.witness
                )
            computed[_vs(parent)] = state
        return expected, computed

    return check


def _printed_witness_valid(ctx, parent, row, side_index, witness) -> bool:
    """A printed good-row witness W is valid when A ⊆ W ⊆ A ∪ {e, f} and
    the child's connectivity on W equals 2 (different valid witnesses for
    the same row are not a disagreement)."""
    _, x = growth_labels(ctx.m("E4"), "extension")
    type_i = extend(ctx.m("E4"), BitVector.parse(parent))
    child = coextend(type_i, BitVector.parse(row))
    move, f = growth_labels(type_i, "coextension")
    side_s = frozenset(map(move, (SIDE_1, SIDE_2)[side_index]))
    w = frozenset(witness)
    return side_s <= w <= (side_s | {move(x), f}) and lam(child, w) == 2


def _c_claim4_disjoint(ctx):
    report = ctx.e4_report
    c = BitVector.parse("11000")
    c1 = {r for p, r in report.bad_rows(0) if p == c}
    c2 = {r for p, r in report.bad_rows(1) if p == c}
    return (
        {"C-bad-rows-disjoint": True},
        {"C-bad-rows-disjoint": not (c1 & c2)},
    )


def _all_good_parents(report, side_index):
    ext = [r for r in report.one_step if r.kind == "extension" and r.active]
    out = []
    for rec in ext:
        rows = [t for t in report.two_step if t.parent_vector == rec.vector and t.active]
        if rows and all(t.sides[side_index].verdict is Verdict.GOOD for t in rows):
            out.append(str(rec.vector))
    return sorted(out)


def _c_claim4_good(side_index, printed):
    def check(ctx):
        return printed, _all_good_parents(ctx.e4_report, side_index)

    return check


def _c_claim4_coupling(ctx):
    """The one-step rule, read from the engine: no record yields a note."""
    return True, not any(note for rec in ctx.e4_report.one_step for note in rec.failures())


def _c_claim4_deferred(ctx):
    report = ctx.e4_report
    deferred = {
        kind: sorted(str(r.vector) for r in report.one_step if r.kind == kind and r.deferred)
        for kind in ("extension", "coextension")
    }
    return {"extension": ["[11011]"], "coextension": ["[01010]"]}, deferred


def _c_claim4_decomposer(ctx):
    return "induced-one-of-two", ctx.e4_report.overall


def _c_claim4_dual(ctx):
    rep = ctx.e4_report.dual_report
    return "induced-one-of-two", rep.overall if rep else None


# ---------------------------------------------------------------------------
# Registry

# kind "printed": a mismatch contradicts a printed value but not the
# mathematics -> discrepancy.  kind "strict": a mismatch means the
# recomputation itself failed -> fail.


def _registry():
    claims = [
        ("f7star.extension-class-count", "strict", "Theorem 1.1 proof, F7* extensions", _c_f7star_class_count),
        ("f7star.ag32-generators", "printed", "Theorem 1.1 proof, 'namely [1110]'", _c_f7star_growth("AG(3,2)", ["1110"])),
        ("f7star.s8-generators", "printed", "Theorem 1.1 proof, 'any of the five columns'", _c_f7star_growth("S8", ["0011", "0101", "0110", "1001", "1100", "1111"])),
        ("claim1.s8-separation-lambda", "printed", "Claim 1, lambda(A) = 2", _c_claim1_sep_lambda),
        ("claim1.s8-extension-classes", "printed", "Claim 1, extensions P9 and Z4", _c_claim1_ext_classes),
        ("claim1.z4-extension-lambda", "printed", "Claim 1, lambda({1,2,5,6}) = 2 in Z4", _c_z4_lambda("extension", [1, 2, 5, 6])),
        ("claim1.z4-coextension-classes", "printed", "Claim 1, Z4* the only coextension", _c_claim1_coext),
        ("claim1.z4-coextension-lambda", "printed", "Claim 1, lambda({1,2,6,7}) = 2", _c_z4_lambda("coextension", [1, 2, 6, 7])),
        ("claim1.s8-decomposer", "strict", "Claim 1, conclusion", _c_claim1_decomposer),
        ("claim2.p9-nonminimal-3seps", "printed", "Claim 2, three 3-separations", _c_claim2_3seps),
        ("claim2.p9-separation-unions", "printed", "Claim 2, circuit/cocircuit conditions", _c_claim2_sep_unions),
        ("claim2.extension-classes", "printed", "Claim 2, extension bullets", _c_claim2_ext_classes),
        ("claim2.extension-lambda", "printed", "Claim 2, first and third extension", _c_claim2_ext_lambda),
        ("claim2.coextension-class-count", "printed", "Claim 2, '8 non-isomorphic coextensions'", _c_claim2_coext_count),
        ("claim2.coextension-classes", "printed", "Claim 2, coextension bullets", _c_claim2_coext_classes),
        ("claim2.coextension-lambda", "printed", "Claim 2, lambda({1,2,6,7}) = 2 rows", _c_claim2_coext_lambda),
        ("claim2.p9-decomposer", "strict", "Claim 2, conclusion", _c_claim2_decomposer),
        ("claim2.e4-self-dual", "printed", "Claim 2, 'E4 and E5 are self-dual'", _c_self_dual("E4")),
        ("claim2.e5-self-dual", "printed", "Claim 2, 'E4 and E5 are self-dual'", _c_self_dual("E5")),
        ("claim2.e5-internally-4-connected", "printed", "Claim 2, E5 internally 4-connected", _c_i4c("E5", True)),
        ("claim3.e5-representation", "strict", "Claim 3, working matrix for E5", _c_claim3_representation),
        ("claim3.e5-extension-class-count", "printed", "Claim 3, seven extension groups", _c_claim3_class_count),
        ("claim3.e5-extension-classes", "printed", "Claim 3, ext1..ext7 bullets", _c_claim3_classes),
        ("claim3.e5-extensions-s10-minor", "printed", "Claim 3, every extension has S10 minor", _c_claim3_s10_minor),
        ("claim3.e5-splitter", "strict", "Claim 3, conclusion", _c_splitter(lambda ctx: ctx.e5_working)),
        ("e4.extension-generators", "printed", "Theorem 1.1 proof, E4 extensions A/B/C/T12-e", _c_e4_growth("extension", _E4_EXT_BULLETS, "T12/e")),
        ("e4.coextension-generators", "printed", "Theorem 1.1 proof, E4 coextensions", _c_e4_growth("coextension", _E4_COEXT_BULLETS, "T12\\e")),
        ("e4.nonminimal-3seps", "printed", "Theorem 1.1 proof, (A1,B1) and (A2,B2)", _c_e4_3seps),
        ("e4.separation-unions", "printed", "Theorem 1.1 proof, circuit/cocircuit covers", _c_e4_sep_unions),
        ("t12.splitter", "strict", "Theorem 1.1 proof, T12 splitter escalation", _c_splitter(lambda ctx: ctx.m("T12"))),
        ("t12.4-connected", "printed", "Introduction, 'self-dual 4-connected matroid'", _c_t12_4connected),
        ("mk33star.extension-classes", "printed", "Introduction, S10 the only extension of M*(K3,3)", _c_mk33star),
        ("connectivity.internally-4-connected.S10", "printed", "Introduction, S10 internally 4-connected family", _c_i4c("S10", True)),
        ("connectivity.internally-4-connected.E5", "printed", "Introduction, E5 internally 4-connected", _c_i4c("E5", True)),
        ("connectivity.internally-4-connected.T12", "printed", "Introduction, T12 4-connected", _c_i4c("T12", True)),
        ("connectivity.internally-4-connected.S8", "printed", "Claim 1, S8 non-minimal 3-separation", _c_i4c("S8", False)),
        ("connectivity.internally-4-connected.P9", "printed", "Claim 2, P9 non-minimal 3-separations", _c_i4c("P9", False)),
        ("connectivity.internally-4-connected.E4", "printed", "Introduction, E4 not internally 4-connected", _c_i4c("E4", False)),
        ("duality.self-dual.AG(3,2)", "printed", "Introduction matrices", _c_self_dual("AG(3,2)")),
        ("duality.self-dual.S8", "printed", "Claim 1, 'S8 is self-dual'", _c_self_dual("S8")),
        ("duality.self-dual.E4", "printed", "Claim 2", _c_self_dual("E4")),
        ("duality.self-dual.E5", "printed", "Claim 2", _c_self_dual("E5")),
        ("duality.self-dual.T12", "printed", "Introduction, T12 self-dual", _c_self_dual("T12")),
        ("duality.f7-dual", "printed", "Theorem 1.1 proof, F7* minor", _c_f7_dual),
    ]

    def group_id(group: str) -> str:
        return group.lower().replace("*", "-star")

    for table, cells, kind in (("1a", TABLE_1A, "extension"), ("1b", TABLE_1B, "coextension")):
        for cell in cells:
            cid = f"table{table}.{group_id(cell.group)}.{cell.label}.lambda-a{cell.side + 1}"
            claims.append((cid, "printed", f"Table {table}", _growth_cell_claim(cell, kind)))

    block_names = {("10110", "01111"): "ab1", ("00110", "11100"): "ab2", ("11000",): "c"}
    for table, cells, side_index in (("2a", TABLE_2A, 0), ("2b", TABLE_2B, 1)):
        for cell in cells:
            cid = f"table{table}.{block_names[cell.parents]}.{cell.label}"
            claims.append((cid, "printed", f"Table {table}", _row_cell_claim(cell, side_index)))

    claims += [
        ("claim4.c-bad-rows-disjoint", "printed", "Claim 4, disjoint bad-row sets for C", _c_claim4_disjoint),
        ("claim4.a1-all-good-parents", "printed", "Claim 4, all-good parents for (A1,B1)", _c_claim4_good(0, ["[00110]", "[01111]"])),
        ("claim4.a2-all-good-parents", "printed", "Claim 4, all-good parents for (A2,B2)", _c_claim4_good(1, ["[01111]", "[10110]"])),
        ("claim4.coupling", "strict", "Corollary 2.2 hypothesis on Tables 1a/1b", _c_claim4_coupling),
        ("claim4.deferred-to-t12", "strict", "Theorem 1.1 proof, T12/e branch", _c_claim4_deferred),
        ("claim4.decomposer", "strict", "Claim 4, conclusion", _c_claim4_decomposer),
        ("claim4.dual-orientation", "strict", "Claim 4, Type (ii) side via duality", _c_claim4_dual),
    ]

    ids = [c[0] for c in claims]
    if len(ids) != len(set(ids)):
        raise AssertionError("duplicate claim ids in registry")
    return claims


def run_verification(only=None) -> dict:
    """Recompute the registered claims; returns the report dictionary.

    ``only`` restricts the run to the given claim ids (the full registry
    is still listed so unknown ids raise).
    """
    registry = _registry()
    known = {c[0] for c in registry}
    if only:
        unknown = set(only) - known
        if unknown:
            raise KeyError(f"unknown claim ids: {sorted(unknown)}")
    ctx = _Context()
    claims = []
    counts = {"pass": 0, "fail": 0, "discrepancy": 0}
    for cid, kind, ref, fn in registry:
        if only and cid not in only:
            continue
        expected, computed = fn(ctx)
        if expected == computed:
            status = "pass"
        else:
            status = "discrepancy" if kind == "printed" else "fail"
        counts[status] += 1
        claims.append(
            {
                "id": cid,
                "status": status,
                "expected": expected,
                "computed": computed,
                "paper_ref": ref,
            }
        )
    return {"version": __version__, "claims": claims, "summary": counts}


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=False) + "\n"


def report_to_text(report: dict) -> str:
    lines = []
    for claim in report["claims"]:
        lines.append(f"{claim['status']:<12} {claim['id']}")
        if claim["status"] != "pass":
            lines.append(f"    expected: {claim['expected']}")
            lines.append(f"    computed: {claim['computed']}")
    s = report["summary"]
    lines.append(
        f"{len(report['claims'])} claims: {s['pass']} pass, "
        f"{s['fail']} fail, {s['discrepancy']} discrepancy"
    )
    return "\n".join(lines) + "\n"
