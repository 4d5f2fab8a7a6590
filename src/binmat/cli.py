"""Command-line interface: catalog inspection, ad-hoc structure queries,
and the verification driver with machine-readable reports.

Matrices travel in the bmx text format: a `bmx 1` header line, a
`<r> <n>` dimension line of two ASCII decimal numbers, then r rows of n
characters over {0, 1}
(columns are elements 1..n in order); comment lines starting with `#`
may appear anywhere after the header.

Exit codes: 0 on success, 1 when `verify-paper` finds failures (or,
under --strict, discrepancies), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .catalog import get, list_names
from .connectivity import lam
from .extension import enumerate_growth_classes
from .gf2 import BitMatrix
from .matroid import Matroid, make_matroid
from .structure import corollary22_check, growth_classes_in, has_any_minor, is_splitter, theorem21_check
from .verify import report_to_json, report_to_text, run_verification


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# bmx format


def matroid_to_bmx(m: Matroid, comment: str | None = None) -> str:
    order = sorted(m.labels)
    lines = ["bmx 1"]
    if comment:
        lines.append(f"# {comment}")
    lines.append(f"{m.rank} {m.size}")
    cols = [m.column_of(lab) for lab in order]
    for i in range(m.rank):
        lines.append("".join("1" if (c >> i) & 1 else "0" for c in cols))
    return "\n".join(lines) + "\n"


def parse_bmx(text: str) -> Matroid:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "bmx 1":
        raise InputError("bmx: first line must be 'bmx 1'")
    body = [ln.strip() for ln in lines[1:] if ln.strip() and not ln.lstrip().startswith("#")]
    if not body:
        raise InputError("bmx: missing dimension line")
    dims = body[0].split()
    if len(dims) != 2 or not all(d.isascii() and d.isdigit() for d in dims):
        raise InputError(f"bmx: bad dimension line {body[0]!r}")
    r, n = map(int, dims)
    rows = body[1:]
    if len(rows) != r:
        raise InputError(f"bmx: expected {r} matrix rows, found {len(rows)}")
    try:
        return make_matroid(BitMatrix.from_rows(rows, ncols=n))
    except ValueError as exc:
        raise InputError(f"bmx: {exc}")


def _load(token: str) -> Matroid:
    """A catalog name, or failing that a path to a bmx file."""
    try:
        return get(token).matroid
    except KeyError:
        pass
    try:
        with open(token, encoding="ascii") as fh:
            return parse_bmx(fh.read())
    except OSError:
        raise InputError(f"{token!r} is neither a catalog name nor a readable bmx file")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise InputError(f"bmx: {token}: byte {byte:#04x} at offset {exc.start} is not ASCII")


def _parse_set(text: str) -> frozenset[int]:
    """Comma-separated labels, each ASCII decimal digits; empty tokens are skipped."""
    tokens = [tok for tok in text.split(",") if tok]
    if not all(tok.isascii() and tok.isdigit() for tok in tokens):
        raise InputError(f"bad element set {text!r}; expected comma-separated labels")
    return frozenset(map(int, tokens))


def _parse_matroid_list(text: str) -> list[Matroid]:
    family = [_load(tok) for tok in text.split(",") if tok]
    if not family:
        raise InputError(f"no matroid named in {text!r}")
    return family


# ---------------------------------------------------------------------------
# subcommands


def _cmd_list(args) -> int:
    for name in list_names():
        entry = get(name)
        m = entry.matroid
        print(f"{name:<12} rank {m.rank:>2}  elements {m.size:>2}  {entry.provenance}")
    return 0


def _cmd_cat(args) -> int:
    m = _load(args.name)
    sys.stdout.write(matroid_to_bmx(m, comment=args.name))
    return 0


def _cmd_lambda(args) -> int:
    m = _load(args.name)
    print(lam(m, _parse_set(args.elements)))
    return 0


def _cmd_exts(args) -> int:
    m = _load(args.name)
    kind = "coextension" if args.co else "extension"
    if args.exclude is not None:
        classes = growth_classes_in(m, kind, _parse_matroid_list(args.exclude))
    else:
        classes = enumerate_growth_classes(m, kind)
    for i, c in enumerate(classes, 1):
        members = " ".join(str(v) for v in c.members)
        print(f"class {i} ({len(c.members)} generators): {members}")
    print(f"{len(classes)} isomorphism classes")
    return 0


def _cmd_minor(args) -> int:
    m = _load(args.matroid)
    target = _load(args.target)
    hit = has_any_minor(m, [target])
    if hit is not None:
        _, dels, cons = hit
        print(f"yes  delete {sorted(dels)}  contract {sorted(cons)}")
    else:
        print("no")
    return 0


def _cmd_splitter(args) -> int:
    n = _load(args.name)
    excluded = _parse_matroid_list(args.exclude)
    flag, counterexamples = is_splitter(n, excluded)
    if flag:
        print("splitter: yes")
    else:
        print(f"splitter: no ({len(counterexamples)} in-class growths)")
        for kind, v in counterexamples:
            print(f"  {kind} {v}")
    return 0


def _cmd_decomposer(args) -> int:
    n = _load(args.name)
    sep = _parse_set(args.sep)
    excluded = _parse_matroid_list(args.exclude)
    defer = _parse_matroid_list(args.defer) if args.defer is not None else ()
    if args.sep2 is not None:
        report = corollary22_check(n, sep, _parse_set(args.sep2), args.k, excluded, defer=defer)
    else:
        report = theorem21_check(n, sep, args.k, excluded, defer=defer)
    print(report.overall)
    for note in report.notes:
        print(f"note: {note}")
    if args.sep2 is not None:
        for i in range(2):
            print(f"bad rows for separation {i + 1}: {len(report.bad_rows(i))}")
    return 0


def _cmd_verify(args) -> int:
    only = set(args.claim) if args.claim else None
    try:
        report = run_verification(only=only)
    except KeyError as exc:
        raise InputError(exc.args[0])
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        sys.stdout.write(report_to_text(report))
    bad = report["summary"]["fail"]
    if args.strict:
        bad += report["summary"]["discrepancy"]
    return 1 if bad else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binmat", description="binary matroid structure toolkit"
    )
    parser.add_argument("--version", action="version", version=f"binmat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog matroids")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser("cat", help="print a matroid in bmx format")
    p.add_argument("name", help="catalog name or bmx file")
    p.set_defaults(fn=_cmd_cat)

    p = sub.add_parser("lambda", help="connectivity of an element set")
    p.add_argument("name", help="catalog name or bmx file")
    p.add_argument("elements", help="comma-separated element labels")
    p.set_defaults(fn=_cmd_lambda)

    p = sub.add_parser("exts", help="single-element growths up to isomorphism")
    p.add_argument("name", help="catalog name or bmx file")
    p.add_argument("--co", action="store_true", help="coextensions instead of extensions")
    p.add_argument("--exclude", help="discard growths with a minor in this comma-separated list")
    p.set_defaults(fn=_cmd_exts)

    p = sub.add_parser("minor", help="test for a minor, with a witness")
    p.add_argument("matroid", help="catalog name or bmx file")
    p.add_argument("target", help="catalog name or bmx file")
    p.set_defaults(fn=_cmd_minor)

    p = sub.add_parser("splitter", help="splitter test inside an excluded-minor class")
    p.add_argument("name", help="catalog name or bmx file")
    p.add_argument("--exclude", required=True, help="comma-separated excluded minors")
    p.set_defaults(fn=_cmd_splitter)

    p = sub.add_parser("decomposer", help="decomposer check for one or two separations")
    p.add_argument("name", help="catalog name or bmx file")
    p.add_argument("--sep", required=True, help="separation side, comma-separated labels")
    p.add_argument("--sep2", help="second separation side")
    p.add_argument("--k", type=int, required=True, help="separation order")
    p.add_argument("--exclude", required=True, help="comma-separated excluded minors")
    p.add_argument("--defer", help="minors whose branches a splitter argument handles")
    p.set_defaults(fn=_cmd_decomposer)

    p = sub.add_parser("verify-paper", help="recompute the published case analysis")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--strict", action="store_true", help="treat discrepancies as failures")
    p.add_argument("--claim", action="append", help="restrict to a claim id (repeatable)")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError) as exc:
        print(f"binmat: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
