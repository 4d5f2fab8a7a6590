"""End-to-end tests for the binmat command-line interface."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import binmat
from binmat.catalog import get
from binmat.cli import InputError, _parse_set, main, matroid_to_bmx, parse_bmx
from binmat.gf2 import BitMatrix
from binmat.matroid import make_matroid

from conftest import oracle_lam


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBmxFormat:
    def test_round_trip(self):
        m = get("S10").matroid
        text = matroid_to_bmx(m, comment="S10")
        assert text.splitlines()[0] == "bmx 1"
        assert parse_bmx(text) == m

    def test_round_trip_all_paper_matrices(self):
        for name in ("F7", "F7*", "S8", "P9", "E4", "E5", "T12", "PG(3,2)"):
            m = get(name).matroid
            assert parse_bmx(matroid_to_bmx(m)) == m

    def test_comments_and_blank_lines_ignored(self):
        text = "bmx 1\n# a comment\n\n2 3\n101\n011\n"
        m = parse_bmx(text)
        assert (m.rank, m.size) == (2, 3)

    def test_malformed_inputs_rejected(self):
        for bad in (
            "bmx 2\n2 3\n101\n011\n",  # unknown version
            "2 3\n101\n011\n",  # missing magic
            "bmx 1\n2 3\n10\n011\n",  # short row
            "bmx 1\n2 3\n1x1\n011\n",  # bad character
            "bmx 1\n2 3\n101\n",  # missing row
        ):
            with pytest.raises(Exception):
                parse_bmx(bad)

    @pytest.mark.parametrize("row", ["1\u06611", "121", "10"])
    def test_bad_rows_are_named(self, row):
        # int() reads the Arabic-Indic digit as 1; the format allows only 0 and 1.
        with pytest.raises(InputError, match=f"^bmx: bad row {row!r}"):
            parse_bmx(f"bmx 1\n2 3\n101\n{row}\n")

    # int() would read the last three as 1 3, 10 3 and 2 3.
    @pytest.mark.parametrize("dims", ["-1 3", "2 -3", "2", "2 3 4", "2 x", "+1 3", "1_0 3", "\u0662 3"])
    def test_bad_dimension_lines_are_named(self, dims):
        with pytest.raises(InputError) as exc:
            parse_bmx(f"bmx 1\n{dims}\n")
        assert str(exc.value) == f"bmx: bad dimension line {dims!r}"


class TestCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "list")
        assert code == 0
        assert "S10" in out and "T12" in out and "PG(3,2)" in out

    def test_cat_emits_parseable_bmx(self, capsys):
        code, out, _ = run(capsys, "cat", "P9")
        assert code == 0
        assert parse_bmx(out) == get("P9").matroid

    def test_lambda_catalog_name(self, capsys):
        code, out, _ = run(capsys, "lambda", "S8", "1,2,5,6")
        assert code == 0
        assert out.strip().endswith("2")

    def test_lambda_bmx_file(self, capsys, tmp_path):
        path = tmp_path / "s8.bmx"
        path.write_text(matroid_to_bmx(get("S8").matroid))
        code, out, _ = run(capsys, "lambda", str(path), "1,2,5,6")
        assert code == 0
        assert out.strip().endswith("2")

    def test_lambda_of_a_large_bmx_builds_no_tables(self, capsys, tmp_path, monkeypatch):
        # 30 elements of rank 15: rank tables would hold 2^16 masks of
        # 2^15 bits, about 256 MB.  Its ranks are eliminated per call.
        rng = random.Random(30)
        cols = [1 << k for k in range(15)] + [rng.getrandbits(15) for _ in range(15)]
        rows = tuple(sum(((c >> k) & 1) << j for j, c in enumerate(cols)) for k in range(15))
        m = make_matroid(BitMatrix(15, 30, rows))
        path = tmp_path / "big.bmx"
        path.write_text(matroid_to_bmx(m))
        monkeypatch.setattr("binmat.matroid._avoiding", None)  # any table build would raise
        code, out, _ = run(capsys, "lambda", str(path), "1,2,16,17,18")
        assert code == 0
        assert out.strip().endswith(str(oracle_lam(m, {1, 2, 16, 17, 18})))

    def test_exts(self, capsys):
        code, out, _ = run(capsys, "exts", "F7*")
        assert code == 0
        assert "[1110]" in out

    def test_exts_with_exclusion(self, capsys):
        code, out, _ = run(capsys, "exts", "S8", "--exclude", "P9,P9*")
        assert code == 0
        assert "[1110]" in out

    def test_coextensions_with_exclusion(self, capsys):
        code, out, _ = run(capsys, "exts", "S8", "--co", "--exclude", "P9,P9*")
        assert code == 0
        assert out.splitlines() == ["class 1 (1 generators): [1110]", "1 isomorphism classes"]

    def test_minor_yes_and_no(self, capsys):
        code, out, _ = run(capsys, "minor", "S10", "P9")
        assert code == 0 and out.startswith("yes")
        code, out, _ = run(capsys, "minor", "E4", "S10")
        assert code == 0 and out.startswith("no")

    def test_empty_matroid_is_a_minor(self, capsys, tmp_path):
        path = tmp_path / "empty.bmx"
        path.write_text("bmx 1\n0 0\n")
        code, out, err = run(capsys, "minor", "S10", str(path))
        assert (code, err) == (0, "")
        assert out == "yes  delete [5, 6, 7, 8, 9, 10]  contract [1, 2, 3, 4]\n"

    def test_splitter(self, capsys):
        assert run(capsys, "splitter", "S8", "--exclude", "P9,P9*") == (
            0,
            "splitter: no (2 in-class growths)\n  extension [1110]\n  coextension [1110]\n",
            "",
        )
        assert run(capsys, "splitter", "T12", "--exclude", "S10,S10*") == (0, "splitter: yes\n", "")

    def test_decomposer_two_sides(self, capsys):
        argv = [*E4_DECOMPOSER, "--sep2", "1,2,3,4,8,9", "--exclude", "S10,S10*", "--defer", "T12/e,T12\\e"]
        assert run(capsys, *argv) == (
            0,
            "induced-one-of-two\n"
            "note: dual-orientation check performed explicitly\n"
            "bad rows for separation 1: 12\n"
            "bad rows for separation 2: 12\n",
            "",
        )

    def test_verify_single_claim(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--claim", "f7star.extension-class-count"
        )
        assert code == 0
        assert "pass" in out

    def test_verify_discrepancy_exit_codes(self, capsys):
        code, _, _ = run(capsys, "verify-paper", "--claim", "f7star.s8-generators")
        assert code == 0  # discrepancies alone do not fail the run
        code, _, _ = run(
            capsys, "verify-paper", "--strict", "--claim", "f7star.s8-generators"
        )
        assert code == 1  # unless strict mode is requested

    def test_verify_json_flag(self, capsys):
        code, out, _ = run(
            capsys, "verify-paper", "--json", "--claim", "f7star.extension-class-count"
        )
        assert code == 0
        import json

        payload = json.loads(out)
        assert payload["summary"]["pass"] == 1

    def test_verify_paper_json_does_not_depend_on_the_hash_seed(self):
        # A run iterates dicts and sets (growth-class orbits among them), so
        # two fresh interpreters under different PYTHONHASHSEED values must
        # print the same bytes.  Both import the package under test.
        src = str(Path(binmat.__file__).resolve().parent.parent)
        code = "import sys; from binmat.cli import main; sys.exit(main(['verify-paper', '--json']))"
        outs = []
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outs.append(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True).stdout)
        assert outs[0] == outs[1]
        assert b'"pass": 103' in outs[0]


E4_DECOMPOSER = ["decomposer", "E4", "--sep", "1,2,5,6,7,10", "--k", "3"]


class TestErrorHandling:
    def test_unknown_catalog_name_exits_2(self, capsys):
        code, _, err = run(capsys, "cat", "U24")
        assert code == 2
        assert err

    def test_unknown_claim_id_exits_2(self, capsys):
        code, _, err = run(capsys, "verify-paper", "--claim", "nope")
        assert code == 2
        assert err == "binmat: unknown claim ids: ['nope']\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["splitter", "S10", "--exclude", ","],
            [*E4_DECOMPOSER, "--exclude", ","],
            [*E4_DECOMPOSER, "--exclude", ""],
            [*E4_DECOMPOSER, "--exclude", "S10", "--defer", ","],
            ["exts", "S8", "--exclude", ""],
        ],
    )
    def test_empty_matroid_family_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("binmat: no matroid named in ")

    @pytest.mark.parametrize(
        "seps, message",
        [
            (["--sep", "1,2"], "both sides must have at least 3 elements"),
            (["--sep", "1,2,5,6,7,99"], "unknown element label 99"),
            (["--sep", "1,2,5,6,7,10", "--sep2", "1,2"], "both sides must have at least 3 elements"),
            (["--sep", "1,2,5,6,7,10", "--sep2", ""], "both sides must have at least 3 elements"),
            (["--sep", "1,2,5,6,7,10", "--sep2", ","], "both sides must have at least 3 elements"),
        ],
    )
    def test_bad_separation_exits_2(self, capsys, seps, message):
        argv = ["decomposer", "E4", *seps, "--k", "3", "--exclude", "S10,S10*"]
        assert run(capsys, *argv) == (2, "", f"binmat: {message}\n")

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_separation_order_below_1_exits_2(self, capsys, k):
        # Rejected before lambda is computed, with a message naming k.
        argv = ["decomposer", "F7", "--sep", "1,2,3", "--k", k, "--exclude", "F7*"]
        assert run(capsys, *argv) == (2, "", f"binmat: separation order k must be at least 1, not {k}\n")

    def test_malformed_bmx_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.bmx"
        path.write_text("not a matrix\n")
        code, _, err = run(capsys, "lambda", str(path), "1,2")
        assert code == 2

    def test_bad_bmx_row_exits_2_naming_the_row(self, capsys, tmp_path):
        path = tmp_path / "bad_row.bmx"
        path.write_text("bmx 1\n2 3\n101\n121\n")
        code, out, err = run(capsys, "lambda", str(path), "1,2")
        assert (code, out) == (2, "")
        assert err == "binmat: bmx: bad row '121': entries must be 0 or 1\n"

    def test_non_ascii_bmx_file_exits_2_naming_the_file(self, capsys, tmp_path):
        path = tmp_path / "arabic_digit.bmx"
        path.write_text("bmx 1\n2 3\n101\n1\u06611\n", encoding="utf-8")
        code, out, err = run(capsys, "lambda", str(path), "1,2")
        assert (code, out) == (2, "")
        assert err == f"binmat: bmx: {path}: byte 0xd9 at offset 15 is not ASCII\n"

    def test_bmx_file_of_only_comments_exits_2(self, capsys, tmp_path):
        path = tmp_path / "comments.bmx"
        path.write_text("bmx 1\n# no matrix follows\n\n")
        assert run(capsys, "lambda", str(path), "1") == (2, "", "binmat: bmx: missing dimension line\n")

    def test_negative_dimension_exits_2(self, capsys, tmp_path):
        path = tmp_path / "negative.bmx"
        path.write_text("bmx 1\n-1 3\n")
        assert run(capsys, "lambda", str(path), "1") == (2, "", "binmat: bmx: bad dimension line '-1 3'\n")

    def test_unknown_lambda_label_exits_2(self, capsys):
        assert run(capsys, "lambda", "S8", "1,99") == (2, "", "binmat: unknown element label 99\n")

    def test_coextensions_of_non_cosimple_input_exit_2(self, capsys, tmp_path):
        path = tmp_path / "coloop.bmx"
        path.write_text("bmx 1\n2 3\n100\n011\n")
        message = "binmat: coextension candidates require a cosimple matroid\n"
        assert run(capsys, "exts", str(path), "--co") == (2, "", message)

    def test_bad_set_argument_exits_2(self, capsys):
        message = "binmat: bad element set '1,x'; expected comma-separated labels\n"
        assert run(capsys, "lambda", "S8", "1,x") == (2, "", message)

    # int() would read the first three as {1, 2}, 1 and 20.
    @pytest.mark.parametrize("text", ["١,٢", "+1", "2_0", " 1", "1,-2"])
    def test_set_labels_are_ascii_decimal_digits(self, capsys, text):
        message = f"binmat: bad element set {text!r}; expected comma-separated labels\n"
        assert run(capsys, "lambda", "S8", text) == (2, "", message)

    def test_empty_set_tokens_are_skipped(self, capsys):
        assert _parse_set("1,,2,") == {1, 2}
        assert _parse_set("") == _parse_set(",") == frozenset()
        assert run(capsys, "lambda", "S8", "") == (0, "0\n", "")

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lambda"])
        assert exc.value.code == 2
