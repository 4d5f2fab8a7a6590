"""Unit and property tests for the GF(2) vector/matrix layer."""

import random

import pytest
from hypothesis import given, strategies as st

from binmat.gf2 import (
    BitMatrix,
    BitVector,
    RankDeficientError,
    cycle_space_masks,
    rank_of_columns,
    reduce_rows,
    span,
    standard_form,
    transpose,
)

from conftest import oracle_columns, oracle_cycle_masks, random_matroids, span_size


def small_matrices():
    return st.integers(1, 5).flatmap(
        lambda r: st.integers(1, 8).flatmap(
            lambda n: st.lists(
                st.integers(0, (1 << n) - 1), min_size=r, max_size=r
            ).map(lambda rows: BitMatrix(r, n, tuple(rows)))
        )
    )


def _null_space(m: BitMatrix) -> set[int]:
    """Every v with m v = 0, by a loop over all 2^n vectors (oracle)."""
    return {v for v in range(1 << m.ncols) if all((row & v).bit_count() % 2 == 0 for row in m.rows)}


class TestBitVector:
    def test_parse_and_str_round_trip(self):
        v = BitVector.parse("[1110]")
        assert str(v) == "[1110]"
        assert v.length == 4
        assert v.bits == 0b0111

    def test_parse_accepts_bare_bits_and_spaces(self):
        assert BitVector.parse("0 1 1") == BitVector(3, 0b110)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            BitVector.parse("[12]")
        with pytest.raises(ValueError):
            BitVector.parse("")

    def test_value_reads_coordinates_as_binary_digits(self):
        # [1110] reads as the binary number 1110.
        assert BitVector.parse("1110").value == 0b1110
        assert BitVector.parse("0001").value == 0b0001

    def test_bits_outside_length_rejected(self):
        with pytest.raises(ValueError):
            BitVector(2, 4)

    @given(st.text("01", min_size=1, max_size=12))
    def test_random_bit_strings_round_trip(self, text):
        # Character i of the text is bracket coordinate i + 1, bit i.
        v = BitVector.parse(text)
        assert str(v) == f"[{text}]"
        assert v.length == len(text)
        assert v.bits.bit_count() == text.count("1")
        assert [(v.bits >> i) & 1 for i in range(v.length)] == [int(c) for c in text]


class TestBitMatrix:
    @pytest.mark.parametrize(
        "nrows, ncols, rows, message",
        [
            (2, 3, (0b101,), "inconsistent dimensions"),
            (1, -1, (0,), "inconsistent dimensions"),
            (2, 3, (0b101, 0b1000), "row has bits beyond declared width"),
        ],
    )
    def test_constructor_rejects_bad_shapes(self, nrows, ncols, rows, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BitMatrix(nrows, ncols, rows)

    def test_from_rows_strings(self):
        m = BitMatrix.from_rows(["101", "011"])
        assert (m.nrows, m.ncols) == (2, 3)
        # Character j of a row string is bit j-1 of the packed row.
        assert m.rows == (0b101, 0b110)

    def test_from_rows_of_no_rows_is_the_empty_matrix(self):
        assert BitMatrix.from_rows([]) == BitMatrix(0, 0, ())

    @pytest.mark.parametrize("row", ["1\u06610", "120", "10"])
    def test_from_rows_rejects_bad_string_rows(self, row):
        # Only the characters 0 and 1, even where int() reads a digit
        # such as the Arabic-Indic one as 1; and every row is ncols long.
        with pytest.raises(ValueError, match=f"bad row {row!r}"):
            BitMatrix.from_rows(["101", row], ncols=3)

    def test_columns_and_transpose_agree(self):
        # Column j packs the rows' bit j, row i in bit i.
        m = BitMatrix.from_rows(["1101", "0110"])
        assert transpose(m.rows, m.ncols) == [0b01, 0b11, 0b10, 0b01]

    def test_transpose_matches_the_entry_oracle(self):
        # Entry (i, j) is bit j of row i, on row sets with zero rows and
        # widths past every row's highest bit.
        rng = random.Random(36)
        cases = [([], 0), ([], 3), ([0, 0], 4), ([0b1], 1)]
        for _ in range(60):
            width = rng.randint(1, 12)
            rows = [rng.choice([0, rng.randrange(1 << width)]) for _ in range(rng.randint(1, 8))]
            cases.append((rows, width + rng.randint(0, 3)))
        assert any(0 in rows for rows, _ in cases)
        assert any(ncols > max(rows, default=0).bit_length() for rows, ncols in cases)
        for rows, ncols in cases:
            assert transpose(rows, ncols) == oracle_columns(rows, ncols), (rows, ncols)

    @given(small_matrices())
    def test_rank_matches_span_oracle(self, m):
        # rank = log2 |row span| = log2 |column span|.
        cols = oracle_columns(m.rows, m.ncols)
        assert 1 << rank_of_columns(cols) == span_size(m.rows)
        assert 1 << rank_of_columns(cols) == span_size(cols)

    @given(small_matrices(), st.randoms(use_true_random=False))
    def test_rank_invariant_under_row_operations(self, m, rng):
        rows = list(m.rows)
        for _ in range(6):
            i, j = rng.randrange(m.nrows), rng.randrange(m.nrows)
            if i != j:
                rows[i] ^= rows[j]
        assert rank_of_columns(oracle_columns(rows, m.ncols)) == rank_of_columns(oracle_columns(m.rows, m.ncols))

    @given(small_matrices())
    def test_rank_subset_matches_column_oracle(self, m):
        cols = oracle_columns(m.rows, m.ncols)[::2]
        expected = span_size(cols).bit_length() - 1
        assert rank_of_columns(cols) == expected

    def test_rank_of_columns(self):
        assert rank_of_columns([0b01, 0b10, 0b11]) == 2
        assert rank_of_columns([]) == 0


class TestStandardForm:
    def test_identity_prefix_and_column_permutation(self):
        m = BitMatrix.from_rows(["0111", "1011", "1101"])
        sf, order = standard_form(m)
        assert sorted(order) == [0, 1, 2, 3]
        cols = oracle_columns(sf.rows, sf.ncols)
        assert cols[:3] == [0b001, 0b010, 0b100]
        # The permuted columns present the same multiset of vectors only
        # up to the row operations; rank and column count are preserved.
        assert (sf.nrows, sf.ncols) == (m.nrows, m.ncols)
        assert rank_of_columns(cols) == rank_of_columns(oracle_columns(m.rows, m.ncols))

    def test_standard_form_preserves_cycle_space(self):
        # Row operations keep the null space; column moves permute it.
        m = BitMatrix.from_rows(["0111", "1011", "1101"])
        sf, order = standard_form(m)
        before = _null_space(m)
        after = _null_space(sf)

        def permute(mask):
            out = 0
            for p, orig in enumerate(order):
                out |= ((mask >> orig) & 1) << p
            return out

        assert {permute(mk) for mk in before} == after

    def test_rank_deficient_rejected(self):
        m = BitMatrix.from_rows(["110", "110"])
        with pytest.raises(RankDeficientError):
            standard_form(m)


class TestCycleSpace:
    @given(small_matrices())
    def test_basis_spans_the_null_space(self, m):
        masks = cycle_space_masks(m)
        for v in masks:
            # m v = 0: every row meets v in an even number of positions.
            assert all((row & v).bit_count() % 2 == 0 for row in m.rows)
        # 2^(n - rank) distinct null-space vectors are all of them.
        assert len(set(masks)) == len(masks) == 1 << (m.ncols - rank_of_columns(oracle_columns(m.rows, m.ncols)))

    def test_masks_match_the_fundamental_circuit_oracle(self):
        # On [I_r | D] the first-come basis is the identity block, so both
        # list the closure of the same fundamental circuits in one order.
        cases = random_matroids(seed=34, count=40, max_size=12)
        assert {m.rank == 0 for m in cases} == {True, False} and any(m.rank == m.size for m in cases)
        for m in cases:
            expected = oracle_cycle_masks(m)
            assert cycle_space_masks(m.matrix) == expected, (m.matrix.rows, m.size)
            assert m.cycle_masks() == expected, (m.matrix.rows, m.size)

    @given(st.lists(st.integers(0, 255), max_size=6))
    def test_span_of_independent_vectors(self, vectors):
        rows = list(vectors)
        kept = rows[: len(reduce_rows(rows, range(8)))]
        assert not any(rows[len(kept) :])
        out = span(kept)
        assert out[0] == 0
        assert len(out) == len(set(out)) == 1 << len(kept) == span_size(vectors)

    def test_known_cycle_space(self):
        # [I2 | 11^T]: single dependency 1+2+3 = 0.
        m = BitMatrix.from_rows(["101", "011"])
        masks = set(cycle_space_masks(m))
        assert masks == {0, 0b111}
