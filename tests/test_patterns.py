"""Sign pattern parsing, families, and the irreducibility the paper claims for them."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refined_inertia.patterns import (
    PatternParseError,
    Sign,
    SignPattern,
    _family_signs,
    family_pattern,
    parse_pattern,
    sgn_of_matrix,
)

P, M, Z = Sign.PLUS, Sign.MINUS, Sign.ZERO


def rows_of(text):
    return parse_pattern(text)


# -- parsing -----------------------------------------------------------------


def test_parse_basic():
    pattern = parse_pattern("+ +\n- 0")
    assert pattern.rows == ((P, P), (M, Z))


def test_parse_empty_is_error():
    with pytest.raises(PatternParseError, match="empty"):
        parse_pattern("")


def test_parse_reports_row_and_column():
    with pytest.raises(PatternParseError, match="row 2, column 3"):
        parse_pattern("+ + +\n+ + x\n+ + +")


def test_parse_rejects_non_square():
    with pytest.raises(PatternParseError, match="square"):
        parse_pattern("+ +\n- 0\n0 0")
    with pytest.raises(PatternParseError, match="row 2"):
        parse_pattern("+ +\n- 0 +")


def test_parse_tolerates_extra_whitespace():
    assert parse_pattern("  +   +  \n\n -  0 \n") == parse_pattern("+ +\n- 0")


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.randoms(use_true_random=False))
def test_render_parse_roundtrip(n, rng):
    tokens = [[rng.choice("+-0") for _ in range(n)] for _ in range(n)]
    # noisy but legal text: random extra spaces
    text = "\n".join(" " * rng.randint(0, 2) + ("  ".join(row)) for row in tokens)
    normalized = "\n".join(" ".join(row) for row in tokens)
    assert parse_pattern(text).render() == normalized


# -- the three families -------------------------------------------------------


def test_family_1_order_4_display():
    expected = rows_of("+ + + +\n- 0 0 0\n- 0 - 0\n- 0 0 -")
    assert family_pattern(1, 4) == expected


def test_family_3_order_5_display():
    got = family_pattern(3, 5)
    assert [row[0] for row in got.rows] == [M, P, P, P, M]
    assert list(got.rows[0]) == [M, P, P, P, P]
    assert [got.rows[k][k] for k in range(5)] == [M, Z, M, M, P]
    nonzero = {(r, c) for r in range(5) for c in range(5) if got.rows[r][c] != Z}
    expected_support = {(0, c) for c in range(5)} | {(r, 0) for r in range(5)} | {(2, 2), (3, 3), (4, 4)}
    assert nonzero == expected_support


def test_family_2_order_4_display():
    expected = rows_of("- + + +\n- 0 0 0\n+ 0 - 0\n+ 0 0 -")
    assert family_pattern(2, 4) == expected


def test_family_rejects_small_orders():
    with pytest.raises(ValueError):
        family_pattern(1, 3)
    with pytest.raises(ValueError):
        family_pattern(4, 5)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_family_signs_are_the_head_column_and_diagonal(i):
    # The lemma path reads these O(n) signs in place of the n x n pattern.
    for n in range(4, 13):
        rows = family_pattern(i, n).rows
        column, diagonal = [rows[k][0] for k in range(1, n)], [rows[k][k] for k in range(2, n)]
        assert _family_signs(i, n) == (rows[0][0], column, diagonal)
    for bad in ((4, 5), (i, 3)):
        with pytest.raises(ValueError):
            _family_signs(*bad)


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("n", range(4, 13))
def test_family_entry_census(i, n):
    pattern = family_pattern(i, n)
    off_diag = sum(
        1
        for r in range(n)
        for c in range(n)
        if r != c and pattern.rows[r][c] != Z
    )
    assert off_diag == 2 * (n - 1)
    # nonzero off-diagonals only in the first row and column
    for r in range(1, n):
        for c in range(1, n):
            if r != c:
                assert pattern.rows[r][c] == Z
    diag = [pattern.rows[k][k] for k in range(n)]
    assert diag[1] == Z
    assert all(s == M for s in diag[2 : n - 1])
    assert diag[n - 1] == (P if i == 3 else M)


# -- irreducibility ------------------------------------------------------------


def closure_irreducible(pattern):
    """Brute-force oracle: boolean transitive closure, all pairs reachable."""
    n = pattern.n
    reach = [[pattern.rows[r][c] != Z or r == c for c in range(n)] for r in range(n)]
    for k in range(n):
        for r in range(n):
            if reach[r][k]:
                for c in range(n):
                    if reach[k][c]:
                        reach[r][c] = True
    return all(all(row) for row in reach)


@pytest.mark.parametrize("i", [1, 2, 3])
@pytest.mark.parametrize("n", range(4, 13))
def test_families_irreducible(i, n):
    assert closure_irreducible(family_pattern(i, n))


def test_diagonal_pattern_reducible():
    # Negative control for the oracle: no arc joins the two vertices.
    assert not closure_irreducible(rows_of("+ 0\n0 +"))


# -- the pattern type ------------------------------------------------------------


def test_sign_pattern_reads_sign_values():
    pattern = SignPattern([[1, -1], [0, True]])
    assert pattern.rows == ((P, M), (Z, P))
    assert all(type(s) is Sign for row in pattern.rows for s in row)


@pytest.mark.parametrize("entry", [2, "+", None, [1]], ids=repr)
def test_sign_pattern_rejects_non_sign_entries(entry):
    # The same ValueError Sign itself raises for the entry.
    with pytest.raises(ValueError) as raised:
        SignPattern([[P, entry], [Z, M]])
    with pytest.raises(ValueError) as direct:
        Sign(entry)
    assert str(raised.value) == str(direct.value)


# -- sgn of matrix ---------------------------------------------------------------


def test_sgn_of_matrix_basic():
    assert sgn_of_matrix([[1.5, -2], [0, 3]]) == rows_of("+ -\n0 +")


def test_sgn_of_zero_matrix():
    assert sgn_of_matrix([[0, 0], [0, 0]]) == rows_of("0 0\n0 0")
