"""Engine tests: characteristic polynomials, exact and numeric refined inertias.

The char-poly oracle here is a cofactor expansion over polynomial entries,
computed independently of the Berkowitz route under test; numeric
expectations come from numpy eigenvalues on fixtures whose spectra are far
from the axes.
"""

import json
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refined_inertia import engine
from refined_inertia.analysis import hn_set
from refined_inertia.engine import (
    InternalCheckError,
    RefinedInertia,
    arrow_shift_det,
    char_poly,
    count_eigen_re_leq,
    det_rational,
    refined_inertia_exact,
    refined_inertia_numeric,
)
from refined_inertia.ratpoly import RationalPoly
from refined_inertia.realization import (
    ArrowMatrix,
    RealizationConfig,
    arrow_char_poly,
    sample_realization,
    to_arrow_form,
)
from refined_inertia.patterns import family_pattern

from polys import add, evaluate, from_roots, mul, neg, power

positive_rationals = st.fractions(min_value=Fraction(1, 7), max_value=50, max_denominator=7)
nonzero_rationals = st.builds(
    lambda r, negative: -r if negative else r, positive_rationals, st.booleans()
)


# Factors whose roots are known by construction: each item is (kind, data)
# for _with_known_roots.
known_root_factors = st.lists(
    st.one_of(
        nonzero_rationals.map(lambda r: ("real", r)),
        st.integers(min_value=1, max_value=3).map(lambda k: ("zero", k)),
        st.tuples(positive_rationals, st.integers(min_value=1, max_value=3)).map(lambda cm: ("axis", cm)),
        st.tuples(nonzero_rationals, positive_rationals).map(lambda ab: ("complex", ab)),
        st.tuples(positive_rationals, st.integers(min_value=1, max_value=2)).map(
            lambda cm: ("plus_minus", cm)
        ),
        st.tuples(positive_rationals, positive_rationals, st.integers(min_value=1, max_value=2)).map(
            lambda abm: ("opposite_quadruple", abm)
        ),
    ),
    min_size=1,
    max_size=5,
)


def _with_known_roots(factors, lead):
    """(p, counts): lead times the product of the factors, and its refined inertia as a 4-tuple.

    Each factor's roots are known by construction, so the counts do not
    depend on the engine under test.  Repeated axis, plus_minus and
    opposite_quadruple factors leave roots in every level of the tail's
    gcd chain, not all of them on the axis.
    """
    p = RationalPoly((lead,))
    counts = [0, 0, 0, 0]  # n_plus, n_minus, n_zero, two_n_p
    for kind, data in factors:
        if kind == "real":  # x - r
            p = mul(p, RationalPoly((-data, 1)))
            counts[0 if data > 0 else 1] += 1
        elif kind == "zero":  # x^k
            p = mul(p, RationalPoly((0,) * data + (1,)))
            counts[2] += data
        elif kind == "axis":  # (x^2 + c)^m: roots +-i*sqrt(c), m times
            c, m = data
            p = mul(p, power(RationalPoly((c, 0, 1)), m))
            counts[3] += 2 * m
        elif kind == "complex":  # x^2 - 2*alpha*x + alpha^2 + beta^2: alpha +- i*beta
            alpha, beta = data
            p = mul(p, RationalPoly((alpha**2 + beta**2, -2 * alpha, 1)))
            counts[0 if alpha > 0 else 1] += 2
        elif kind == "opposite_quadruple":  # roots +-alpha +- i*beta, m times
            # gcd(Re, Im) of q(i*w) keeps this factor's image, which has
            # no real roots: a nonconstant chain tail with no axis pair
            alpha, beta, m = data
            norm = alpha**2 + beta**2
            quadruple = mul(RationalPoly((norm, -2 * alpha, 1)), RationalPoly((norm, 2 * alpha, 1)))
            p = mul(p, power(quadruple, m))
            counts[0] += 2 * m
            counts[1] += 2 * m
        else:  # (x^2 - c)^m: roots +-sqrt(c), m times
            c, m = data
            p = mul(p, power(RationalPoly((-c, 0, 1)), m))
            counts[0] += m
            counts[1] += m
    return p, tuple(counts)


def cofactor_char_poly(matrix):
    """Independent oracle: det(xI - B) by cofactor expansion over poly entries."""
    n = len(matrix)
    entries = [
        [
            RationalPoly(((-Fraction(matrix[r][c]), Fraction(1)) if r == c else (-Fraction(matrix[r][c]),)))
            for c in range(n)
        ]
        for r in range(n)
    ]

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = RationalPoly()
        for c, top in enumerate(rows[0]):
            if top.is_zero:
                continue
            minor = [row[:c] + row[c + 1 :] for row in rows[1:]]
            term = mul(top, det(minor))
            total = add(total, term if c % 2 == 0 else neg(term))
        return total

    return det(entries)


def test_char_poly_identity_2x2():
    assert char_poly([[1, 0], [0, 1]]) == RationalPoly((1, -2, 1))


def test_char_poly_monic_and_degree():
    p = char_poly([[Fraction(1, 2), 3], [4, Fraction(-5, 7)]])
    assert p.degree == 2 and p.num[-1] == p.den


def test_char_poly_rejects_floats_and_nonsquare():
    with pytest.raises(TypeError):
        char_poly([[0.5, 1], [1, 1]])
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


def test_char_poly_against_cofactor_oracle():
    rng = random.Random(501)
    for _ in range(200):
        M = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
            for _ in range(5)
        ]
        assert char_poly(M) == cofactor_char_poly(M)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_kernel_against_cofactor_oracle_at_small_orders(n):
    # Orders 1..3 hold the Berkowitz loop's boundary cases: no Krylov
    # product, one product left out, and the first product that is kept.
    rng = random.Random(600 + n)
    for _ in range(60):
        A = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
        common = rng.randint(1, 5)
        M = [[Fraction(x, common) for x in row] for row in A]
        assert engine._integer_char_poly(A, common) == cofactor_char_poly(M)


def test_integer_kernel_on_arrowheads_with_zero_entries():
    arrows = [
        [[0, 1, 0, 2, -1], [3, -2, 0, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 4, 0], [-2, 0, 0, 0, 1]],
        [[3, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [5, 0, 0, 0]],
        [[0] * 4 for _ in range(4)],
    ]
    for A in arrows:
        for common in (1, 6):
            M = [[Fraction(x, common) for x in row] for row in A]
            assert engine._integer_char_poly(A, common) == cofactor_char_poly(M)


def _border_steps(A):
    """Bordering steps k >= 1 whose border column, and whose border row, is zero."""
    n = len(A)
    zero_col = {k for k in range(1, n) if not any(A[i][k] for i in range(k))}
    zero_row = {k for k in range(1, n) if not any(A[k][:k])}
    return zero_col, zero_row


def _kernel_matches_oracle(A, common):
    M = [[Fraction(x, common) for x in row] for row in A]
    return engine._integer_char_poly(A, common) == cofactor_char_poly(M)


@pytest.mark.parametrize("n", range(3, 8))
def test_integer_kernel_on_hub_last_arrowheads(n):
    # Rows and columns reversed put the dense hub last, as the lemma checks
    # do: every step before the hub's borders a diagonal block by a zero
    # column, so only the last step forms Krylov products.
    rng = random.Random(700 + n)
    for _ in range(20):
        a = [rng.randint(-6, 6)] + [rng.choice((-5, -2, 1, 4)) for _ in range(n - 1)]
        hub = [rng.choice((-3, -1, 1, 2)) for _ in range(n - 1)]
        diagonal = [rng.randint(-5, 5) for _ in range(n - 2)]
        arrow = [[a[0], *hub]] + [[a[k]] + [0] * (n - 1) for k in range(1, n)]
        for k, d in enumerate(diagonal, start=2):
            arrow[k][k] = d
        A = [row[::-1] for row in reversed(arrow)]
        zero_col, _ = _border_steps(A)
        assert zero_col >= set(range(1, n - 1)) and n - 1 not in zero_col
        for common in (1, 4):
            assert _kernel_matches_oracle(A, common)
            assert engine._integer_char_poly(A, common) == engine._integer_char_poly(arrow, common)


@pytest.mark.parametrize("lower", [True, False], ids=["block-lower", "block-upper"])
def test_integer_kernel_on_block_triangular_matrices(lower):
    # A block lower-triangular matrix has a zero border column where its
    # second diagonal block starts, with a nonzero row beside it; a block
    # upper-triangular one has the zero row alone.
    rng = random.Random(710 + lower)
    for n in range(2, 7):
        for split in range(1, n):
            A = [[rng.choice((-4, -2, -1, 1, 3, 5)) for _ in range(n)] for _ in range(n)]
            for i in range(split):
                for j in range(split, n):
                    if lower:
                        A[i][j] = 0
                    else:
                        A[j][i] = 0
            zero_col, zero_row = _border_steps(A)
            assert (split in zero_col, split in zero_row) == (lower, not lower)
            for common in (1, 3):
                assert _kernel_matches_oracle(A, common)


@pytest.mark.parametrize("n", range(1, 6))
def test_integer_kernel_on_the_zero_matrix(n):
    A = [[0] * n for _ in range(n)]
    assert engine._integer_char_poly(A, 5) == RationalPoly([0] * n + [1])
    assert _kernel_matches_oracle(A, 5)


@pytest.mark.parametrize("entry", [-7, 0, 3])
def test_integer_kernel_at_order_1(entry):
    assert engine._integer_char_poly([[entry]], 2) == RationalPoly((Fraction(-entry, 2), 1))
    assert _kernel_matches_oracle([[entry]], 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_integer_kernel_is_permutation_invariant(n):
    # P A P^T is similar to A, and a sparse A puts zero border columns or
    # rows in different steps under different orders.
    rng = random.Random(720 + n)
    for _ in range(25):
        A = [[rng.choice((0, 0, 0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
        common = rng.randint(1, 4)
        perm = rng.sample(range(n), n)
        permuted = [[A[p][q] for q in perm] for p in perm]
        assert engine._integer_char_poly(permuted, common) == engine._integer_char_poly(A, common)


@pytest.mark.parametrize("n", range(2, 7))
def test_integer_kernel_on_diagonal_leading_blocks(n):
    # While the leading block is diagonal, a dense border's Krylov entries
    # are power sums over its diagonal, here with zero and repeated
    # entries.  Each matrix keeps its leading block diagonal up to a split;
    # in half of them the split's border is zero on its column side only,
    # so its row ends the diagonal block there and the next dense border
    # must form Krylov products.
    rng = random.Random(730 + n)
    for split in range(1, n):
        for one_sided in (False, True):
            for _ in range(4):
                A = [[rng.choice((0, rng.randint(-6, 6))) for _ in range(n)] for _ in range(n)]
                for i in range(split):
                    A[i][:split] = [0] * split
                    A[i][i] = rng.choice((0, 2, 2, -3))
                if one_sided:
                    for i in range(split):
                        A[i][split] = 0
                    A[split][0] = rng.choice((-2, 1, 3))
                for common in (1, 3):
                    assert _kernel_matches_oracle(A, common)


def test_char_poly_constant_term_is_det_of_negated_matrix():
    arrow = ArrowMatrix([1, 1, 1, 1], [1, 2])
    M = arrow.to_matrix()
    p = char_poly(M)
    assert Fraction(p.num[0], p.den) == det_rational([[-x for x in row] for row in M])
    assert Fraction(p.num[0], p.den) == det_rational(M)  # even order


def test_det_sign_parity_on_family_member():
    # class member of family 1 at order 4: det must be positive
    arrow = ArrowMatrix([Fraction(2, 3), -2, -1, -7], [Fraction(3, 2), Fraction(11, 3)])
    assert det_rational(arrow.to_matrix()) > 0


def test_det_rational_against_cofactor():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        M = [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
        assert det_rational(M) == evaluate(cofactor_char_poly(M), 0) * (-1) ** n


class TestRefinedInertia:
    @pytest.mark.parametrize("counts", [(-1, 3, 0, 0), (0, 2, -1, 2), (1, 1, 0, -2)])
    def test_negative_count_rejected(self, counts):
        with pytest.raises(ValueError, match="nonnegative"):
            RefinedInertia(*counts)

    @pytest.mark.parametrize("two_n_p", [1, 3])
    def test_odd_two_n_p_rejected(self, two_n_p):
        with pytest.raises(ValueError, match="conjugate pairs"):
            RefinedInertia(0, 1, 0, two_n_p)
        with pytest.raises(ValueError, match="conjugate pairs"):
            RefinedInertia(n_plus=0, n_minus=1, n_zero=0, two_n_p=two_n_p)

    def test_is_its_4_tuple(self):
        ri = RefinedInertia(0, 4, 0, 0)
        assert isinstance(ri, tuple)
        assert ri == (0, 4, 0, 0) and (0, 4, 0, 0) == ri
        assert hash(ri) == hash((0, 4, 0, 0))
        assert (0, 4, 0, 0) in {ri} and ri in {(0, 4, 0, 0)}
        assert str(ri) == "(0, 4, 0, 0)"
        assert ri._asdict() == {"n_plus": 0, "n_minus": 4, "n_zero": 0, "two_n_p": 0}

    @pytest.mark.parametrize("n", [4, 7, 10])
    def test_plain_counts_are_in_hn_set(self, n):
        # The falsifier looks _inertia_counts' plain tuples up in hn_set(n).
        targets = [
            from_roots([-1] * n),
            mul(RationalPoly((1, 0, 1)), from_roots([-1] * (n - 2))),
            mul(from_roots([2, 3]), from_roots([-1] * (n - 2))),
        ]
        for p in targets:
            counts = engine._inertia_counts(p.num)
            assert type(counts) is tuple
            assert counts in hn_set(n)
        assert engine._inertia_counts(from_roots([1] * n).num) not in hn_set(n)

    def test_pickle_round_trip(self):
        ri = RefinedInertia(2, 5, 1, 4)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(ri, protocol))
            assert type(back) is RefinedInertia
            assert back == ri and back.two_n_p == 4


class TestExactInertia:
    def test_pure_imaginary_pair(self):
        assert refined_inertia_exact(RationalPoly((1, 0, 1))) == RefinedInertia(0, 0, 0, 2)

    def test_known_real_roots(self):
        p = from_roots([-1, -2, 3])
        assert refined_inertia_exact(p) == RefinedInertia(1, 2, 0, 0)

    def test_mixed_with_multiplicity(self):
        # x(x^2 + 4)(x + 5)^2: roots 0, +-2i, -5, -5
        p = mul(RationalPoly((0, 1)), RationalPoly((4, 0, 1)), from_roots([-5, -5]))
        got = refined_inertia_exact(p)
        assert got == RefinedInertia(0, 2, 1, 2)
        # brute-force numeric rooting oracle on the same polynomial
        roots = np.roots([float(c) for c in reversed(p.coeffs)])
        want = (
            sum(1 for z in roots if abs(z) > 1e-9 and abs(z.real) > 1e-9 and z.real > 0),
            sum(1 for z in roots if abs(z) > 1e-9 and abs(z.real) > 1e-9 and z.real < 0),
            sum(1 for z in roots if abs(z) <= 1e-9),
            sum(1 for z in roots if abs(z) > 1e-9 and abs(z.real) <= 1e-9),
        )
        assert got.as_tuple() == want

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            refined_inertia_exact(RationalPoly())

    def test_internal_check_message_carries_polynomial(self, monkeypatch):
        p = mul(from_roots([-1, -2, 3]), RationalPoly((Fraction(5, 3),)))
        # an index of 0 against an odd axis-free degree forces the parity check
        monkeypatch.setattr(engine, "cauchy_index_line", lambda *args: (0, [1]))
        with pytest.raises(InternalCheckError, match="impossible parity") as info:
            refined_inertia_exact(p)
        # p itself, in its canonical num / den, not a normalized copy
        assert self._reported_polynomial(info) == p

    def test_index_beyond_axis_free_degree(self, monkeypatch):
        p = from_roots([-1, -2, 3])
        # an index of 5 has the parity of m = 3 but no split of 3 roots gives it
        monkeypatch.setattr(engine, "cauchy_index_line", lambda *args: (5, [1]))
        with pytest.raises(InternalCheckError, match="exceeds the axis-free degree 3") as info:
            refined_inertia_exact(p)
        assert self._reported_polynomial(info) == p

    @staticmethod
    def _reported_polynomial(info):
        message = str(info.value)
        assert "\n" not in message
        data = json.loads(message[message.index("{") :])
        return RationalPoly.from_ints(data["num"], data["den"])

    def test_non_monic_normalized(self):
        p = mul(from_roots([-1, -4]), RationalPoly((-3,)))
        assert refined_inertia_exact(p) == RefinedInertia(0, 2, 0, 0)

    def test_imaginary_pair_with_multiplicity(self):
        p = mul(power(RationalPoly((1, 0, 1)), 2), from_roots([7]))
        assert refined_inertia_exact(p) == RefinedInertia(1, 0, 0, 4)

    @pytest.mark.parametrize(
        "roots, factors, lead, expected",
        [
            # repeated imaginary pairs: +-2i three times
            ([-2, 3], [(4, 0, 1)] * 3, 1, (1, 1, 0, 6)),
            # zero roots beside an imaginary pair
            ([0, 0, 0, -1], [(1, 0, 1)], 1, (0, 1, 3, 2)),
            # complex pairs 1 +- 2i and -3 +- i
            ([5], [(5, -2, 1), (10, 6, 1)], 1, (3, 2, 0, 0)),
            # a negative leading coefficient
            ([1, -1, -2], [], -7, (1, 2, 0, 0)),
            # a non-integer denominator, with every kind of root at once
            (
                [0, Fraction(-1, 2), Fraction(4, 3)],
                [(Fraction(1, 4), 0, 1), (Fraction(1, 4), 0, 1), (Fraction(1, 2), -1, 1)],
                Fraction(-3, 7),
                (3, 1, 1, 4),
            ),
        ],
        ids=["imaginary-pairs", "zero-roots", "complex-pairs", "negative-lead", "denominator"],
    )
    def test_from_roots_spectra(self, roots, factors, lead, expected):
        p = mul(from_roots(roots), RationalPoly((lead,)))
        for factor in factors:
            p = mul(p, RationalPoly(factor))
        assert refined_inertia_exact(p).as_tuple() == expected

    def test_symmetric_irrational_quadruple(self):
        # x^4 - 2 has one positive, one negative, one imaginary pair
        assert refined_inertia_exact(RationalPoly((-2, 0, 0, 0, 1))) == RefinedInertia(1, 1, 0, 2)

    @settings(max_examples=150, deadline=None)
    @given(known_root_factors, nonzero_rationals)
    @example(factors=[("axis", (1, 3)), ("axis", (4, 2)), ("plus_minus", (2, 2))], lead=1)
    def test_known_root_multisets(self, factors, lead):
        p, counts = _with_known_roots(factors, lead)
        assert refined_inertia_exact(p).as_tuple() == counts

    @settings(max_examples=60, deadline=None)
    @given(known_root_factors, nonzero_rationals)
    @example(factors=[("zero", 2), ("axis", (3, 2)), ("opposite_quadruple", (1, 2, 2))], lead=1)
    @example(factors=[("zero", 1), ("axis", (1, 3)), ("opposite_quadruple", (2, 1, 1))], lead=-5)
    def test_integer_counts_ignore_the_scale(self, factors, lead):
        # The falsifier counts roots from integer coefficients it never
        # normalizes, so any nonzero multiple, of either sign and past 64
        # bits, must give refined_inertia_exact's counts.
        p, counts = _with_known_roots(factors, lead)
        assert refined_inertia_exact(p).as_tuple() == counts
        for c in (7, -1, 2**64 + 1):
            assert engine._inertia_counts([c * x for x in p.num]) == counts

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(min_value=2, max_value=6),
        st.randoms(use_true_random=False),
    )
    def test_components_sum_to_order(self, n, rng):
        M = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        inertia = refined_inertia_exact(char_poly(M))
        assert sum(inertia.as_tuple()) == n
        assert inertia.two_n_p % 2 == 0


class TestFloatReader:
    """_to_float_array converts in one numpy call, as float() did entry by entry."""

    MATRICES = {
        "ints-near-2**53": [[2**53 + 1, 2**53 - 1], [-(2**53 + 3), 2**53 + 5]],
        "ints-near-2**63": [[2**63 - 1, 2**63], [-(2**63) - 1, 2**63 + 1025]],
        "ints-near-2**1023": [[2**1023, 2**1024 - 2**970 - 1], [-(2**1023 + 1), 2**1024 - 2**971]],
        "fractions": [[Fraction(1, 3), Fraction(-(2**60) - 1, 7)], [Fraction(10**300, 3), Fraction(5)]],
        "floats": [[0.1, -0.0], [5e-324, -1.7976931348623157e308]],
        "bools-and-mixed": [[True, False], [Fraction(-2, 3), 7]],
    }

    @pytest.mark.parametrize("matrix", MATRICES.values(), ids=MATRICES.keys())
    def test_bit_equal_to_per_entry_float(self, matrix):
        per_entry = np.array([[float(x) for x in row] for row in matrix], dtype=float)
        got = engine._to_float_array(matrix)
        assert got.dtype == np.float64 and got.shape == per_entry.shape
        assert got.tobytes() == per_entry.tobytes()

    @pytest.mark.parametrize(
        "big", [10**400, Fraction(10**400, 3), -(2**1024)], ids=["int", "fraction", "-2**1024"]
    )
    def test_past_the_float_range_overflows(self, big):
        with pytest.raises(OverflowError):
            engine._to_float_array([[1, big], [0, 1]])

    @pytest.mark.parametrize(
        "matrix", [[], [[]], [[1, 2]], [[1, 2], [3]], [[1, 2], [3, 4], [5, 6]]],
        ids=["empty", "empty-row", "one-by-two", "ragged", "three-by-two"],
    )
    def test_not_square_raises_value_error(self, matrix):
        with pytest.raises(ValueError):
            refined_inertia_numeric(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [[[float("nan")]], [[None]], [[1, None], [0, 1]], [[float("inf"), 1], [float("nan"), 1]]],
        ids=["nan", "none", "none-off-diagonal", "nan-beside-inf"],
    )
    def test_not_a_number_raises_value_error(self, matrix):
        with pytest.raises(ValueError, match="an entry is not a number"):
            refined_inertia_numeric(matrix)

    @pytest.mark.parametrize(
        "matrix", [[[float("inf")]], [[1, -float("inf")], [0, 1]], [[1e308, -1e308], [0, 1]]],
        ids=["inf", "minus-inf", "row-sum"],
    )
    def test_infinite_entry_or_row_sum_overflows(self, matrix):
        with pytest.raises(OverflowError, match="a row sum of absolute values overflows"):
            refined_inertia_numeric(matrix)


class TestNumericInertia:
    def test_negative_diagonal(self):
        assert refined_inertia_numeric([[-1, 0, 0], [0, -2, 0], [0, 0, -3]]) == RefinedInertia(0, 3, 0, 0)

    def test_rotation_block(self):
        assert refined_inertia_numeric([[0, 1], [-1, 0]]) == RefinedInertia(0, 0, 0, 2)

    def test_zero_matrix(self):
        assert refined_inertia_numeric([[0, 0], [0, 0]]) == RefinedInertia(0, 0, 2, 0)

    def test_accepts_floats(self):
        assert refined_inertia_numeric([[-1.5, 0.0], [0.0, 2.5]]) == RefinedInertia(1, 1, 0, 0)

    def test_tolerance_validation(self):
        for eps in (0.0, -1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="axis_eps"):
                refined_inertia_numeric([[1, 0], [0, -1]], axis_eps=eps)
        loose = refined_inertia_numeric([[1e-3, 0], [0, -1]], axis_eps=1e-2)
        assert loose == RefinedInertia(0, 1, 1, 0)

    def test_agreement_with_exact_on_integer_matrices(self):
        rng = random.Random(606)
        agree = 0
        total = 400
        for _ in range(total):
            M = [[rng.randint(-9, 9) for _ in range(6)] for _ in range(6)]
            if refined_inertia_numeric(M) == refined_inertia_exact(char_poly(M)):
                agree += 1
        assert agree >= total - 1  # near-axis spectra are the only excuse


class TestCountEigenReLeq:
    def test_diagonal_example(self):
        M = [[-1, 0, 0], [0, -2, 0], [0, 0, -3]]
        assert count_eigen_re_leq(M, Fraction(3, 2)) == 2

    def test_threshold_beyond_spectral_radius(self):
        M = [[-1, 0, 0], [0, -2, 0], [0, 0, -3]]
        assert count_eigen_re_leq(M, 100) == 0
        assert count_eigen_re_leq(M, -100) == 3

    def test_eigenvalue_exactly_on_line_counts(self):
        M = [[-2, 0], [0, -5]]
        assert count_eigen_re_leq(M, 2) == 2

    def test_interlacing_on_family_members(self):
        # at least one real eigenvalue between consecutive -b values
        pattern = family_pattern(1, 7)
        checked = 0
        for seed in range(40):
            sample = sample_realization(pattern, RealizationConfig(seed=seed))
            arrow = to_arrow_form(sample)
            b = sorted(arrow.b, reverse=True)
            if len(set(b)) != len(b):
                continue
            M = arrow.to_matrix()
            n = arrow.n
            for j in range(1, n - 3):  # j <= n - 4
                assert count_eigen_re_leq(M, b[j]) - count_eigen_re_leq(M, b[j - 1]) >= 1
            checked += 1
        assert checked >= 30


class TestArrowShiftDet:
    @staticmethod
    def shift_det(arrow, j):
        return arrow_shift_det(arrow, j, char_poly(arrow.to_matrix()))

    def test_closed_form_example(self):
        arrow = ArrowMatrix([1, 1, 1, 1, 1], [3, 2, 1])
        assert self.shift_det(arrow, 1) == Fraction(-6)

    def test_zero_spoke_weight(self):
        arrow = ArrowMatrix([1, 1, 0, 1, 1], [3, 2, 1])
        assert self.shift_det(arrow, 1) == 0

    def test_repeated_b_rejected(self):
        arrow = ArrowMatrix([1, 1, 1, 1, 1], [2, 2, 5])
        with pytest.raises(ValueError):
            self.shift_det(arrow, 1)

    def test_mismatch_message_carries_arrow(self):
        arrow = ArrowMatrix([1, 1, 1, 1, 1], [3, 2, Fraction(1, 2)])
        perturbed = add(char_poly(arrow.to_matrix()), RationalPoly([Fraction(1, 3)]))
        with pytest.raises(InternalCheckError, match="mismatch") as info:
            arrow_shift_det(arrow, 1, perturbed)
        message = str(info.value)
        assert "\n" not in message
        data = json.loads(message[message.index("{") :])
        assert ArrowMatrix(map(Fraction, data["a"]), map(Fraction, data["b"])) == arrow
        # The reference is det(b_1 I + B) as the perturbed polynomial gives
        # it, (-1)**n * p(-b_1), and the formula is the true determinant.
        formula = message[message.index("formula ") + 8 : message.index(", reference")]
        reference = message[message.index("reference ") + 10 : message.index("; arrow")]
        assert Fraction(reference) == (-1) ** 5 * evaluate(perturbed, -3)
        assert Fraction(formula) == self.shift_det(arrow, 1)

    def test_out_of_range_j(self):
        arrow = ArrowMatrix([1, 1, 1, 1], [1, 2])
        with pytest.raises(ValueError):
            self.shift_det(arrow, 3)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_sign_table_on_sampled_members(self, i):
        pattern = family_pattern(i, 6)
        from refined_inertia.analysis import _sorted_descending

        checked = 0
        for seed in range(30):
            sample = sample_realization(pattern, RealizationConfig(seed=seed))
            arrow = to_arrow_form(sample)
            if len(set(arrow.b)) != len(arrow.b):
                continue
            arrow = ArrowMatrix(*_sorted_descending(arrow.a, arrow.b))
            n = arrow.n
            top = n - 2 if i in (1, 2) else n - 3
            for j in range(1, top + 1):
                value = self.shift_det(arrow, j)
                expected = (-1) ** (j + 1) if i == 1 else (-1) ** j
                assert (value > 0) - (value < 0) == expected
            checked += 1
        assert checked >= 25


def test_exact_engine_certifies_excluded_eigenvalues():
    # char poly never vanishes at -b_j for sampled distinct-b members
    pattern = family_pattern(2, 6)
    for seed in range(25):
        sample = sample_realization(pattern, RealizationConfig(seed=seed))
        arrow = to_arrow_form(sample)
        if len(set(arrow.b)) != len(arrow.b):
            continue
        p = arrow_char_poly(arrow)
        for bj in arrow.b:
            assert evaluate(p, -bj) != 0
