"""Engine tests: characteristic polynomials, exact and numeric refined inertias.

The char-poly oracle here is a cofactor expansion over polynomial entries,
computed independently of the Berkowitz route under test; numeric
expectations come from numpy eigenvalues on fixtures whose spectra are far
from the axes.
"""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from refined_inertia import engine
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


def test_char_poly_constant_term_is_det_of_negated_matrix():
    arrow = ArrowMatrix([1, 1, 1, 1], [1, 2])
    M = arrow.to_matrix()
    p = char_poly(M)
    assert p.constant == det_rational([[-x for x in row] for row in M])
    assert p.constant == det_rational(M)  # even order


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
    @given(
        st.lists(
            st.one_of(
                nonzero_rationals.map(lambda r: ("real", r)),
                st.integers(min_value=1, max_value=3).map(lambda k: ("zero", k)),
                st.tuples(positive_rationals, st.integers(min_value=1, max_value=3)).map(
                    lambda cm: ("axis", cm)
                ),
                st.tuples(nonzero_rationals, positive_rationals).map(lambda ab: ("complex", ab)),
                st.tuples(positive_rationals, st.integers(min_value=1, max_value=2)).map(
                    lambda cm: ("plus_minus", cm)
                ),
                st.tuples(
                    positive_rationals, positive_rationals, st.integers(min_value=1, max_value=2)
                ).map(lambda abm: ("opposite_quadruple", abm)),
            ),
            min_size=1,
            max_size=5,
        ),
        nonzero_rationals,
    )
    @example(factors=[("axis", (1, 3)), ("axis", (4, 2)), ("plus_minus", (2, 2))], lead=1)
    def test_known_root_multisets(self, factors, lead):
        # Each factor's roots are known by construction, so the expected
        # counts do not depend on the engine under test.  Repeated axis,
        # plus_minus and opposite_quadruple factors leave roots in every
        # level of the tail's gcd chain, not all of them on the axis.
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
        assert refined_inertia_exact(p).as_tuple() == tuple(counts)

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
