"""Exact polynomial arithmetic and root-counting tests.

Root-count fixtures are built from known roots, so every expected count is
independent of the Sturm machinery being tested.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refined_inertia.ratpoly import (
    RationalPoly,
    cauchy_index_line,
    count_real_roots,
    imaginary_axis_parts,
    poly_gcd,
    squarefree_decomposition,
    strip_zero_roots,
)

x = RationalPoly.variable()


def poly(*coeffs):
    return RationalPoly(coeffs)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=6)
small_polys = st.lists(rationals, min_size=0, max_size=7).map(RationalPoly)


def test_construction_normalizes_trailing_zeros():
    assert poly(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert poly().is_zero
    assert poly(0, 0).is_zero
    assert poly(3).degree == 0
    assert poly(0, 1).degree == 1


def test_float_coefficients_rejected():
    with pytest.raises(TypeError):
        RationalPoly((0.5, 1))


def test_product_of_linear_factors():
    assert RationalPoly.from_roots([1, -1]) == poly(-1, 0, 1)
    assert RationalPoly.from_roots([2, 3]) == poly(6, -5, 1)


@settings(max_examples=40, deadline=None)
@given(small_polys, rationals, rationals)
def test_taylor_shift_matches_pointwise(f, c, t):
    assert f.taylor_shift(c).evaluate(t) == f.evaluate(t + c)


def test_evaluate():
    p = poly(1, -3, 0, 2)  # 2x^3 - 3x + 1
    assert p.evaluate(Fraction(1, 2)) == Fraction(-1, 4)


def test_gcd_of_constructed_common_factor():
    common = RationalPoly.from_roots([Fraction(1, 2), -3])
    f = common * RationalPoly.from_roots([5])
    g = common * RationalPoly.from_roots([7, 7])
    assert poly_gcd(f, g) == common


def test_gcd_zero_conventions():
    p = poly(2, 4)
    assert poly_gcd(p, RationalPoly()) == p.monic()
    assert poly_gcd(RationalPoly(), RationalPoly()).is_zero


def test_squarefree_decomposition_recovers_multiplicities():
    p = (x - poly(1)) ** 3 * (x + poly(2)) ** 2 * (x - poly(5))
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[3] == RationalPoly.from_roots([1])
    assert by_mult[2] == RationalPoly.from_roots([-2])
    assert by_mult[1] == RationalPoly.from_roots([5])
    rebuilt = RationalPoly.one()
    for f, m in parts:
        rebuilt = rebuilt * f**m
    assert rebuilt == p.monic()


def test_strip_zero_roots():
    p = poly(0, 0, 3, 1)
    k, rest = strip_zero_roots(p)
    assert k == 2
    assert rest == poly(3, 1)


def test_imaginary_axis_parts():
    # p(x) = x^4 + x^3 + x^2 + x + 1 at x = i*w
    p = poly(1, 1, 1, 1, 1)
    re, im = imaginary_axis_parts(p)
    assert re == poly(1, 0, -1, 0, 1)
    assert im == poly(0, 1, 0, -1)


class TestSturmCounting:
    def test_distinct_rational_roots(self):
        p = RationalPoly.from_roots([-5, -1, Fraction(1, 3), 2])
        assert count_real_roots(p) == 4

    def test_no_real_roots(self):
        assert count_real_roots(poly(1, 0, 1)) == 0
        assert count_real_roots(poly(7)) == 0

    def test_irrational_roots(self):
        # x^2 - 2: one root on each side of zero
        assert count_real_roots(poly(-2, 0, 1)) == 2

    def test_repeated_roots_counted_with_multiplicity(self):
        p = RationalPoly.from_roots([2, 2, 2, -1])
        assert count_real_roots(p) == 4

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(RationalPoly())


def negative_root_count(g):
    """Negative roots of g with multiplicity, as half the real roots of g(-w^2).

    Each negative root -c of g gives the two real roots +-sqrt(c) of g(-w^2),
    with its multiplicity, and nothing else is real once the root 0 is gone.
    This is how the engine reads the imaginary pairs off gcd(Re, Im).
    """
    _, g = strip_zero_roots(g)
    composed = [0] * (2 * len(g.num) - 1)
    composed[0::2] = [-c if k % 2 else c for k, c in enumerate(g.num)]
    real = count_real_roots(RationalPoly.from_ints(composed, g.den))
    assert real % 2 == 0
    return real // 2


class TestNegativeRootCount:
    @pytest.mark.parametrize(
        "factors, expected",
        [
            # ((roots with multiplicity), extra factor), expected negative count
            (([-2, -2, -2, 1], poly(1, 0, 1)), 3),
            (([-1, -1, 0, 5], RationalPoly.one()), 2),
            (([Fraction(-1, 7), -3], RationalPoly.one()), 2),
            (([4, 9], RationalPoly.one()), 0),
        ],
    )
    def test_constructed_fixtures(self, factors, expected):
        roots, extra = factors
        p = RationalPoly.from_roots(roots) * extra
        assert negative_root_count(p) == expected
        assert count_real_roots(p) == len(roots)

    def test_irrational_negative_roots(self):
        # (t^2 - 2) has one negative root; (t + 1)^2 contributes two more
        p = poly(-2, 0, 1) * RationalPoly.from_roots([-1, -1])
        assert negative_root_count(p) == 3
        assert count_real_roots(p) == 4

    def test_degree_bound_fixture(self):
        # degree 8 with mixed multiplicities
        p = RationalPoly.from_roots([-1, -1, -1, -4, 2, 2]) * poly(3, 0, 1)
        assert negative_root_count(p) == 4
        assert count_real_roots(p) == 6


class TestCauchyIndex:
    def test_simple_pole(self):
        # 1/w jumps -inf -> +inf at 0
        assert cauchy_index_line(poly(0, 1), poly(1)) == (1, RationalPoly.one())
        assert cauchy_index_line(poly(0, 1), poly(-1)) == (-1, RationalPoly.one())

    def test_no_real_poles(self):
        assert cauchy_index_line(poly(1, 0, 1), poly(0, 1)) == (0, RationalPoly.one())

    def test_zero_numerator(self):
        # gcd(f0, 0) is f0 made monic
        assert cauchy_index_line(poly(1, 2, 3), RationalPoly()) == (0, poly(1, 2, 3).monic())

    def test_gcd_laden_chain(self):
        # (w^2 - 1) cancels; reduced fraction is -1/w
        f0 = poly(0, 1, 0, -1)  # w - w^3 = -w(w^2 - 1)
        f1 = poly(-1, 0, 1)  # w^2 - 1
        assert cauchy_index_line(f0, f1) == (-1, poly(-1, 0, 1))
